"""Line-oriented scenario files: parsing, validation, canonical dump.

Grammar: a line holds one item, `key = value` or a block.  A block opens
with `name {` and closes with a `}` on a line of its own, or sits whole
on its line as `name { item, item, ... }`, the one place where commas
separate items.  `#` outside quotes starts a comment.  Angles are
radians; a `deg` suffix on a number converts from degrees.

_parse_tree reads each line in one pass over its tokens (a quoted
string, `#`, a brace, a comma, or text) into a tree of blocks; the
builders then check each block's keys and values and build the Scenario.
"""

from __future__ import annotations

import math
import re
import warnings

from .defects import _KIND_FIELDS, Defect
from .errors import ConfigError, Record, ValidationError, _check_param, _is_number
from .loading import DEFAULT_TIP_CLEARANCE, Bimaterial, Loading, PointForce, check_balance, three_point_preset

_ENTRY = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_DEG_VALUE = re.compile(r"^([-+0-9.eE]+)\s*deg$")
_GRID_VALUE = re.compile(r"^\d+x\d+$")
_NAME_VALUE = re.compile(r"^[A-Za-z_+\-][A-Za-z0-9_+\-./]*$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r'"[^"]*"?|[#{},]|[^"#{},]+')  # a quoted string or unclosed quote, a mark, or text


class ScenarioParams(Record):
    """Command parameters carried by the optional params block."""

    grid: tuple[int, int] = (128, 64)
    delta: float = 1e-6
    max_iter: int = 10_000
    arrest_tol: float | None = None
    out: str | None = None
    pgm: bool = False
    pair: str = "a"
    threads: int = 1  # ignored; kept so older scenario files parse

    def __post_init__(self):
        for key in self._fields:
            _check_param(key, getattr(self, key))


class Scenario(Record):
    bimaterial: Bimaterial
    loading: Loading
    defects: tuple[Defect, ...] = ()
    params: ScenarioParams = ScenarioParams()


# the Defect field each defect parameter key sets; _KIND_FIELDS says which a kind takes
_KEY_FIELDS = {"lb": "l_b", "mu_star": "mu_star", "kappa": "kappa"}
# Each block's (required keys, optional keys, child blocks).  Every key
# but kind, face and the params keys takes a number.
_KEYS = {
    "bimaterial": (("mu_plus", "mu_minus"), (), ()),
    "loading": ((), (), ("force", "three_point")),
    "force": (("face", "x1", "p"), (), ()),
    "three_point": (("P", "a"), ("b",), ()),
    "defect": (("kind", "la"), (*_KEY_FIELDS, "alpha", "d", "phi", "x", "y"), ()),
    "params": ((), ScenarioParams._fields, ()),
}
_NAME_KEYS = ("kind", "face", *ScenarioParams._fields)


class _Block:
    """A parsed block: name, line, (key, value, line) entries, child blocks."""

    def __init__(self, name: str, line: int):
        self.name, self.line, self.entries, self.children = name, line, [], []


def _parse_value(raw: str, line: int | None):
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return raw[1:-1]
    if raw.lower() in ("true", "false"):
        return raw.lower() == "true"
    m = _DEG_VALUE.match(raw)
    if m:
        try:
            return math.radians(float(m.group(1)))
        except ValueError:
            raise ConfigError(f"bad degree value {raw!r}", line) from None
    if _GRID_VALUE.match(raw) or _NAME_VALUE.match(raw):
        return raw
    raise ConfigError(f"cannot parse value {raw!r}", line)


def _add_entry(stack: list, item: str, line: int) -> None:
    """Add item, `key = value` or blank, to the innermost open block."""
    if item := item.strip():
        m = _ENTRY.match(item)
        if m is None:
            raise ConfigError(f"expected key = value or a block, got {item!r}", line)
        if len(stack) == 1:
            raise ConfigError("key outside any block", line)
        stack[-1].entries.append((m[1], _parse_value(m[2], line), line))


def _parse_tree(text: str) -> _Block:
    """The block tree of text, each line read in one pass over its tokens.
    A block opened on a line closes on it, unless `name {` is the whole
    line.  item gathers an entry up to a comma or brace of its block
    (depth counts the braces open in its value), or the whole line where
    no block is open; it is None after a block closed on the line."""
    stack = [_Block("<root>", 0)]
    for lineno, line in enumerate(text.splitlines(), start=1):
        top, item, depth, last = len(stack), "", 0, None
        for tok in _TOKEN.findall(line):
            if tok == "#":
                break
            if item is None:
                if tok.isspace():
                    continue
                if len(stack) == top or tok not in (",", "}"):
                    raise ConfigError(f"unexpected {tok.strip()!r} after a block", lineno)
                item = ""
            if not tok.isspace():
                last = tok
            if tok == "{" and not depth and _NAME.fullmatch(item.strip()):
                last = _Block(item.strip(), lineno)
                stack[-1].children.append(last)
                stack.append(last)
                item = ""
            elif len(stack) == top or tok not in ("{", "}", ","):
                if len(stack) > top and tok.count('"') == 1:
                    raise ConfigError("unclosed quote", lineno)
                item += tok
            elif tok == "{" or depth:  # a brace, or a comma inside braces, of a value
                depth += 1 if tok == "{" else -1 if tok == "}" else 0
                item += tok
            else:
                _add_entry(stack, item, lineno)
                item = ""
                if tok == "}":
                    stack.pop()
                    item = None
        if len(stack) > top + (last is stack[-1]):
            raise ConfigError("inline block must close on the line that opens it", lineno)
        if len(stack) == top and item and item.strip() == "}":
            if len(stack) == 1:
                raise ConfigError("unmatched closing brace", lineno)
            stack.pop()
        elif len(stack) == top and item:
            _add_entry(stack, item, lineno)
    if len(stack) != 1:
        raise ConfigError(f"block {stack[-1].name!r} never closed", stack[-1].line)
    return stack[0]


def _require(block: _Block, values: dict, keys) -> None:
    for key in keys:
        if key not in values:
            raise ConfigError(f"block {block.name!r} is missing key {key!r}", block.line)


def _read(block: _Block) -> dict:
    """block's entries as {key: value}, checked against its keys and child
    blocks in _KEYS and a defect's kind in _KIND_FIELDS: none unknown or
    given twice, a number where the key takes one, and every required key
    given."""
    required, optional, children = _KEYS[block.name]
    values = {}
    for key, value, line in block.entries:
        if key not in required and key not in optional:
            raise ConfigError(f"unknown key {key!r} in block {block.name!r}", line)
        if key in values:
            raise ConfigError(f"duplicate key {key!r} in block {block.name!r}", line)
        values[key] = value
    # every field for a block with no known kind: an unknown kind fails in Defect
    takes = _KIND_FIELDS.get(values.get("kind"), _KEY_FIELDS.values())
    for key, value, line in block.entries:
        if key in _KEY_FIELDS and _KEY_FIELDS[key] not in takes:
            raise ConfigError(f"defect kind {values['kind']!r} takes no key {key!r}", line)
        if key not in _NAME_KEYS and not _is_number(value):
            raise ConfigError(f"key {key!r} expects a number, got {value!r}", line)
    _require(block, values, required)
    for child in block.children:
        if child.name not in children:
            raise ConfigError(f"unknown block {child.name!r} inside {block.name!r}", child.line)
    return values


def _at_line(line: int, build, *args, **kwargs):
    """build(*args, **kwargs), the one relay from a constructor to its block's line N: a ValidationError it raises
    keeps its class and gains `line N:`, and each warning it issues is issued again so prefixed at ("scenario", N)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            built = build(*args, **kwargs)
        except ValidationError as exc:
            exc.args = (f"line {line}: {exc}",)
            raise
    for w in caught:
        warnings.warn_explicit(f"line {line}: {w.message}", w.category, "scenario", line)
    return built


def _apply_params(params: ScenarioParams, items) -> ScenarioParams:
    """params with each (key, value, where) item set, checked in turn.
    where is a params entry's line, its value parsed already, or a flag,
    its value the text given (--out's taken verbatim as a path) or None
    when the flag is not given.  An error names its where."""
    for key, value, where in items:
        if value is None:
            continue
        try:
            if isinstance(where, str) and key != "out":
                value = _parse_value(value, None)
            if key == "grid" and isinstance(value, str) and _GRID_VALUE.match(value):
                value = tuple(int(n) for n in value.split("x"))
            elif key in ("max_iter", "threads") and isinstance(value, float) and value.is_integer():
                value = int(value)
            params = params.replace(**{key: value})
        except ValidationError as exc:
            if isinstance(where, int):
                raise ConfigError(str(exc), where) from None
            exc.args = (f"{where}: {exc}",)
            raise
    return params


def _build_loading(block: _Block) -> Loading:
    _read(block)
    forces: list[PointForce] = []
    for child in block.children:
        e = _read(child)
        if child.name == "three_point":
            forces.extend(_at_line(child.line, three_point_preset, e["P"], e["a"], e.get("b", 0.0)).forces)
        else:
            forces.append(_at_line(child.line, PointForce, e["x1"], e["face"], e["p"]))
    return Loading(tuple(forces))


def _build_defect(block: _Block) -> Defect:
    e = _read(block)
    kind = e["kind"]
    polar = "d" in e or "phi" in e
    cart = "x" in e or "y" in e
    if polar and cart:
        raise ConfigError("defect position must be (d, phi) or (x, y), not both", block.line)
    if not (polar or cart):
        raise ConfigError("defect needs a position: (d, phi) or (x, y)", block.line)
    _require(block, e, ("d", "phi") if polar else ("x", "y"))
    alpha = e.get("alpha", 0.0)
    extras = {field: e[key] for key, field in _KEY_FIELDS.items() if key in e}
    if polar:
        return _at_line(block.line, Defect, kind, e["d"], e["phi"], alpha, e["la"], **extras)
    return _at_line(block.line, Defect.from_cartesian, kind, e["x"], e["y"], alpha=alpha, l_a=e["la"], **extras)


def _build_bimaterial(block: _Block) -> Bimaterial:
    return _at_line(block.line, Bimaterial, **_read(block))


def _build_params(block: _Block) -> ScenarioParams:
    _read(block)
    return _apply_params(ScenarioParams(), block.entries)


_TOP_BLOCKS = {"bimaterial": _build_bimaterial, "loading": _build_loading, "params": _build_params}


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario file."""
    built: dict = {}
    defects: list[Defect] = []
    for block in _parse_tree(text).children:
        if block.name == "defect":
            defects.append(_build_defect(block))
        elif block.name not in _TOP_BLOCKS:
            raise ConfigError(f"unknown block {block.name!r}", block.line)
        elif block.name in built:
            raise ConfigError(f"duplicate {block.name} block", block.line)
        else:
            built[block.name] = _TOP_BLOCKS[block.name](block)
    for name in ("bimaterial", "loading"):
        if name not in built:
            raise ConfigError(f"missing {name} block")

    clearance = DEFAULT_TIP_CLEARANCE * max(1.0, min((df.d for df in defects), default=1.0))
    check_balance(built["loading"], tip_clearance=clearance)
    return Scenario(built["bimaterial"], built["loading"], tuple(defects), built.get("params", ScenarioParams()))


def dump_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse_scenario(dump_scenario(s)) == s."""
    if scenario.loading.distributed is not None:
        raise ValidationError("tabulated distributed loads have no config form")
    bm, p = scenario.bimaterial, scenario.params
    lines = [f"bimaterial {{ mu_plus = {bm.mu_plus!r}, mu_minus = {bm.mu_minus!r} }}", "loading {"]
    lines += [f'  force {{ face = "{f.face}", x1 = {f.x1!r}, p = {f.magnitude!r} }}' for f in scenario.loading.forces]
    lines.append("}")
    for df in scenario.defects:
        parts = [f"kind = {df.kind}", f"d = {df.d!r}", f"phi = {df.phi!r}", f"alpha = {df.alpha!r}", f"la = {df.l_a!r}"]
        parts += [f"{key} = {getattr(df, field)!r}" for key, field in _KEY_FIELDS.items()
                  if field in _KIND_FIELDS[df.kind]]
        lines.append("defect { " + ", ".join(parts) + " }")
    parts = [f"grid = {p.grid[0]}x{p.grid[1]}", f"delta = {p.delta!r}", f"max_iter = {p.max_iter}"]
    if p.arrest_tol is not None:
        parts.append(f"arrest_tol = {p.arrest_tol!r}")
    if p.out is not None:
        if '"' in p.out or not p.out.isprintable():
            raise ValidationError(
                f"out path {p.out!r} has no config form: it holds a quote or an unprintable character"
            )
        parts.append(f'out = "{p.out}"')
    parts += [f"pgm = {'true' if p.pgm else 'false'}", f"pair = {p.pair}", f"threads = {p.threads}"]
    lines.append("params { " + ", ".join(parts) + " }")
    return "\n".join(lines) + "\n"
