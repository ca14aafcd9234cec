"""Line-oriented scenario files: parsing, validation, canonical dump.

Grammar: blocks open with `name {` and close with `}`; an opening line
may instead carry the whole block inline as comma-separated pairs,
`name { key = value, ... }`.  One `key = value` per line otherwise,
`#` starts a comment.  Angles are radians; a `deg` suffix on a number
converts from degrees.
"""

from __future__ import annotations

import math
import re
import warnings

from .defects import AREA_KINDS, Defect
from .errors import ConfigSyntaxError, MissingBlock, Record, UnknownKey, ValidationError
from .loading import Bimaterial, Loading, PointForce, check_balance, three_point_preset

_BLOCK_OPEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\{\s*(.*)$")
_ENTRY = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_DEG_VALUE = re.compile(r"^([-+0-9.eE]+)\s*deg$")
_GRID_VALUE = re.compile(r"^\d+x\d+$")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _param_value(key: str, value):
    """A parsed params entry or flag in the types ScenarioParams takes:
    grid's NxM becomes a pair of ints, an integral count an int."""
    if key == "grid" and isinstance(value, str) and _GRID_VALUE.match(value):
        return tuple(int(n) for n in value.split("x"))
    if key in ("max_iter", "threads") and isinstance(value, float) and value.is_integer():
        return int(value)
    return value


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
        """The one range and type check of every params entry and flag."""
        grid = self.grid
        if not (type(grid) is tuple and len(grid) == 2 and all(type(n) is int for n in grid)):
            raise ValidationError(f"grid expects NxM, got {grid!r}")
        if min(grid) < 2:
            raise ValidationError(f"grid must be at least 2x2, got {grid[0]}x{grid[1]}")
        for key in ("delta", "arrest_tol"):
            value = getattr(self, key)
            if value is None and key == "arrest_tol":
                continue
            if not (_is_number(value) and 0.0 < value < math.inf):
                raise ValidationError(f"{key} must be positive and finite, got {value!r}")
        for key in ("max_iter", "threads"):
            value = getattr(self, key)
            if not (type(value) is int and value >= 1):
                raise ValidationError(f"{key} expects a positive integer, got {value!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ValidationError(f"out expects a path, got {self.out!r}")
        if type(self.pgm) is not bool:
            raise ValidationError(f"pgm expects true/false, got {self.pgm!r}")
        if self.pair not in ("a", "b"):
            raise ValidationError(f'pair expects "a" or "b", got {self.pair!r}')


class Scenario(Record):
    bimaterial: Bimaterial
    loading: Loading
    defects: tuple[Defect, ...] = ()
    params: ScenarioParams = ScenarioParams()


class _Block:
    """A parsed block: name, line, (key, value, line) entries, child blocks."""

    def __init__(self, name: str, line: int):
        self.name, self.line, self.entries, self.children = name, line, [], []


def _strip_comment(line: str) -> str:
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        elif ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out).strip()


def _parse_value(raw: str, line: int | None):
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == '"' and raw[-1] == '"':
        return raw[1:-1]
    low = raw.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    m = _DEG_VALUE.match(raw)
    if m:
        try:
            return math.radians(float(m.group(1)))
        except ValueError:
            raise ConfigSyntaxError(f"bad degree value {raw!r}", line) from None
    try:
        return float(raw)
    except ValueError:
        pass
    if _GRID_VALUE.match(raw) or re.match(r"^[A-Za-z_+\-][A-Za-z0-9_+\-./]*$", raw):
        return raw
    raise ConfigSyntaxError(f"cannot parse value {raw!r}", line)


_INLINE_BLOCK = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\{(.*)\}$")


def _split_top_level(content: str, line: int) -> list[str]:
    """Split on commas outside quotes and braces."""
    parts = []
    cur = []
    depth = 0
    quoted = False
    for ch in content:
        if ch == '"':
            quoted = not quoted
        elif not quoted:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth < 0:
                    raise ConfigSyntaxError("unmatched closing brace", line)
        if ch == "," and not quoted and depth == 0:
            parts.append("".join(cur))
            cur = []
            continue
        cur.append(ch)
    if depth != 0 or quoted:
        raise ConfigSyntaxError("unbalanced braces or quotes", line)
    parts.append("".join(cur))
    return parts


def _parse_inline(block: _Block, content: str, line: int) -> None:
    for part in _split_top_level(content, line):
        part = part.strip()
        if not part:
            continue
        m = _INLINE_BLOCK.match(part)
        if m:
            child = _Block(m.group(1), line)
            block.children.append(child)
            _parse_inline(child, m.group(2), line)
            continue
        m = _ENTRY.match(part)
        if not m:
            raise ConfigSyntaxError(f"expected key = value, got {part!r}", line)
        block.entries.append((m.group(1), _parse_value(m.group(2), line), line))


def _parse_tree(text: str) -> _Block:
    root = _Block("<root>", 0)
    stack = [root]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if line == "}":
            if len(stack) == 1:
                raise ConfigSyntaxError("unmatched closing brace", lineno)
            stack.pop()
            continue
        m = _BLOCK_OPEN.match(line)
        if m:
            block = _Block(m.group(1), lineno)
            stack[-1].children.append(block)
            rest = m.group(2).strip()
            if not rest:
                stack.append(block)
            elif rest.endswith("}"):
                _parse_inline(block, rest[:-1], lineno)
            else:
                raise ConfigSyntaxError(
                    "inline block must close on the same line", lineno
                )
            continue
        m = _ENTRY.match(line)
        if m:
            if len(stack) == 1:
                raise ConfigSyntaxError("key outside any block", lineno)
            stack[-1].entries.append((m.group(1), _parse_value(m.group(2), lineno), lineno))
            continue
        raise ConfigSyntaxError(f"cannot parse line {line!r}", lineno)
    if len(stack) != 1:
        raise ConfigSyntaxError(f"block {stack[-1].name!r} never closed", stack[-1].line)
    return root


def _entries_dict(block: _Block, allowed: set[str]) -> dict:
    out = {}
    for key, value, line in block.entries:
        if key not in allowed:
            raise UnknownKey(f"unknown key {key!r} in block {block.name!r}", line)
        if key in out:
            raise ConfigSyntaxError(f"duplicate key {key!r} in block {block.name!r}", line)
        out[key] = (value, line)
    return out


def _need(entries: dict, key: str, block: _Block):
    if key not in entries:
        raise MissingBlock(f"block {block.name!r} is missing key {key!r}", block.line)
    return entries[key][0]


def _as_number(value, key: str, line: int) -> float:
    if not _is_number(value):
        raise ConfigSyntaxError(f"key {key!r} expects a number, got {value!r}", line)
    return float(value)


def _at_line(line: int, build, *args, **kwargs):
    """build(*args, **kwargs); a ValidationError it raises keeps its class
    and gains the scenario line."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        exc.args = (f"line {line}: {exc}",)
        raise


def _build_loading(block: _Block) -> Loading:
    if block.entries:
        key, _, line = block.entries[0]
        raise UnknownKey(f"unknown key {key!r} in block 'loading'", line)
    forces: list[PointForce] = []
    for child in block.children:
        if child.name == "force":
            e = _entries_dict(child, {"face", "x1", "p"})
            face = _need(e, "face", child)
            if face not in ("+", "-"):
                raise ConfigSyntaxError(f'force face must be "+" or "-", got {face!r}', child.line)
            x1 = _as_number(_need(e, "x1", child), "x1", child.line)
            p = _as_number(_need(e, "p", child), "p", child.line)
            forces.append(_at_line(child.line, PointForce, x1, face, p))
        elif child.name == "three_point":
            e = _entries_dict(child, {"P", "a", "b"})
            P = _as_number(_need(e, "P", child), "P", child.line)
            a = _as_number(_need(e, "a", child), "a", child.line)
            b = _as_number(e["b"][0], "b", child.line) if "b" in e else 0.0
            forces.extend(_at_line(child.line, three_point_preset, P, a, b).forces)
        else:
            raise UnknownKey(f"unknown block {child.name!r} inside 'loading'", child.line)
    return Loading(tuple(forces))


def _build_defect(block: _Block) -> Defect:
    if block.children:
        raise UnknownKey(
            f"unknown block {block.children[0].name!r} inside 'defect'",
            block.children[0].line,
        )
    e = _entries_dict(block, {"kind", "d", "phi", "x", "y", "alpha", "la", "lb", "mu_star", "kappa"})
    kind = _need(e, "kind", block)
    if not isinstance(kind, str):
        raise ConfigSyntaxError(f"defect kind must be a name, got {kind!r}", block.line)
    la = _as_number(_need(e, "la", block), "la", block.line)
    kwargs = {}
    for key, name in (("lb", "l_b"), ("mu_star", "mu_star"), ("kappa", "kappa")):
        if key in e:
            kwargs[name] = _as_number(e[key][0], key, e[key][1])
    alpha = _as_number(e["alpha"][0], "alpha", e["alpha"][1]) if "alpha" in e else 0.0
    polar = "d" in e or "phi" in e
    cart = "x" in e or "y" in e
    if polar and cart:
        raise ConfigSyntaxError("defect position must be (d, phi) or (x, y), not both", block.line)
    if not (polar or cart):
        raise MissingBlock("defect needs a position: (d, phi) or (x, y)", block.line)
    # raise the constructor's warnings again at the defect's line of the scenario
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if polar:
            d = _as_number(_need(e, "d", block), "d", block.line)
            phi = _as_number(_need(e, "phi", block), "phi", block.line)
            defect = _at_line(block.line, Defect, kind, d=d, phi=phi, alpha=alpha, l_a=la, **kwargs)
        else:
            x = _as_number(_need(e, "x", block), "x", block.line)
            y = _as_number(_need(e, "y", block), "y", block.line)
            defect = _at_line(block.line, Defect.from_cartesian, kind, x, y, alpha=alpha, l_a=la, **kwargs)
    for w in caught:
        warnings.warn_explicit(f"line {block.line}: {w.message}", w.category, "scenario", block.line)
    return defect


def _build_params(block: _Block) -> ScenarioParams:
    entries = _entries_dict(block, set(ScenarioParams._fields))
    values = {key: _param_value(key, value) for key, (value, _) in entries.items()}
    try:
        return ScenarioParams(**values)
    except ValidationError:
        for key, (_, line) in entries.items():  # the entry at fault, for its line
            try:
                ScenarioParams(**{key: values[key]})
            except ValidationError as exc:
                raise ConfigSyntaxError(str(exc), line) from None
        raise


def parse_scenario(text: str) -> Scenario:
    """Parse and fully validate a scenario file."""
    root = _parse_tree(text)
    bimaterial = None
    loading = None
    defects: list[Defect] = []
    params = None
    for block in root.children:
        if block.name == "bimaterial":
            if bimaterial is not None:
                raise MissingBlock("duplicate bimaterial block", block.line)
            e = _entries_dict(block, {"mu_plus", "mu_minus"})
            moduli = (_as_number(_need(e, key, block), key, block.line) for key in ("mu_plus", "mu_minus"))
            bimaterial = _at_line(block.line, Bimaterial, *moduli)
        elif block.name == "loading":
            if loading is not None:
                raise MissingBlock("duplicate loading block", block.line)
            loading = _build_loading(block)
        elif block.name == "defect":
            defects.append(_build_defect(block))
        elif block.name == "params":
            if params is not None:
                raise MissingBlock("duplicate params block", block.line)
            params = _build_params(block)
        else:
            raise UnknownKey(f"unknown block {block.name!r}", block.line)
    if bimaterial is None:
        raise MissingBlock("missing bimaterial block")
    if loading is None:
        raise MissingBlock("missing loading block")

    clearance = 1e-6 * max(1.0, min((df.d for df in defects), default=1.0))
    check_balance(loading, tip_clearance=clearance)
    return Scenario(bimaterial, loading, tuple(defects), params or ScenarioParams())


def dump_scenario(scenario: Scenario) -> str:
    """Canonical text form; parse_scenario(dump_scenario(s)) == s."""
    if scenario.loading.distributed is not None:
        raise ValidationError("tabulated distributed loads have no config form")
    lines = [
        "bimaterial { "
        f"mu_plus = {scenario.bimaterial.mu_plus!r}, mu_minus = {scenario.bimaterial.mu_minus!r}"
        " }",
        "loading {",
    ]
    for f in scenario.loading.forces:
        lines.append(f'  force {{ face = "{f.face}", x1 = {f.x1!r}, p = {f.magnitude!r} }}')
    lines.append("}")
    for df in scenario.defects:
        parts = [f"kind = {df.kind}", f"d = {df.d!r}", f"phi = {df.phi!r}",
                 f"alpha = {df.alpha!r}", f"la = {df.l_a!r}"]
        if df.kind in AREA_KINDS:
            parts.append(f"lb = {df.l_b!r}")
        if df.kind == "elastic_ellipse":
            parts.append(f"mu_star = {df.mu_star!r}")
        if df.kind in ("soft_line", "stiff_line"):
            parts.append(f"kappa = {df.kappa!r}")
        lines.append("defect { " + ", ".join(parts) + " }")
    p = scenario.params
    parts = [
        f"grid = {p.grid[0]}x{p.grid[1]}",
        f"delta = {p.delta!r}",
        f"max_iter = {p.max_iter}",
    ]
    if p.arrest_tol is not None:
        parts.append(f"arrest_tol = {p.arrest_tol!r}")
    if p.out is not None:
        if '"' in p.out or not p.out.isprintable():
            raise ValidationError(
                f"out path {p.out!r} has no config form: it holds a quote or an unprintable character"
            )
        parts.append(f'out = "{p.out}"')
    parts.append(f"pgm = {'true' if p.pgm else 'false'}")
    parts.append(f"pair = {p.pair}")
    parts.append(f"threads = {p.threads}")
    lines.append("params { " + ", ".join(parts) + " }")
    return "\n".join(lines) + "\n"
