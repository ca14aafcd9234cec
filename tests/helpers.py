"""Shared test utilities: canonical loads, mollified tables, random draws,
the one-line compositions of the library that only the tests use, the
child interpreter that refuses numpy, and the reference scenario reader."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from unittest import mock

import numpy as np

from crackwake import Bimaterial, Defect, DistributedLoad, Loading, PointForce, ValidationError, config, delta_k_defect
from crackwake.config import _Block, _parse_value
from crackwake.defects import _entries
from crackwake.errors import ConfigError
from crackwake.mapgen import _classify
from crackwake.propagation import _check_path, _on_path
from crackwake.tipfields import SQRT_2_OVER_PI

# mu ratio 167/33 makes the contrast parameter exactly 0.67
MU_CONTRAST_67 = 167.0 / 33.0

BIMATERIALS = {
    0.0: Bimaterial(1.0, 1.0),
    0.67: Bimaterial(1.0, MU_CONTRAST_67),
    -0.67: Bimaterial(MU_CONTRAST_67, 1.0),
}


def sym_pair_at(a, p=-1.0):
    """Symmetric pair p+ = p- = p at x1 = -a."""
    return Loading((PointForce(-a, "+", p), PointForce(-a, "-", p)))


def hat_profile(center, half_width, coeff, n=9):
    xs = np.linspace(center - half_width, center + half_width, n)
    vals = coeff / half_width * (1.0 - np.abs(xs - center) / half_width)
    return xs, vals


def hat_load(center, half_width, avg_coeff, jump_coeff, n=9):
    xs, avg = hat_profile(center, half_width, avg_coeff, n)
    _, jump = hat_profile(center, half_width, jump_coeff, n)
    return DistributedLoad(tuple(xs), tuple(avg), tuple(jump))


def rel_err(a, b):
    denom = max(abs(a), abs(b))
    return abs(a - b) / denom if denom else 0.0


def random_balanced_loading(rng, with_distributed):
    """Random self-balanced loading: point stations plus an optional bump."""
    n_stations = int(rng.integers(1, 4))
    xs = -rng.uniform(0.8, 8.0, size=n_stations + 1)
    avg = rng.uniform(-1.0, 1.0, size=n_stations + 1)
    jump = rng.uniform(-1.0, 1.0, size=n_stations + 1)
    dist = None
    dist_jump = 0.0
    if with_distributed:
        center = -rng.uniform(1.5, 6.0)
        half = rng.uniform(0.1, 0.5)
        dist_jump = rng.uniform(-0.5, 0.5)
        dist = hat_load(center, half, avg_coeff=rng.uniform(-1.0, 1.0), jump_coeff=dist_jump)
    jump[-1] = -(jump[:-1].sum() + dist_jump)  # self-balance
    forces = []
    for x, a, j in zip(xs, avg, jump):
        forces.append(PointForce(float(x), "+", float(a + 0.5 * j)))
        forces.append(PointForce(float(x), "-", float(a - 0.5 * j)))
    return Loading(tuple(forces), dist)


def random_defect(rng, kind):
    """Random well-separated defect of the given kind (l/d <= 0.25)."""
    d = rng.uniform(0.5, 2.5)
    phi = rng.uniform(0.05, 0.93) * math.pi * rng.choice([-1.0, 1.0])
    alpha = rng.uniform(0.0, math.pi)
    l_a = d * rng.uniform(0.05, 0.25)
    kwargs = {}
    if kind in ("elastic_ellipse", "rigid_ellipse", "elliptic_void"):
        kwargs["l_b"] = l_a * rng.uniform(0.15, 1.0)
    if kind == "elastic_ellipse":
        kwargs["mu_star"] = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
    if kind in ("soft_line", "stiff_line"):
        kwargs["kappa"] = rng.uniform(0.1, 3.0)
    return Defect(kind, d=float(d), phi=float(phi), alpha=float(alpha), l_a=float(l_a), **kwargs)


def scaled(loading, factor):
    """The loading with every force and table value times factor."""
    dist = loading.distributed
    if dist is not None:
        dist = dist.replace(avg=tuple(factor * v for v in dist.avg), jump=tuple(factor * v for v in dist.jump))
    return Loading(tuple(f.replace(magnitude=factor * f.magnitude) for f in loading.forces), dist)


def current_defects(state):
    """A CrackState's defects with (d, phi) measured from its tip."""
    return tuple(df.replace(d=math.hypot(df.x - state.tip_x, df.y), phi=math.atan2(df.y, df.x - state.tip_x))
                 for df in state.defects)


def current_loading(state):
    """A CrackState's loading with its stations measured from its tip."""
    tip_x, dist = state.tip_x, state.loading.distributed
    if dist is not None:
        dist = dist.replace(x=tuple(x - tip_x for x in dist.x))
    return Loading(tuple(f.replace(x1=f.x1 - tip_x) for f in state.loading.forces), dist)


def delta_k_total(defects, loading, bimaterial):
    """The superposed closed-form dK of dilute defects."""
    return math.fsum(delta_k_defect(df, loading, bimaterial) for df in defects)


def delta_k_entrywise(grad, weights, iso, dev, alpha, mu_series):
    """-sqrt(2/pi) mu_series g . M w contracted entry by entry, with M =
    m_iso I + m_dev R(2 alpha) given by its entries (m11, m12, m22): the
    closed form before the harmonic kernel, an accuracy reference for it."""
    m11, m12, m22 = _entries(iso, dev, alpha)
    (g1, g2), (c1, c2) = grad, weights
    return -SQRT_2_OVER_PI * mu_series * (g1 * (m11 * c1 + m12 * c2) + g2 * (m12 * c1 + m22 * c2))


def delta_k_advance(advance, a3):
    """SIF change from a uniform tip advance: (advance/2) * a3."""
    return 0.5 * advance * a3


def as_matrix(m):
    """A DipoleMatrix as a 2x2 numpy array."""
    return np.array([[m.m11, m.m12], [m.m12, m.m22]])


def step(state, phi):
    """The state with its tip advanced by phi, as propagate applies an
    increment: CrackState checks the new tip, and TipReachesDefect if the
    path comes within l_a of a defect's center."""
    moved = state.replace(tip_x=state.tip_x + phi)
    _check_path(min(state.tip_x, moved.tip_x), max(state.tip_x, moved.tip_x), _on_path(state.defects))
    return moved


def increments(trace):
    """A PropagationTrace's applied advances: phi without an arrest's last row."""
    return trace.phi[:-1] if trace.verdict == "arrest" else trace.phi


def classify(ratio, delta):
    """A map's region label for one ratio dK/K0 at accuracy delta."""
    return _classify([[ratio]], delta)[1][0]


# The command line's argparse parser before the hand-written one replaced
# it, kept verbatim as the reference of the differential parser test.
COMMANDS = ("dipole", "sif", "perturb", "propagate", "map", "neutral")
NUMBER_FLAGS = ("--grid", "--delta", "--max-iter", "--arrest-tol")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crackwake",
        description="Perturbation of Mode III interfacial crack-tip fields by small defects",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario file path")
    parser.add_argument("--out", help="output file (CSV); stdout when omitted")
    parser.add_argument("--pgm", action="store_const", const="true", help="also write a PGM map (needs --out)")
    parser.add_argument("--grid", help="map grid as NxM (phi x alpha cells)")
    parser.add_argument("--delta", help="neutrality accuracy for map cells")
    parser.add_argument("--pair", help="companion arrangement rule, a or b")
    parser.add_argument("--max-iter", help="propagation iteration budget")
    parser.add_argument("--arrest-tol", help="propagation arrest threshold")
    parser.add_argument("--dump-config", action="store_true", help="print the canonical scenario and exit")
    return parser


def _join_signed_values(argv: list, flags) -> list:
    """argv with each spaced value that starts with one "-" joined to the
    number flag before it: argparse reads --delta -1e-3 as two options and
    stops at "expected one argument", --delta=-1e-3 reaches the value's
    own check.  A flag counts by its full name or by a prefix of no other
    of the parser's option strings (flags), as argparse resolves it."""
    out = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and flag not in flags:
            named = [f for f in flags if f.startswith(flag)]
            flag = named[0] if len(named) == 1 else flag
        if flag in NUMBER_FLAGS and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def reference_parse(argv):
    """The reference parser's outcome for argv: "help", "refused", or the
    command and each given flag's value by key, a switch's as "true"."""
    parser = _build_parser()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            args = parser.parse_args(_join_signed_values(list(argv), parser._option_string_actions))
    except SystemExit as exc:
        return "refused" if exc.code else "help"
    args.dump_config = "true" if args.dump_config else None
    return {key: value for key, value in vars(args).items() if value is not None}


# Prepended to the code of a child interpreter: a sys.meta_path finder,
# first in line, that refuses numpy and scipy and each of their
# submodules with ModuleNotFoundError, and records every attempt.
_REFUSE_NUMPY = """\
import json, sys

REFUSED = []


class _Refuse:
    @staticmethod
    def find_spec(name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "scipy"):
            REFUSED.append(name)
            raise ModuleNotFoundError(f"No module named {name!r} (refused)", name=name)
        return None


assert not [m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy")]
sys.meta_path.insert(0, _Refuse)
result = None
"""


def run_refusing_numpy(code: str):
    """Run code in a fresh interpreter that cannot import numpy or scipy.
    Return (result, refused): the JSON value that code leaves in the name
    result, and every numpy or scipy module it tried to import, in order."""
    code = _REFUSE_NUMPY + code + "\nprint(json.dumps([result, REFUSED]))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=300, capture_output=True, text=True)
    if proc.returncode:
        raise AssertionError(f"child interpreter exited {proc.returncode}:\n{proc.stderr}")
    return tuple(json.loads(proc.stdout.splitlines()[-1]))


# The scenario reader that the one-pass config._parse_tree replaced, kept
# as the reference of the differential reader test: one line's items
# found by a comment regex, a block regex and a comma split in turn.
_REF_BLOCK_OPEN = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*\{\s*(.*)$")
_REF_ENTRY = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)\s*=\s*(.+)$")
_REF_UNCOMMENTED = re.compile(r'(?:"[^"]*"?|[^"#])*')  # a line up to a "#" outside quotes
_REF_MARK = re.compile(r'"[^"]*"|[{},"]')  # a quoted string, or a brace, comma or unclosed quote


def _reference_split(text, line):
    """text cut at each comma outside quotes and braces."""
    parts, start, depth = [], 0, 0
    for m in _REF_MARK.finditer(text):
        mark = m[0]
        if mark == "{":
            depth += 1
        elif mark == "}":
            depth -= 1
            if depth < 0:
                raise ConfigError("unmatched closing brace", line)
        elif mark == '"':
            break
        elif mark == "," and depth == 0:
            parts.append(text[start:m.start()])
            start = m.end()
    else:
        if depth == 0:
            return [*parts, text[start:]]
    raise ConfigError("unbalanced braces or quotes", line)


def _reference_add_item(block, item, line, stack=None):
    """Add to block one item of a line: `key = value`, or a block closed
    on the same line.  An item on a line of its own (stack given) may also
    be `name {`, a block that the next lines fill: it goes onto stack."""
    m = "{" in item and _REF_BLOCK_OPEN.match(item)
    if m and (stack is not None or m[2].endswith("}")):
        child = _Block(m[1], line)
        block.children.append(child)
        if m[2].endswith("}"):
            for part in _reference_split(m[2][:-1], line):
                if part := part.strip():
                    _reference_add_item(child, part, line)
        elif m[2]:
            raise ConfigError("inline block must close on the same line", line)
        else:
            stack.append(child)
        return
    m = _REF_ENTRY.match(item)
    if m is None:
        raise ConfigError(f"cannot parse line {item!r}" if stack else f"expected key = value, got {item!r}",
                                line)
    if stack and block is stack[0]:
        raise ConfigError("key outside any block", line)
    block.entries.append((m[1], _parse_value(m[2], line), line))


def reference_parse_tree(text):
    stack = [_Block("<root>", 0)]
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = _REF_UNCOMMENTED.match(line)[0]
        line = line.strip()
        if line == "}":
            if len(stack) == 1:
                raise ConfigError("unmatched closing brace", lineno)
            stack.pop()
        elif line:
            _reference_add_item(stack[-1], line, lineno, stack)
    if len(stack) != 1:
        raise ConfigError(f"block {stack[-1].name!r} never closed", stack[-1].line)
    return stack[0]


def read_outcome(text, reference=False):
    """parse_scenario(text), with the reference reader when reference is
    true, as one comparable value: the repr of the scenario and the
    messages of its warnings, or the class of the error and its line (the
    message of an error without one)."""
    reader = mock.patch.object(config, "_parse_tree", reference_parse_tree) if reference else contextlib.nullcontext()
    with warnings.catch_warnings(record=True) as caught, reader:
        warnings.simplefilter("always")
        try:
            scenario = config.parse_scenario(text)
        except ValidationError as exc:
            return type(exc), getattr(exc, "line", str(exc))
    return repr(scenario), [str(w.message) for w in caught]
