"""The hand-written command-line parser against the argparse parser it
replaced: a differential test over seeded random argv lists."""

import random
import re
from collections import Counter

from crackwake.cli import COMMANDS, FLAGS, SWITCHES, USAGE, _parse_args, main
from crackwake.errors import ValidationError

from helpers import reference_parse

PREFIXES = ["--d", "--del", "--m", "--max", "--gri", "--pg", "--p", "--pa", "--co", "--conf", "--o", "--arr",
            "--du", "--he"]
VALUES = ["-1e-3", "4x4", "a", "b", "-h", "--", "-", "-1", "-.5", "1e-6", "x.cfg", "", "sif"]
BOGUS = ["--bogus", "--bogus=1", "-x", "bogus", "-h", "map"]


def draw_argv(rng: random.Random) -> list:
    """A command and a --config more often than not, and up to four flags,
    prefixes, "=" forms and stray tokens, shuffled by their groups."""
    groups = []
    if rng.random() < 0.8:
        groups.append([rng.choice(list(COMMANDS))])
    if rng.random() < 0.8:
        groups.append(["--config", "x.cfg"] if rng.random() < 0.7 else ["--config=x.cfg"])
    for _ in range(rng.randint(0, 4)):
        flag, kind = rng.choice([*FLAGS, *PREFIXES]), rng.random()
        if kind < 0.45:
            groups.append([flag, rng.choice(VALUES)])
        elif kind < 0.6:
            groups.append([f"{flag}={rng.choice(VALUES)}"])
        elif kind < 0.8:
            groups.append([flag])
        else:
            groups.append([rng.choice(BOGUS + VALUES)])
    rng.shuffle(groups)
    return [arg for group in groups for arg in group]


def new_parse(argv):
    """_parse_args's outcome in reference_parse's terms, and its error."""
    try:
        args = _parse_args(argv)
    except ValidationError as exc:
        return "refused", str(exc)
    return ("help" if "help" in args else args), ""


def named_flags(arg: str) -> list:
    """The flags whose name or prefix is arg's text before any "="."""
    name = arg.split("=", 1)[0]
    return [name] if name in FLAGS else [flag for flag in FLAGS if name.startswith("--") and flag.startswith(name)]


def joined(argv: list) -> list:
    """argv with each spaced value that starts with one "-" joined by "="
    to the value flag before it, as the reference joins a number flag's."""
    out = []
    for arg in argv:
        flags = named_flags(out[-1]) if out and "=" not in out[-1] else []
        if len(flags) == 1 and flags[0] not in SWITCHES and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def value_flag_takes_a_dash_value(argv, ref, new, error):
    """argparse reads --out -x as --out without a value and an unknown -x."""
    return reference_parse(joined(argv)) == new


def help_before_an_ambiguous_prefix(argv, ref, new, error):
    """argparse checks every argument for an ambiguous prefix before it
    acts on any; the new parser stops at the --help."""
    return new == "help" and reference_parse([arg for arg in joined(argv) if len(named_flags(arg)) < 2]) == "help"


def dash_token_as_the_command(argv, ref, new, error):
    """argparse sets an unknown -x aside and goes on to a later --help;
    the new parser takes it for the command, an invalid one."""
    return ref == "help" and error.startswith("argument command: invalid choice: '-")


def bare_double_dash(argv, ref, new, error):
    """argparse reads a bare -- as the end of the options; the new parser
    refuses it, as a prefix of every flag or as a missing value."""
    return error.startswith("ambiguous option: -- ") or error.endswith("expected one argument") and "--" in argv


def double_dash_value(argv, ref, new, error):
    """argparse drops "--" from a value: --delta=-- sets delta to []."""
    return (isinstance(ref, dict) and isinstance(new, dict) and [] in ref.values()
            and {k: v for k, v in ref.items() if v != []} == {k: v for k, v in new.items() if v != "--"})


# Each allowed difference by name, with the check that it explains the
# reference's outcome ref where the new parser gives new and error.
DIFFERENCES = {
    "a value flag takes a following -x": value_flag_takes_a_dash_value,
    "--help before an ambiguous prefix": help_before_an_ambiguous_prefix,
    "a -x where the command goes is refused": dash_token_as_the_command,
    "a bare -- is refused": bare_double_dash,
    "--flag=-- keeps -- as its value": double_dash_value,
}


def test_parser_agrees_with_the_argparse_reference():
    """Over 3000 seeded argv lists both parsers accept or refuse alike,
    with the same command and flag values, or differ in a named way; the
    counts pin how often each difference shows on these draws."""
    rng = random.Random(20)
    outcomes, differences = Counter(), Counter()
    for _ in range(3000):
        argv = draw_argv(rng)
        ref, (new, error) = reference_parse(argv), new_parse(argv)
        outcomes[new if isinstance(new, str) else "accepted"] += 1
        if new != ref:
            names = [name for name, explains in DIFFERENCES.items() if explains(argv, ref, new, error)]
            assert names, (argv, ref, new, error)
            differences[names[0]] += 1
    assert outcomes == {"accepted": 670, "refused": 1999, "help": 331}
    assert differences == {
        "a value flag takes a following -x": 28,
        "--help before an ambiguous prefix": 27,
        "a -x where the command goes is refused": 4,
        "a bare -- is refused": 3,
        "--flag=-- keeps -- as its value": 3,
    }


def test_usage_names_every_flag():
    assert re.findall(r"--[\w-]+", USAGE) == list(FLAGS[:-1]) and "[-h]" in USAGE
    assert "{" + ",".join(COMMANDS) + "}" in USAGE


def test_help_prints_the_usage(capsys):
    for argv in (["-h"], ["--help"], ["--he"], ["sif", "-h", "--bogus"]):
        assert main(argv) == 0
        assert capsys.readouterr() == (USAGE, "")
