"""Command-line front end: the parser and the verb table.

Verbs: build, check, cells, ideals, cell-module, export, verify. Each
writes its JSON through checks.emit, which streams checks.json_pieces:
canonical JSON (stable ordering, no timestamps), so identical invocations
produce byte-identical output. Exit codes: 0 all good, 1 a check reported
a failure, 2 bad input or a structurally invalid file.

The command line is read against one table, VERBS, in one pass. A usage
error (an unknown verb, construction or option, a missing or bad value, a
missing or extra path) prints the usage and the error on stderr and exits
2 before any verb runs; -h or --help prints the usage.

A verb's command lives beside the engine it drives, and main imports its
module only when the verb runs, so a process compiles only its own verb's
modules: `build bn` no cell engine, the file verbs no sweep but `check`,
the schur verbs no shadow layer, only the verbs that read or write a shadow
file the file format, and only the file verbs the json package.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace

from .checks import ConsistencyError, InputError, StructureError, write_text

BN_DEFAULT_RANGE = "1..6"
SCHUR_DEFAULT_N = "1..3"
SCHUR_DEFAULT_R = "1..6"
CLEBSCH_DEFAULT_MAX = 25

REQUIRED = ...  # the default of an option that must be given
_OUTPUT = ("output", str, None, None)

# verb words -> (positionals, options, command). An option maps its flag to
# (attribute, int or str, default or REQUIRED, choices or None); every verb
# also takes -o/--output. A command is "module:function", the function that
# runs the verb, beside the engine it drives; main imports its module.
VERBS = {
    ("build", "bn"): ((), {"--n": ("n", int, REQUIRED, None)}, "udot:cmd_build"),
    ("build", "clebsch"): ((), {"--max": ("max", int, REQUIRED, None)}, "clebsch:cmd_build"),
    ("build", "schur"): (
        (),
        {"--n": ("n", int, REQUIRED, None), "--r": ("r", int, REQUIRED, None)},
        "schur:cmd_build",
    ),
    ("check",): (("path",), {}, "sweep:cmd_check"),
    ("cells",): (
        ("path",),
        {
            "--kind": ("kind", str, "two-sided", ("left", "right", "two-sided")),
            "--dot": ("dot", str, None, None),
        },
        "cells:cmd_cells",
    ),
    ("ideals",): (("path",), {}, "ideals:cmd_ideals"),
    ("cell-module",): (
        ("path",),
        {"--left-cell-of": ("left_cell_of", str, REQUIRED, None)},
        "cells:cmd_cell_module",
    ),
    ("export",): (("path",), {}, "shadowfile:cmd_export"),
    ("verify", "bn"): ((), {"--n": ("n", str, BN_DEFAULT_RANGE, None)}, "bnverify:cmd_verify"),
    ("verify", "clebsch"): (
        (), {"--max": ("max", int, CLEBSCH_DEFAULT_MAX, None)}, "clebsch:cmd_verify"
    ),
    ("verify", "schur"): (
        (),
        {"--n": ("n", str, SCHUR_DEFAULT_N, None), "--r": ("r", str, SCHUR_DEFAULT_R, None)},
        "schur:cmd_verify",
    ),
}


def _usage(key: tuple) -> str:
    """The usage lines of the verbs whose words begin with key."""
    lines = []
    for words, (positionals, options, _) in VERBS.items():
        if words[: len(key)] == key:
            parts = ["fiatcell", *words, *positionals]
            for flag, (attribute, _, default, choices) in options.items():
                shown = f"{flag} {'{' + ','.join(choices) + '}' if choices else attribute.upper()}"
                parts.append(shown if default is REQUIRED else f"[{shown}]")
            lines.append(" ".join(parts) + " [-o OUTPUT]")
    return "usage: " + "\n       ".join(lines)


def _fail(key: tuple, message: str):
    print(_usage(key), f"fiatcell: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _choice(key: tuple, what: str, word: str, choices) -> None:
    if word not in choices:
        listed = ", ".join(map(repr, choices))
        _fail(key, f"argument {what}: invalid choice: {word!r} (choose from {listed})")


def _option(word: str, options: dict) -> tuple[str | None, str | None]:
    """(flag, value) for an option word, the value None when the next word
    holds it, and (None, word) for a positional. Words are read as argparse
    reads them, except that long options are not abbreviated."""
    flag, equals, value = word.partition("=")
    if word in options or word[:1] != "-" or word == "-":
        return (word, None) if word in options else (None, word)
    if equals and flag in options:
        return flag, value
    if word[1] != "-" and word[:2] in options:
        return word[:2], word[2:]
    # compiled here, not at import: only a word that names no option gets here
    negative = re.match(r"-\d+$|-\d*\.\d+$", word)
    return (None, word) if negative or " " in word else (word, None)


def _parse(argv) -> SimpleNamespace | None:
    """The attributes of argv, read against VERBS in one pass; None once -h
    or --help printed the usage. A usage error exits 2."""
    key, words = (), iter(argv)
    while key not in VERBS:
        word = next(words, None)
        if word in ("-h", "--help"):
            write_text([_usage(key), "\n"], None)
            return None
        what = "construction" if key else "verb"
        if word is None:
            _fail(key, f"the following arguments are required: {what}")
        _choice(key, what, word, dict.fromkeys(k[len(key)] for k in VERBS if k[: len(key)] == key))
        key += (word,)
    positionals, options, command = VERBS[key]
    options = {**options, "-o": _OUTPUT, "--output": _OUTPUT}
    values = {attribute: default for attribute, _, default, _ in options.values()}
    values.update(zip(("verb", "construction"), key), command=command)
    given = []
    for word in words:
        if word in ("-h", "--help"):
            write_text([_usage(key), "\n"], None)
            return None
        if word == "--":
            given += words
            break
        flag, value = _option(word, options)
        if flag is None:
            given.append(value)
            continue
        if flag not in options:
            _fail(key, f"unrecognized arguments: {word}")
        if value is None and (value := next(words, None)) is None:
            _fail(key, f"argument {flag}: expected one argument")
        attribute, kind, _, choices = options[flag]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(key, f"argument {flag}: invalid int value: {value!r}")
        if choices:
            _choice(key, flag, value, choices)
        values[attribute] = value
    missing = list(positionals[len(given) :])
    missing += [flag for flag, option in options.items() if values[option[0]] is REQUIRED]
    if missing:
        _fail(key, f"the following arguments are required: {', '.join(missing)}")
    if len(given) > len(positionals):
        _fail(key, f"unrecognized arguments: {' '.join(given[len(positionals) :])}")
    return SimpleNamespace(**values, **dict(zip(positionals, given)))


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            return 0
        module, name = args.command.split(":")
        # the import statement's own path, which -X importtime reports
        command = getattr(__import__(f"{__package__}.{module}", fromlist=[name]), name)
        return command(args)
    except (InputError, StructureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
