"""Command-line front end.

Verbs: build, check, cells, ideals, cell-module, export, verify. Each
writes its JSON through one call, _emit, which streams checks.json_pieces:
canonical JSON (stable ordering, no timestamps), so identical invocations
produce byte-identical output. Exit codes: 0 all good, 1 a check reported
a failure, 2 bad input or a structurally invalid file.

The command line is read against one table, VERBS, in one pass. A usage
error (an unknown verb, construction or option, a missing or bad value, a
missing or extra path) prints the usage and the error on stderr and exits
2 before any verb runs; -h or --help prints the usage.

Each verb imports what it runs when it runs, so a process loads only the
modules of its own verb: `check` and `export` need `shadow` alone, and the
schur verbs load `schur` and no shadow layer. The error types and the
writer come from `checks`, which every verb loads anyway.
"""

from __future__ import annotations

import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

from .checks import ConsistencyError, InputError, StructureError, json_pieces, status, write_text

if TYPE_CHECKING:
    from .shadow import Shadow

BN_DEFAULT_RANGE = "1..6"
SCHUR_DEFAULT_N = "1..3"
SCHUR_DEFAULT_R = "1..6"
CLEBSCH_DEFAULT_MAX = 25


def parse_range(text: str) -> range:
    """A single integer "4" or an inclusive range "2..6"."""
    try:
        if ".." in text:
            lo_text, hi_text = text.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise InputError(f"cannot parse range {text!r}") from None
    if hi < lo:
        raise InputError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _probes(ranks: range, limit: int) -> tuple[int, int]:
    """The ranks that decide whether a whole range lies in 1..limit: its
    first rank, and the first one past limit if there is one. Checking
    them in this order meets the first bad rank a loop over the range would."""
    return ranks[0], min(ranks[-1], limit + 1)


def _emit(doc: dict, path: str | None) -> None:
    """Write doc as canonical JSON, piece by piece, to stdout or to path."""
    write_text(json_pieces(doc), path)


def _load(path: str) -> Shadow:
    from .shadow import load_shadow, validate_shadow

    s = load_shadow(path)
    try:
        validate_shadow(s)
    except StructureError as err:
        raise InputError(f"{path}: {err}") from err
    return s


def _names(s: Shadow, elements) -> list[str]:
    """The names of some elements of s, in element order."""
    return [e.name for e in sorted(elements, key=s.index_of)]


def cmd_build(args) -> int:
    if args.construction == "schur":
        from .schur import schur_report

        report = schur_report(args.n, args.r)
        _emit(report, args.output)
        return 0 if status(report["checks"]) == "pass" else 1
    if args.construction == "bn":
        from .udot import build_bn

        s = build_bn(args.n)
    else:
        from .clebsch import check_clebsch_max, window_shadow

        check_clebsch_max(args.max)
        s = window_shadow(args.max)
    from .shadow import shadow_to_dict

    _emit(shadow_to_dict(s), args.output)
    return 0


def cmd_check(args) -> int:
    from .shadow import check_associativity, load_shadow

    report = check_associativity(load_shadow(args.path))
    doc = {
        "format": 1,
        "verb": "check",
        "status": report.status,
        "checked": report.checked,
        "skipped": report.skipped,
    }
    if report.failure is not None:
        doc["failure"] = report.failure
    if report.message:
        doc["message"] = report.message
    _emit(doc, args.output)
    if report.status == "structural-error":
        return 2
    return 0 if report.ok else 1


def cmd_cells(args) -> int:
    from .cells import cell_partition, cell_poset, poset_to_dot

    s = _load(args.path)
    partition = cell_partition(s, args.kind)
    doc = {
        "format": 1,
        "kind": args.kind,
        "classes": [_names(s, cls) for cls in partition.classes],
    }
    if args.dot is not None:
        if args.kind != "two-sided":
            raise InputError("--dot draws the two-sided cell poset; use --kind two-sided")
        poset = cell_poset(s)
        write_text([poset_to_dot(s, poset)], args.dot)
    _emit(doc, args.output)
    return 0


def cmd_ideals(args) -> int:
    from .cells import cell_poset
    from .ideals import thick_ideals, upsets_by_enumeration

    s = _load(args.path)
    poset = cell_poset(s)
    ideals = thick_ideals(poset)
    upsets = upsets_by_enumeration(poset)
    doc = {
        "format": 1,
        "count": len(ideals),
        "upset-enumeration-count": len(upsets),
        "status": "pass" if len(ideals) == len(upsets) else "fail",
        "ideals": [
            {"antichain": [_names(s, cls) for cls in cells], "members": _names(s, members)}
            for cells, members in ideals
        ],
    }
    _emit(doc, args.output)
    return 0 if doc["status"] == "pass" else 1


def cmd_cell_module(args) -> int:
    from .cells import cell_module, cell_partition

    s = _load(args.path)
    left = cell_partition(s, "left").class_of(s.element(args.left_cell_of))
    cm = cell_module(s, left)
    doc = {
        "format": 1,
        "left-cell-of": args.left_cell_of,
        "basis": [b.name for b in cm.basis],
        "matrices": {a.name: cm.matrices[a] for a in sorted(cm.matrices, key=s.index_of)},
    }
    _emit(doc, args.output)
    return 0


def cmd_export(args) -> int:
    from .shadow import shadow_to_dict

    _emit(shadow_to_dict(_load(args.path)), args.output)
    return 0


def cmd_verify(args) -> int:
    runs = []  # (the leading fields of a result, its checks)
    if args.construction == "bn":
        from .cells import cell_partition
        from .udot import DESK_LIMIT, build_bn, check_bn_rank, verify_bn

        ranks = parse_range(args.n)
        for n in _probes(ranks, DESK_LIMIT):
            check_bn_rank(n)
        for n in ranks:
            s, checks = build_bn(n), verify_bn(n)
            cells = len(cell_partition(s, "two-sided").classes)
            runs.append(({"n": n, "elements": len(s.elements), "two-sided-cells": cells}, checks))
    elif args.construction == "clebsch":
        from .clebsch import check_clebsch_max, verify_clebsch

        check_clebsch_max(args.max)
        runs.append(({"max": args.max}, verify_clebsch(args.max)))
    else:
        from .schur import SCHUR_LIMIT_N, SCHUR_LIMIT_R, check_schur_rank, verify_schur

        ns, rs = parse_range(args.n), parse_range(args.r)
        for n in _probes(ns, SCHUR_LIMIT_N):
            for r in _probes(rs, SCHUR_LIMIT_R):
                check_schur_rank(n, r)
        runs += [({"n": n, "r": r}, verify_schur(n, r)) for n in ns for r in rs]
    results = [{**fields, "checks": checks, "status": status(checks)} for fields, checks in runs]
    doc = {"format": 1, "construction": args.construction, "results": results}
    doc["status"] = status(results)
    _emit(doc, args.output)
    return 0 if doc["status"] == "pass" else 1


REQUIRED = ...  # the default of an option that must be given
_OUTPUT = ("output", str, None, None)

# verb words -> (positionals, options, command). An option maps its flag to
# (attribute, int or str, default or REQUIRED, choices or None); every verb
# also takes -o/--output.
VERBS = {
    ("build", "bn"): ((), {"--n": ("n", int, REQUIRED, None)}, cmd_build),
    ("build", "clebsch"): ((), {"--max": ("max", int, REQUIRED, None)}, cmd_build),
    ("build", "schur"): (
        (), {"--n": ("n", int, REQUIRED, None), "--r": ("r", int, REQUIRED, None)}, cmd_build
    ),
    ("check",): (("path",), {}, cmd_check),
    ("cells",): (
        ("path",),
        {
            "--kind": ("kind", str, "two-sided", ("left", "right", "two-sided")),
            "--dot": ("dot", str, None, None),
        },
        cmd_cells,
    ),
    ("ideals",): (("path",), {}, cmd_ideals),
    ("cell-module",): (
        ("path",), {"--left-cell-of": ("left_cell_of", str, REQUIRED, None)}, cmd_cell_module
    ),
    ("export",): (("path",), {}, cmd_export),
    ("verify", "bn"): ((), {"--n": ("n", str, BN_DEFAULT_RANGE, None)}, cmd_verify),
    ("verify", "clebsch"): ((), {"--max": ("max", int, CLEBSCH_DEFAULT_MAX, None)}, cmd_verify),
    ("verify", "schur"): (
        (),
        {"--n": ("n", str, SCHUR_DEFAULT_N, None), "--r": ("r", str, SCHUR_DEFAULT_R, None)},
        cmd_verify,
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
            print(_usage(key))
            return None
        what = "construction" if key else "verb"
        if word is None:
            _fail(key, f"the following arguments are required: {what}")
        _choice(key, what, word, dict.fromkeys(k[len(key)] for k in VERBS if k[: len(key)] == key))
        key += (word,)
    positionals, options, command = VERBS[key]
    options = {**options, "-o": _OUTPUT, "--output": _OUTPUT}
    values = {attribute: default for attribute, _, default, _ in options.values()}
    values.update(zip(("verb", "construction"), key), func=command)
    given = []
    for word in words:
        if word in ("-h", "--help"):
            print(_usage(key))
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
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args is None:
        return 0
    try:
        return args.func(args)
    except (InputError, StructureError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ConsistencyError as err:
        print(f"internal inconsistency: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
