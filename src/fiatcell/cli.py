"""Command-line front end.

Verbs: build, check, cells, ideals, cell-module, export, verify. All
reports are canonical JSON (stable ordering, no timestamps), so identical
invocations produce byte-identical output. Exit codes: 0 all good, 1 a
check reported a failure, 2 bad input or a structurally invalid file.

Each verb imports what it runs when it runs, so a process loads only the
modules of its own verb: `check` and `export` need `shadow` alone, and the
schur verbs load `schur` and no shadow layer. The error types come from
`checks`, which every verb loads anyway.
"""

from __future__ import annotations

import argparse
import json
import sys
from itertools import chain, islice
from typing import TYPE_CHECKING

from .checks import ConsistencyError, InputError, StructureError, status

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


def _write_text(chunks, path: str | None) -> None:
    """Write the strings of chunks, joined in batches rather than into one
    string, to stdout or to the file at path."""
    chunks = iter(chunks)

    def write(fh) -> None:
        while text := "".join(islice(chunks, 1 << 16)):
            fh.write(text)

    if path is None:
        return write(sys.stdout)
    try:
        with open(path, "w") as fh:
            write(fh)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from err


def _emit(doc: dict, path: str | None) -> None:
    _write_text(chain(json.JSONEncoder(indent=2).iterencode(doc), "\n"), path)


def _load(path: str) -> Shadow:
    from .shadow import load_shadow, validate_shadow

    s = load_shadow(path)
    try:
        validate_shadow(s)
    except StructureError as err:
        raise InputError(f"{path}: {err}") from err
    return s


def cmd_build(args) -> int:
    if args.construction == "bn":
        from .shadow import dumps_shadow
        from .udot import build_bn

        _write_text([dumps_shadow(build_bn(args.n))], args.output)
        return 0
    if args.construction == "clebsch":
        from .clebsch import check_clebsch_max, window_shadow
        from .shadow import dumps_shadow

        check_clebsch_max(args.max)
        _write_text([dumps_shadow(window_shadow(args.max))], args.output)
        return 0
    from .schur import schur_report

    report = schur_report(args.n, args.r)
    _emit(report, args.output)
    return 0 if status(report["checks"]) == "pass" else 1


def cmd_check(args) -> int:
    from .shadow import check_associativity, load_shadow

    s = load_shadow(args.path)
    report = check_associativity(s)
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
        "classes": [
            [e.name for e in sorted(cls, key=s.index_of)]
            for cls in partition.classes
        ],
    }
    if args.dot is not None:
        if args.kind != "two-sided":
            raise InputError("--dot draws the two-sided cell poset; use --kind two-sided")
        poset = cell_poset(s)
        _write_text([poset_to_dot(s, poset)], args.dot)
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
            {
                "antichain": [
                    [e.name for e in sorted(cls, key=s.index_of)] for cls in cells
                ],
                "members": [e.name for e in sorted(members, key=s.index_of)],
            }
            for cells, members in ideals
        ],
    }
    _emit(doc, args.output)
    return 0 if doc["status"] == "pass" else 1


def cmd_cell_module(args) -> int:
    from .cells import cell_module, cell_partition

    s = _load(args.path)
    e = s.element(args.left_cell_of)
    left = cell_partition(s, "left").class_of(e)
    cm = cell_module(s, left)
    doc = {
        "format": 1,
        "left-cell-of": args.left_cell_of,
        "basis": [b.name for b in cm.basis],
        "matrices": {
            a.name: cm.matrices[a]
            for a in sorted(cm.matrices, key=s.index_of)
        },
    }
    _emit(doc, args.output)
    return 0


def cmd_export(args) -> int:
    from .shadow import dumps_shadow

    s = _load(args.path)
    _write_text([dumps_shadow(s)], args.output)
    return 0


def cmd_verify(args) -> int:
    results = []
    if args.construction == "bn":
        from .cells import cell_partition
        from .udot import DESK_LIMIT, build_bn, check_bn_rank, verify_bn

        ranks = parse_range(args.n)
        for n in _probes(ranks, DESK_LIMIT):
            check_bn_rank(n)
        for n in ranks:
            s = build_bn(n)
            checks = verify_bn(n)
            results.append(
                {
                    "n": n,
                    "elements": len(s.elements),
                    "two-sided-cells": len(cell_partition(s, "two-sided").classes),
                    "checks": checks,
                    "status": status(checks),
                }
            )
        doc = {"format": 1, "construction": "bn", "results": results}
    elif args.construction == "clebsch":
        from .clebsch import check_clebsch_max, verify_clebsch

        check_clebsch_max(args.max)
        checks = verify_clebsch(args.max)
        results.append({"max": args.max, "checks": checks, "status": status(checks)})
        doc = {"format": 1, "construction": "clebsch", "results": results}
    else:
        from .schur import SCHUR_LIMIT_N, SCHUR_LIMIT_R, check_schur_rank, verify_schur

        ns, rs = parse_range(args.n), parse_range(args.r)
        for n in _probes(ns, SCHUR_LIMIT_N):
            for r in _probes(rs, SCHUR_LIMIT_R):
                check_schur_rank(n, r)
        for n in ns:
            for r in rs:
                checks = verify_schur(n, r)
                results.append(
                    {"n": n, "r": r, "checks": checks, "status": status(checks)}
                )
        doc = {"format": 1, "construction": "schur", "results": results}
    doc["status"] = status(results)
    _emit(doc, args.output)
    return 0 if doc["status"] == "pass" else 1


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("-o", "--output", default=None, help="write to file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fiatcell",
        description="Build, inspect and verify multisemigroup shadows.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    build = sub.add_parser("build", help="build a named construction")
    bsub = build.add_subparsers(dest="construction", required=True)
    bn = bsub.add_parser("bn", help="divided-power shadow of rank n")
    bn.add_argument("--n", type=int, required=True)
    _add_output(bn)
    bn.set_defaults(func=cmd_build)
    cg = bsub.add_parser("clebsch", help="fusion window shadow on {0..K}")
    cg.add_argument("--max", type=int, required=True)
    _add_output(cg)
    cg.set_defaults(func=cmd_build)
    schur = bsub.add_parser("schur", help="margin-matrix cells report")
    schur.add_argument("--n", type=int, required=True)
    schur.add_argument("--r", type=int, required=True)
    _add_output(schur)
    schur.set_defaults(func=cmd_build)

    check = sub.add_parser("check", help="validate a shadow file and sweep associativity")
    check.add_argument("path")
    _add_output(check)
    check.set_defaults(func=cmd_check)

    cells = sub.add_parser("cells", help="cell partition of a shadow file")
    cells.add_argument("path")
    cells.add_argument(
        "--kind", choices=("left", "right", "two-sided"), default="two-sided"
    )
    cells.add_argument("--dot", default=None, help="write the cell poset as DOT")
    _add_output(cells)
    cells.set_defaults(func=cmd_cells)

    ideals = sub.add_parser("ideals", help="thick ideals of a shadow file")
    ideals.add_argument("path")
    _add_output(ideals)
    ideals.set_defaults(func=cmd_ideals)

    cm = sub.add_parser("cell-module", help="matrices of the action on a left cell")
    cm.add_argument("path")
    cm.add_argument("--left-cell-of", required=True, metavar="ELEMENT")
    _add_output(cm)
    cm.set_defaults(func=cmd_cell_module)

    export = sub.add_parser("export", help="re-serialize a shadow canonically")
    export.add_argument("path")
    _add_output(export)
    export.set_defaults(func=cmd_export)

    verify = sub.add_parser("verify", help="run a verification suite")
    vsub = verify.add_subparsers(dest="construction", required=True)
    vbn = vsub.add_parser("bn")
    vbn.add_argument("--n", default=BN_DEFAULT_RANGE, help="rank or range, e.g. 4 or 2..6")
    _add_output(vbn)
    vbn.set_defaults(func=cmd_verify)
    vcg = vsub.add_parser("clebsch")
    vcg.add_argument("--max", type=int, default=CLEBSCH_DEFAULT_MAX)
    _add_output(vcg)
    vcg.set_defaults(func=cmd_verify)
    vschur = vsub.add_parser("schur")
    vschur.add_argument("--n", default=SCHUR_DEFAULT_N)
    vschur.add_argument("--r", default=SCHUR_DEFAULT_R)
    _add_output(vschur)
    vschur.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
