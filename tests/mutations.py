"""A standing mutation check: each mutation below must make a test fail.

    python tests/mutations.py            # every mutation
    python tests/mutations.py NAME ...   # the named ones

A mutation is one exact-text patch of one file of the package. Each is
applied alone to a fresh copy of `src/`, `tests/` and `pyproject.toml` in
a temporary directory, and the tests it names run there in a child
`python -m pytest`. The script prints one line per mutation:

- caught: a named test failed;
- survived: every named test passed, so no test guards that code;
- stale: the old text is not in the file exactly once, so the patch no
  longer applies (it is reported, never skipped);
- error: pytest could not run the named tests.

The named tests are first run once on an unpatched copy, where they must
pass. The exit status is 0 when every mutation is caught and 1 otherwise.
The script is not named test_*.py, so pytest does not collect it. It runs
for about 30 s on a 2-core machine with Python 3.11.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "pyproject.toml")


class Mutation(NamedTuple):
    name: str
    path: str  # under src/fiatcell
    old: str
    new: str
    tests: tuple[str, ...]


CLEBSCH = "tests/test_clebsch.py::"
SHADOW = "tests/test_shadow.py::"
CORRUPTIONS = CLEBSCH + "test_every_single_entry_corruption_has_the_reference_record"
PREMISES = CLEBSCH + "test_each_premise_guards_the_comparison_with_one"
UDOT = "tests/test_udot.py::"
SCHUR = "tests/test_schur.py::"
WHOLE_QUOTIENT = UDOT + "test_rank_reduction_reports_the_whole_quotient"

MUTATIONS = [
    # Light's test on the fusion rule (clebsch._generated_by_one)
    Mutation(
        "fusion: the unit premise dropped",
        "clebsch.py",
        "        if not _exactly(row[0], m) or m == 0 and not all(map(_exactly, row, range(size))):\n"
        "            return False\n",
        "",
        (PREMISES,),
    ),
    Mutation(
        "fusion: the premise 1 j = (j - 1) + (j + 1) dropped",
        "clebsch.py",
        "            if not all(_exactly(row[j], j - 1, j + 1) for j in range(1, max_value)):\n"
        "                return False\n",
        "",
        (PREMISES,),
    ),
    Mutation(
        "fusion: the premise that terms stay within m + n dropped",
        "clebsch.py",
        "                if min(ts) < 0 or max(ts) > m + n:\n                    return False\n",
        "",
        (CORRUPTIONS,),
    ),
    Mutation(
        "fusion: the comparison cut to x, y <= K",
        "clebsch.py",
        "    right = list(zip(*[total(columns, terms(size + y)) for y in range(top)]))\n"
        "    # (x 1) y, a row at a time\n"
        "    return all(tuple(total(rows, terms(x * size + 1))) == right[x] for x in range(top))\n",
        "    cut = max_value + 1\n"
        "    right = list(zip(*[total(columns, terms(size + y)) for y in range(cut)]))\n"
        "    return all(tuple(total(rows, terms(x * size + 1)))[:cut] == right[x] for x in range(cut))\n",
        (CORRUPTIONS,),
    ),
    Mutation(
        "fusion: the fallback to the full comparison dropped",
        "clebsch.py",
        "    if _generated_by_one(max_value):\n"
        '        return check("fusion-associativity-unbounded", True)\n'
        "    return _full_comparison(max_value)\n",
        '    return check("fusion-associativity-unbounded", _generated_by_one(max_value))\n',
        (CLEBSCH + "test_set_level_fault_has_the_reference_witness",),
    ),
    # the sweep's own generators (sweep._closure)
    Mutation(
        "closure: an entry of two ungenerated terms generates both",
        "sweep.py",
        "                if len(ungenerated) == 1:\n",
        "                if len(ungenerated) <= 2:\n",
        (SHADOW + "test_closure_never_splits_an_entry_of_two_ungenerated_terms",),
    ),
    Mutation(
        "closure: the per-entry count of ungenerated terms dropped",
        "sweep.py",
        "                elif ungenerated:\n"
        "                    count[pos] = len(ungenerated)\n"
        "                    for u in ungenerated:\n"
        "                        waiting[u].append(pos)\n",
        "",
        (SHADOW + "test_closure_counts_down_the_ungenerated_terms_of_an_entry",),
    ),
    Mutation(
        # also the generators not closed under the involution, in the form
        # the sweep had when the caller passed the single steps
        "closure: the star of a new generator not added",
        "sweep.py",
        "            for g in {g, g if star is None else star[g]}:\n",
        "            for g in {g}:\n",
        (SHADOW + "test_kernel_closes_the_generators_under_the_involution",),
    ),
    Mutation(
        "closure: the give-up past half of the elements ignored",
        "sweep.py",
        "            if 2 * generators > n:\n                return None\n",
        "",
        (SHADOW + "test_closure_gives_up_on_a_left_zero_table",),
    ),
    Mutation(
        "closure: the check that every element is generated dropped",
        "sweep.py",
        "        else:\n            g = next(",
        "        elif generators:\n            break\n        else:\n            g = next(",
        (SHADOW + "test_kernel_sweeps_everything_when_the_generators_miss_an_element",),
    ),
    Mutation(
        "closure: the stall pick reverted to lowest-first",
        "sweep.py",
        "            g = next(x for x in pending if not seen[x])\n",
        "            g = seen.index(False)\n",
        (SHADOW + "test_closure_on_bn_picks_each_generator_with_its_star",),
    ),
    Mutation(
        "sweep: the full sweep on a failing generator row dropped",
        "sweep.py",
        '            if record["status"] == "pass":\n                return record\n',
        "            return record\n",
        (SHADOW + "test_kernel_takes_the_full_record_when_a_generator_row_fails",),
    ),
    # the view's entry check (shadow._build_view)
    Mutation(
        "view: the one-step compare checks only the source end",
        "shadow.py",
        "ends_of[row[0]] != ends:\n",
        "ends_of[row[0]][0] != ends[0]:\n",
        (SHADOW + "test_view_raises_the_first_fault_of_an_entry",),
    ),
    # rank reduction (bnverify.recursion_check): on ids, then by name
    Mutation(
        "rank reduction on ids: the star ignored",
        "bnverify.py",
        "    return star == lower._view.star and table == list(lower._view.rows)\n",
        "    return table == list(lower._view.rows)\n",
        (WHOLE_QUOTIENT,),
    ),
    Mutation(
        "rank reduction on ids: the objects ignored",
        "bnverify.py",
        "        or (big.partial, objects) != (lower.partial, tuple(o + 1 for o in lower.objects))\n",
        "        or big.partial != lower.partial\n",
        (WHOLE_QUOTIENT,),
    ),
    Mutation(
        "rank reduction by name: the involution not compared",
        "bnverify.py",
        "    return bool(s.partial), s.objects, s.elements, star, products\n",
        "    return bool(s.partial), s.objects, s.elements, None, products\n",
        (WHOLE_QUOTIENT,),
    ),
    Mutation(
        "rank reduction by name: the objects not compared",
        "bnverify.py",
        "    return bool(s.partial), s.objects, s.elements, star, products\n",
        "    return bool(s.partial), None, s.elements, star, products\n",
        (WHOLE_QUOTIENT,),
    ),
    Mutation(
        "rank reduction by name: a product read differently not reported",
        "bnverify.py",
        "        if products.get(pair) != result\n",
        "        if pair not in products\n",
        (UDOT + "test_rank_reduction_falls_back_to_names",),
    ),
    # the flat margin-matrix kernels (schur)
    Mutation(
        "flat matrices: the transpose is the identity",
        "schur.py",
        "    transpose = itemgetter(*[k * n + l for l in range(n) for k in range(n)])\n",
        "    transpose = itemgetter(*range(size))\n",
        (SCHUR + "test_flat_kernels_match_textbook_kernels",),
    ),
    Mutation(
        "flat matrices: reverse insertion counts into the transposed cell",
        "schur.py",
        "        entries[(u - 1) * n + x - 1] += 1\n",
        "        entries[(x - 1) * n + u - 1] += 1\n",
        (SCHUR + "test_flat_kernels_match_textbook_kernels",),
    ),
    Mutation(
        "flat matrices: the antidominant reading takes the first column first",
        "schur.py",
        "for l in range(n - 1, -1, -1) for k in range(n)",
        "for l in range(n) for k in range(n)",
        (SCHUR + "test_flat_kernels_match_textbook_kernels",),
    ),
    Mutation(
        "flat matrices: insertion takes each nonzero cell once",
        "schur.py",
        "            m -= 1\n",
        "            m = 0\n",
        (SCHUR + "test_flat_kernels_match_textbook_kernels",),
    ),
]


def _copy(to: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in COPIED:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(source, to / name, ignore=ignore)
        else:
            shutil.copy2(source, to / name)


def _pytest(where: Path, tests) -> int:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=where, env=env, capture_output=True)
    return done.returncode


def outcome(mutation: Mutation | None, tests) -> str:
    """caught, survived, stale or error for a mutation; for None, whether
    the tests pass on an unpatched copy."""
    with tempfile.TemporaryDirectory(prefix="fiatcell-mutation-") as tmp:
        where = Path(tmp)
        _copy(where)
        if mutation is not None:
            path = where / "src" / "fiatcell" / mutation.path
            text = path.read_text()
            if text.count(mutation.old) != 1:
                return "stale"
            path.write_text(text.replace(mutation.old, mutation.new))
        code = _pytest(where, tests)
    if mutation is None:
        return "pass" if code == 0 else "error"
    return {0: "survived", 1: "caught"}.get(code, "error")


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTATIONS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTATIONS}
    if unknown:
        print(f"unknown mutations: {sorted(unknown)}", file=sys.stderr)
        return 2
    start = time.perf_counter()
    tests = sorted({t for m in chosen for t in m.tests})
    if outcome(None, tests) != "pass":
        print("the named tests fail on an unpatched copy", file=sys.stderr)
        return 2
    results = []
    for mutation in chosen:
        results.append(outcome(mutation, mutation.tests))
        print(f"{results[-1]:9} {mutation.name}", flush=True)
    print(f"{results.count('caught')} of {len(results)} caught in {time.perf_counter() - start:.0f} s")
    return 0 if results.count("caught") == len(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
