"""Tensor-product fusion on nonnegative integers.

m and n compose to every x between |m - n| and m + n of the same parity as
m + n, each with multiplicity one. 0 is a strict unit and the whole of Z+
forms a single left, right and two-sided cell (witness x = a + b). Finite
windows {0..K} are not closed: products near the boundary leave the window,
so window shadows omit those table entries and are marked partial. The
command line builds and verifies windows up to CLEBSCH_LIMIT.
"""

from __future__ import annotations

from operator import add, sub

from .checks import check, check_range, emit, emit_results
from .shadow import Element, Shadow, _run

CLEBSCH_LIMIT = 90


def check_clebsch_max(max_value: int) -> None:
    check_range("window bound", max_value, 0, CLEBSCH_LIMIT)


def cg_op(m: int, n: int) -> frozenset[int]:
    """Fusion of m and n: {|m-n|, |m-n|+2, ..., m+n}, for m and n in
    0..2 * CLEBSCH_LIMIT, the largest factor the checks below pass."""
    check_range("fusion factor", m, 0, 2 * CLEBSCH_LIMIT)
    check_range("fusion factor", n, 0, 2 * CLEBSCH_LIMIT)
    return _cg_op(m, n)


def _cg_op(m: int, n: int) -> frozenset[int]:
    # cg_op unguarded, for the checks below, whose bounds cover their factors
    return frozenset(range(abs(m - n), m + n + 1, 2))


def window_shadow(max_value: int) -> Shadow:
    """One-object shadow on {0..max_value}.

    Pairs whose full fusion leaves the window have no table entry; any such
    pair makes the shadow partial. The involution is the identity map
    (every summand is self-dual).
    """
    check_clebsch_max(max_value)
    elements = tuple(
        Element(name=str(v), source=0, target=0, is_identity=(v == 0))
        for v in range(max_value + 1)
    )
    entries = []
    partial = False
    for a in range(max_value + 1):
        for b in range(max_value + 1):
            results = sorted(_cg_op(a, b))
            if results[-1] > max_value:
                partial = True
                continue
            entries.append((a, b, tuple(x for v in results for x in (v, 1))))
    return Shadow._on_ids((0,), elements, entries, tuple(range(max_value + 1)), partial)


def single_cell_check(max_value: int) -> bool:
    """Every b is reachable from every a on either side: b lies in the fusion
    of x and a for x = a + b, so all principal ideals of the unwindowed
    structure coincide. Checked for all a, b up to the bound without using
    any window table."""
    check_clebsch_max(max_value)
    for a in range(max_value + 1):
        for b in range(max_value + 1):
            x = a + b
            if b not in _cg_op(x, a) or b not in _cg_op(a, x):
                return False
    return True


def associativity_unbounded(max_value: int) -> dict:
    """Associativity of the fusion rule with multiplicities, for all triples
    up to the bound, evaluated without any window: the check record
    "fusion-associativity-unbounded", whose one witness on failure is the
    first failing triple [a, b, c].

    _cg_op is called once for each m, n <= 2 * max_value with m or n at most
    max_value, which covers every product of a product. Each result is read
    as a multiset (a term listed twice counts twice) and packed into one
    integer, the sum of 2 ** (width * x) over its terms x. (a b) c is then
    the sum of packed[t][c] over t in a b, and a (b c) the sum of
    packed[a][u] over u in b c. A slot of such a sum is at most
    longest * heaviest: the most terms of one product a b or b c, times a
    bound on the multiplicity of one term in any entry read (one more than
    the repeated terms of that entry). width is the bit length of that
    bound, so no slot carries into the next and two sums are equal exactly
    when their multiplicity vectors are.

    The sums are compared a whole row of c at a time. A product whose terms
    are one run lo, lo + 2, ..., hi, each listed once (shadow._run, as _cg_op
    gives them), sums as the difference of two step-2 prefix sums of packed:
    over column c for a b, over row a for b c. The prefix sums themselves
    may carry between slots, but integer subtraction is exact, so each
    difference is the very integer the term-by-term sum gives, slots and
    all. Any other product is summed term by term. Rows run in lexicographic order of
    (a, b), and a row that differs is read c by c, so the witness is the
    first failing triple in lexicographic order.
    """
    outer = range(max_value + 1)
    table = range(2 * max_value + 1)
    cut = max_value + 1
    # an entry with both factors above max_value is never read
    terms = [
        [tuple(_cg_op(m, n)) if m < cut or n < cut else () for n in table]
        for m in table
    ]
    longest = max(len(terms[a][b]) for a in outer for b in outer)
    heaviest = max(len(ts) - len(set(ts)) + 1 for row in terms for ts in row)
    width = (longest * heaviest).bit_length()
    top = max(max(ts, default=0) for row in terms for ts in row)
    slot = [1 << (width * x) for x in range(top + 1)]
    packed = [[sum(map(slot.__getitem__, ts)) for ts in row] for row in terms]
    columns = [[row[c] for row in packed].__getitem__ for c in outer]
    # below[j]: the c-row of sums of packed[t][c] over t < j, t = j (mod 2)
    below = [[0] * cut] * 2
    for row in packed:
        below.append(list(map(add, below[-2], row[:cut])))
    runs = [[_run(sorted(ts), 2) for ts in row[:cut]] for row in terms[:cut]]
    # per b, the prefix indexes that give b c for every c, when all are runs
    picks = [
        None if None in row else ([hi + 2 for _, hi in row], [lo for lo, _ in row])
        for row in runs
    ]
    for a in outer:
        row_a = packed[a]
        # prefix_a[j]: the sum of packed[a][u] over u < j, u = j (mod 2)
        prefix_a = [0, 0]
        for x in row_a:
            prefix_a.append(prefix_a[-2] + x)
        at = prefix_a.__getitem__
        for b in outer:
            if runs[a][b]:
                lo, hi = runs[a][b]
                left = list(map(sub, below[hi + 2], below[lo]))
            else:
                left = [sum(map(column_c, terms[a][b])) for column_c in columns]
            if picks[b]:
                tops, bottoms = picks[b]
                right = list(map(sub, map(at, tops), map(at, bottoms)))
            else:
                right = [
                    at(run[1] + 2) - at(run[0]) if run else sum(map(row_a.__getitem__, bc))
                    for run, bc in zip(runs[b], terms[b])
                ]
            if left != right:
                c = next(c for c in outer if left[c] != right[c])
                return check("fusion-associativity-unbounded", False, [[a, b, c]])
    return check("fusion-associativity-unbounded", True)


def verify_clebsch(max_value: int) -> list[dict]:
    """Check suite for the fusion structure and its window shadow."""
    from .sweep import check_associativity

    check_clebsch_max(max_value)
    unbounded = associativity_unbounded(max_value)
    unit_ok = all(
        _cg_op(0, a) == {a} and _cg_op(a, 0) == {a} for a in range(max_value + 1)
    )
    window = check_associativity(window_shadow(max_value))
    return [
        unbounded,
        check("zero-is-strict-unit", unit_ok),
        check("single-cell-witness", single_cell_check(max_value)),
        {**window, "check": "window-associativity-complete-triples"},
    ]


def cmd_build(args) -> int:
    from .shadowfile import shadow_to_dict

    check_clebsch_max(args.max)
    emit(shadow_to_dict(window_shadow(args.max)), args.output)
    return 0


def cmd_verify(args) -> int:
    check_clebsch_max(args.max)
    return emit_results("clebsch", [({"max": args.max}, verify_clebsch(args.max))], args.output)
