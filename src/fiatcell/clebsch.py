"""Tensor-product fusion on nonnegative integers.

m and n compose to every x between |m - n| and m + n of the same parity as
m + n, each with multiplicity one. 0 is a strict unit and the whole of Z+
forms a single left, right and two-sided cell (witness x = a + b). Finite
windows {0..K} are not closed: products near the boundary leave the window,
so window shadows omit those table entries and are marked partial. The
command line builds and verifies windows up to CLEBSCH_LIMIT.
"""

from __future__ import annotations

from collections import Counter
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

    Light's test answers first (_generated_by_one). When one of its
    premises or comparisons fails, the full comparison answers
    (_full_comparison), so the record is always the full comparison's.
    """
    check_clebsch_max(max_value)
    if _generated_by_one(max_value):
        return check("fusion-associativity-unbounded", True)
    return _full_comparison(max_value)


def _generated_by_one(max_value: int) -> bool:
    """True when every triple up to K = max_value associates, by Light's
    test with the one generator 1; False when that is not shown.

    Write m n for the sum of the terms of _cg_op(m, n), extended bilinearly
    to the free Z-module on 0, 1, 2, ..., and A(x, g, y) = (x g) y - x (g y)
    for the associator, which is trilinear. Every bilinear product has
    A(x, g h, y) = A(x g, h, y) + A(x, g, h y) - A(x, g, h) y - x A(g, h, y).
    The test reads the products whose factors are at most 2K, but (2K, 2K),
    checks three premises on each of them:

    - 0 is a strict unit: 0 n = n and m 0 = m;
    - 1 j = (j - 1) + (j + 1), each once, for 1 <= j < K;
    - every term of m n lies in 0..m + n;

    and compares (x 1) y with x (1 y) for all x, y <= 2K - 1.

    Claim: A(x, b, y) = 0 for 1 <= b <= K and x + b, y + b <= 2K. For b = 1
    that is the comparison. For b >= 2, the second premise gives b =
    1 (b - 1) - (b - 2), and the identity with g = 1, h = b - 1 gives
    A(x, b, y) = A(x 1, b - 1, y) + A(x, 1, (b - 1) y) - A(x, 1, b - 1) y
    - x A(1, b - 1, y) - A(x, b - 2, y). By the third premise every term x'
    of x 1 has x' + b - 1 <= x + b and every term y' of (b - 1) y has
    y' + 1 <= y + b, so each associator on the right vanishes by the claim
    for b - 1 or 1, and the last by the claim for b - 2 or, at b = 2, by
    the unit. For a, b, c <= K, a + b and b + c are at most 2K, and
    A(a, 0, c) = 0 by the unit, so every triple up to K associates.

    The products are read a row m at a time. One whose terms are the run
    lo, lo + 2, ..., hi, each once, is kept only as lo and hi + 2 and
    packed, as in _full_comparison, as the difference of two step-2 prefix
    sums of the slots 2 ** (width * t). The run is tried at lo = |m - n|,
    the fusion rule's, and confirmed exactly: a frozenset of k terms that
    holds the k of the run is the run. Any other product is kept by its
    terms and packed as the sum of its slots. A slot of (x 1) y or of x (1 y) is at
    most longest * heaviest, the most terms of one product x 1 or 1 y
    times the largest multiplicity of one term in any product read, and
    width is the bit length of that, so the two sums are equal exactly
    when their multiplicity vectors are. K = 0 is left to the full
    comparison, which reads the one product 0 0.
    """
    if max_value < 1:
        return False
    top = 2 * max_value
    size = top + 1
    # the product m n at m * size + n
    los: list[int] = []
    ends: list[int] = []
    others: dict[int, tuple[int, ...]] = {}  # the products that are not runs
    heaviest = longest = 1
    for m in range(size):
        row = [_cg_op(m, n) for n in range(size if m < top else top)]
        if not _exactly(row[0], m) or m == 0 and not all(map(_exactly, row, range(size))):
            return False
        if m == 1:
            if not all(_exactly(row[j], j - 1, j + 1) for j in range(1, max_value)):
                return False
            longest = max(longest, *map(len, row))
        longest = max(longest, len(row[1]))
        for n, ts in enumerate(row):
            lo = abs(m - n)
            hi = lo + 2 * len(ts) - 2
            if hi <= m + n and type(ts) is frozenset and ts.issuperset(range(lo, hi + 1, 2)):
                los.append(lo)
                ends.append(hi + 2)
                continue
            if ts:
                if min(ts) < 0 or max(ts) > m + n:
                    return False
                heaviest = max(heaviest, *Counter(ts).values())
            los.append(0)
            ends.append(0)
            others[m * size + n] = tuple(ts)
    width = (longest * heaviest).bit_length()
    # prefix[j]: the sum of 2 ** (width * t) over t < j, t = j (mod 2)
    prefix = [0, 0]
    for t in range(2 * top + 1):
        prefix.append(prefix[-2] + (1 << (width * t)))
    at = prefix.__getitem__
    packed = list(map(sub, map(at, ends), map(at, los)))
    for i, ts in others.items():
        packed[i] = sum(1 << (width * t) for t in ts)
    packed.append(0)  # (2K, 2K), never read
    rows = [packed[m * size : (m + 1) * size] for m in range(size)]
    columns = list(zip(*rows))

    def terms(i: int):
        return others[i] if i in others else range(los[i], ends[i] - 1, 2)

    def total(vectors, ids) -> list[int]:
        # the sum of vectors[i] over ids, counted with repeats, cut to top
        out = [0] * top
        for i in ids:
            out = list(map(add, out, vectors[i]))
        return out

    # right[x][y] = x (1 y): the column sums, read by rows
    right = list(zip(*[total(columns, terms(size + y)) for y in range(top)]))
    # (x 1) y, a row at a time
    return all(tuple(total(rows, terms(x * size + 1))) == right[x] for x in range(top))


def _exactly(ts, *terms: int) -> bool:
    # the product ts lists the distinct terms, each once, and nothing else
    return len(ts) == len(terms) and all(t in ts for t in terms)


def _full_comparison(max_value: int) -> dict:
    """associativity_unbounded's record from every triple up to the bound.

    _cg_op is called for each m, n <= reach with m or n at most max_value,
    which covers every product of a product: reach is the largest term of a
    product a b with a, b <= max_value, found by reading those products once
    more, and at least 2 * max_value, the fusion rule's. Each result is read
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
    all. Any other product is summed term by term. Rows run in
    lexicographic order of (a, b), and a row that differs is read c by c,
    so the witness is the first failing triple in lexicographic order.
    """
    outer = range(max_value + 1)
    reach = max(2 * max_value, *(max(_cg_op(a, b), default=0) for a in outer for b in outer))
    table = range(reach + 1)
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
