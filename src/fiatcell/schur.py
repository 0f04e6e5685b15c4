"""Margin matrices, RSK and the cell combinatorics they classify.

The basis in rank (n, r) is the set of n-by-n nonnegative integer matrices
with entry sum r; these index double cosets of Young subgroups in the
symmetric group on r letters. Row insertion on the row-major biword of a
matrix gives a pair (P, Q) of semistandard tableaux of the same shape; left
cells are the fibers of A -> P, right cells the fibers of A -> Q, two-sided
cells the fibers of the shape. No composition table exists at this level
(structure constants would need canonical-basis data), so only the
intersection half of strong regularity is checked.

A matrix here is one flat row-major tuple of its n * n entries, a tableau a
tuple of row tuples. The validated dataclasses (`MarginMatrix`, `Tableau`,
`RskPair`, `cells_via_rsk`) live in `tableaux`, which converts matrices to
row tuples, so the check suite and the command-line verbs load no `dataclasses`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, compress, groupby, product
from math import comb, isqrt
from operator import itemgetter

from .checks import ConsistencyError, InputError, check, check_range, emit, emit_results
from .checks import is_int, parse_range, probes, status

SCHUR_LIMIT_N = 4
SCHUR_LIMIT_R = 8


def check_schur_rank(n: int, r: int) -> None:
    check_range("n", n, 1, SCHUR_LIMIT_N)
    check_range("r", r, 1, SCHUR_LIMIT_R)


def enumerate_dominant(n: int, r: int) -> list[tuple[int, ...]]:
    """All weakly decreasing vectors in {1..n}^r, lexicographically from
    (n,...,n) down to (1,...,1)."""
    check_schur_rank(n, r)
    return [v for v in combinations_with_replacement(range(n, 0, -1), r)]


def stabilizer_composition(v) -> tuple[int, ...]:
    """Block sizes of equal consecutive entries of a dominant vector."""
    v = tuple(v)
    if any(a < b for a, b in zip(v, v[1:])):
        raise InputError(f"{v} is not weakly decreasing")
    return tuple(len(list(g)) for _, g in groupby(v))


def vector_content(v, n: int) -> tuple[int, ...]:
    """Counts of each value 1..n in a vector."""
    out = [0] * n
    for x in v:
        if not 1 <= x <= n:
            raise InputError(f"entry {x} is outside 1..{n}")
        out[x - 1] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def _bounded(total: int, caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Compositions of total (at most sum(caps)) with part j at most
    caps[j], ascending lexicographically. Cached: the Schur limits bound
    its arguments to a few thousand."""
    if len(caps) == 1:
        return ((total,),)
    rest = sum(caps[1:])
    return tuple(
        (first,) + tail
        for first in range(max(0, total - rest), min(total, caps[0]) + 1)
        for tail in _bounded(total - first, caps[1:])
    )


def _margins(n: int, r: int) -> tuple[tuple[int, ...], ...]:
    """The compositions of r into n parts, ascending: the margin vectors."""
    return _bounded(r, (r,) * n)


def _tables(mu: tuple[int, ...], nu: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The matrices with row sums mu and column sums nu (equal totals), as
    flat row-major tuples in ascending order: each row in turn ranges over
    the compositions of its sum bounded by the column sums left, and the
    last row is what is left, the one such composition."""
    partial = [((), nu)]
    for total in mu[:-1]:
        partial = [
            (prefix + row, tuple([c - x for c, x in zip(cols, row)]))
            for prefix, cols in partial
            for row in _bounded(total, cols)
        ]
    return [prefix + cols for prefix, cols in partial]


@lru_cache(maxsize=None)
def _layout(size: int):
    """For flat matrices of size n * n: the (row, column) letters of the cells,
    the transpose, and the antidominant reading (columns from the last, each
    top-down) with its letters. At n = 1 both permutations are `tuple`."""
    n = isqrt(size)
    letters = tuple(product(range(1, n + 1), repeat=2))
    if n == 1:
        return letters, tuple, tuple, letters
    transpose = itemgetter(*[k * n + l for l in range(n) for k in range(n)])
    reading = itemgetter(*[k * n + l for l in range(n - 1, -1, -1) for k in range(n)])
    return letters, transpose, reading, reading(letters)


def _check_tableau(rows) -> None:
    """Raise InputError unless rows, a tuple of row tuples, form a
    semistandard tableau: nonempty rows of weakly decreasing length,
    positive entries, weakly increasing rows, strictly increasing columns."""
    lengths = [len(r) for r in rows]
    if any(l == 0 for l in lengths):
        raise InputError("empty tableau row")
    if any(a < b for a, b in zip(lengths, lengths[1:])):
        raise InputError("row lengths must weakly decrease")
    for row in rows:
        if any(x < 1 for x in row):
            raise InputError("tableau entries must be positive")
        if any(a > b for a, b in zip(row, row[1:])):
            raise InputError("rows must weakly increase")
    for i in range(1, len(rows)):
        upper, lower = rows[i - 1], rows[i]
        if any(upper[j] >= lower[j] for j in range(len(lower))):
            raise InputError("columns must strictly increase")


def _insert(a: tuple[int, ...]) -> tuple[tuple, tuple]:
    """Row insertion of the row-major biword of a flat matrix: the entry of
    cell (k, l) inserts l that many times, recorded as k (letters from 1).
    Only the nonzero cells are walked. Returns (P, Q) as tuples of row
    tuples."""
    p: list[list[int]] = []
    q: list[list[int]] = []
    for (u, v), m in zip(compress(_layout(len(a))[0], a), filter(None, a)):
        while m:
            m -= 1
            x = v
            for prow, qrow in zip(p, q):
                i = bisect_right(prow, x)
                if i == len(prow):
                    prow.append(x)
                    qrow.append(u)
                    break
                x, prow[i] = prow[i], x
            else:
                p.append([x])
                q.append([u])
    return tuple(map(tuple, p)), tuple(map(tuple, q))


def _reverse(p, q, n: int) -> tuple[int, ...]:
    """Reverse insertion of (P, Q) given as row tuples with entries in
    1..n: the flat matrix that inserts to them. Raises ConsistencyError
    when a bumped entry has no smaller entry above it."""
    prows = [list(row) for row in p]
    entries = [0] * (n * n)
    # letters leave in the reverse of their recording order: the largest
    # first, and among equal ones the topmost row's from its end
    for u, up in sorted([(u, -i) for i, row in enumerate(q) for u in row], reverse=True):
        ri = -up
        x = prows[ri].pop()
        for row in range(ri - 1, -1, -1):
            prow = prows[row]
            idx = bisect_left(prow, x) - 1
            if idx < 0:
                raise ConsistencyError("reverse insertion fell off the tableau")
            x, prow[idx] = prow[idx], x
        entries[(u - 1) * n + x - 1] += 1
    return tuple(entries)


def partitions_at_most(r: int, parts: int, max_part: int | None = None):
    """Partitions of r with at most the given number of parts, largest
    first."""
    if r == 0:
        yield ()
        return
    if parts == 0:
        return
    if max_part is None:
        max_part = r
    for first in range(min(r, max_part), 0, -1):
        for rest in partitions_at_most(r - first, parts - 1, first):
            yield (first,) + rest


def _partition(shape, n: int) -> tuple[int, ...]:
    """A shape as a tuple; refused unless its parts are positive, weakly
    decreasing integers and the entry bound n is an integer in
    0..SCHUR_LIMIT_N."""
    check_range("n", n, 0, SCHUR_LIMIT_N)
    shape = tuple(shape)
    if not all(map(is_int, shape)):
        raise InputError(f"{shape} has a part that is not an integer")
    if any(p < 1 for p in shape) or any(a < b for a, b in zip(shape, shape[1:])):
        raise InputError(f"{shape} is not a partition")
    return shape


def _ssyt_rows(shape, n: int) -> list[tuple[tuple[int, ...], ...]]:
    """All semistandard tableaux of a shape with entries at most n, as row
    tuples, filled cell by cell in row-major order."""
    shape = _partition(shape, n)
    rows = [[0] * c for c in shape]
    cells = [(i, j) for i, c in enumerate(shape) for j in range(c)]
    out = []

    def fill(idx: int) -> None:
        if idx == len(cells):
            out.append(tuple(tuple(r) for r in rows))
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, n + 1):
            rows[i][j] = v
            fill(idx + 1)
        rows[i][j] = 0

    fill(0)
    return out


def count_ssyt(shape, n: int) -> int:
    """Number of semistandard tableaux via the hook content product; the
    enumeration route is compared against this in checks."""
    shape = _partition(shape, n)
    conj = [sum(1 for part in shape if part > j) for j in range(shape[0])] if shape else []
    num = 1
    den = 1
    for i, part in enumerate(shape):
        for j in range(part):
            num *= n + j - i
            den *= (part - j - 1) + (conj[j] - i - 1) + 1
    if num % den:
        raise ConsistencyError(f"hook content product for {shape} is not integral")
    return num // den


def _antidominant(a) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """`tableaux.antidominant_pair` on a flat matrix: its nonzero cells in
    the antidominant reading order, each repeated by its entry."""
    _, _, reading, letters = _layout(len(a))
    entries = reading(a)
    v: list[int] = []
    x: list[int] = []
    for (k, l), m in zip(compress(letters, entries), filter(None, entries)):
        v += [l] * m
        x += [k] * m
    return tuple(v), tuple(x)


def _pair_rows(n: int, v, x) -> tuple[int, ...]:
    """The flat matrix whose entry (k, l) counts the positions where v is l
    and x is k: the inverse of `_antidominant`."""
    entries = [0] * (n * n)
    for vp, xp in zip(v, x):
        entries[(xp - 1) * n + vp - 1] += 1
    return tuple(entries)


def antidominant_count(n: int, v) -> int:
    """Number of vectors in {1..n}^r that are weakly increasing on every
    stabilizer block of the dominant vector v."""
    out = 1
    for b in stabilizer_composition(v):
        out *= comb(n + b - 1, b)
    return out


def _words(content: tuple[int, ...]):
    """Distinct words with content[i] letters i, lexicographically."""
    if not any(content):
        yield ()
        return
    for i, c in enumerate(content):
        if c:
            rest = content[:i] + (c - 1,) + content[i + 1 :]
            for w in _words(rest):
                yield (i,) + w


def double_coset_count(r: int, mu, nu) -> int:
    """Number of double cosets of the Young subgroups of compositions mu
    (acting on values, from the left) and nu (acting on positions, from the
    right), by direct orbit enumeration. A left coset of the mu-subgroup is
    a word of content mu (each value replaced by the index of its mu-block);
    the nu-subgroup acts on words by swapping adjacent positions inside a
    nu-block. The walk runs on mu and nu sorted into decreasing order:
    reordering the parts of a composition conjugates its Young subgroup by
    a permutation w, and g -> w g maps the double cosets of the one onto
    those of the other, so the count is unchanged. No margin matrix is
    read."""
    if not all(map(is_int, (r, *mu, *nu))):
        raise InputError("r and the composition parts must be integers")
    if any(m < 0 for m in (*mu, *nu)):
        raise InputError("compositions must have nonnegative parts")
    if sum(mu) != r or sum(nu) != r:
        raise InputError("compositions must sum to r")
    check_range("r", r, 0, SCHUR_LIMIT_R)  # the walk lists r! / prod(mu_i!) words
    return _coset_counts([(mu, nu)])[0]


def _coset_counts(pairs) -> list[int]:
    """`double_coset_count` of each (mu, nu), in input order. Each distinct
    pair of decreasingly sorted compositions is walked once, and the words
    of a content are listed once per sorted mu."""
    def down(c) -> tuple[int, ...]:
        return tuple(sorted(c, reverse=True))

    sorted_pairs = [(down(mu), down(nu)) for mu, nu in pairs]
    counts = {}
    for mu, group in groupby(sorted(set(sorted_pairs)), key=lambda pair: pair[0]):
        words = list(_words(tuple(m for m in mu if m)))
        index = {w: i for i, w in enumerate(words)}
        for _, nu in group:
            ends = set(accumulate(nu))  # position j swaps with j + 1 inside a block
            swaps = [j for j in range(sum(nu) - 1) if j + 1 not in ends]
            seen = [False] * len(words)
            orbits = 0
            for first in range(len(words)):
                if seen[first]:
                    continue
                orbits += 1
                seen[first] = True
                stack = [words[first]]
                while stack:
                    w = stack.pop()
                    for j in swaps:
                        u = w[:j] + (w[j + 1], w[j]) + w[j + 2 :]
                        i = index[u]
                        if not seen[i]:
                            seen[i] = True
                            stack.append(u)
            counts[mu, nu] = orbits
    return [counts[pair] for pair in sorted_pairs]


def _content(t, n: int) -> tuple[int, ...]:
    """Counts of each value 1..n in a tableau given as row tuples; entries
    outside 1..n are not counted."""
    return tuple(sum(row.count(j) for row in t) for j in range(1, n + 1))


def _suite(n: int, r: int) -> tuple[list[dict], dict]:
    """The check suite over one enumeration and insertion of the basis, with
    the report's counts read from the same pass.

    The basis is walked one unordered margin pair {mu, nu} at a time on flat
    matrices and tuple tableaux: the (mu, nu) matrices are enumerated, the
    (nu, mu) matrices are their transposes, and both are inserted once and
    checked against each other, so nothing outlives the pair but counters
    and a per-shape table. Every matrix's pair, margins, round trip and
    antidominant pair are checked. P's content is the column margins and
    Q's the row margins, so with the content law (P, Q) distinctness inside
    each bucket is distinctness over the basis. The per-shape table holds
    the matrix count, each distinct P and Q with its content, and the
    shape's least (row margins, column margins, entries) key; shapes are
    reported in that key's order, the order of the two-sided classes of
    `tableaux.cells_via_rsk`. Each distinct P and Q is validated once as a
    tableau of its shape (`_check_tableau`), and so is each tableau the
    enumeration counts for the SSYT identity. The double-coset cross-check
    covers every margin pair at every rank, with one orbit walk per pair of
    sorted margins."""
    dominant = enumerate_dominant(n, r)
    margins = _margins(n, r)
    transpose = _layout(n * n)[1]
    by_margins: dict = {}  # (row margins, column margins) -> matrices
    by_columns: Counter = Counter()  # column margins -> matrices
    by_shape: dict = {}  # shape -> [least key, matrices, {P: content}, {Q: content}]
    content_bad, roundtrip_bad, transpose_bad, anti_bad, repeated = [], [], [], [], []

    def tally(rows, cols, bucket, pairs) -> None:
        by_margins[rows, cols] = len(bucket)
        by_columns[cols] += len(bucket)
        if len(set(pairs)) != len(pairs):
            repeated.extend(
                {"p-shape": [len(row) for row in p], "count": count}
                for (p, _), count in Counter(pairs).items()
                if count != 1
            )
        for a, (p, q) in zip(bucket, pairs):
            shape = tuple(map(len, p))
            key = (rows, cols, a)
            cell = by_shape.get(shape)
            if cell is None:
                by_shape[shape] = cell = [key, 0, {}, {}]
            elif key < cell[0]:
                cell[0] = key
            cell[1] += 1
            p_content = cell[2].get(p) or cell[2].setdefault(p, _content(p, n))
            q_content = cell[3].get(q) or cell[3].setdefault(q, _content(q, n))
            if p_content != cols or q_content != rows:
                content_bad.append(a)
            try:
                back = _reverse(p, q, n)
            except ConsistencyError:
                back = None
            if back != a:
                roundtrip_bad.append(a)
            if _pair_rows(n, *_antidominant(a)) != a:
                anti_bad.append(a)

    for i, mu in enumerate(margins):
        for nu in margins[i:]:
            bucket = _tables(mu, nu)
            pairs = [_insert(a) for a in bucket]
            tally(mu, nu, bucket, pairs)
            if mu == nu:
                pair_of = dict(zip(bucket, pairs))
                for a, (p, q) in zip(bucket, pairs):
                    if pair_of.get(transpose(a)) != (q, p):
                        transpose_bad.append(a)
                continue
            flipped = list(map(transpose, bucket))
            flipped_pairs = [_insert(t) for t in flipped]
            for a, t, (p, q), swapped in zip(bucket, flipped, pairs, flipped_pairs):
                if swapped != (q, p):
                    transpose_bad += [a, t]
            tally(nu, mu, flipped, flipped_pairs)
    matrices = sum(by_margins.values())

    tableau_bad = []
    for shape, (_, _, lefts, rights) in by_shape.items():
        for t in (*lefts, *rights):
            try:
                _check_tableau(t)
                ok = tuple(map(len, t)) == shape
            except InputError:
                ok = False
            if not ok:
                tableau_bad.append({"shape": list(shape), "tableau": [list(row) for row in t]})

    def listed(bad) -> list:
        """Flat matrices as lists of row lists, in basis order."""
        rows = ([list(a[k : k + n]) for k in range(0, n * n, n)] for a in bad)
        return sorted(rows, key=lambda a: (list(map(sum, a)), list(map(sum, zip(*a))), a))

    roundtrip_bad, transpose_bad, anti_bad = map(listed, (roundtrip_bad, transpose_bad, anti_bad))
    content_bad = listed(content_bad) + tableau_bad
    for v in dominant:
        if by_columns[vector_content(v, n)] != antidominant_count(n, v):
            anti_bad.append({"vector": list(v)})

    shapes = list(partitions_at_most(r, n))
    by_enum = {}
    for shape in shapes:
        filled = _ssyt_rows(shape, n)
        for t in filled:
            _check_tableau(t)
        by_enum[shape] = len(filled)
    by_hook = {shape: count_ssyt(shape, n) for shape in shapes}
    identity_ok = (
        by_enum == by_hook
        and sum(c * c for c in by_enum.values()) == comb(n * n + r - 1, r)
    )

    shape_rows, size_bad, pair_total = [], [], 0
    for shape, (_, count, lefts, rights) in sorted(by_shape.items(), key=lambda kv: kv[1][0]):
        expected = count_ssyt(shape, n)
        pair_total += expected * expected
        shape_rows.append(
            {
                "shape": list(shape),
                "matrices": count,
                "ssyt": expected,
                "left-cells": len(lefts),
                "right-cells": len(rights),
            }
        )
        if len(lefts) != expected or len(rights) != expected:
            size_bad.append({"shape": list(shape), "left": len(lefts), "right": len(rights)})
    # intersection half of strong regularity: inside one shape every left
    # cell meets every right cell in exactly one matrix, across shapes in none
    meet_bad = list(repeated)
    if pair_total != matrices:
        meet_bad.append({"pair-count": pair_total, "matrix-count": matrices})

    margin_pairs = sorted(by_margins)
    coset_bad = []
    for (mu, nu), got in zip(margin_pairs, _coset_counts(margin_pairs)):
        want = by_margins[mu, nu]
        if got != want:
            coset_bad.append({"row": list(mu), "col": list(nu), "orbits": got, "matrices": want})

    dominant_ok = len(dominant) == comb(n + r - 1, r) and dominant == sorted(dominant, reverse=True)
    checks = [
        check("dominant-vector-count", dominant_ok, [len(dominant)]),
        check("margin-matrix-count", matrices == comb(n * n + r - 1, r), [matrices]),
        check("rsk-content-laws", not content_bad, content_bad),
        check("rsk-roundtrip-bijection", not roundtrip_bad and not repeated, roundtrip_bad),
        check(
            "ssyt-counting-identity",
            identity_ok,
            [] if identity_ok else [{" ".join(map(str, k)): v for k, v in by_enum.items()}],
        ),
        check(
            "two-sided-cells-are-shapes",
            len(by_shape) == len(shapes),
            [len(by_shape), len(shapes)],
        ),
        check("cells-per-shape-count", not size_bad, size_bad),
        check("left-right-intersections-singleton", not meet_bad, meet_bad),
        check("transpose-swaps-tableaux", not transpose_bad, transpose_bad),
        check("antidominant-indexing-bijection", not anti_bad, anti_bad),
        check("double-coset-counts", not coset_bad, coset_bad),
    ]
    counts = {
        "dominant-vectors": len(dominant),
        "matrices": matrices,
        "two-sided-cells": len(by_shape),
        "shapes": shape_rows,
    }
    return checks, counts


def verify_schur(n: int, r: int) -> list[dict]:
    """Full check suite for the rank-(n, r) matrix combinatorics."""
    return _suite(n, r)[0]


def schur_report(n: int, r: int) -> dict:
    """Cells report: shapes with tableau and matrix counts, plus the check
    suite."""
    checks, counts = _suite(n, r)
    return {"format": 1, "n": n, "r": r, **counts, "checks": checks}


def cmd_build(args) -> int:
    report = schur_report(args.n, args.r)
    emit(report, args.output)
    return 0 if status(report["checks"]) == "pass" else 1


def cmd_verify(args) -> int:
    ns, rs = parse_range(args.n), parse_range(args.r)
    for n in probes(ns, SCHUR_LIMIT_N):
        for r in probes(rs, SCHUR_LIMIT_R):
            check_schur_rank(n, r)
    runs = [({"n": n, "r": r}, verify_schur(n, r)) for n in ns for r in rs]
    return emit_results("schur", runs, args.output)
