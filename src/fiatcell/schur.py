"""Margin matrices, RSK and the cell combinatorics they classify.

The basis in rank (n, r) is the set of n-by-n nonnegative integer matrices
with entry sum r; these index double cosets of Young subgroups in the
symmetric group on r letters. Row insertion on the row-major biword of a
matrix gives a pair (P, Q) of semistandard tableaux of the same shape; left
cells are the fibers of A -> P, right cells the fibers of A -> Q, two-sided
cells the fibers of the shape. No composition table exists at this level
(structure constants would need canonical-basis data), so only the
intersection half of strong regularity is checked.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import combinations_with_replacement, groupby
from math import comb

from .cells import CellPartition
from .checks import check
from .shadow import ConsistencyError, InputError

SCHUR_LIMIT_N = 4
SCHUR_LIMIT_R = 8


def _check_rank(n: int, r: int) -> None:
    if not 1 <= n <= SCHUR_LIMIT_N:
        raise InputError(f"n must be between 1 and {SCHUR_LIMIT_N}, got {n}")
    if not 1 <= r <= SCHUR_LIMIT_R:
        raise InputError(f"r must be between 1 and {SCHUR_LIMIT_R}, got {r}")


def enumerate_dominant(n: int, r: int) -> list[tuple[int, ...]]:
    """All weakly decreasing vectors in {1..n}^r, lexicographically from
    (n,...,n) down to (1,...,1)."""
    _check_rank(n, r)
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


@dataclass(frozen=True)
class MarginMatrix:
    """Square nonnegative integer matrix; rows index the target-side word,
    columns the source-side word."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if n == 0:
            raise InputError("empty matrix")
        for row in self.entries:
            if len(row) != n:
                raise InputError("matrix is not square")
            for x in row:
                if x < 0:
                    raise InputError(f"negative entry {x}")

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.entries)

    @property
    def row_margins(self) -> tuple[int, ...]:
        return tuple(sum(row) for row in self.entries)

    @property
    def col_margins(self) -> tuple[int, ...]:
        return tuple(sum(col) for col in zip(*self.entries))

    def transpose(self) -> "MarginMatrix":
        return MarginMatrix(tuple(zip(*self.entries)))

    def as_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


def involution_transpose(a: MarginMatrix) -> MarginMatrix:
    """The adjoint on the matrix model; swaps insertion and recording."""
    return a.transpose()


def biword(a: MarginMatrix) -> list[tuple[int, int]]:
    """Row-major biword: entry a[k][l] contributes that many pairs (k+1, l+1)."""
    out = []
    for k, row in enumerate(a.entries):
        for l, m in enumerate(row):
            out.extend([(k + 1, l + 1)] * m)
    return out


def _sum_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _sum_compositions(total - first, parts - 1):
            yield (first,) + rest


def enumerate_basis(n: int, r: int) -> list[MarginMatrix]:
    """All n-by-n nonnegative integer matrices with entry sum r, grouped by
    (row margins, column margins) and ordered within a group."""
    _check_rank(n, r)
    out = [
        MarginMatrix(tuple(flat[i * n : (i + 1) * n] for i in range(n)))
        for flat in _sum_compositions(r, n * n)
    ]
    out.sort(key=lambda a: (a.row_margins, a.col_margins, a.entries))
    return out


@dataclass(frozen=True)
class Tableau:
    """Semistandard Young tableau: weakly increasing rows, strictly
    increasing columns, positive entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        lengths = [len(r) for r in self.rows]
        if any(l == 0 for l in lengths):
            raise InputError("empty tableau row")
        if any(a < b for a, b in zip(lengths, lengths[1:])):
            raise InputError("row lengths must weakly decrease")
        for row in self.rows:
            if any(x < 1 for x in row):
                raise InputError("tableau entries must be positive")
            if any(a > b for a, b in zip(row, row[1:])):
                raise InputError("rows must weakly increase")
        for i in range(1, len(self.rows)):
            upper, lower = self.rows[i - 1], self.rows[i]
            if any(upper[j] >= lower[j] for j in range(len(lower))):
                raise InputError("columns must strictly increase")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)

    def content(self, n: int) -> tuple[int, ...]:
        return vector_content([x for row in self.rows for x in row], n)


@dataclass(frozen=True)
class RskPair:
    """Insertion tableau and recording tableau of equal shape."""

    p: Tableau
    q: Tableau

    def __post_init__(self) -> None:
        if self.p.shape != self.q.shape:
            raise InputError("tableaux have different shapes")


def rsk(a: MarginMatrix) -> RskPair:
    """Row insertion of the biword: bottom letters build the insertion
    tableau, top letters record the growth."""
    p: list[list[int]] = []
    q: list[list[int]] = []
    for u, v in biword(a):
        x = v
        row = 0
        while True:
            if row == len(p):
                p.append([x])
                q.append([u])
                break
            idx = bisect_right(p[row], x)
            if idx == len(p[row]):
                p[row].append(x)
                q[row].append(u)
                break
            x, p[row][idx] = p[row][idx], x
            row += 1
    return RskPair(
        p=Tableau(tuple(tuple(r) for r in p)),
        q=Tableau(tuple(tuple(r) for r in q)),
    )


def rsk_inverse(pair: RskPair, n: int) -> MarginMatrix:
    """The unique matrix inserting to the given pair."""
    for t in (pair.p, pair.q):
        for row in t.rows:
            if any(x > n for x in row):
                raise InputError(f"tableau entry {max(row)} exceeds n={n}")
    prows = [list(r) for r in pair.p.rows]
    qrows = [list(r) for r in pair.q.rows]
    rev_pairs = []
    while prows:
        u = max(row[-1] for row in qrows)
        ri = max(
            (i for i, row in enumerate(qrows) if row[-1] == u),
            key=lambda i: len(qrows[i]),
        )
        qrows[ri].pop()
        x = prows[ri].pop()
        for row in range(ri - 1, -1, -1):
            idx = bisect_left(prows[row], x) - 1
            if idx < 0:
                raise ConsistencyError("reverse insertion fell off the tableau")
            x, prows[row][idx] = prows[row][idx], x
        rev_pairs.append((u, x))
        while prows and not prows[-1]:
            prows.pop()
            qrows.pop()
    entries = [[0] * n for _ in range(n)]
    for u, v in reversed(rev_pairs):
        entries[u - 1][v - 1] += 1
    return MarginMatrix(tuple(tuple(row) for row in entries))


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


def ssyt_of_shape(shape, n: int) -> list[Tableau]:
    """All semistandard tableaux of a shape with entries at most n."""
    shape = tuple(shape)
    if not shape:
        return [Tableau(())]
    rows = [[0] * c for c in shape]
    cells = [(i, j) for i, c in enumerate(shape) for j in range(c)]
    out: list[Tableau] = []

    def fill(idx: int) -> None:
        if idx == len(cells):
            out.append(Tableau(tuple(tuple(r) for r in rows)))
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
    shape = tuple(shape)
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


@dataclass(frozen=True)
class RskCells:
    """The three cell partitions of the margin-matrix basis."""

    matrices: tuple[MarginMatrix, ...]
    pairs: dict[MarginMatrix, RskPair]
    left: CellPartition
    right: CellPartition
    two_sided: CellPartition


def cells_via_rsk(n: int, r: int) -> RskCells:
    """Left cells are fibers of the insertion tableau, right cells fibers of
    the recording tableau, two-sided cells fibers of the shape."""
    matrices = tuple(enumerate_basis(n, r))
    pairs = {a: rsk(a) for a in matrices}

    def fibers(key) -> tuple[frozenset, ...]:
        # dicts keep first-seen order, so classes come ordered by first member
        groups: dict = {}
        for a in matrices:
            groups.setdefault(key(a), []).append(a)
        return tuple(frozenset(v) for v in groups.values())

    return RskCells(
        matrices=matrices,
        pairs=pairs,
        left=CellPartition(kind="left", classes=fibers(lambda a: pairs[a].p)),
        right=CellPartition(kind="right", classes=fibers(lambda a: pairs[a].q)),
        two_sided=CellPartition(
            kind="two-sided", classes=fibers(lambda a: pairs[a].p.shape)
        ),
    )


def schur_strong_regularity(n: int, r: int, cells: RskCells | None = None) -> dict:
    """Intersection half of strong regularity: inside one shape every left
    cell meets every right cell in exactly one matrix, across shapes in
    none. Cell incomparability needs structure constants and is out of
    scope here."""
    if cells is None:
        cells = cells_via_rsk(n, r)
    witnesses = []
    seen = Counter((pair.p, pair.q) for pair in cells.pairs.values())
    for (p, q), count in seen.items():
        if count != 1:
            witnesses.append({"p-shape": list(p.shape), "count": count})
    shapes = {pair.p.shape for pair in cells.pairs.values()}
    expected = sum(count_ssyt(shape, n) ** 2 for shape in shapes)
    if expected != len(cells.matrices):
        witnesses.append(
            {"pair-count": expected, "matrix-count": len(cells.matrices)}
        )
    return check("left-right-intersections-singleton", not witnesses, witnesses)


def antidominant_pair(a: MarginMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(dominant source vector, block-sorted target vector) of a matrix.

    The source vector lists column indexes weakly decreasing; within each
    block of equal source entries the target vector lists the matching
    column of the matrix weakly increasing, the antidominant representative
    of its coset.
    """
    n = a.size
    v: list[int] = []
    x: list[int] = []
    for l in range(n, 0, -1):
        col = [a.entries[k - 1][l - 1] for k in range(1, n + 1)]
        v.extend([l] * sum(col))
        for k in range(1, n + 1):
            x.extend([k] * col[k - 1])
    return tuple(v), tuple(x)


def pair_matrix(n: int, v, x) -> MarginMatrix:
    """Matrix with entry (k, l) counting positions where v is l and x is k."""
    v, x = tuple(v), tuple(x)
    if len(v) != len(x):
        raise InputError("vectors have different lengths")
    entries = [[0] * n for _ in range(n)]
    for vp, xp in zip(v, x):
        if not (1 <= vp <= n and 1 <= xp <= n):
            raise InputError(f"entry ({xp}, {vp}) outside 1..{n}")
        entries[xp - 1][vp - 1] += 1
    return MarginMatrix(tuple(tuple(row) for row in entries))


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
    nu-block. No margin matrix is read."""
    mu = tuple(m for m in mu if m)
    nu = tuple(m for m in nu if m)
    if sum(mu) != r or sum(nu) != r:
        raise InputError("compositions must sum to r")
    swaps: list[int] = []  # position j swaps with j + 1
    start = 0
    for b in nu:
        swaps.extend(range(start, start + b - 1))
        start += b
    words = list(_words(mu))
    index = {w: i for i, w in enumerate(words)}
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
    return orbits


def _suite(n: int, r: int, cells: RskCells, dominant: list) -> list[dict]:
    """The check suite over one insertion of the basis: one pass reads each
    matrix's pair, margins, round trip, transpose and antidominant pair."""
    basis, pairs = cells.matrices, cells.pairs
    by_margins: Counter = Counter()  # (row margins, column margins) -> matrices
    by_columns: Counter = Counter()  # column margins -> matrices
    content_bad, roundtrip_bad, transpose_bad, anti_bad = [], [], [], []
    for a in basis:
        pair = pairs[a]
        rows, cols = a.row_margins, a.col_margins
        by_margins[rows, cols] += 1
        by_columns[cols] += 1
        if (
            pair.p.content(n) != cols
            or pair.q.content(n) != rows
            or pair.p.shape != pair.q.shape
        ):
            content_bad.append(a.as_lists())
        if rsk_inverse(pair, n) != a:
            roundtrip_bad.append(a.as_lists())
        t = involution_transpose(a)
        tpair = pairs.get(t)
        if (
            involution_transpose(t) != a
            or tpair is None
            or tpair.p != pair.q
            or tpair.q != pair.p
        ):
            transpose_bad.append(a.as_lists())
        if pair_matrix(n, *antidominant_pair(a)) != a:
            anti_bad.append(a.as_lists())
    for v in dominant:
        if by_columns[vector_content(v, n)] != antidominant_count(n, v):
            anti_bad.append({"vector": list(v)})

    distinct = len({(pair.p, pair.q) for pair in pairs.values()})
    shapes = list(partitions_at_most(r, n))
    by_enum = {shape: len(ssyt_of_shape(shape, n)) for shape in shapes}
    by_hook = {shape: count_ssyt(shape, n) for shape in shapes}
    identity_ok = (
        by_enum == by_hook
        and sum(c * c for c in by_enum.values()) == comb(n * n + r - 1, r)
    )

    size_bad = []
    for cls in cells.two_sided.classes:
        shape = pairs[next(iter(cls))].p.shape
        lefts = {pairs[a].p for a in cls}
        rights = {pairs[a].q for a in cls}
        expected = count_ssyt(shape, n)
        if len(lefts) != expected or len(rights) != expected:
            size_bad.append(
                {"shape": list(shape), "left": len(lefts), "right": len(rights)}
            )

    if r <= 5:
        margin_pairs = sorted(by_margins)
    else:
        margin_pairs = sorted({(m, m) for m, _ in by_margins})
    coset_bad = []
    for mu, nu in margin_pairs:
        got = double_coset_count(r, mu, nu)
        expected = by_margins[mu, nu]
        if got != expected:
            coset_bad.append(
                {"row": list(mu), "col": list(nu), "orbits": got, "matrices": expected}
            )

    return [
        check(
            "dominant-vector-count",
            len(dominant) == comb(n + r - 1, r)
            and dominant == sorted(dominant, reverse=True),
            [len(dominant)],
        ),
        check("margin-matrix-count", len(basis) == comb(n * n + r - 1, r), [len(basis)]),
        check("rsk-content-laws", not content_bad, content_bad),
        check(
            "rsk-roundtrip-bijection",
            not roundtrip_bad and distinct == len(basis),
            roundtrip_bad,
        ),
        check(
            "ssyt-counting-identity",
            identity_ok,
            [] if identity_ok else [{" ".join(map(str, k)): v for k, v in by_enum.items()}],
        ),
        check(
            "two-sided-cells-are-shapes",
            len(cells.two_sided.classes) == len(shapes),
            [len(cells.two_sided.classes), len(shapes)],
        ),
        check("cells-per-shape-count", not size_bad, size_bad),
        schur_strong_regularity(n, r, cells),
        check("transpose-swaps-tableaux", not transpose_bad, transpose_bad),
        check("antidominant-indexing-bijection", not anti_bad, anti_bad),
        check("double-coset-counts", not coset_bad, coset_bad),
    ]


def verify_schur(n: int, r: int) -> list[dict]:
    """Full check suite for the rank-(n, r) matrix combinatorics."""
    return _suite(n, r, cells_via_rsk(n, r), enumerate_dominant(n, r))


def schur_report(n: int, r: int) -> dict:
    """Cells report: shapes with tableau and matrix counts, plus the check
    suite."""
    cells = cells_via_rsk(n, r)
    dominant = enumerate_dominant(n, r)
    shape_rows = []
    for cls in cells.two_sided.classes:
        shape = cells.pairs[next(iter(cls))].p.shape
        shape_rows.append(
            {
                "shape": list(shape),
                "matrices": len(cls),
                "ssyt": count_ssyt(shape, n),
                "left-cells": len({cells.pairs[a].p for a in cls}),
                "right-cells": len({cells.pairs[a].q for a in cls}),
            }
        )
    return {
        "format": 1,
        "n": n,
        "r": r,
        "dominant-vectors": len(dominant),
        "matrices": len(cells.matrices),
        "two-sided-cells": len(cells.two_sided.classes),
        "shapes": shape_rows,
        "checks": _suite(n, r, cells, dominant),
    }
