"""Validated margin matrices, tableaux and RSK pairs, and the RSK cells.

The typed face of the Schur layer: frozen dataclasses that check their
invariants when built, over the kernels of `schur`. Matrices here are row
tuples, as `MarginMatrix.entries`; the kernels take and give flat row-major
tuples, and every function converts at the boundary. The check suite and
the command-line verbs run on those kernels alone and never load this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import TYPE_CHECKING

from .checks import ConsistencyError, InputError, check_type, is_int
from .schur import (
    _antidominant,
    _check_tableau,
    _insert,
    _margins,
    _reverse,
    _ssyt_rows,
    _tables,
    check_schur_rank,
)

if TYPE_CHECKING:
    from .cells import CellPartition


def _flat(a: "MarginMatrix") -> tuple[int, ...]:
    """The entries of a matrix as one row-major tuple."""
    return tuple(chain.from_iterable(a.entries))


def _rows(flat, n: int) -> tuple[tuple[int, ...], ...]:
    """A flat row-major matrix as a tuple of n row tuples."""
    return tuple(zip(*[iter(flat)] * n))


def _check_rows(rows, what: str) -> None:
    """Raise InputError unless rows is a tuple of row tuples of integers
    (checks.is_int)."""
    if not (isinstance(rows, tuple) and all(isinstance(row, tuple) for row in rows)):
        raise InputError(f"{what} must be a tuple of row tuples, got {rows!r}")
    for row in rows:
        for x in row:
            if not is_int(x):
                raise InputError(f"{what} entry must be an integer, got {x!r}")


@dataclass(frozen=True)
class MarginMatrix:
    """Square nonnegative integer matrix; rows index the target-side word,
    columns the source-side word."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_rows(self.entries, "matrix")
        n = len(self.entries)
        if n == 0:
            raise InputError("empty matrix")
        for row in self.entries:
            if len(row) != n:
                raise InputError("matrix is not square")
            for x in row:
                if x < 0:
                    raise InputError(f"negative entry {x}")

    def transpose(self) -> "MarginMatrix":
        return MarginMatrix(tuple(zip(*self.entries)))


@dataclass(frozen=True)
class Tableau:
    """Semistandard Young tableau: weakly increasing rows, strictly
    increasing columns, positive entries."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        _check_rows(self.rows, "tableau")
        _check_tableau(self.rows)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(r) for r in self.rows)


@dataclass(frozen=True)
class RskPair:
    """Insertion tableau and recording tableau of equal shape."""

    p: Tableau
    q: Tableau

    def __post_init__(self) -> None:
        check_type("insertion tableau", self.p, Tableau)
        check_type("recording tableau", self.q, Tableau)
        if self.p.shape != self.q.shape:
            raise InputError("tableaux have different shapes")


def rsk(a: MarginMatrix) -> RskPair:
    """Row insertion of the biword: bottom letters build the insertion
    tableau, top letters record the growth."""
    check_type("matrix", a, MarginMatrix)
    p, q = _insert(_flat(a))
    return RskPair(p=Tableau(p), q=Tableau(q))


def rsk_inverse(pair: RskPair, n: int) -> MarginMatrix:
    """The unique matrix inserting to the given pair."""
    check_type("pair", pair, RskPair)
    if not is_int(n):
        raise InputError(f"n must be an integer, got {n!r}")
    for t in (pair.p, pair.q):
        for row in t.rows:
            if any(x > n for x in row):
                raise InputError(f"tableau entry {max(row)} exceeds n={n}")
    return MarginMatrix(_rows(_reverse(pair.p.rows, pair.q.rows, n), n))


def ssyt_of_shape(shape, n: int) -> list[Tableau]:
    """All semistandard tableaux of a shape with entries at most n."""
    return [Tableau(rows) for rows in _ssyt_rows(shape, n)]


def antidominant_pair(a: MarginMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(dominant source vector, block-sorted target vector) of a matrix.

    The source vector lists column indexes weakly decreasing; within each
    block of equal source entries the target vector lists the matching
    column of the matrix weakly increasing, the antidominant representative
    of its coset.
    """
    return _antidominant(_flat(a))


@dataclass(frozen=True)
class RskCells:
    """The three cell partitions of the margin-matrix basis, on row tuples."""

    matrices: tuple[tuple[tuple[int, ...], ...], ...]
    left: CellPartition
    right: CellPartition
    two_sided: CellPartition


def cells_via_rsk(n: int, r: int) -> RskCells:
    """Left cells are fibers of the insertion tableau, right cells fibers of
    the recording tableau, two-sided cells fibers of the shape. Matrices and
    class members are row tuples (`MarginMatrix.entries`), matrices ordered
    by (row margins, column margins, entries), classes in the order of their
    first members.
    Each matrix is inserted once, each distinct P and Q validated once as a
    `Tableau`."""
    from .cells import CellPartition  # here, so importing tableaux loads no shadow

    check_schur_rank(n, r)
    margins = _margins(n, r)
    intern = {}.setdefault  # one tuple per distinct row, shared by the matrices
    # dicts keep first-seen order, so classes come ordered by first member
    left, right, shapes = {}, {}, {}

    def filed(flat):
        """The matrix as row tuples, added to the fibers of its P, Q and shape."""
        a = tuple([intern(row, row) for row in _rows(flat, n)])
        p, q = _insert(flat)
        shape = tuple(map(len, p))
        if tuple(map(len, q)) != shape:
            raise ConsistencyError(f"P and Q of {a} have different shapes")
        left.setdefault(p, []).append(a)
        right.setdefault(q, []).append(a)
        shapes.setdefault(shape, []).append(a)
        return a

    matrices = tuple(filed(a) for mu, nu in product(margins, repeat=2) for a in _tables(mu, nu))
    for t in (*left, *right):
        Tableau(t)
    kinds = (("left", left), ("right", right), ("two-sided", shapes))
    partitions = (CellPartition(k, tuple(map(frozenset, f.values()))) for k, f in kinds)
    return RskCells(matrices, *partitions)
