"""Green's relations, cells and cell modules for shadows.

The order convention makes bigger principal ideals smaller elements:
a <= b iff the principal ideal generated by b is contained in the one
generated by a. Identities are minimal for their own object, and in the
divided-power families the cell of the identity at object 0 comes out
maximal. Cells are the equivalence classes of mutual comparability.

Cell data is memoised on the shadow: the first question about cells builds
the one-round left, right and two-sided ideals of every element as int
bitsets (bit i is s.elements[i]), in one pass over the shadow's integer
view, and every later partition, poset, regularity check, m-statistic and
cell module reads them. Shadows are immutable, so the memo cannot go stale.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .checks import check_type, emit, write_text
from .shadow import Element, InputError, Shadow, StructureError, _pairs

KINDS = ("left", "right", "two-sided")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise InputError(f"kind must be one of {KINDS}, got {kind!r}")


def _bits(x: int) -> Iterator[int]:
    """The positions of the set bits of x, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def principal_ideal(s: Shadow, a: Element, kind: str) -> frozenset[Element]:
    """Elements reachable from a by composing on the given side(s).

    One round of products suffices: the result of composing into a product
    is again a product, so the set below is already an ideal.
    """
    _check_kind(kind)
    check_type("shadow", s, Shadow)
    k = s.index_of(a)
    ideal = cell_data(s, kind).ideals[k]
    return frozenset(s.elements[i] for i in _bits(ideal))


def _ideal_bitsets(s: Shadow) -> dict[str, tuple[int, ...]]:
    """The one-round ideals of every element, per kind, in one pass.

    Each element's own bit is set. For every composable pair (a, b) the
    support of a after b joins the left ideal of b and the right ideal of
    a; the two-sided ideal of a is the union of the left ideals over its
    right ideal. A composable pair without an entry reads as zero on a
    partial shadow and is a StructureError otherwise.
    """
    source, by_target, rows, _, _ = s._view
    n = len(s.elements)
    left = [1 << i for i in range(n)]
    right = list(left)
    for a in range(n):
        a_row = a * n
        for b in by_target.get(source[a], ()):
            row = rows[a_row + b]
            if row is None:
                if s.partial:
                    continue
                a_name, b_name = s.elements[a].name, s.elements[b].name
                raise StructureError(f"missing table entry for ({a_name}, {b_name})")
            support = 0
            for t in row[::2]:
                support |= 1 << t
            left[b] |= support
            right[a] |= support
    two_sided = []
    for r in right:
        ideal = 0
        for k in _bits(r):
            ideal |= left[k]
        two_sided.append(ideal)
    return {"left": tuple(left), "right": tuple(right), "two-sided": tuple(two_sided)}


class CellPartition(NamedTuple):
    kind: str
    classes: tuple[frozenset, ...]

    def class_of(self, member) -> frozenset:
        for cls in self.classes:
            if member in cls:
                return cls
        raise InputError(f"{member!r} is not in any class")


class CellData(NamedTuple):
    """The one-round ideals of one kind as int bitsets, in element order,
    their cells, and the cell of each element, by id."""

    ideals: tuple[int, ...]
    partition: CellPartition
    cell_of: tuple[frozenset[Element], ...]


def cell_data(s: Shadow, kind: str) -> CellData:
    """The memoised ideals and cells of s for one kind; all three kinds are
    built together on first use.

    Cells are the classes of equal ideals, ordered by their smallest member
    in canonical element order. Anything but a Shadow is an InputError.
    """
    _check_kind(kind)
    check_type("shadow", s, Shadow)
    if not s._cells:
        for k, ideals in _ideal_bitsets(s).items():
            classes: dict[int, list[Element]] = {}
            for a, ideal in zip(s.elements, ideals):
                classes.setdefault(ideal, []).append(a)
            cells = {ideal: frozenset(cls) for ideal, cls in classes.items()}
            partition = CellPartition(kind=k, classes=tuple(cells.values()))
            s._cells[k] = CellData(ideals, partition, tuple(map(cells.__getitem__, ideals)))
    return s._cells[kind]


def cell_partition(s: Shadow, kind: str) -> CellPartition:
    """Equivalence classes of mutual ideal containment, in canonical order."""
    return cell_data(s, kind).partition


class CellPoset(NamedTuple):
    """Two-sided cells with the induced order; cells indexed canonically.

    up[i] is the up-set of cell i as an int bitset over cell indexes: bit j
    is set when cell i <= cell j, so bit i is always set. covers lists the
    pairs (i, j) with i < j in the order and nothing strictly between,
    ascending.
    """

    cells: tuple[frozenset[Element], ...]
    up: tuple[int, ...]
    covers: tuple[tuple[int, int], ...]

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def cell_index(self, e: Element) -> int:
        for i, cls in enumerate(self.cells):
            if e in cls:
                return i
        raise InputError(f"{e.name!r} is not in any cell")


def cell_poset(s: Shadow) -> CellPoset:
    ideals, partition, _ = cell_data(s, "two-sided")
    cells = partition.classes
    rep_ideals = [ideals[min(s.index_of(e) for e in cls)] for cls in cells]
    up = tuple(
        sum(1 << j for j, b in enumerate(rep_ideals) if not b & ~a) for a in rep_ideals
    )
    covers = []
    for i, above in enumerate(up):
        strict = above & ~(1 << i)
        # j covers i when no strict upper bound k of i has j strictly above it
        between = 0
        for k in _bits(strict):
            between |= up[k] & ~(1 << k)
        covers.extend((i, j) for j in _bits(strict & ~between))
    return CellPoset(cells=cells, up=up, covers=tuple(covers))


def poset_to_dot(s: Shadow, poset: CellPoset) -> str:
    """Graphviz source: one node per cell, edges are covering relations.

    An edge a -> b means cell a is strictly below cell b.
    """
    check_type("shadow", s, Shadow)
    check_type("poset", poset, CellPoset)
    lines = ["digraph cell_poset {", "  rankdir=BT;"]
    for i, cls in enumerate(poset.cells):
        label = " | ".join(e.name for e in sorted(cls, key=s.index_of))
        label = label.replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'  c{i} [label="{label}"];')
    for i, j in poset.covers:
        lines.append(f"  c{i} -> c{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


Matrix = tuple[tuple[int, ...], ...]


class CellModuleMatrices(NamedTuple):
    left_cell: frozenset[Element]
    basis: tuple[Element, ...]
    matrices: dict[Element, Matrix]


def cell_module(s: Shadow, left_cell: frozenset[Element]) -> CellModuleMatrices:
    """Integer matrices of the action on a left cell, truncated to the cell.

    The matrix of a has (h, f) entry the multiplicity of h in a after f,
    for h, f in the cell; each matrix is a tuple of rows of Python ints.
    On a full table truncation is exact: a term of a product landing above
    the cell can never fall back in, so matrix products agree with
    composition (checked exhaustively in tests). On a partial shadow it
    need not be: the window omits the products it cannot see, a product can
    leave the cell and come back, and the matrices need not form a
    representation (on window_shadow(6), M_1 M_1 != M_0 + M_2).

    Only the composable pairs (a, f) are read, and every matrix starts
    from one shared zero matrix, whose rows are shared immutable tuples.
    """
    check_type("shadow", s, Shadow)
    check_type("left cell", left_cell, frozenset)
    partition = cell_partition(s, "left")
    if left_cell not in partition.classes:
        raise InputError("the given set is not a left cell of this shadow")
    ids = sorted(map(s.index_of, left_cell))
    pos = {f: i for i, f in enumerate(ids)}
    source, _, rows, _, _ = s._view
    n = len(s.elements)
    zero = (0,) * len(ids)
    blank = (zero,) * len(ids)
    # the columns (j, f) of the cell, by the target of f
    columns: dict[int, list[tuple[int, int]]] = {}
    for j, f in enumerate(ids):
        columns.setdefault(s.elements[f].target, []).append((j, f))
    matrices = {}
    for a, e in enumerate(s.elements):
        changed: dict[int, list[int]] = {}
        for j, f in columns.get(source[a], ()):
            # a full table has every composable entry (cell_partition checked)
            for h, m in _pairs(rows[a * n + f] or ()):
                if h in pos:
                    changed.setdefault(pos[h], list(zero))[j] = m
        matrix = blank
        if changed:
            matrix = list(blank)
            for i, row in changed.items():
                matrix[i] = tuple(row)
            matrix = tuple(matrix)
        matrices[e] = matrix
    basis = tuple(s.elements[f] for f in ids)
    return CellModuleMatrices(left_cell=left_cell, basis=basis, matrices=matrices)


def cmd_cells(args) -> int:
    from .shadowfile import load_checked, names_of

    s = load_checked(args.path)
    partition = cell_partition(s, args.kind)
    doc = {
        "format": 1,
        "kind": args.kind,
        "classes": [names_of(s, cls) for cls in partition.classes],
    }
    if args.dot is not None:
        if args.kind != "two-sided":
            raise InputError("--dot draws the two-sided cell poset; use --kind two-sided")
        write_text([poset_to_dot(s, cell_poset(s))], args.dot)
    emit(doc, args.output)
    return 0


def cmd_cell_module(args) -> int:
    from .shadowfile import load_checked, names_of

    s = load_checked(args.path)
    left = cell_partition(s, "left").class_of(s.element(args.left_cell_of))
    cm = cell_module(s, left)
    doc = {
        "format": 1,
        "left-cell-of": args.left_cell_of,
        "basis": [b.name for b in cm.basis],
        "matrices": {a.name: cm.matrices[a] for a in sorted(cm.matrices, key=s.index_of)},
    }
    emit(doc, args.output)
    return 0
