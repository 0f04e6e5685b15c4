"""Thick two-sided ideals and quotients by up-closed sets.

A thick ideal is an up-closed union of two-sided cells; these biject with
antichains in the cell poset (the antichain of minimal cells). Quotienting
by an up-closed set deletes its elements from every table entry; cells of
the quotient are images of cells of the original shadow or disappear.
"""

from __future__ import annotations

from itertools import combinations

from .cells import CellPoset, _bits, cell_data, cell_poset
from .shadow import Decomposition, Element, InputError, Shadow


def antichains(poset: CellPoset) -> list[tuple[int, ...]]:
    """All antichains of cell indexes, the empty one first, in a canonical
    order (by size, then lexicographically)."""
    n = len(poset.cells)
    out: list[tuple[int, ...]] = []
    for size in range(n + 1):
        for combo in combinations(range(n), size):
            if all(
                not poset.leq(i, j) and not poset.leq(j, i)
                for i, j in combinations(combo, 2)
            ):
                out.append(combo)
    return out


def thick_ideals(
    s: Shadow, poset: CellPoset | None = None
) -> list[tuple[tuple[frozenset[Element], ...], frozenset[Element]]]:
    """All thick ideals as (antichain of cells, up-closed element set).

    The ideal of an antichain is the union of all cells above one of its
    members; distinct antichains give distinct ideals.
    """
    if poset is None:
        poset = cell_poset(s)
    out = []
    for combo in antichains(poset):
        cells = tuple(poset.cells[i] for i in combo)
        members: set[Element] = set()
        for i in combo:
            for j in range(len(poset.cells)):
                if poset.leq(i, j):
                    members.update(poset.cells[j])
        out.append((cells, frozenset(members)))
    return out


def upsets_by_enumeration(poset: CellPoset) -> list[frozenset[int]]:
    """Brute-force list of up-closed cell index sets; the independent count
    for the antichain bijection."""
    n = len(poset.cells)
    out = []
    for mask in range(1 << n):
        chosen = {i for i in range(n) if mask >> i & 1}
        if all(
            j in chosen
            for i in chosen
            for j in range(n)
            if poset.leq(i, j)
        ):
            out.append(frozenset(chosen))
    return out


def quotient_by_upset(s: Shadow, upset: frozenset[Element]) -> Shadow:
    """Shadow on the complement of an up-closed set of elements.

    The set must be up-closed for the two-sided order (witness pair reported
    otherwise). An object whose identity is removed must lose all elements
    touching it. The involution descends when the set is *-stable and is
    dropped otherwise.
    """
    for e in upset:
        if not s.has_element(e):
            raise InputError(f"unknown element id {e.name!r}")
    ideals = cell_data(s, "two-sided").ideals
    for a in sorted(upset, key=s.index_of):
        for i in _bits(ideals[s.index_of(a)]):
            b = s.elements[i]
            if b not in upset:
                raise InputError(
                    f"set is not up-closed: {a.name} is in it, {b.name} above it is not"
                )

    survivors = tuple(e for e in s.elements if e not in upset)
    removed_objects = set()
    for e in s.elements:
        if e.is_identity and e in upset:
            touching = [
                f for f in s.elements if f.source == e.source or f.target == e.source
            ]
            outside = [f for f in touching if f not in upset]
            if outside:
                raise InputError(
                    f"identity {e.name} is removed but {outside[0].name} "
                    f"still touches object {e.source}"
                )
            removed_objects.add(e.source)
    objects = tuple(o for o in s.objects if o not in removed_objects)

    table = {}
    for (a, b), d in s.table.items():
        if a in upset or b in upset:
            continue
        table[(a, b)] = Decomposition(
            {e: m for e, m in d.items() if e not in upset}
        )
    involution = None
    if s.involution is not None:
        stable = all(s.involution[e] in upset for e in upset)
        if stable:
            involution = {e: s.involution[e] for e in survivors}
    return Shadow(
        objects=objects,
        elements=survivors,
        table=table,
        involution=involution,
        partial=s.partial,
    )
