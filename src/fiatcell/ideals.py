"""Thick two-sided ideals and quotients by up-closed sets.

A thick ideal is an up-closed union of two-sided cells; these biject with
antichains in the cell poset (the antichain of minimal cells). Quotienting
by an up-closed set deletes its elements from every table entry; cells of
the quotient are images of cells of the original shadow or disappear.
"""

from __future__ import annotations

from .cells import CellPoset, _bits, cell_data, cell_poset
from .checks import check_type, emit
from .shadow import Element, InputError, Shadow, _pairs

# The most thick ideals antichains lists: those of 14 incomparable cells
# above a bottom one, 2**14 + 1. The `ideals` verb lists that many in 0.9 s
# and 61 MB as a child process on a 2-core VM; each further incomparable
# cell doubles the count (README, "Every limit").
IDEALS_LIMIT = 2**14 + 1


def _past_the_limit() -> InputError:
    limit = f"the limit of {IDEALS_LIMIT} thick ideals"
    return InputError(f"the cell poset has more than {limit}")


def antichains(poset: CellPoset) -> list[tuple[int, ...]]:
    """All antichains of cell indexes, the empty one first, in a canonical
    order (by size, then lexicographically). More than IDEALS_LIMIT of them
    is an InputError, raised as soon as the list passes it.

    Each antichain is one listed before it plus a larger index incomparable
    to all its members; reading the list while it grows keeps that order.
    """
    check_type("poset", poset, CellPoset)
    n = len(poset.cells)
    up = poset.up
    comparable = [up[i] | sum(1 << j for j in range(n) if up[j] >> i & 1) for i in range(n)]
    out: list[tuple[int, ...]] = [()]
    for combo in out:
        blocked = 0
        for i in combo:
            blocked |= comparable[i]
        start = combo[-1] + 1 if combo else 0
        out.extend(combo + (j,) for j in range(start, n) if not blocked >> j & 1)
        if len(out) > IDEALS_LIMIT:
            raise _past_the_limit()
    return out


def thick_ideals(
    poset: CellPoset,
) -> list[tuple[tuple[frozenset[Element], ...], frozenset[Element]]]:
    """All thick ideals as (antichain of cells, up-closed element set).

    The ideal of an antichain is the union of all cells above one of its
    members; distinct antichains give distinct ideals.
    """
    out = []
    for combo in antichains(poset):
        above = 0
        for i in combo:
            above |= poset.up[i]
        members = frozenset().union(*(poset.cells[j] for j in _bits(above)))
        out.append((tuple(poset.cells[i] for i in combo), members))
    return out


def upsets_by_enumeration(poset: CellPoset) -> list[frozenset[int]]:
    """All up-closed cell index sets, ordered as bitmasks; the independent
    count for the antichain bijection.

    Up-sets are grown from the empty one, adding one cell at a time whose
    strict upper bounds are all already in, so the work follows the number
    of up-sets rather than the number of subsets. More than IDEALS_LIMIT of
    them is an InputError, raised as soon as the list passes it; the count
    is its own, not the antichains'.
    """
    check_type("poset", poset, CellPoset)
    grown, seen = [0], {0}
    for mask in grown:
        for i, above in enumerate(poset.up):
            bigger = mask | 1 << i
            if not above & ~bigger and bigger not in seen:
                seen.add(bigger)
                grown.append(bigger)
        if len(grown) > IDEALS_LIMIT:
            raise _past_the_limit()
    return [frozenset(_bits(mask)) for mask in sorted(grown)]


def quotient_by_upset(s: Shadow, upset: frozenset[Element]) -> Shadow:
    """Shadow on the complement of an up-closed set of elements.

    The set must be up-closed for the two-sided order (witness pair reported
    otherwise). An object whose identity is removed must lose all elements
    touching it. The involution descends when the set is *-stable and is
    dropped otherwise.
    """
    check_type("shadow", s, Shadow)
    check_type("upset", upset, frozenset)
    inside = sum(1 << s.index_of(e) for e in upset)
    ideals = cell_data(s, "two-sided").ideals
    for a in _bits(inside):
        above = ideals[a] & ~inside
        if above:
            b = s.elements[(above & -above).bit_length() - 1]
            raise InputError(
                f"set is not up-closed: {s.elements[a].name} is in it, {b.name} above it is not"
            )

    gone = [inside >> i & 1 for i in range(len(s.elements))]
    removed_objects = set()
    for i, e in enumerate(s.elements):
        if e.is_identity and gone[i]:
            outside = [
                f
                for f, out in zip(s.elements, gone)
                if not out and e.source in (f.source, f.target)
            ]
            if outside:
                raise InputError(
                    f"identity {e.name} is removed but {outside[0].name} "
                    f"still touches object {e.source}"
                )
            removed_objects.add(e.source)
    objects = tuple(o for o in s.objects if o not in removed_objects)

    keep = [i for i, out in enumerate(gone) if not out]
    new = {i: k for k, i in enumerate(keep)}
    _, _, rows, order, star = s._view
    n = len(gone)
    entries = []
    for at in order:
        a, b = divmod(at, n)
        if not (gone[a] or gone[b]):
            row = tuple(x for t, m in _pairs(rows[at]) if not gone[t] for x in (new[t], m))
            entries.append((new[a], new[b], row))
    if star is not None:
        stable = all(gone[star[i]] for i in range(n) if gone[i])
        star = tuple(new[star[i]] for i in keep) if stable else None
    elements = tuple(s.elements[i] for i in keep)
    return Shadow._on_ids(objects, elements, entries, star, s.partial)


def cmd_ideals(args) -> int:
    from .shadowfile import load_checked, names_of

    s = load_checked(args.path)
    poset = cell_poset(s)
    ideals = thick_ideals(poset)
    upsets = upsets_by_enumeration(poset)
    doc = {
        "format": 1,
        "count": len(ideals),
        "upset-enumeration-count": len(upsets),
        "status": "pass" if len(ideals) == len(upsets) else "fail",
        "ideals": [
            {"antichain": [names_of(s, cls) for cls in cells], "members": names_of(s, members)}
            for cells, members in ideals
        ],
    }
    emit(doc, args.output)
    return 0 if doc["status"] == "pass" else 1
