import random
from itertools import combinations

import pytest

from fiatcell import (
    Decomposition,
    Element,
    InputError,
    Shadow,
    antichains,
    build_bn,
    cell_partition,
    cell_poset,
    principal_ideal,
    quotient_by_upset,
    thick_ideals,
    upsets_by_enumeration,
    validate_shadow,
    window_shadow,
)
from fiatcell.ideals import IDEALS_LIMIT
from fiatcell.bnverify import shift_shadow
from fiatcell.udot import bn_element_monomials


def arrow_pair_shadow():
    """Partial two-object shadow whose involution swaps the non-identities.

    The products f g and g f are left out of the table, as are the identity
    actions f e0 and e0 g (dual entries, so the involution stays valid), so
    {e0}, {f} and {g} are all up-closed but {f} is not *-stable.
    """
    e0 = Element("e0", 0, 0, is_identity=True)
    e1 = Element("e1", 1, 1, is_identity=True)
    f = Element("f", 0, 1)
    g = Element("g", 1, 0)
    table = {
        (e0, e0): Decomposition({e0: 1}),
        (e1, e1): Decomposition({e1: 1}),
        (e1, f): Decomposition({f: 1}),
        (g, e1): Decomposition({g: 1}),
    }
    return Shadow(
        objects=(0, 1),
        elements=(e0, e1, f, g),
        table=table,
        involution={e0: e0, e1: e1, f: g, g: f},
        partial=True,
    )


def test_antichains_of_chains():
    for n in range(1, 6):
        poset = cell_poset(build_bn(n))
        chains = antichains(poset)
        # in a chain only singletons and the empty set are antichains
        assert chains == [()] + [(i,) for i in range(len(poset.cells))]


def reference_relation(s, poset):
    """The pairs (i, j) with cell i <= cell j, read off the two-sided
    principal ideals of the cells' first members as element sets."""
    ideals = [
        principal_ideal(s, min(cls, key=s.index_of), "two-sided") for cls in poset.cells
    ]
    k = range(len(ideals))
    return {(i, j) for i in k for j in k if ideals[j] <= ideals[i]}


def reference_covers(k, relation):
    return tuple(
        (i, j)
        for i, j in sorted(relation)
        if i != j
        and not any(
            m not in (i, j) and (i, m) in relation and (m, j) in relation
            for m in range(k)
        )
    )


def reference_antichains(k, relation):
    """Every subset that is an antichain, by size, then lexicographically."""
    return [
        combo
        for size in range(k + 1)
        for combo in combinations(range(k), size)
        if all(
            (i, j) not in relation and (j, i) not in relation
            for i, j in combinations(combo, 2)
        )
    ]


def reference_upsets(k, relation):
    """Every subset, as a bitmask in increasing order, that is up-closed."""
    out = []
    for mask in range(1 << k):
        chosen = {i for i in range(k) if mask >> i & 1}
        if all(j in chosen for i, j in relation if i in chosen):
            out.append(frozenset(chosen))
    return out


def reference_thick_ideals(cells, relation):
    return [
        (
            tuple(cells[i] for i in combo),
            frozenset(e for i, j in relation if i in combo for e in cells[j]),
        )
        for combo in reference_antichains(len(cells), relation)
    ]


def assert_matches_references(poset, relation):
    k = len(poset.cells)
    assert [[poset.leq(i, j) for j in range(k)] for i in range(k)] == [
        [(i, j) in relation for j in range(k)] for i in range(k)
    ]
    assert poset.covers == reference_covers(k, relation)
    assert antichains(poset) == reference_antichains(k, relation)
    assert upsets_by_enumeration(poset) == reference_upsets(k, relation)
    assert thick_ideals(poset) == reference_thick_ideals(poset.cells, relation)


def random_order(rng, k):
    """The transitive closure of a random DAG on k shuffled labels, as the
    pairs (i, j) with i <= j."""
    label = rng.sample(range(k), k)
    p = rng.random()
    relation = {(i, i) for i in range(k)} | {
        (label[a], label[b])
        for a in range(k)
        for b in range(a + 1, k)
        if rng.random() < p
    }
    for m in range(k):
        relation |= {
            (i, j)
            for i in range(k)
            if (i, m) in relation
            for j in range(k)
            if (m, j) in relation
        }
    return relation


def order_shadow(k, relation):
    """A partial one-object shadow whose two-sided cells are its elements
    x0..x{k-1}, with x_i <= x_j exactly when (i, j) is in the relation:
    x_i after x_i is the sum of the x_j above x_i, no other product is
    listed."""
    xs = tuple(Element(f"x{i}", 0, 0) for i in range(k))
    table = {
        (x, x): Decomposition({xs[j]: 1 for j in range(k) if (i, j) in relation})
        for i, x in enumerate(xs)
    }
    return Shadow(objects=(0,), elements=xs, table=table, partial=True)


def test_orders_of_random_dags_match_subset_scans():
    rng = random.Random(1213)
    for _ in range(200):
        k = rng.randint(1, 10)
        relation = random_order(rng, k)
        poset = cell_poset(order_shadow(k, relation))
        assert poset.cells == tuple(frozenset({Element(f"x{i}", 0, 0)}) for i in range(k))
        assert poset.up == tuple(
            sum(1 << j for j in range(k) if (i, j) in relation) for i in range(k)
        )
        assert_matches_references(poset, relation)


@pytest.mark.parametrize(
    "build, sizes", [(build_bn, range(1, 9)), (window_shadow, range(0, 31))]
)
def test_family_orders_match_subset_scans(build, sizes):
    for size in sizes:
        s = build(size)
        poset = cell_poset(s)
        assert_matches_references(poset, reference_relation(s, poset))


def test_upset_enumeration_refuses_past_the_ideal_limit():
    def bottom_below(k):
        # x0 below k incomparable cells: 2**k + 1 up-sets
        relation = {(i, i) for i in range(k + 1)} | {(0, j) for j in range(1, k + 1)}
        return cell_poset(order_shadow(k + 1, relation))

    assert IDEALS_LIMIT == 2**14 + 1
    assert len(upsets_by_enumeration(bottom_below(14))) == 2**14 + 1
    with pytest.raises(InputError, match=f"more than the limit of {IDEALS_LIMIT} thick ideals"):
        upsets_by_enumeration(bottom_below(15))


def test_thick_ideal_count_matches_upsets():
    for n in range(1, 6):
        s = build_bn(n)
        poset = cell_poset(s)
        ideals = thick_ideals(poset)
        assert len(ideals) == n // 2 + 2
        assert len(ideals) == len(upsets_by_enumeration(poset))
        assert len({members for _, members in ideals}) == len(ideals)


def test_window_ideal_count_matches_upsets():
    for k in (0, 2, 4):
        s = window_shadow(k)
        poset = cell_poset(s)
        assert len(thick_ideals(poset)) == len(upsets_by_enumeration(poset))


def test_b2_ideals_listed():
    s = build_bn(2)
    ideals = thick_ideals(cell_poset(s))
    assert len(ideals) == 3
    assert ideals[0] == ((), frozenset())
    sizes = sorted(len(members) for _, members in ideals)
    assert sizes == [0, 9, 10]


def test_ideal_members_are_up_closed():
    from fiatcell import principal_ideal

    s = build_bn(4)
    for _, members in thick_ideals(cell_poset(s)):
        for a in members:
            assert principal_ideal(s, a, "two-sided") <= members


def test_quotient_by_empty_set_is_identity():
    s = build_bn(2)
    assert quotient_by_upset(s, frozenset()) == s


def test_quotient_of_b4_by_top_cell():
    s = build_bn(4)
    top = cell_poset(s).cells[0]
    q = quotient_by_upset(s, top)
    validate_shadow(q)
    assert len(cell_partition(q, "two-sided").classes) == 2
    assert q.objects == (1, 2, 3)
    assert q.involution is not None


def test_quotient_equals_shifted_smaller_rank():
    for n in (3, 4, 5):
        big = build_bn(n)
        q = quotient_by_upset(big, cell_poset(big).cells[0])
        small = shift_shadow(build_bn(n - 2), bn_element_monomials(n - 2), 1)
        assert q == small


def test_quotient_cells_are_images():
    s = build_bn(4)
    top = cell_poset(s).cells[0]
    q = quotient_by_upset(s, top)
    old = {
        frozenset(e.name for e in cls) - {e.name for e in top}
        for cls in cell_partition(s, "two-sided").classes
    }
    old.discard(frozenset())
    new = {
        frozenset(e.name for e in cls)
        for cls in cell_partition(q, "two-sided").classes
    }
    assert new == old


def test_quotient_rejects_non_up_closed():
    s = build_bn(2)
    with pytest.raises(InputError, match="not up-closed"):
        quotient_by_upset(s, frozenset({s.element("F0^(1)")}))
    with pytest.raises(InputError, match="unknown element"):
        quotient_by_upset(s, frozenset({Element("ghost", 0, 0)}))


def test_quotient_identity_removal_guard():
    s = arrow_pair_shadow()
    # {e0} is up-closed here because the products through f and g are absent,
    # but f still touches object 0
    with pytest.raises(InputError, match="still touches"):
        quotient_by_upset(s, frozenset({s.element("e0")}))


def test_quotient_drops_non_stable_involution():
    s = arrow_pair_shadow()
    q = quotient_by_upset(s, frozenset({s.element("f")}))
    validate_shadow(q)
    assert q.involution is None
    assert [e.name for e in q.elements] == ["e0", "e1", "g"]
    assert q.partial


def test_quotient_keeps_stable_involution():
    s = arrow_pair_shadow()
    q = quotient_by_upset(s, frozenset({s.element("f"), s.element("g")}))
    validate_shadow(q)
    assert q.involution == {q.element("e0"): q.element("e0"),
                            q.element("e1"): q.element("e1")}


def test_quotient_by_everything_is_empty():
    s = window_shadow(2)
    q = quotient_by_upset(s, frozenset(s.elements))
    assert q.elements == () and q.objects == () and q.table == {}
