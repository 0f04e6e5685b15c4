"""Cell posets, thick ideals and quotients of the rank-n shadows.

Two-sided cells of the rank-n shadow form a chain; thick ideals (up-closed
unions of cells) therefore biject with antichains in a chain, giving
n // 2 + 2 of them. Quotienting by the top cell reproduces the rank n-2
shadow with every index shifted by one.

Run with: python3 demos/ideals_and_quotients.py
"""

from fiatcell import (
    antichains,
    build_bn,
    cell_poset,
    poset_to_dot,
    quotient_by_upset,
    thick_ideals,
    upsets_by_enumeration,
)
from fiatcell.bnverify import shift_shadow
from fiatcell.udot import bn_element_monomials


def main():
    n = 4
    s = build_bn(n)
    poset = cell_poset(s)

    print(f"Cell poset of rank {n}")
    print("-------------------")
    print(f"  cells: {len(poset.cells)}, covers: {poset.covers}")
    print(poset_to_dot(s, poset))

    chains = antichains(poset)
    print("Thick ideals")
    print("------------")
    print(f"  antichains: {chains}")
    print(f"  up-closed cell sets (independent enumeration): "
          f"{len(upsets_by_enumeration(poset))}")
    for combo, members in zip(chains, thick_ideals(poset)):
        print(f"  antichain {combo}: ideal of {len(members[1])} elements")

    print()
    print("Quotient by the top cell")
    print("------------------------")
    top = poset.cells[0]  # the cell of 1_0 is maximal in the order
    q = quotient_by_upset(s, top)
    print(f"  removed {len(top)} elements, kept {len(q.elements)} "
          f"on objects {q.objects}")

    # the quotient is the rank n-2 shadow with objects renamed i -> i+1
    small = build_bn(n - 2)
    shifted = shift_shadow(small, bn_element_monomials(n - 2), 1)
    assert q == shifted
    print(f"  equals the rank {n - 2} shadow shifted by one "
          f"({[e.name for e in shifted.elements]})")


if __name__ == "__main__":
    main()
