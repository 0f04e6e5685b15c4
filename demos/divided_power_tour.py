"""Tour of the rank-n divided power shadows: elements, products, the
quadrant basis, cells and the m-statistic.

Run with: python3 demos/divided_power_tour.py
"""

from fiatcell import (
    bn_basis,
    build_bn,
    cell_partition,
    cell_poset,
    compose,
    dp,
    m_values,
    recursion_check,
    verify_relations,
)
from fiatcell.bnverify import bn_cells_report


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    n = 2
    s = build_bn(n)

    banner(f"Shadow of rank {n}")
    print(f"objects:  {s.objects}")
    print(f"elements: {len(s.elements)}")
    for e in s.elements:
        print(f"  {e.name:14s} {e.source} -> {e.target}")

    banner("A few products (read 'a after b')")
    for a, b in [("E1^(1)", "F0^(1)"), ("F0^(1)", "E1^(1)"), ("F1^(1)", "F0^(1)")]:
        d = compose(s, s.element(a), s.element(b))
        terms = {e.name: m for e, m in d.items()}
        print(f"  {a} o {b} = {terms}")

    banner("The quadrant basis of rank 4")
    # FE-ordered monomials below the antidiagonal i + j = n, EF-ordered on
    # and above it
    basis = bn_basis(4)
    for pair in [(0, 0), (1, 2), (2, 2), (3, 3)]:
        print(f"  {pair}: " + ", ".join(m.name for m in basis[pair]))

    banner("Virtual monomials resolve into the canonical basis")
    # F^(1)E^(1) at object 3 is not a basis element of rank 4; as the
    # product F2^(1) after E3^(1) the table resolves it
    virt = dp("fe", 1, 1, 3)
    s4 = build_bn(4)
    resolved = compose(s4, s4.element("F2^(1)"), s4.element("E3^(1)"))
    print(f"  {virt.name} in rank 4 = " + str({e.name: m for e, m in resolved.items()}))

    banner("Defining relations")
    for row in verify_relations(n):
        print(f"  {row['check']:32s} {row['status']}")

    banner("Cells and the m-statistic")
    two_sided = cell_partition(s, "two-sided")
    poset = cell_poset(s)
    print(f"  two-sided cells: {len(two_sided.classes)} (a chain, covers {poset.covers})")
    for i, cls in enumerate(two_sided.classes):
        names = sorted(e.name for e in cls)
        mv, regular = m_values(s, cls)
        stat = {e.name: v for e, v in mv.items()}
        print(f"  cell {i}: {names}")
        print(f"          strongly regular: {regular}, m-values {stat}")

    banner("Full cell report")
    for row in bn_cells_report(n):
        print(f"  {row['check']:32s} {row['status']}")

    banner("Quotient by the top cell recovers rank n-2")
    out = recursion_check(4)
    print(f"  rank 4: {out['check']} -> {out['status']}")


if __name__ == "__main__":
    main()
