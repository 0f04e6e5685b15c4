"""Tour of the rank-n divided power shadows: elements, products, the
normal form engine, cells and the m-statistic.

Run with: python3 demos/divided_power_tour.py
"""

from fiatcell import (
    build_bn,
    cell_partition,
    cell_poset,
    compose,
    dp,
    dp_normalize,
    m_values,
    recursion_check,
    verify_relations,
)
from fiatcell.udot import basis_change, bn_cells_report


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

    banner("Normal form of a raw word")
    # letters apply right to left: F first (0 -> 1), then E (1 -> 0)
    vec = dp_normalize(n, "EF", 0)
    print("  E F at object 0 normalizes to " + str({m.name: c for m, c in vec.items()}))
    table_entry = compose(s, s.element("E1^(1)"), s.element("F0^(1)"))
    assert {m.name: c for m, c in vec.items()} == {
        e.name: m for e, m in table_entry.items()
    }
    print("  matches the table entry for E1^(1) o F0^(1)")

    banner("Virtual monomials resolve into the canonical basis")
    # F^(1)E^(1) at object 3 is not a basis element of rank 4; rewrite it
    virt = dp("fe", 1, 1, 3)
    resolved = basis_change(4, {virt: 1})
    print(f"  {virt.name} in rank 4 = " + str({m.name: c for m, c in resolved.items()}))

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
