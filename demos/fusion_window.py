"""Fusion of nonnegative integers as a set-valued product, and the finite
windows it induces.

The product of m and n is the set {|m-n|, |m-n|+2, ..., m+n}. It is
associative and has 0 as a strict unit, but any finite window 0..K only
sees the entries whose full product stays inside the window, so the
windowed shadow is partial and its cell picture is a boundary artifact.

Run with: python3 demos/fusion_window.py
"""

from fiatcell import (
    cell_partition,
    cg_op,
    check_associativity,
    compose,
    single_cell_check,
    verify_clebsch,
    window_shadow,
)


def main():
    print("Fusion products")
    print("---------------")
    for m, n in [(0, 5), (1, 1), (2, 3), (4, 4)]:
        print(f"  {m} * {n} = {sorted(cg_op(m, n))}")

    K = 3
    s = window_shadow(K)
    print()
    print(f"Window 0..{K}")
    print("------------")
    print(f"  partial: {s.partial}, elements {[e.name for e in s.elements]}")
    print(f"  stored entries: {len(s.table)} of {(K + 1) ** 2} pairs")

    one, two = s.element("1"), s.element("2")
    d = compose(s, two, one)
    print("  2 o 1 = " + str({e.name: m for e, m in d.items()}))
    # 2 * 2 = {0, 2, 4} leaks past K = 3, so the entry is absent and the
    # partial shadow reads it as zero
    print(f"  2 o 2 reads as zero: {compose(s, two, two).is_zero}")

    report = check_associativity(s)
    print(f"  associativity on complete triples: {report['status']}, "
          f"checked {report['checked']}, skipped {report['skipped']}")

    cells = cell_partition(s, "two-sided")
    print("  window cells (boundary artifact): "
          + str([sorted(e.name for e in cls) for cls in cells.classes]))

    print()
    print("Unbounded statements, checked by direct evaluation")
    print("--------------------------------------------------")
    bound = 25
    print(f"  all values up to {bound} sit in one cell: {single_cell_check(bound)}")
    for row in verify_clebsch(8):
        extra = ""
        if "checked" in row:
            extra = f" (checked {row['checked']}, skipped {row['skipped']})"
        print(f"  {row['check']:42s} {row['status']}{extra}")


if __name__ == "__main__":
    main()
