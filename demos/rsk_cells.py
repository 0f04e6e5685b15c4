"""Margin matrices, row insertion and the three cell partitions.

The degree-r basis in rank n is the set of n-by-n nonnegative integer
matrices with entry sum r. Row insertion of the biword turns a matrix
into a pair of semistandard tableaux of equal shape; left cells are
fibers of the insertion tableau, right cells fibers of the recording
tableau, two-sided cells fibers of the shape.

Run with: python3 demos/rsk_cells.py
"""

import json

from fiatcell import MarginMatrix, cells_via_rsk, rsk, rsk_inverse, schur_report
from fiatcell.schur import double_coset_count
from fiatcell.tableaux import antidominant_pair


def show_pair(pair):
    print(f"    P = {pair.p.rows}")
    print(f"    Q = {pair.q.rows}")


def main():
    print("Row insertion")
    print("-------------")
    a = MarginMatrix(((0, 1), (1, 0)))
    pair = rsk(a)
    print(f"  matrix {a.entries} ->")
    show_pair(pair)
    assert rsk_inverse(pair, 2) == a

    b = MarginMatrix(((1, 1), (0, 1)))
    print(f"  matrix {b.entries} ->")
    show_pair(rsk(b))
    print("  transpose swaps the tableaux:")
    show_pair(rsk(b.transpose()))

    print()
    print("Cells of the degree-2 basis in rank 2")
    print("-------------------------------------")
    cells = cells_via_rsk(2, 2)
    print(f"  matrices: {len(cells.matrices)}")
    print(f"  two-sided cell sizes: {sorted(len(c) for c in cells.two_sided.classes)}")
    print(f"  left cell sizes:      {sorted(len(c) for c in cells.left.classes)}")
    for cls in cells.two_sided.classes:
        shape = rsk(MarginMatrix(next(iter(cls)))).p.shape
        print(f"  shape {shape}: {len(cls)} matrices")

    print()
    print("Coset combinatorics")
    print("-------------------")
    m = MarginMatrix(((1, 1), (1, 0)))
    v, x = antidominant_pair(m)
    print(f"  matrix {m.entries} <-> vector pair v={v}, x={x}")
    mu, nu = (2, 1), (2, 1)
    print(f"  double cosets for margins {mu}, {nu} in degree 3: "
          f"{double_coset_count(3, mu, nu)}")

    print()
    print("Report for rank 2, degree 2")
    print("---------------------------")
    print(json.dumps(schur_report(2, 2), indent=2))


if __name__ == "__main__":
    main()
