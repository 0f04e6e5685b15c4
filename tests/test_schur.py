from collections import Counter
from itertools import combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiatcell import (
    ConsistencyError,
    InputError,
    MarginMatrix,
    RskPair,
    Tableau,
    cells_via_rsk,
    enumerate_dominant,
    rsk,
    rsk_inverse,
    schur_report,
    verify_schur,
)
from fiatcell import schur, tableaux
from fiatcell.schur import (
    antidominant_count,
    count_ssyt,
    double_coset_count,
    partitions_at_most,
    stabilizer_composition,
    vector_content,
)
from fiatcell.tableaux import antidominant_pair, ssyt_of_shape


def mm(rows):
    return MarginMatrix(tuple(tuple(r) for r in rows))


def row_margins(a):
    return tuple(map(sum, a.entries))


def col_margins(a):
    return tuple(map(sum, zip(*a.entries)))


def pair_rows(n, v, x):
    """The matrix whose entry (k, l) counts the positions where v is l and
    x is k."""
    entries = [[0] * n for _ in range(n)]
    for vp, xp in zip(v, x):
        entries[xp - 1][vp - 1] += 1
    return mm(entries)


def content(t, n):
    """How often each of 1..n occurs in a tableau."""
    counts = Counter(x for row in t.rows for x in row)
    return tuple(counts[v] for v in range(1, n + 1))


def test_enumerate_dominant_examples():
    assert enumerate_dominant(2, 2) == [(2, 2), (2, 1), (1, 1)]
    assert enumerate_dominant(1, 5) == [(1, 1, 1, 1, 1)]
    for n in (1, 2, 3, 4):
        for r in (1, 3, 6):
            assert len(enumerate_dominant(n, r)) == comb(n + r - 1, r)


def test_desk_limits():
    with pytest.raises(InputError):
        enumerate_dominant(5, 2)
    with pytest.raises(InputError):
        enumerate_dominant(2, 9)
    with pytest.raises(InputError):
        cells_via_rsk(0, 2)
    with pytest.raises(InputError):
        cells_via_rsk(4, 9)


def test_stabilizer_composition():
    assert stabilizer_composition((2, 2)) == (2,)
    assert stabilizer_composition((2, 1)) == (1, 1)
    assert stabilizer_composition((3, 3, 1)) == (2, 1)
    with pytest.raises(InputError):
        stabilizer_composition((1, 2))


def test_margin_matrix_validation():
    with pytest.raises(InputError):
        mm([])
    with pytest.raises(InputError):
        mm([[1, 2]])
    with pytest.raises(InputError):
        mm([[1, -1], [0, 0]])
    a = mm([[1, 2], [0, 3]])
    assert sum(map(sum, a.entries)) == 6
    assert row_margins(a) == (3, 3)
    assert col_margins(a) == (1, 5)
    assert a.transpose() == mm([[1, 0], [2, 3]])


def test_enumerate_basis_counts_and_order():
    basis = [mm(a) for a in cells_via_rsk(2, 2).matrices]
    assert len(basis) == 10
    assert cells_via_rsk(1, 4).matrices == (((4,),),)
    keys = [(row_margins(a), col_margins(a), a.entries) for a in basis]
    assert keys == sorted(keys)
    for n in (2, 3):
        for r in (1, 2, 3):
            assert len(cells_via_rsk(n, r).matrices) == comb(n * n + r - 1, r)


def reference_basis(n, r):
    """Every n-by-n composition of r, sorted by (row margins, column
    margins, entries)."""
    out = []
    for cells in combinations_with_replacement(range(n * n), r):
        flat = [cells.count(k) for k in range(n * n)]
        out.append(tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n)))
    return sorted(out, key=lambda a: (tuple(map(sum, a)), tuple(map(sum, zip(*a))), a))


@pytest.mark.parametrize("n,r", [*product((1, 2, 3), (1, 2, 3, 4)), (4, 3)])
def test_enumerate_basis_matches_reference(n, r):
    assert list(cells_via_rsk(n, r).matrices) == reference_basis(n, r)


def flat(rows):
    return tuple(x for row in rows for x in row)


def textbook_rsk(rows):
    """Row insertion of the two-line array of a matrix given as row tuples:
    each letter bumps the leftmost larger entry of a row into the next."""
    p, q = [], []
    for u, row in enumerate(rows, 1):
        for v, m in enumerate(row, 1):
            for _ in range(m):
                x, i = v, 0
                while i < len(p) and any(y > x for y in p[i]):
                    j = min(j for j, y in enumerate(p[i]) if y > x)
                    x, p[i][j] = p[i][j], x
                    i += 1
                if i == len(p):
                    p.append([])
                    q.append([])
                p[i].append(x)
                q[i].append(u)
    return tuple(map(tuple, p)), tuple(map(tuple, q))


def textbook_antidominant(rows):
    """The source vector lists the column of each letter weakly decreasing;
    inside each block of one column the target vector lists the rows weakly
    increasing (`tableaux.antidominant_pair`)."""
    letters = [
        (l, k) for k, row in enumerate(rows, 1) for l, m in enumerate(row, 1) for _ in range(m)
    ]
    letters.sort(key=lambda lk: (-lk[0], lk[1]))
    return tuple(l for l, _ in letters), tuple(k for _, k in letters)


@pytest.mark.parametrize("n,r", [*product((1, 2, 3), (1, 2, 3, 4)), (4, 3)])
def test_flat_kernels_match_textbook_kernels(n, r):
    basis = reference_basis(n, r)
    margins = schur._margins(n, r)
    tables = [a for mu, nu in product(margins, repeat=2) for a in schur._tables(mu, nu)]
    assert tables == list(map(flat, basis))
    _, transpose, _, _ = schur._layout(n * n)
    inverse = {}  # (P, Q) -> matrix: the inverse by construction
    for rows in basis:
        a = flat(rows)
        pair = textbook_rsk(rows)
        assert schur._insert(a) == pair
        inverse[pair] = a
        assert transpose(a) == flat(zip(*rows))
        v, x = textbook_antidominant(rows)
        assert schur._antidominant(a) == (v, x)
        assert schur._pair_rows(n, v, x) == a == flat(pair_rows(n, v, x).entries)
    assert len(inverse) == len(basis)
    for (p, q), a in inverse.items():
        assert schur._reverse(p, q, n) == a


def test_rsk_pinned_examples():
    pair = rsk(mm([[3]]))
    assert pair.p.rows == pair.q.rows == ((1, 1, 1),)
    pair = rsk(mm([[1, 0], [0, 1]]))
    assert pair.p.rows == pair.q.rows == ((1, 2),)
    pair = rsk(mm([[0, 1], [1, 0]]))
    assert pair.p.rows == pair.q.rows == ((1,), (2,))


def test_rsk_transpose_example():
    a = mm([[1, 1], [0, 1]])
    pair = rsk(a)
    assert pair.p.rows == ((1, 2, 2),)
    assert pair.q.rows == ((1, 1, 2),)
    t = a.transpose()
    assert t == mm([[1, 0], [1, 1]])
    tpair = rsk(t)
    assert tpair.p == pair.q and tpair.q == pair.p


@pytest.mark.parametrize("n,r", [(2, 2), (2, 4), (3, 3)])
def test_rsk_roundtrip_and_content(n, r):
    seen = set()
    for a in map(mm, reference_basis(n, r)):
        pair = rsk(a)
        assert content(pair.p, n) == col_margins(a)
        assert content(pair.q, n) == row_margins(a)
        assert rsk_inverse(pair, n) == a
        seen.add((pair.p, pair.q))
    assert len(seen) == comb(n * n + r - 1, r)


def test_rsk_inverse_rejects_large_entries():
    pair = rsk(mm([[0, 1], [1, 0]]))
    with pytest.raises(InputError, match="exceeds"):
        rsk_inverse(pair, 1)


def test_tableau_validation():
    with pytest.raises(InputError, match="weakly decrease"):
        Tableau(((1,), (1, 2)))
    with pytest.raises(InputError, match="weakly increase"):
        Tableau(((2, 1),))
    with pytest.raises(InputError, match="strictly increase"):
        Tableau(((1, 1), (1,)))
    with pytest.raises(InputError, match="positive"):
        Tableau(((0, 1),))
    with pytest.raises(InputError, match="empty"):
        Tableau(((1,), ()))
    t = Tableau(((1, 1, 2), (2,)))
    assert t.shape == (3, 1)
    assert content(t, 3) == (2, 2, 0)


def test_rsk_pair_shape_guard():
    row = Tableau(((1, 1),))
    col = Tableau(((1,), (2,)))
    with pytest.raises(InputError, match="different shapes"):
        RskPair(p=row, q=col)


def test_cells_n2_r2():
    cells = cells_via_rsk(2, 2)
    assert len(cells.two_sided.classes) == 2
    sizes = sorted(len(c) for c in cells.two_sided.classes)
    assert sizes == [1, 9]
    left_sizes = sorted(len(c) for c in cells.left.classes)
    assert left_sizes == [1, 3, 3, 3]
    assert len(cells.left.classes) == len(cells.right.classes) == 4


def reference_cells(n, r):
    """The basis and its P, Q and shape fibers through the validated
    wrappers, classes in order of first member."""
    basis = reference_basis(n, r)
    pairs = [rsk(mm(a)) for a in basis]
    fibers = []
    for key in (lambda pair: pair.p, lambda pair: pair.q, lambda pair: pair.p.shape):
        groups = {}
        for a, pair in zip(basis, pairs):
            groups.setdefault(key(pair), []).append(a)
        fibers.append([frozenset(v) for v in groups.values()])
    return basis, fibers


@pytest.mark.parametrize("n,r", [*product((1, 2, 3), (1, 2, 3, 4)), (4, 4)])
def test_cells_match_reference(n, r):
    cells = cells_via_rsk(n, r)
    matrices, (left, right, two_sided) = reference_cells(n, r)
    assert list(cells.matrices) == matrices
    assert list(cells.left.classes) == left
    assert list(cells.right.classes) == right
    assert list(cells.two_sided.classes) == two_sided
    kinds = (cells.left.kind, cells.right.kind, cells.two_sided.kind)
    assert kinds == ("left", "right", "two-sided")


def test_cells_insert_each_matrix_once(monkeypatch):
    inserted = Counter()
    real = tableaux._insert

    def counted(a):
        inserted[tuple(zip(*[iter(a)] * 3))] += 1  # the flat matrix as row tuples
        return real(a)

    def refused(*args):
        raise AssertionError("cells_via_rsk went through a validated wrapper")

    monkeypatch.setattr(tableaux, "_insert", counted)
    monkeypatch.setattr(tableaux, "rsk", refused)
    cells = cells_via_rsk(3, 3)
    assert len(cells.matrices) == comb(9 + 3 - 1, 3)
    assert inserted == Counter(cells.matrices)
    assert set(inserted.values()) == {1}


def test_cells_refuse_unequal_shapes(monkeypatch):
    real = tableaux._insert

    def lopsided(a):
        # the last letter of Q's first row moves down to a row of its own
        p, q = real(a)
        return p, ((q[0][:-1], (q[0][-1],), *q[1:]) if len(q[0]) > 1 else q)

    monkeypatch.setattr(tableaux, "_insert", lopsided)
    with pytest.raises(ConsistencyError, match="different shapes"):
        cells_via_rsk(2, 2)


def test_cells_validate_each_tableau(monkeypatch):
    real = tableaux._insert

    def corrupted(a):
        p, q = real(a)
        return (((2, 1),) if a == (1, 1, 0, 0) else p), q

    monkeypatch.setattr(tableaux, "_insert", corrupted)
    with pytest.raises(InputError, match="weakly increase"):
        cells_via_rsk(2, 2)


def test_two_sided_cells_count_partitions():
    for n in (1, 2, 3):
        for r in (1, 2, 3, 4):
            cells = cells_via_rsk(n, r)
            assert len(cells.two_sided.classes) == len(
                list(partitions_at_most(r, n))
            )


@pytest.mark.parametrize("n,r", [(1, 3), (2, 2), (2, 3), (3, 3)])
def test_strong_regularity_intersections(n, r):
    (result,) = [
        c
        for c in verify_schur(n, r)
        if c["check"] == "left-right-intersections-singleton"
    ]
    assert result["status"] == "pass"


def test_ssyt_counting():
    assert count_ssyt((2,), 2) == 3
    assert count_ssyt((1, 1), 2) == 1
    assert count_ssyt((2, 1), 3) == 8
    for n in (1, 2, 3):
        for r in (1, 2, 3, 4, 5):
            total = 0
            for shape in partitions_at_most(r, n):
                enum = len(ssyt_of_shape(shape, n))
                assert enum == count_ssyt(shape, n), shape
                total += enum * enum
            assert total == comb(n * n + r - 1, r)


REFUSED_SHAPES = [
    ((1, 2), 2, "not a partition"),
    ((1,), -1, "n must be between 0 and 4, got -1"),
    ((1, 1), -1, "n must be between 0 and 4, got -1"),
    ((), -1, "n must be between 0 and 4, got -1"),
    ((1,), 5, "n must be between 0 and 4, got 5"),
    ((2,), 2.5, "integer"),
    ((2.0,), 3, "integer"),
    ((1.5,), 2, "integer"),
    ((1,), True, "integer"),
    ((True,), 2, "integer"),
]


def test_count_ssyt_refuses_non_partition():
    for shape, n, message in REFUSED_SHAPES:
        with pytest.raises(InputError, match=message):
            count_ssyt(shape, n)


def test_ssyt_of_shape_refuses_non_partition():
    for shape, n, message in REFUSED_SHAPES:
        with pytest.raises(InputError, match=message):
            ssyt_of_shape(shape, n)


@given(st.integers(1, 8), st.integers(1, 4), st.randoms(use_true_random=False))
def test_hook_content_matches_enumeration(r, n, rng):
    shape = rng.choice(list(partitions_at_most(r, n)))
    assert len(ssyt_of_shape(shape, n)) == count_ssyt(shape, n)


def test_antidominant_pinned_example():
    a = mm([[1, 1], [1, 0]])
    v, x = antidominant_pair(a)
    assert v == (2, 1, 1)
    assert x == (1, 1, 2)
    assert pair_rows(2, v, x) == a


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2)])
def test_antidominant_roundtrip_and_counts(n, r):
    basis = [mm(a) for a in reference_basis(n, r)]
    for a in basis:
        v, x = antidominant_pair(a)
        assert tuple(sorted(v, reverse=True)) == v
        assert pair_rows(n, v, x) == a
    for v in enumerate_dominant(n, r):
        matching = sum(1 for a in basis if col_margins(a) == vector_content(v, n))
        assert matching == antidominant_count(n, v)


def test_double_coset_frozen_value():
    assert double_coset_count(3, (2, 1), (2, 1)) == 2


def test_double_coset_refuses_negative_row_part():
    with pytest.raises(InputError, match="nonnegative"):
        double_coset_count(1, (-1, 2), (1,))


def test_double_coset_refuses_negative_column_part():
    with pytest.raises(InputError, match="nonnegative"):
        double_coset_count(2, (2,), (3, -1))


def margin_counts(n, r):
    return Counter(
        (tuple(map(sum, a)), tuple(map(sum, zip(*a)))) for a in reference_basis(n, r)
    )


def test_double_coset_counts_match_matrices():
    for n, r in [(2, 2), (2, 3), (2, 4), (3, 5), (4, 4)]:
        counts = margin_counts(n, r)
        assert len(counts) == comb(n + r - 1, r) ** 2
        for (mu, nu), count in counts.items():
            assert double_coset_count(r, mu, nu) == count


def test_double_coset_guards():
    with pytest.raises(InputError, match="sum to"):
        double_coset_count(3, (2, 2), (3,))
    with pytest.raises(InputError, match="integers"):
        double_coset_count(3, (1.5, 1.5), (3,))
    with pytest.raises(InputError, match="integers"):
        double_coset_count(3.0, (3,), (3,))
    # a bool is not an integer, as in check_range
    for args in [(True, (1,), (True,)), (True, (1,), (1,)), (1, (True,), (1,)), (1, (1,), (True,))]:
        with pytest.raises(InputError, match="integers"):
            double_coset_count(*args)
    for (mu, nu), count in margin_counts(2, 8).items():
        assert double_coset_count(8, mu, nu) == count


def test_double_coset_refuses_r_past_the_limit_before_any_word(monkeypatch):
    def refused(content):
        raise AssertionError("a word was listed")

    monkeypatch.setattr(schur, "_words", refused)
    for r, mu in [(30, (15, 15)), (9, (9,)), (9, (4, 5))]:
        with pytest.raises(InputError, match=f"r must be between 0 and 8, got {r}"):
            double_coset_count(r, mu, mu)


@pytest.mark.parametrize("n,r", [(2, 3), (3, 2)])
def test_verify_schur_passes(n, r):
    checks = verify_schur(n, r)
    assert all(c["status"] == "pass" for c in checks), checks
    names = [c["check"] for c in checks]
    assert names == [
        "dominant-vector-count",
        "margin-matrix-count",
        "rsk-content-laws",
        "rsk-roundtrip-bijection",
        "ssyt-counting-identity",
        "two-sided-cells-are-shapes",
        "cells-per-shape-count",
        "left-right-intersections-singleton",
        "transpose-swaps-tableaux",
        "antidominant-indexing-bijection",
        "double-coset-counts",
    ]


def test_suite_names_every_wrong_coset_bucket(monkeypatch):
    # an off-diagonal bucket at r = 6, and its transpose
    real = schur._tables

    def short(mu, nu):
        bucket = real(mu, nu)
        return bucket[:-1] if (mu, nu) == ((1, 2, 3), (3, 2, 1)) else bucket

    monkeypatch.setattr(schur, "_tables", short)
    (record,) = [c for c in verify_schur(3, 6) if c["check"] == "double-coset-counts"]
    assert record["status"] == "fail"
    assert record["witnesses"] == [
        {"row": [1, 2, 3], "col": [3, 2, 1], "orbits": 12, "matrices": 11},
        {"row": [3, 2, 1], "col": [1, 2, 3], "orbits": 12, "matrices": 11},
    ]


def test_coset_counts_walk_each_sorted_pair_once(monkeypatch):
    margins = schur._margins(3, 4)
    pairs = [(mu, nu) for mu in margins for nu in margins]
    expected = [margin_counts(3, 4)[pair] for pair in pairs]
    listed, walked = Counter(), Counter()
    real_words, real_accumulate = schur._words, schur.accumulate

    def words(content):
        if sum(content) == 4:  # the recursion lists shorter words
            listed[content] += 1
        return real_words(content)

    def accumulate(nu):
        walked[nu] += 1
        return real_accumulate(nu)

    monkeypatch.setattr(schur, "_words", words)
    monkeypatch.setattr(schur, "accumulate", accumulate)
    assert schur._coset_counts(pairs) == expected
    shapes = list(partitions_at_most(4, 3))
    assert listed == Counter(shapes)
    assert walked == Counter({p + (0,) * (3 - len(p)): len(shapes) for p in shapes})


def test_schur_report_inserts_each_matrix_once(monkeypatch):
    inserted = Counter()
    real = schur._insert

    def counted(a):
        inserted[a] += 1
        return real(a)

    monkeypatch.setattr(schur, "_insert", counted)
    report = schur_report(3, 3)
    assert all(c["status"] == "pass" for c in report["checks"])
    assert len(inserted) == sum(inserted.values()) == report["matrices"]


@pytest.mark.parametrize("n,r", [*product((1, 2, 3), range(1, 7)), (4, 4)])
def test_report_shapes_follow_two_sided_classes(n, r):
    cells = cells_via_rsk(n, r)
    first_shapes = [list(rsk(mm(min(c))).p.shape) for c in cells.two_sided.classes]
    assert [row["shape"] for row in schur_report(n, r)["shapes"]] == first_shapes


def test_suite_validates_each_tableau(monkeypatch):
    real = schur._insert

    def corrupted(a):
        p, q = real(a)
        return (((2, 1),) if a == (1, 1, 0, 0) else p), q

    monkeypatch.setattr(schur, "_insert", corrupted)
    (record,) = [c for c in verify_schur(2, 2) if c["check"] == "rsk-content-laws"]
    assert record["status"] == "fail"
    assert record["witnesses"] == [{"shape": [2], "tableau": [[2, 1]]}]


def test_suite_lists_matrix_witnesses_in_basis_order(monkeypatch):
    def lost(p, q, n):
        raise ConsistencyError("reverse insertion fell off the tableau")

    monkeypatch.setattr(schur, "_reverse", lost)
    # at n = 3 a row stride of 2 would show as well as a wrong order
    for n, r in [(2, 2), (3, 2)]:
        (record,) = [c for c in verify_schur(n, r) if c["check"] == "rsk-roundtrip-bijection"]
        assert record["status"] == "fail"
        assert record["witnesses"] == [[list(row) for row in a] for a in reference_basis(n, r)]


def test_schur_report_shape():
    report = schur_report(2, 3)
    assert report["format"] == 1
    assert (report["n"], report["r"]) == (2, 3)
    assert report["matrices"] == comb(4 + 3 - 1, 3)
    assert report["two-sided-cells"] == len(report["shapes"])
    for row in report["shapes"]:
        assert row["matrices"] == row["ssyt"] ** 2
        assert row["left-cells"] == row["right-cells"] == row["ssyt"]
    assert all(c["status"] == "pass" for c in report["checks"])
