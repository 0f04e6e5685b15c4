import pytest

from fiatcell import (
    Element,
    InputError,
    build_bn,
    cell_module,
    cell_partition,
    cell_poset,
    compose,
    is_strongly_regular,
    m_values,
    poset_to_dot,
    principal_ideal,
    quotient_by_upset,
    window_shadow,
)
from fiatcell import bnverify, cells, shadow
from fiatcell.shadowfile import shadow_from_dict, shadow_to_dict
from fiatcell.bnverify import bn_cells_report

B2_LEFT = {
    frozenset({"1_0", "F0^(1)", "F0^(2)"}),
    frozenset({"E1^(1)", "E2^(1)F1^(1)", "F1^(1)"}),
    frozenset({"1_1"}),
    frozenset({"E2^(2)", "E2^(1)", "1_2"}),
}
B2_RIGHT = {
    frozenset({"1_0", "E1^(1)", "E2^(2)"}),
    frozenset({"F0^(1)", "E2^(1)F1^(1)", "E2^(1)"}),
    frozenset({"1_1"}),
    frozenset({"F0^(2)", "F1^(1)", "1_2"}),
}
B2_M = {
    "1_0": 1,
    "F0^(1)": 2,
    "F0^(2)": 1,
    "E1^(1)": 1,
    "1_1": 1,
    "E2^(1)F1^(1)": 2,
    "F1^(1)": 1,
    "E2^(2)": 1,
    "E2^(1)": 2,
    "1_2": 1,
}


def ideal_fixpoint(s, a, kind):
    """Oracle: grow the ideal to a genuine fixpoint instead of trusting the
    one-round shortcut in principal_ideal."""
    members = {a}
    frontier = [a]
    while frontier:
        nxt = []
        for b in frontier:
            grown = set()
            if kind in ("left", "two-sided"):
                for x in s.elements:
                    if x.source == b.target:
                        grown |= frozenset(compose(s, x, b).terms)
            if kind in ("right", "two-sided"):
                for y in s.elements:
                    if b.source == y.target:
                        grown |= frozenset(compose(s, b, y).terms)
            for e in grown:
                if e not in members:
                    members.add(e)
                    nxt.append(e)
        frontier = nxt
    return frozenset(members)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kind", ["left", "right", "two-sided"])
def test_principal_ideal_matches_fixpoint_oracle(n, kind):
    # on a complete associative table one round of products is already closed
    s = build_bn(n)
    for a in s.elements:
        assert principal_ideal(s, a, kind) == ideal_fixpoint(s, a, kind)


def test_window_ideals_are_one_round_by_definition():
    # on a partial window the one-round set can be smaller than the closure;
    # the definition is the one-round set, and the gap is a boundary artifact
    s = window_shadow(3)
    for kind in ("left", "right", "two-sided"):
        for a in s.elements:
            assert principal_ideal(s, a, kind) <= ideal_fixpoint(s, a, kind)
    two = s.element("2")
    names = lambda c: {e.name for e in c}
    assert names(principal_ideal(s, two, "left")) == {"1", "2", "3"}
    assert names(ideal_fixpoint(s, two, "left")) == {"0", "1", "2", "3"}


def test_bad_kind_and_unknown_element():
    s = build_bn(1)
    with pytest.raises(InputError):
        principal_ideal(s, s.elements[0], "bilateral")
    with pytest.raises(InputError):
        principal_ideal(s, Element("ghost", 0, 0), "left")


def test_identity_at_zero_is_maximal():
    for n in (1, 2, 3):
        s = build_bn(n)
        top = principal_ideal(s, s.element("1_0"), "two-sided")
        for e in s.elements:
            assert top <= principal_ideal(s, e, "two-sided")


def test_b2_left_and_right_cells():
    s = build_bn(2)
    left = cell_partition(s, "left")
    right = cell_partition(s, "right")
    assert {frozenset(e.name for e in c) for c in left.classes} == B2_LEFT
    assert {frozenset(e.name for e in c) for c in right.classes} == B2_RIGHT
    # classes come out ordered by smallest element index
    assert s.element("1_0") in left.classes[0]
    assert left.class_of(s.element("F0^(2)")) == left.classes[0]
    with pytest.raises(InputError):
        left.class_of("not-an-element")


def test_b2_two_sided_cells_and_poset():
    s = build_bn(2)
    poset = cell_poset(s)
    assert len(poset.cells) == 2
    assert s.element("1_0") in poset.cells[0]
    assert poset.cells[1] == frozenset({s.element("1_1")})
    assert poset.leq(1, 0) and not poset.leq(0, 1)
    assert poset.covers == ((1, 0),)
    assert poset.cell_index(s.element("E2^(1)")) == 0


def test_cell_poset_is_a_chain():
    for n in range(1, 6):
        s = build_bn(n)
        poset = cell_poset(s)
        assert len(poset.cells) == n // 2 + 1
        for i in range(len(poset.cells)):
            for j in range(len(poset.cells)):
                assert poset.leq(i, j) == (i >= j)
        assert poset.covers == tuple((i + 1, i) for i in range(len(poset.cells) - 1))


def test_poset_to_dot():
    s = build_bn(2)
    dot = poset_to_dot(s, cell_poset(s))
    assert dot.startswith("digraph cell_poset {")
    assert "rankdir=BT;" in dot
    assert 'c1 [label="1_1"];' in dot
    assert "c1 -> c0;" in dot
    assert "E2^(1)F1^(1)" in dot
    assert dot == poset_to_dot(s, cell_poset(s))


def test_strong_regularity_positive():
    s = build_bn(3)
    for cls in cell_partition(s, "two-sided").classes:
        assert is_strongly_regular(s, cls) == {
            "check": "strong-regularity",
            "status": "pass",
            "witnesses": [],
        }


def test_strong_regularity_negative_witness():
    s = window_shadow(2)
    cell = frozenset({s.element("0"), s.element("1")})
    result = is_strongly_regular(s, cell)
    assert result["status"] == "fail"
    (witness,) = result["witnesses"]
    assert witness[0] == "intersection-size"
    assert witness[3] == 2


def test_window_cells_boundary_artifact():
    # truncation glues 0 and 1 into one cell; an artifact of the window,
    # not of the unbounded fusion structure
    s = window_shadow(2)
    for kind in ("left", "right", "two-sided"):
        classes = {frozenset(e.name for e in c)
                   for c in cell_partition(s, kind).classes}
        assert classes == {frozenset({"0", "1"}), frozenset({"2"})}


def test_b2_m_values():
    s = build_bn(2)
    got = {}
    for cls in cell_partition(s, "two-sided").classes:
        values, constant = m_values(s, cls)
        assert constant
        got.update({e.name: m for e, m in values.items()})
    assert got == B2_M


def test_m_values_requires_involution():
    # copy: build_bn caches, and the cached shadow must stay pristine
    s = build_bn(2)._replace(involution=None)
    with pytest.raises(InputError, match="involution"):
        m_values(s, cell_partition(s, "two-sided").classes[0])


def test_m_values_requires_regularity():
    s = window_shadow(2)
    cell = frozenset({s.element("0"), s.element("1")})
    with pytest.raises(InputError, match="strongly regular"):
        m_values(s, cell)


def test_regularity_and_m_values_refuse_non_cells():
    s = build_bn(2)
    for cell in (frozenset({s.element("E2^(1)"), s.element("1_2")}), frozenset()):
        with pytest.raises(InputError, match="two-sided cell"):
            is_strongly_regular(s, cell)
        with pytest.raises(InputError, match="two-sided cell"):
            m_values(s, cell)


def test_cell_module_rejects_non_left_cell():
    s = build_bn(2)
    with pytest.raises(InputError, match="left cell"):
        cell_module(s, frozenset({s.element("1_0")}))


def test_cell_module_basis_and_dtype():
    s = build_bn(3)
    cm = cell_module(s, cell_partition(s, "left").classes[0])
    assert [e.name for e in cm.basis] == ["1_0", "F0^(1)", "F0^(2)", "F0^(3)"]
    for mat in cm.matrices.values():
        assert isinstance(mat, tuple) and len(mat) == 4
        for row in mat:
            assert isinstance(row, tuple) and len(row) == 4
            assert all(type(x) is int and x >= 0 for x in row)
    one = [[0] * 4 for _ in range(4)]
    one[0][0] = 1
    assert cm.matrices[s.element("1_0")] == tuple(map(tuple, one))


def test_single_step_lowering_matrices():
    s = build_bn(3)
    cm = cell_module(s, cell_partition(s, "left").classes[0])
    for i in range(3):
        mat = cm.matrices[s.element(f"F{i}^(1)")]
        expected = [[0] * 4 for _ in range(4)]
        expected[i + 1][i] = i + 1
        assert mat == tuple(map(tuple, expected))


@pytest.mark.parametrize("n", [2, 3])
def test_matrices_decompose_like_the_table(n):
    # M_a M_b is the sum of m M_c over the terms (c, m) of a after b
    s = build_bn(n)
    for cls in cell_partition(s, "left").classes:
        cm = cell_module(s, cls)
        size = range(len(cm.basis))
        for a, x in cm.matrices.items():
            for b, y in cm.matrices.items():
                terms = [(cm.matrices[c], m) for c, m in compose(s, a, b).items()]
                product = [[sum(x[i][k] * y[k][j] for k in size) for j in size] for i in size]
                summed = [[sum(m * z[i][j] for z, m in terms) for j in size] for i in size]
                assert product == summed, (a.name, b.name)


def dense_cell_module(s, left_cell):
    """The matrices of cell_module, one compose per element and pair of
    basis elements: entry (h, f) of a's matrix is the multiplicity of h in
    a after f."""
    basis = sorted(left_cell, key=s.index_of)
    return {
        a: tuple(tuple(compose(s, a, f).mult(h) for f in basis) for h in basis)
        for a in s.elements
    }


@pytest.mark.parametrize(
    "s",
    [build_bn(n) for n in range(1, 7)] + [window_shadow(6), window_shadow(30)],
    ids=[f"bn{n}" for n in range(1, 7)] + ["window6", "window30"],
)
def test_cell_module_matches_a_dense_reference(s):
    for cls in cell_partition(s, "left").classes:
        cm = cell_module(s, cls)
        assert cm.basis == tuple(sorted(cls, key=s.index_of))
        assert cm.matrices == dense_cell_module(s, cls)


def test_m_value_consistency_guard_unreachable_on_regular_cells():
    s = build_bn(4)
    for cls in cell_partition(s, "two-sided").classes:
        values, constant = m_values(s, cls)
        assert constant and all(v >= 1 for v in values.values())


def test_each_ideal_is_computed_once_per_shadow(monkeypatch):
    # a fresh shadow: the cached build_bn(6) may already hold its cell data
    s = shadow_from_dict(shadow_to_dict(build_bn(6)))
    calls = []
    for module, name in ((shadow, "_build_view"), (cells, "_ideal_bitsets")):

        def counting(t, original=getattr(module, name), name=name):
            calls.append((name, t is s))
            return original(t)

        monkeypatch.setattr(module, name, counting)
    monkeypatch.setattr(bnverify, "build_bn", lambda n: s)
    assert all(c["status"] == "pass" for c in bn_cells_report(6))
    cell_poset(s)
    cell_module(s, cell_partition(s, "left").class_of(s.element("1_0")))
    top = cell_partition(s, "two-sided").class_of(s.element("1_0"))
    quotient_by_upset(s, top)
    assert sorted(calls) == [("_build_view", True), ("_ideal_bitsets", True)]
