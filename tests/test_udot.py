import random
import sys
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiatcell import (
    ConsistencyError,
    Decomposition,
    FiatcellError,
    InputError,
    Shadow,
    bn_basis,
    build_bn,
    cell_module,
    cell_partition,
    compose,
    defining_action,
    dp,
    recursion_check,
    verify_bn,
    verify_relations,
)
from fiatcell import bnverify, udot
from fiatcell.bnverify import (
    bn_cells_report,
    cell_generator,
    cell_index_pairs,
    expected_two_sided_index,
)
from fiatcell.udot import (
    DESK_LIMIT,
    DPMonomial,
    _binom,
    bn_element_monomials,
    pair_basis,
    pair_orientation,
)
import udot_rewriter
from udot_oracle import oracle_block_coeffs, oracle_dp_coeffs
from udot_rewriter import (
    WORD_LIMIT,
    basis_change,
    compose_monomials,
    dp_normalize,
    normalize_blocks,
)

# the rewriter's public names, which the package must not hold
REWRITER = {"normalize_blocks", "dp_normalize", "basis_change", "compose_monomials"}

B2_ELEMENT_ORDER = [
    "1_0", "F0^(1)", "F0^(2)", "E1^(1)", "1_1",
    "E2^(1)F1^(1)", "F1^(1)", "E2^(2)", "E2^(1)", "1_2",
]


def as_pairs(vec):
    return {(m.fpow, m.epow): c for m, c in vec.items()}


# the generalised binomial that build_bn's expansions and the rewriter use
@given(st.integers(0, 40), st.integers(0, 12))
def test_gen_binom_matches_comb(m, k):
    assert _binom(m, k) == comb(m, k)


@given(st.integers(1, 20), st.integers(0, 10))
def test_gen_binom_negative_top(m, k):
    falling = 1
    for t in range(k):
        falling *= -m - t
    assert _binom(-m, k) == falling // factorial(k)
    assert falling % factorial(k) == 0


def test_gen_binom_edges():
    assert _binom(3, 5) == 0
    assert _binom(5, -1) == 0
    assert _binom(-2, 3) == -4


def test_binomial_table_reads_the_generalised_binomial():
    # build_bn's table: row top at index top, a negative top from the end
    for n in range(1, DESK_LIMIT + 1):
        table = udot._binomials(n)
        assert len(table) == 4 * n + 1
        for top in range(-2 * n, 2 * n + 1):
            assert table[top] == [_binom(top, j) for j in range(n + 1)], (n, top)


def test_monomial_canonical_kind():
    assert dp("ef", 0, 2, 3).kind == "fe"
    assert dp("ef", 2, 0, 3).kind == "fe"


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: DPMonomial("ef", 0, 2, 3), "pure monomials are canonically kind fe"),
        (lambda: DPMonomial("fe", -1, 0, 0), "negative divided power"),
        (lambda: DPMonomial(kind="fe", fpow=1, epow=-1, base=0), "negative divided power"),
        (lambda: DPMonomial("xy", 1, 1, 0), "bad monomial kind 'xy'"),
        (lambda: dp("ef", 1, 2, 3)._replace(fpow=0), "pure monomials are canonically kind fe"),
    ],
    ids=["pure-ef", "negative-f", "negative-e", "kind", "replaced"],
)
def test_monomials_are_checked_however_built(make, message):
    with pytest.raises(InputError) as err:
        make()
    assert str(err.value) == message


def test_monomial_names():
    assert dp("fe", 0, 0, 4).name == "1_4"
    assert dp("fe", 3, 0, 2).name == "F2^(3)"
    assert dp("fe", 0, 2, 5).name == "E5^(2)"
    assert dp("fe", 2, 1, 3).name == "F2^(2)E3^(1)"
    assert dp("ef", 1, 2, 1).name == "E2^(2)F1^(1)"


def test_monomial_endpoints_and_corners():
    m = dp("fe", 2, 1, 3)
    assert (m.source, m.target) == (3, 4)
    assert m.corners() == (3, 2, 4)
    assert dp("ef", 1, 2, 1).corners() == (1, 2, 0)
    assert dp("fe", 1, 1, 1).in_range(2)
    assert not dp("fe", 1, 1, 0).in_range(2)


small_monomials = st.builds(
    dp,
    st.sampled_from(["fe", "ef"]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(0, 5),
)


@given(small_monomials)
def test_star_is_an_involution(m):
    assert m.star().star() == m
    assert (m.star().source, m.star().target) == (m.target, m.source)
    assert m.star().kind == m.kind or m.star().is_identity or (
        m.fpow == 0 or m.epow == 0
    )


def test_star_swaps_pure_letters():
    assert dp("fe", 3, 0, 1).star() == dp("fe", 0, 3, 4)
    assert dp("ef", 1, 1, 1).star() == dp("ef", 1, 1, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_single_step_words_match_oracle(n):
    # every word of single-step letters up to length 6, from every object
    for length in range(7):
        for word in product("EF", repeat=length):
            for base in range(n + 1):
                got = as_pairs(dp_normalize(n, word, base))
                want = oracle_dp_coeffs(n, word, base)
                assert got == want, (n, word, base)


block_words = st.lists(
    st.tuples(st.sampled_from("EF"), st.integers(1, 3)), max_size=4
)


@given(st.integers(1, 4), block_words, st.integers(0, 4))
def test_block_words_match_oracle(n, blocks, base):
    if base > n:
        base = base % (n + 1)
    got = as_pairs(normalize_blocks(n, blocks, base))
    assert got == oracle_block_coeffs(n, blocks, base)


@given(st.integers(1, 4), block_words, st.integers(0, 4), st.integers(0, 2**30))
def test_normalization_order_does_not_matter(n, blocks, base, seed):
    if base > n:
        base = base % (n + 1)
    deterministic = normalize_blocks(n, blocks, base)
    shuffled = normalize_blocks(n, blocks, base, rng=random.Random(seed))
    assert deterministic == shuffled


def test_engine_composition_matches_oracle_on_basis_pairs():
    for n in range(1, DESK_LIMIT + 1):
        basis = [m for ms in bn_basis(n).values() for m in ms]
        for b in basis:
            for a in basis:
                if a.source != b.target:
                    continue
                word = a.blocks + b.blocks
                got = as_pairs(normalize_blocks(n, word, b.base))
                assert got == oracle_block_coeffs(n, word, b.base), (n, a, b)


def test_normalize_rejects_bad_blocks():
    with pytest.raises(InputError):
        normalize_blocks(2, [("G", 1)], 0)
    with pytest.raises(InputError):
        normalize_blocks(2, [("F", -2)], 0)
    # no power is cast, and a zero block is checked before it is dropped
    for block, message in [
        (("F", 1.5), "bad block ('F', 1.5)"),
        (("F", True), "bad block ('F', True)"),
        (("F", "2"), "bad block ('F', '2')"),
        (("G", 0), "bad block ('G', 0)"),
        (("E", -1), "bad block ('E', -1)"),
    ]:
        with pytest.raises(InputError) as err:
            normalize_blocks(2, [("F", 1), block], 0)
        assert str(err.value) == message
    assert normalize_blocks(2, [("E", 0), ("F", 1), ("F", 0)], 0) == {dp("fe", 1, 0, 0): 1}


def test_word_bound_covers_every_basis_composition():
    assert WORD_LIMIT >= 4 * DESK_LIMIT
    for n in range(1, DESK_LIMIT + 1):
        powers = [m.fpow + m.epow for ms in bn_basis(n).values() for m in ms]
        assert 2 * max(powers) <= WORD_LIMIT


def test_word_past_the_bound_is_refused_before_rewriting(monkeypatch):
    # at the limit the word is straightened; one step past it, no rewrite runs
    at, past = "EF" * (WORD_LIMIT // 2), "EF" * (WORD_LIMIT // 2) + "F"
    assert as_pairs(dp_normalize(1, at, 0)) == oracle_dp_coeffs(1, at, 0)
    calls = _counting(monkeypatch, udot_rewriter, "_straighten")
    message = f"word has total power {WORD_LIMIT + 1}, more than the limit of {WORD_LIMIT}"
    for call in (
        lambda: dp_normalize(DESK_LIMIT, past, 4),
        lambda: normalize_blocks(DESK_LIMIT, [("F", WORD_LIMIT), ("E", 1)], 0),
        lambda: normalize_blocks(2, [("E", 0)] + [("F", 1)] * (WORD_LIMIT + 1), 0),
    ):
        with pytest.raises(InputError) as err:
            call()
        assert str(err.value) == message
    assert calls == []


fuzz_values = st.one_of(
    st.integers(-2, 9),
    st.floats(-2, 9),
    st.booleans(),
    st.sampled_from(["2", "E", ""]),
)
fuzz_letters = st.sampled_from(["E", "F", "G", "e", "", 1])
fuzz_blocks = st.lists(st.tuples(fuzz_letters, fuzz_values), max_size=4)
fuzz_monomials = st.builds(
    dp,
    st.sampled_from(["fe", "ef"]),
    st.integers(0, 3),
    st.integers(0, 3),
    st.integers(-1, 9),
)
fuzz_calls = st.one_of(
    st.tuples(st.just(normalize_blocks), fuzz_values, fuzz_blocks, fuzz_values),
    st.tuples(
        st.just(dp_normalize),
        fuzz_values,
        st.one_of(st.text("EFG", max_size=6), st.lists(fuzz_letters, max_size=6)),
        fuzz_values,
    ),
    st.tuples(
        st.just(basis_change),
        fuzz_values,
        st.dictionaries(fuzz_monomials, st.integers(-2, 3), max_size=3),
    ),
    st.tuples(st.just(compose_monomials), fuzz_values, fuzz_monomials, fuzz_monomials),
)


@given(fuzz_calls)
def test_rewriter_refuses_bad_arguments_cleanly(call):
    func, *args = call
    try:
        func(*args)
    except FiatcellError:
        pass


def test_out_of_range_word_is_zero():
    assert normalize_blocks(2, [("F", 3)], 0) == {}
    assert dp_normalize(2, "EE", 1) == {}


@pytest.mark.parametrize("n", range(1, 9))
def test_pair_basis_counts(n):
    for i in range(n + 1):
        for j in range(n + 1):
            assert len(pair_basis(n, i, j)) == min(i, j, n - i, n - j) + 1


def test_pair_basis_orientation():
    for n in (2, 3, 4):
        for i in range(n + 1):
            for j in range(n + 1):
                for m in pair_basis(n, i, j):
                    assert (m.source, m.target) == (i, j)
                    if m.fpow and m.epow:
                        assert m.kind == pair_orientation(n, i, j)


def test_build_sizes():
    assert len(build_bn(1).elements) == 4
    assert len(build_bn(2).elements) == 10
    assert len(build_bn(6).elements) == 84


def test_build_element_order_frozen():
    assert [e.name for e in build_bn(2).elements] == B2_ELEMENT_ORDER


def test_build_is_cached():
    assert build_bn(3) is build_bn(3)


def test_build_desk_limit():
    with pytest.raises(InputError):
        build_bn(0)
    with pytest.raises(InputError):
        build_bn(9)
    with pytest.raises(TypeError):  # the limit is DESK_LIMIT, not an argument
        build_bn(9, 9)


def test_b2_products_frozen():
    s = build_bn(2)

    def prod(a, b):
        return {
            e.name: m for e, m in compose(s, s.element(a), s.element(b)).items()
        }

    assert prod("E1^(1)", "F0^(1)") == {"1_0": 2}
    assert prod("F1^(1)", "E2^(1)") == {"1_2": 2}
    assert prod("F0^(2)", "E2^(2)") == {"1_2": 1}
    assert prod("E2^(1)F1^(1)", "E2^(1)F1^(1)") == {"E2^(1)F1^(1)": 2}
    assert prod("E2^(2)", "F0^(2)") == {"1_0": 1}
    assert prod("F1^(1)", "F0^(1)") == {"F0^(2)": 2}


@pytest.mark.parametrize("n", range(1, 9))
def test_build_bn_table_matches_rewriter_oracle(n):
    s = build_bn(n)
    mons = [m for ms in bn_basis(n).values() for m in ms]
    assert [e.name for e in s.elements] == [m.name for m in mons]
    pairs = [(a, b) for b in mons for a in mons if a.source == b.target]
    assert [(a.name, b.name) for a, b in s.table] == [
        (a.name, b.name) for a, b in pairs
    ]
    for (a, b), d in zip(pairs, s.table.values()):
        oracle = {m.name: c for m, c in compose_monomials(n, a, b).items()}
        assert {e.name: c for e, c in d.items()} == oracle, (n, a.name, b.name)


def test_build_bn_runs_no_rewriter(monkeypatch):
    # no module of the package holds a name of the rewriter, which lives in
    # the tests; a fresh rank-8 build reaches it through none of them
    assert not any(REWRITER & set(vars(m)) for m in _package_modules())
    calls = _counting(monkeypatch, udot_rewriter, "normalize_blocks")
    build_bn.cache_clear()
    build_bn(8)
    assert calls == []


def _flip_expansion(monkeypatch, name):
    """Make build_bn expand the monomial called name with every sign flipped."""
    real = udot._fe_expansion

    def flipped(n, m):
        terms = real(n, m)
        return tuple((f, e, -c) for f, e, c in terms) if m.name == name else terms

    monkeypatch.setattr(udot, "_fe_expansion", flipped)


def test_build_bn_refuses_negative_product(monkeypatch):
    # the first product of the flipped E2^(1)F1^(1) in table order, after
    # F0^(1), is one FE monomial: -2 F0^(1)
    _flip_expansion(monkeypatch, "E2^(1)F1^(1)")
    with pytest.raises(ConsistencyError, match=r"negative multiplicity -2 at F0\^\(1\)"):
        build_bn.__wrapped__(2)


def test_build_bn_refuses_negative_sum_of_products(monkeypatch):
    # E3^(1)F2^(1) expands into two FE monomials at rank 3, so its products
    # are summed: the first, after F0^(2), is -3 F0^(2)
    _flip_expansion(monkeypatch, "E3^(1)F2^(1)")
    with pytest.raises(ConsistencyError, match=r"negative multiplicity -3 at F0\^\(2\)"):
        build_bn.__wrapped__(3)


def test_build_bn_refuses_product_outside_basis(monkeypatch):
    real = udot.pair_basis
    # drop E2^(1)F1^(1), the second basis monomial of the pair (1, 1)
    monkeypatch.setattr(
        udot, "pair_basis", lambda n, i, j: real(n, i, j)[: 1 if (i, j) == (1, 1) else None]
    )
    with pytest.raises(ConsistencyError, match=r"E2\^\(1\)F1\^\(1\) is not a basis"):
        build_bn.__wrapped__(2)


def test_bases_are_fresh_dicts():
    n = 4
    before = bn_basis(n), bn_element_monomials(n), defining_action(n), recursion_check(n)
    basis, mons = bn_basis(n), bn_element_monomials(n)
    assert basis is not bn_basis(n) and mons is not bn_element_monomials(n)
    basis[(0, 0)] = ()
    mons["1_0"] = dp("fe", 1, 0, 0)
    del mons["F0^(1)"]
    assert (bn_basis(n), bn_element_monomials(n), defining_action(n), recursion_check(n)) == before


def test_b2_involution():
    s = build_bn(2)
    pairs = {e.name: f.name for e, f in s.involution.items()}
    assert pairs["F0^(1)"] == "E1^(1)"
    assert pairs["F0^(2)"] == "E2^(2)"
    assert pairs["E2^(1)F1^(1)"] == "E2^(1)F1^(1)"
    assert pairs["1_1"] == "1_1"


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_defining_relations_hold(n):
    for check in verify_relations(n):
        assert check["status"] == "pass", check


def test_composition_respects_out_of_range_drop():
    # E then F from object 0 leaves only the identity term
    vec = compose_monomials(2, dp("fe", 0, 1, 1), dp("fe", 1, 0, 0))
    assert {m.name: c for m, c in vec.items()} == {"1_0": 2}
    with pytest.raises(InputError):
        compose_monomials(2, dp("fe", 1, 0, 0), dp("fe", 1, 0, 0))


def test_basis_change_guards():
    with pytest.raises(ConsistencyError, match="mixed hom-pairs"):
        basis_change(2, {dp("fe", 1, 0, 0): 1, dp("fe", 0, 1, 1): 1})
    with pytest.raises(ConsistencyError, match="negative multiplicity"):
        basis_change(2, {dp("fe", 1, 1, 2): -1})
    with pytest.raises(ConsistencyError, match="not a basis monomial"):
        basis_change(2, {dp("fe", 3, 3, 0): 1})


def test_virtual_monomial_resolves_to_basis():
    # an FE-ordered monomial on the EF side of the quadrant decomposes with
    # a defect term; the honest multiplicities stay nonnegative
    vec = basis_change(4, {dp("fe", 1, 1, 3): 1})
    assert {m.name: c for m, c in vec.items()} == {"E4^(1)F3^(1)": 1, "1_3": 2}


def test_cell_index_pairs_and_generators():
    assert cell_index_pairs(2) == [(0, 0), (1, 0), (1, 1), (2, 0)]
    assert cell_generator(2, 1, 1).name == "E2^(1)F1^(1)"
    assert cell_generator(2, 1, 0).name == "1_1"
    assert expected_two_sided_index(2, 1, 1) == 0
    assert expected_two_sided_index(2, 1, 0) == 1
    for n in range(1, 7):
        pairs = cell_index_pairs(n)
        assert len(pairs) == len(set(pairs))
        # one pair per left cell
        assert len(pairs) == len(cell_partition(build_bn(n), "left").classes)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_cells_report_passes(n):
    for check in bn_cells_report(n):
        assert check["status"] == "pass", check


def test_defining_action_entries():
    act = defining_action(3)
    s = build_bn(3)
    assert list(act) == list(s.elements)
    assert all(type(c) is int and c > 0 for c in act.values())
    assert act[s.element("F1^(2)")] == comb(3, 2)
    assert act[s.element("E3^(2)")] == comb(2, 2)
    assert act[s.element("1_2")] == 1


def test_defining_action_refuses_element_off_its_monomial(monkeypatch):
    s = build_bn(2)
    f = s.element("F0^(1)")
    elements = tuple(e._replace(target=2) if e == f else e for e in s.elements)
    monkeypatch.setattr(bnverify, "build_bn", lambda n: s._replace(elements=elements))
    with pytest.raises(ConsistencyError, match=r"F0\^\(1\) runs 0 -> 1, not 0 -> 2"):
        defining_action(2)


def _package_modules():
    return [m for name, m in sys.modules.items() if name.split(".")[0] == "fiatcell"]


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("n", [1, 2, 5])
def test_verify_bn_builds_defining_action_once(monkeypatch, n):
    calls = _counting(monkeypatch, bnverify, "defining_action")
    assert all(c["status"] == "pass" for c in verify_bn(n))
    assert len(calls) == 1


@pytest.mark.parametrize("n", [2, 4, 6])
def test_bn_cells_report_reads_m_values_once_per_class(monkeypatch, n):
    # the report's own strong-regularity record checks each class once, and
    # the m-statistic kernel does not check it again
    calls = _counting(monkeypatch, bnverify, "_m_values")
    regular = _counting(monkeypatch, bnverify, "is_strongly_regular")
    assert all(c["status"] == "pass" for c in bn_cells_report(n))
    two_sided = cell_partition(build_bn(n), "two-sided")
    assert [cls for _, cls in calls] == list(two_sided.classes)
    assert [cls for _, cls in regular] == list(two_sided.classes)


def test_verify_bn_reports_non_multiplicative_action(monkeypatch):
    s = build_bn(2)
    key = next(
        k for k in s.table if (k[0].name, k[1].name) == ("E1^(1)", "F0^(1)")
    )
    table = {**s.table, key: Decomposition({s.element("1_0"): 3})}
    monkeypatch.setattr(bnverify, "build_bn", lambda n: s._replace(table=table))
    records = {c["check"]: c for c in verify_bn(2)}
    assert records["defining-action-multiplicative"] == {
        "check": "defining-action-multiplicative",
        "status": "fail",
        "witnesses": [
            "defining action is not multiplicative at (E1^(1), F0^(1))"
        ],
    }
    assert records["cell-module-is-defining-action"] == {
        "check": "cell-module-is-defining-action",
        "status": "fail",
        "witnesses": [{"element": "E1^(1)"}],
    }


def test_verify_bn_lists_cell_module_basis_on_name_mismatch(monkeypatch):
    s = build_bn(2)
    elements = list(s.elements)
    i, j = elements.index(s.element("F0^(1)")), elements.index(s.element("F0^(2)"))
    elements[i], elements[j] = elements[j], elements[i]
    shuffled = s._replace(elements=tuple(elements))
    monkeypatch.setattr(bnverify, "build_bn", lambda n: shuffled)
    records = {c["check"]: c for c in verify_bn(2)}
    assert records["cell-module-is-defining-action"] == {
        "check": "cell-module-is-defining-action",
        "status": "fail",
        "witnesses": [{"basis": ["1_0", "F0^(2)", "F0^(1)"]}],
    }


@pytest.mark.parametrize(
    "corrupt, witness",
    [
        (lambda up: tuple(1 << a for a in range(len(up))), ["1_0", "1_1", "comparable"]),
        (
            lambda up: tuple(
                sum(1 << a for a, above in enumerate(up) if above >> b & 1)
                for b in range(len(up))
            ),
            ["1_1", "1_0", "below"],
        ),
        (
            lambda up: ((1 << len(up)) - 1,) * len(up),
            ["1_1", "1_0", "strictly below"],
        ),
    ],
    ids=["incomparable", "reversed", "not-strict"],
)
def test_cells_report_names_first_failing_pair_of_cells(monkeypatch, corrupt, witness):
    s = build_bn(2)
    real = bnverify.cell_poset(s)
    poset = real._replace(up=corrupt(real.up))
    monkeypatch.setattr(bnverify, "cell_poset", lambda s: poset)
    records = {c["check"]: c for c in bn_cells_report(2)}
    record = records["cell-poset-chain-top-at-identity-0"]
    assert record["status"] == "fail"
    (first,) = record["witnesses"]
    assert [*first["pair"], first["expected"]] == witness


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cell_module_of_top_cell_is_defining_action(n):
    s = build_bn(n)
    cm = cell_module(s, cell_partition(s, "left").classes[0])
    act = defining_action(n)
    assert [e.name for e in cm.basis] == ["1_0"] + [
        f"F0^({k})" for k in range(1, n + 1)
    ]
    for e in s.elements:
        entries = {
            (i, j): v
            for i, row in enumerate(cm.matrices[e])
            for j, v in enumerate(row)
            if v
        }
        assert entries == {(e.target, e.source): act[e]}


@pytest.mark.parametrize("n", [3, 4, 5])
def test_rank_reduction_regression(n):
    check = recursion_check(n)
    assert check["status"] == "pass", check


def test_rank_reduction_reports_altered_product(monkeypatch):
    # E2^(1) after F1^(1) is F0^(1)E1^(1) + 2 * 1_1 at rank 4; the first term
    # lies in the top cell, so the quotient keeps 2 * 1_1, as rank 2 has it.
    # Raising 2 to 3 keeps every support, so the cells stay as they are.
    real = build_bn
    s = real(4)
    key = next(k for k in s.table if (k[0].name, k[1].name) == ("E2^(1)", "F1^(1)"))
    assert {e.name: m for e, m in s.table[key].items()} == {
        "F0^(1)E1^(1)": 1,
        "1_1": 2,
    }
    terms = {s.element("F0^(1)E1^(1)"): 1, s.element("1_1"): 3}
    table = {**s.table, key: Decomposition(terms)}
    altered = s._replace(table=table)
    monkeypatch.setattr(bnverify, "build_bn", lambda n: altered if n == 4 else real(n))
    assert recursion_check(4) == {
        "check": "rank-reduction-index-shift",
        "status": "fail",
        "witnesses": [
            {"pair": ["E2^(1)", "F1^(1)"]},
            {"quotient": "differs from shifted lower-rank shadow"},
        ],
    }


def _on_ids_copy(n, entry=None, star=None, elements=None, objects=None):
    """A fresh copy of build_bn(n) made on ids, sharing no memo with the
    cached shadow. entry is (left, right, {name: mult}): that entry and its
    dual are replaced, so the copy still passes validation. star is
    (name, image name): one image of the involution changed. elements maps
    a name to a new name."""
    s = build_bn(n)
    ids = {e.name: i for i, e in enumerate(s.elements)}
    entries, involution = list(s._ids[0]), list(s._ids[1])
    if entry is not None:
        left, right, terms = entry
        a, b = ids[left], ids[right]
        row = tuple(x for name, m in terms.items() for x in (ids[name], m))
        dual = tuple(x for t, m in zip(row[::2], row[1::2]) for x in (involution[t], m))
        new = {(a, b): row, (involution[b], involution[a]): dual}
        entries = [(x, y, new.get((x, y), r)) for x, y, r in entries]
    if star is not None:
        name, image = star
        involution[ids[name]] = ids[image]
    named = elements or {}
    renamed = tuple(e._replace(name=named.get(e.name, e.name)) for e in s.elements)
    return Shadow._on_ids(objects or s.objects, renamed, entries, tuple(involution))


def _patch_rank(monkeypatch, n, copy):
    real = udot.build_bn
    monkeypatch.setattr(bnverify, "build_bn", lambda k: copy if k == n else real(k))


# the records verify_bn gives on one corrupted entry (and its dual), in
# report order; every record named here that is not listed passes
PINNED_RECORDS = (
    "exchange-relation",
    "merge-relation",
    "defining-action-multiplicative",
    "cell-module-is-defining-action",
    "m-constant-on-right-cells",
    "m-value-identity-multiplicity-formula",
    "rank-reduction-index-shift",
)
QUOTIENT_DIFFERS = {"quotient": "differs from shifted lower-rank shadow"}
CORRUPTED_ENTRIES = [
    (
        (4, "E2^(1)", "F1^(1)", {"F0^(1)E1^(1)": 1, "1_1": 3}),
        {
            "exchange-relation": [
                {
                    "i": 1,
                    "left": {"1_1": 4, "F0^(1)E1^(1)": 1},
                    "right": {"1_1": 3, "F0^(1)E1^(1)": 1},
                }
            ],
            "defining-action-multiplicative": [
                "defining action is not multiplicative at (E2^(1), F1^(1))"
            ],
            "m-constant-on-right-cells": [
                {
                    "1_1": 1, "F1^(1)": 3, "F1^(2)": 1, "E2^(1)": 1, "E3^(1)F2^(1)": 2,
                    "F2^(1)": 1, "E3^(2)": 1, "E3^(1)": 2, "1_3": 1,
                }
            ],
            "m-value-identity-multiplicity-formula": [
                {"pair": [2, 1], "expected": 3, "got": [2, 3]}
            ],
            "rank-reduction-index-shift": [{"pair": ["E2^(1)", "F1^(1)"]}, QUOTIENT_DIFFERS],
        },
    ),
    (
        (4, "E1^(1)", "F0^(1)", {"1_0": 5}),
        {
            "exchange-relation": [{"i": 0, "left": {"1_0": 5}, "right": {"1_0": 4}}],
            "defining-action-multiplicative": [
                "defining action is not multiplicative at (E1^(1), F0^(1))"
            ],
            "cell-module-is-defining-action": [{"element": "E1^(1)"}],
            "m-constant-on-right-cells": [
                {
                    "1_0": 1, "F0^(1)": 5, "F0^(2)": 6, "F0^(3)": 4, "F0^(4)": 1,
                    "E1^(1)": 1, "F0^(1)E1^(1)": 4, "F0^(2)E1^(1)": 6, "E4^(1)F1^(3)": 4,
                    "F1^(3)": 1, "E2^(2)": 1, "F0^(1)E2^(2)": 4, "E4^(2)F2^(2)": 6,
                    "E4^(1)F2^(2)": 4, "F2^(2)": 1, "E3^(3)": 1, "E4^(3)F3^(1)": 4,
                    "E4^(2)F3^(1)": 6, "E4^(1)F3^(1)": 4, "F3^(1)": 1, "E4^(4)": 1,
                    "E4^(3)": 4, "E4^(2)": 6, "E4^(1)": 4, "1_4": 1,
                }
            ],
            "m-value-identity-multiplicity-formula": [
                {"pair": [1, 0], "expected": 5, "got": [4, 5]}
            ],
        },
    ),
    (
        (4, "E2^(1)", "E3^(1)", {"E3^(2)": 3}),
        {
            "merge-relation": [
                {"family": "F", "i": 1, "k": 2},
                {"family": "F", "i": 1, "k": 3},
                {"family": "E", "i": 3, "k": 2},
                {"family": "E", "i": 3, "k": 3},
            ],
            "defining-action-multiplicative": [
                "defining action is not multiplicative at (F2^(1), F1^(1))"
            ],
            "rank-reduction-index-shift": [
                {"pair": ["E2^(1)", "E3^(1)"]},
                {"pair": ["F2^(1)", "F1^(1)"]},
                QUOTIENT_DIFFERS,
            ],
        },
    ),
    (
        (3, "F1^(1)", "F0^(1)", {"F0^(2)": 3}),
        {
            "merge-relation": [
                {"family": "F", "i": 0, "k": 2},
                {"family": "F", "i": 0, "k": 3},
                {"family": "E", "i": 2, "k": 2},
            ],
            "defining-action-multiplicative": [
                "defining action is not multiplicative at (F1^(1), F0^(1))"
            ],
            "cell-module-is-defining-action": [{"element": "F1^(1)"}],
        },
    ),
]


@pytest.mark.parametrize(
    "entry, failing", CORRUPTED_ENTRIES, ids=["exchange", "identity-term", "merge-E", "merge-F"]
)
def test_verify_bn_records_on_a_corrupted_entry(monkeypatch, entry, failing):
    n, *changed = entry
    _patch_rank(monkeypatch, n, _on_ids_copy(n, entry=changed))
    records = [c for c in verify_bn(n) if c["check"] in PINNED_RECORDS]
    expected = [
        {
            "check": name,
            "status": "fail" if name in failing else "pass",
            "witnesses": failing.get(name, []),
        }
        for name in PINNED_RECORDS
        if n >= 3 or name != "rank-reduction-index-shift"
    ]
    # the witnesses' key order is the report's byte order
    assert [list(map(str, r["witnesses"])) for r in records] == [
        list(map(str, r["witnesses"])) for r in expected
    ]
    assert records == expected


@pytest.mark.parametrize(
    "n, change, witnesses",
    [
        # an image of the top cell outside it: the quotient drops its
        # involution, and every product still agrees
        (3, dict(star=("F0^(1)", "1_1")), [QUOTIENT_DIFFERS]),
        (4, dict(objects=(0, 1, 2, 3, 4, 5)), [QUOTIENT_DIFFERS]),
        # a renamed element: each shifted product that names it, or has it as
        # a term, is missing from the quotient or reads differently there
        (
            4,
            dict(elements={"E3^(1)F2^(1)": "X"}),
            [
                {"pair": ["F1^(1)", "E2^(1)"]},
                {"pair": ["E2^(1)", "E3^(1)F2^(1)"]},
                {"pair": ["1_2", "E3^(1)F2^(1)"]},
                {"pair": ["E3^(1)F2^(1)", "F1^(1)"]},
                {"pair": ["E3^(1)F2^(1)", "1_2"]},
                {"pair": ["E3^(1)F2^(1)", "E3^(1)F2^(1)"]},
                {"pair": ["E3^(1)F2^(1)", "E3^(1)"]},
                {"pair": ["F2^(1)", "E3^(1)F2^(1)"]},
                {"pair": ["E3^(1)", "F2^(1)"]},
                QUOTIENT_DIFFERS,
            ],
        ),
    ],
    ids=["involution", "objects", "element-name"],
)
def test_rank_reduction_reports_the_whole_quotient(monkeypatch, n, change, witnesses):
    _patch_rank(monkeypatch, n, _on_ids_copy(n, **change))
    assert recursion_check(n) == {
        "check": "rank-reduction-index-shift",
        "status": "fail",
        "witnesses": witnesses,
    }


def _name_keyed_record(n):
    """recursion_check's record from the name-keyed comparison alone: every
    shifted product that the quotient lacks or reads differently, then the
    whole quotient."""
    big = bnverify.build_bn(n)
    lower = bnverify.build_bn(n - 2)
    top = bnverify.cell_data(big, "two-sided").cell_of[big._id_of["1_0"]]
    quotient = bnverify._file_form(bnverify.quotient_by_upset(big, top))
    shifted = bnverify._file_form(
        bnverify.shift_shadow(lower, bn_element_monomials(n - 2), 1)
    )
    witnesses = [
        {"pair": list(pair)}
        for pair, result in shifted[-1].items()
        if quotient[-1].get(pair) != result
    ]
    if quotient != shifted:
        witnesses.append(QUOTIENT_DIFFERS)
    return {"check": "rank-reduction-index-shift", "status": "fail", "witnesses": witnesses}


@pytest.mark.parametrize(
    "n, rank, change, pairs",
    [
        # a self-dual product of the lower rank, and one with its dual
        (4, 2, dict(entry=("E1^(1)", "F0^(1)", {"1_0": 3})), [["E2^(1)", "F1^(1)"]]),
        (
            5,
            3,
            dict(entry=("F1^(1)", "F0^(1)", {"F0^(2)": 3})),
            [["E2^(1)", "E3^(1)"], ["F2^(1)", "F1^(1)"]],
        ),
        # a renamed element of the higher rank: the shifted products that
        # name it, or have it as a term, read differently in the quotient
        (
            4,
            4,
            dict(elements={"E2^(1)": "X"}),
            [
                ["1_1", "E2^(1)"],
                ["F1^(1)", "E2^(1)"],
                ["F1^(2)", "E2^(1)"],
                ["E2^(1)", "F1^(1)"],
                ["E2^(1)", "1_2"],
                ["E2^(1)", "E3^(1)F2^(1)"],
                ["E2^(1)", "E3^(1)"],
                ["E3^(2)", "F2^(1)"],
            ],
        ),
    ],
    ids=["self-dual-product", "dual-products", "renamed-element"],
)
def test_rank_reduction_falls_back_to_names(monkeypatch, n, rank, change, pairs):
    # the changed rank is a fresh copy on ids, never the cached shadow, so
    # the quotient and the shifted shadow differ on ids and are compared by
    # name; the record is the name-keyed one
    forms = _counting(monkeypatch, bnverify, "_file_form")
    assert recursion_check(n)["status"] == "pass" and forms == []
    _patch_rank(monkeypatch, rank, _on_ids_copy(rank, **change))
    record = recursion_check(n)
    assert len(forms) == 2
    assert record == _name_keyed_record(n)
    assert record["witnesses"] == [{"pair": pair} for pair in pairs] + [QUOTIENT_DIFFERS]


def test_rank_reduction_reports_a_quotient_with_more_products(monkeypatch):
    # the lower rank lacks one product: every product it has agrees, but
    # the quotient has one more
    s = build_bn(2)
    entries, star = s._ids
    _patch_rank(monkeypatch, 2, Shadow._on_ids(s.objects, s.elements, entries[1:], star))
    assert recursion_check(4)["witnesses"] == [QUOTIENT_DIFFERS]


def test_verify_bn_runs_no_rewriter(monkeypatch):
    # the rewriter lives in the tests, and no module of the package holds
    # one of its names
    assert not any(REWRITER & set(vars(m)) for m in _package_modules())
    rewrites = _counting(monkeypatch, udot_rewriter, "normalize_blocks")
    changes = _counting(monkeypatch, udot_rewriter, "basis_change")
    build_bn.cache_clear()
    for n in range(1, 9):
        assert all(c["status"] == "pass" for c in verify_bn(n))
    assert rewrites == changes == []


def test_rank_reduction_needs_rank_three():
    with pytest.raises(InputError):
        recursion_check(2)
