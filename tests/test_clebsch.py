from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fiatcell import (
    InputError,
    cell_partition,
    cg_op,
    check_associativity,
    single_cell_check,
    validate_shadow,
    verify_clebsch,
    window_shadow,
)
from fiatcell import clebsch
from fiatcell.cli import main
from fiatcell.checks import check
from fiatcell.clebsch import associativity_unbounded
from fiatcell.shadowfile import dumps_shadow, shadow_from_dict

import json

nonneg = st.integers(0, 60)


def test_fusion_examples():
    assert cg_op(1, 1) == {0, 2}
    assert cg_op(2, 1) == {1, 3}
    assert cg_op(3, 3) == {0, 2, 4, 6}
    assert cg_op(0, 7) == {7}


def test_fusion_rejects_negatives():
    with pytest.raises(InputError):
        cg_op(-1, 2)


@given(nonneg, nonneg)
def test_fusion_shape(m, n):
    out = cg_op(m, n)
    assert out == cg_op(n, m)
    assert min(out) == abs(m - n) and max(out) == m + n
    assert len(out) == min(m, n) + 1
    assert all((x + m + n) % 2 == 0 for x in out)


@given(nonneg)
def test_zero_is_a_strict_unit(a):
    assert cg_op(0, a) == {a} == cg_op(a, 0)


def test_unbounded_associativity():
    assert associativity_unbounded(10) == {
        "check": "fusion-associativity-unbounded",
        "status": "pass",
        "witnesses": [],
    }


@pytest.mark.parametrize(
    "bound, message",
    [
        (-1, "window bound must be between 0 and 90, got -1"),
        (91, "window bound must be between 0 and 90, got 91"),
        (True, "window bound must be an integer, got True"),
        (2.0, "window bound must be an integer, got 2.0"),
        ("3", "window bound must be an integer, got '3'"),
    ],
)
def test_unbounded_associativity_refuses_a_bad_bound(bound, message):
    with pytest.raises(InputError) as err:
        associativity_unbounded(bound)
    assert str(err.value) == message


def _fusion(m, n):
    """The fusion rule written out, so that a rule patched in for _cg_op
    below does not call itself through cg_op."""
    return frozenset(range(abs(m - n), m + n + 1, 2))


def _set_level(rule, max_value):
    """Reference: (a b) c against a (b c) as sets of terms."""
    for a in range(max_value + 1):
        for b in range(max_value + 1):
            ab = rule(a, b)
            for c in range(max_value + 1):
                bc = rule(b, c)
                left = frozenset(x for t in ab for x in rule(t, c))
                right = frozenset(x for u in bc for x in rule(a, u))
                if left != right:
                    return False, (a, b, c)
    return True, None


def _multiset(rule, max_value):
    """Reference: (a b) c against a (b c) as Counters, so a term listed
    twice by the rule counts twice."""
    for a in range(max_value + 1):
        for b in range(max_value + 1):
            ab = rule(a, b)
            for c in range(max_value + 1):
                bc = rule(b, c)
                left = Counter(x for t in ab for x in rule(t, c))
                right = Counter(x for u in bc for x in rule(a, u))
                if left != right:
                    return False, (a, b, c)
    return True, None


def _record(reference):
    """A reference's (ok, witness) as the record associativity_unbounded
    returns."""
    ok, witness = reference
    return check("fusion-associativity-unbounded", ok, [] if ok else [list(witness)])


def _doubled_top(m, n):
    """Associative as sets, not with multiplicities: m + n twice."""
    terms = _fusion(m, n)
    return [*terms, m + n] if m and n else terms


def _dropped_top(m, n):
    """Not associative even as sets: m + n left out when m == n."""
    return _fusion(m, n) - {2 * m} if m == n else _fusion(m, n)


def _repeated(rule, times):
    return lambda m, n: [x for x in rule(m, n) for _ in range(times)]


@pytest.mark.parametrize("max_value", range(13))
def test_packed_check_agrees_with_references(max_value):
    assert _set_level(cg_op, max_value) == (True, None)
    assert _multiset(cg_op, max_value) == (True, None)
    assert associativity_unbounded(max_value) == _record((True, None))


@pytest.mark.parametrize("max_value", range(1, 7))
def test_set_level_fault_has_the_reference_witness(monkeypatch, max_value):
    expected = _set_level(_dropped_top, max_value)
    assert not expected[0]
    assert _multiset(_dropped_top, max_value) == expected
    monkeypatch.setattr(clebsch, "_cg_op", _dropped_top)
    assert associativity_unbounded(max_value) == _record(expected)


def _shifted_run(m, n):
    """Every product still a run, not associative: 3 1 is {0, 2}, not {2, 4}."""
    terms = _fusion(m, n)
    return frozenset(x - 2 for x in terms) if (m, n) == (3, 1) else terms


def _one_gap(m, n):
    """2 2 is {0, 4}: the only product that is not a run, so the rows of
    (a, 2) compare prefix differences and one term-by-term sum."""
    return frozenset({0, 4}) if (m, n) == (2, 2) else _fusion(m, n)


@pytest.mark.parametrize("rule", [_shifted_run, _one_gap])
@pytest.mark.parametrize("max_value", range(1, 9))
def test_row_comparison_has_the_reference_witness(monkeypatch, rule, max_value):
    expected = _multiset(rule, max_value)
    # from K = 2 the changed product is read
    assert expected[0] == (max_value < 2)
    monkeypatch.setattr(clebsch, "_cg_op", rule)
    assert associativity_unbounded(max_value) == _record(expected)


def _step_four(m, n):
    """4 4 is {0, 4, 8}: a run of step 4, which the step-2 prefix sums must
    not sum as one."""
    return frozenset({0, 4, 8}) if (m, n) == (4, 4) else _fusion(m, n)


@pytest.mark.parametrize("max_value", range(4, 9))
def test_a_run_of_another_step_is_summed_term_by_term(monkeypatch, max_value):
    expected = _multiset(_step_four, max_value)
    assert not expected[0]
    monkeypatch.setattr(clebsch, "_cg_op", _step_four)
    assert associativity_unbounded(max_value) == _record(expected)


@pytest.mark.parametrize("max_value", [2, 6])
def test_repeated_terms_cannot_overflow_a_slot(monkeypatch, max_value):
    # every term K + 2 times scales both sides by (K + 2)^2: still
    # associative, with slots far above one
    rule = _repeated(_fusion, max_value + 2)
    assert _multiset(rule, max_value) == (True, None)
    monkeypatch.setattr(clebsch, "_cg_op", rule)
    assert associativity_unbounded(max_value) == _record((True, None))


@pytest.mark.parametrize("max_value", [2, 6])
def test_repeated_terms_keep_a_multiplicity_fault(monkeypatch, max_value):
    rule = _repeated(_doubled_top, max_value + 2)
    assert _set_level(rule, max_value) == (True, None)
    assert _multiset(rule, max_value) == (False, (1, 1, 2))
    monkeypatch.setattr(clebsch, "_cg_op", rule)
    assert associativity_unbounded(max_value) == _record((False, (1, 1, 2)))


def test_slot_width_counts_multiplicities_inside_entries(monkeypatch):
    # 1 (1 0) = 1 0 + 1 0 = {0: 4} but (1 1) 0 = 2 0 = {1: 1}; in two-bit
    # slots (the longest product has two terms) four at 0 carries into one
    # at 1, so the width must also cover the repeated 0 inside 1 0
    table = {(1, 0): (0, 0), (1, 1): (2,), (2, 0): (1,)}
    rule = lambda m, n: table.get((m, n), ())
    assert _multiset(rule, 1) == (False, (1, 1, 0))
    monkeypatch.setattr(clebsch, "_cg_op", rule)
    assert associativity_unbounded(1) == _record((False, (1, 1, 0)))


def _corruptions(max_value):
    """Every single-entry corruption of the fusion rule at factors up to 2K,
    but (2K, 2K), which neither comparison reads: the top term dropped, the
    bottom term doubled, the top pushed past m + n, and a term of the other
    parity added below m + n."""
    top = 2 * max_value
    for m in range(top + 1):
        for n in range(top + 1):
            if m == n == top:
                continue
            terms = sorted(_fusion(m, n))
            changes = [terms[:-1], [*terms, terms[0]], [*terms[:-1], m + n + 2]]
            if m + n:
                changes.append([*terms, m + n - 1])
            for changed in changes:
                yield m, n, changed


def _spy_on_the_full_comparison(monkeypatch):
    """A list that gets the bound each time the full comparison runs."""
    calls = []
    full = clebsch._full_comparison
    monkeypatch.setattr(clebsch, "_full_comparison", lambda k: calls.append(k) or full(k))
    return calls


@pytest.mark.parametrize("max_value", range(1, 7))
def test_every_single_entry_corruption_has_the_reference_record(monkeypatch, max_value):
    calls = _spy_on_the_full_comparison(monkeypatch)
    cases, light = 0, []
    for m, n, changed in _corruptions(max_value):
        rule = lambda a, b: changed if (a, b) == (m, n) else _fusion(a, b)
        monkeypatch.setattr(clebsch, "_cg_op", rule)
        calls.clear()
        assert associativity_unbounded(max_value) == _record(_multiset(rule, max_value))
        if calls != [max_value]:
            light.append((m, n, changed))
        cases += 1
    assert cases == 4 * (2 * max_value + 1) ** 2 - 5
    # the full comparison answers for every corrupt rule but three at K = 1,
    # which change only 1 1 and still associate on 0 and 1
    assert light == ([(1, 1, [0]), (1, 1, [0, 2, 0]), (1, 1, [0, 2, 1])] if max_value == 1 else [])


@pytest.mark.parametrize("max_value", [25, 90])
def test_light_test_answers_for_the_fusion_rule(monkeypatch, max_value):
    calls = _spy_on_the_full_comparison(monkeypatch)
    assert associativity_unbounded(max_value) == _record((True, None))
    assert calls == []


def _zero_a_left_unit(m, n):
    """0 n = n, but m 0 = 0 for m >= 1, and m n = m + n otherwise."""
    if m == 0:
        return frozenset({n})
    return frozenset({m + n} if n else ())


def _one_a_unit_on_the_rest(m, n):
    """1 n = n 1 = n for n >= 1 and 1 0 = 0 1 = 1; otherwise the fusion rule."""
    return frozenset({max(m, n)}) if 1 in (m, n) else _fusion(m, n)


@pytest.mark.parametrize(
    "rule, max_value, witness",
    [(_zero_a_left_unit, 1, (1, 0, 1))] + [(_one_a_unit_on_the_rest, k, (1, 2, 2)) for k in range(2, 7)],
)
def test_each_premise_guards_the_comparison_with_one(monkeypatch, rule, max_value, witness):
    # (x 1) y = x (1 y) for every x and y, and every term of m n is at most
    # m + n; the first rule fails only the unit, the second only
    # 1 j = (j - 1) + (j + 1). Neither associates: (1 0) 1 = 0 but
    # 1 (0 1) = 2, and (1 2) 2 = 0 + 2 + 4 but 1 (2 2) = 1 + 2 + 4
    assert _multiset(rule, max_value) == (False, witness)
    calls = _spy_on_the_full_comparison(monkeypatch)
    monkeypatch.setattr(clebsch, "_cg_op", rule)
    assert associativity_unbounded(max_value) == _record((False, witness))
    assert calls == [max_value]


def test_multiplicity_only_fault_fails_the_suite(monkeypatch, capsys):
    # (1 1) 2 = {0: 2, 2: 3, 4: 4} but 1 (1 2) = {0: 1, 2: 4, 4: 4}
    assert _set_level(_doubled_top, 4) == (True, None)
    monkeypatch.setattr(clebsch, "_cg_op", _doubled_top)
    record = verify_clebsch(4)[0]
    assert record["check"] == "fusion-associativity-unbounded"
    assert record["status"] == "fail"
    assert record["witnesses"] == [[1, 1, 2]]
    assert main(["verify", "clebsch", "--max", "4"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail"


def test_single_cell_witness():
    assert single_cell_check(25)


def test_window_zero_is_complete():
    s = window_shadow(0)
    assert not s.partial
    assert len(s.elements) == 1
    validate_shadow(s)


def test_window_is_partial_from_one():
    assert window_shadow(1).partial
    with pytest.raises(InputError):
        window_shadow(-1)


def test_window_table_contents():
    s = window_shadow(2)
    one = s.element("1")
    entry = s.table[(one, one)]
    assert {e.name: m for e, m in entry.items()} == {"0": 1, "2": 1}
    assert (s.element("2"), one) not in s.table


def test_window_identity_involution():
    s = window_shadow(3)
    assert s.involution == {e: e for e in s.elements}
    validate_shadow(s)


def test_window_associativity_skips_boundary():
    report = check_associativity(window_shadow(6))
    assert report["status"] == "pass"
    assert report["checked"] > 0 and report["skipped"] > 0


def test_window_cells_regression():
    # the window glues {0, 1} and isolates the boundary element; recorded
    # as-is, the unbounded structure has a single cell (separate witness)
    s = window_shadow(2)
    for kind in ("left", "right", "two-sided"):
        classes = {frozenset(e.name for e in c)
                   for c in cell_partition(s, kind).classes}
        assert classes == {frozenset({"0", "1"}), frozenset({"2"})}


def test_window_roundtrip_keeps_partial_flag():
    s = window_shadow(4)
    again = shadow_from_dict(json.loads(dumps_shadow(s)))
    assert again == s and again.partial


def test_verify_clebsch_passes():
    checks = verify_clebsch(8)
    assert [c["check"] for c in checks] == [
        "fusion-associativity-unbounded",
        "zero-is-strict-unit",
        "single-cell-witness",
        "window-associativity-complete-triples",
    ]
    assert all(c["status"] == "pass" for c in checks)
    window = checks[-1]
    assert window["checked"] > 0 and window["skipped"] > 0
