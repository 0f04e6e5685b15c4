import functools
import json
import random
import re
import sys
import tracemalloc
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fiatcell import (
    Decomposition,
    Element,
    InputError,
    Shadow,
    StructureError,
    build_bn,
    cell_partition,
    check_associativity,
    compose,
    dumps_shadow,
    is_strongly_regular,
    load_shadow,
    save_shadow,
    validate_shadow,
    window_shadow,
)
from fiatcell import bnverify, clebsch, sweep, udot
from fiatcell.checks import json_pieces
from fiatcell.cli import main
from fiatcell.shadow import _run
from fiatcell.shadowfile import shadow_from_dict, shadow_to_dict
from shadow_generators import transformation_semigroups

E = Element("e", 0, 0, is_identity=True)
T = Element("t", 0, 0)
U = Element("u", 0, 0)


def one_object_shadow(table, elements=(E, T, U), involution=None, partial=False):
    full = {}
    for a in elements:
        full[(a, E)] = Decomposition({a: 1})
        full[(E, a)] = Decomposition({a: 1})
    full.update(table)
    return Shadow(
        objects=(0,),
        elements=tuple(elements),
        table=full,
        involution=involution,
        partial=partial,
    )


def associative_toy():
    # t generates u, u absorbs everything
    return one_object_shadow(
        {
            (T, T): Decomposition({U: 1}),
            (T, U): Decomposition({U: 1}),
            (U, T): Decomposition({U: 1}),
            (U, U): Decomposition({U: 1}),
        }
    )


def non_associative_toy():
    return one_object_shadow(
        {
            (T, T): Decomposition({U: 1}),
            (T, U): Decomposition({U: 1}),
            (U, T): Decomposition({T: 1}),
            (U, U): Decomposition({E: 1}),
        }
    )


def test_decomposition_algebra():
    d = Decomposition({T: 2}) + Decomposition({T: 1, U: 3})
    assert d.terms == {T: 3, U: 3}
    assert Decomposition.zero().is_zero
    assert d.mult(T) == 3 and d.mult(E) == 0
    assert frozenset(d.terms) == frozenset({T, U})


def test_compose_identity_and_zero():
    s = associative_toy()
    assert compose(s, T, E).terms == {T: 1}
    assert compose(s, E, T).terms == {T: 1}
    assert compose(s, T, T).terms == {U: 1}


def test_compose_unknown_element():
    s = associative_toy()
    with pytest.raises(InputError):
        compose(s, Element("ghost", 0, 0), T)


def test_compose_non_composable_is_zero():
    s = build_bn(2)
    f = s.element("F0^(1)")  # 0 -> 1
    assert compose(s, f, f).is_zero


def test_missing_entry_strict_vs_partial():
    table = {
        (T, T): Decomposition({U: 1}),
        (T, U): Decomposition({U: 1}),
        (U, T): Decomposition({U: 1}),
        # (U, U) left out
    }
    strict = one_object_shadow(table)
    with pytest.raises(StructureError):
        compose(strict, U, U)
    lax = one_object_shadow(table, partial=True)
    assert compose(lax, U, U).is_zero


def test_compose_helpers():
    # T after each term of 2 T + U, summed with multiplicities
    s = associative_toy()
    total = Decomposition.zero()
    for t, m in Decomposition({T: 2, U: 1}).items():
        for _ in range(m):
            total = total + compose(s, T, t)
    assert total.terms == {U: 3}
    assert total.mult(U) == 3 and not total.is_zero


def test_incomplete_table_is_an_error():
    s = one_object_shadow({(T, T): Decomposition({T: 1, U: 1})})
    with pytest.raises(StructureError, match="incomplete"):
        validate_shadow(s)


def test_identity_must_act_strictly():
    s = associative_toy()
    s = s._replace(table={**s.table, (E, T): Decomposition({T: 2})})
    with pytest.raises(StructureError, match="strictly"):
        validate_shadow(s)


def test_nonpositive_multiplicity_rejected():
    s = associative_toy()
    s = s._replace(table={**s.table, (T, T): Decomposition({U: 0})})
    with pytest.raises(StructureError, match="multiplicity"):
        validate_shadow(s)
    # the cell engine reads the same checked view, validated or not
    s = s._replace(table=dict(s.table))
    with pytest.raises(StructureError, match="nonpositive multiplicity 0 in"):
        cell_partition(s, "left")


def test_result_endpoints_checked():
    a = Element("a", 0, 1)
    e0 = Element("e0", 0, 0, is_identity=True)
    e1 = Element("e1", 1, 1, is_identity=True)
    table = {
        (e0, e0): Decomposition({e0: 1}),
        (e1, e1): Decomposition({e1: 1}),
        (a, e0): Decomposition({a: 1}),
        (e1, a): Decomposition({e0: 1}),  # wrong endpoints
    }
    s = Shadow(objects=(0, 1), elements=(e0, e1, a), table=table)
    with pytest.raises(StructureError, match="wrong source/target"):
        validate_shadow(s)


A01 = Element("a", 0, 1)
E0 = Element("e0", 0, 0, is_identity=True)
E1 = Element("e1", 1, 1, is_identity=True)


@pytest.mark.parametrize("on_ids", [True, False], ids=["on-ids", "hand-built"])
@pytest.mark.parametrize(
    "terms, message",
    [
        # two faults in one entry: the first term's decides, a multiplicity
        # before the endpoints within a term
        (((E1, 1), (A01, 0)), "term e1 of (a, e0) has wrong source/target"),
        (((A01, 0), (E1, 1)), "nonpositive multiplicity 0 in (a, e0)"),
        (((E1, 0),), "nonpositive multiplicity 0 in (a, e0)"),
        (((E1, 1),), "term e1 of (a, e0) has wrong source/target"),
        (((E0, 1),), "term e0 of (a, e0) has wrong source/target"),
        (((A01, 1), (E0, 2)), "term e0 of (a, e0) has wrong source/target"),
    ],
    ids=[
        "endpoints-first",
        "multiplicity-first",
        "one-term-both",
        "wrong-source",
        "wrong-target",
        "second",
    ],
)
def test_view_raises_the_first_fault_of_an_entry(on_ids, terms, message):
    elements = (E0, E1, A01)
    table = {
        (E0, E0): ((E0, 1),),
        (E1, E1): ((E1, 1),),
        (A01, E0): terms,
        (E1, A01): ((A01, 1),),
    }
    if on_ids:
        at = {e: i for i, e in enumerate(elements)}
        entries = [
            (at[a], at[b], tuple(x for e, m in row for x in (at[e], m)))
            for (a, b), row in table.items()
        ]
        s = Shadow._on_ids((0, 1), elements, entries, None)
    else:
        table = {pair: Decomposition(dict(row)) for pair, row in table.items()}
        s = Shadow(objects=(0, 1), elements=elements, table=table)
    with pytest.raises(StructureError) as raised:
        validate_shadow(s)
    assert str(raised.value) == message


def test_duplicate_names_rejected():
    s = Shadow(objects=(0,), elements=(E, Element("t", 0, 0), T), table={})
    with pytest.raises(StructureError, match="duplicate"):
        validate_shadow(s)


def test_exactly_one_identity_per_object():
    s = Shadow(objects=(0,), elements=(T,), table={(T, T): Decomposition({T: 1})})
    with pytest.raises(StructureError, match="identities"):
        validate_shadow(s)


def test_identity_endpoints():
    bad = Element("i", 0, 1, is_identity=True)
    s = Shadow(objects=(0, 1), elements=(bad,), table={})
    with pytest.raises(StructureError):
        validate_shadow(s)


def test_involution_must_be_self_inverse_bijection():
    s = associative_toy()._replace(involution={E: E, T: U, U: T})
    # t* = u breaks the anti-homomorphism: (t t)* = u* = t but t* t* = u
    with pytest.raises(StructureError, match="anti-homomorphism"):
        validate_shadow(s)
    s = associative_toy()._replace(involution={E: E, T: T})
    with pytest.raises(StructureError, match="bijection"):
        validate_shadow(s)


def test_involution_fixes_identities():
    s = associative_toy()._replace(involution={E: T, T: E, U: U})
    with pytest.raises(StructureError, match="moves identity"):
        validate_shadow(s)


def test_associativity_pass_and_counts():
    report = check_associativity(build_bn(2))
    assert report["status"] == "pass"
    assert report["witnesses"] == []
    assert report["checked"] > 0 and report["skipped"] == 0


def test_associativity_failure_reported():
    report = check_associativity(non_associative_toy())
    assert report["status"] == "fail"
    # every triple starting with e, with (t, e) or with (t, t, e) agrees;
    # then (t t) t = u t = t while t (t t) = t u = u
    assert report["witnesses"] == [
        {
            "triple": ["t", "t", "t"],
            "left": {"t": 1},
            "right": {"u": 1},
        }
    ]
    assert (report["checked"], report["skipped"]) == (27, 0)


def _one_gap(m, n):
    # the fusion rule with 2 2 = {0, 4}, not associative from the window 0..2
    return frozenset({0, 4}) if (m, n) == (2, 2) else frozenset(range(abs(m - n), m + n + 1, 2))


def _unbounded_with_a_fault(monkeypatch):
    monkeypatch.setattr(clebsch, "_cg_op", _one_gap)
    return clebsch.associativity_unbounded(2)


def _comparable_left_cells(_):
    # left ideals {t} and {t, u} inside the two-sided cell {t, u}
    table = {(T, T): T, (T, U): U, (U, T): T, (U, U): T}
    s = one_object_shadow({pair: Decomposition({e: 1}) for pair, e in table.items()})
    return is_strongly_regular(s, frozenset({T, U}))


def _first_two_sided_cell(s):
    return is_strongly_regular(s, cell_partition(s, "two-sided").classes[0])


@pytest.mark.parametrize(
    "make, status",
    [
        (lambda _: check_associativity(associative_toy()), "pass"),
        (lambda _: check_associativity(non_associative_toy()), "fail"),
        (lambda _: check_associativity(window_shadow(3)), "pass"),
        (lambda _: _first_two_sided_cell(build_bn(2)), "pass"),
        (_comparable_left_cells, "fail"),
        (lambda _: _first_two_sided_cell(window_shadow(2)), "fail"),
        (lambda _: clebsch.associativity_unbounded(2), "pass"),
        (_unbounded_with_a_fault, "fail"),
    ],
    ids=[
        "associativity-pass",
        "associativity-fail",
        "associativity-partial",
        "regularity-pass",
        "comparable-left-cells",
        "intersection-size",
        "unbounded-pass",
        "unbounded-fail",
    ],
)
def test_law_records_lead_with_check_status_witnesses(monkeypatch, make, status):
    record = make(monkeypatch)
    assert list(record)[:3] == ["check", "status", "witnesses"]
    assert record["status"] == status
    assert (record["witnesses"] == []) == (status == "pass")


def reference_validate(s):
    """validate_shadow on Elements, without the integer view: the same
    invariants, checked in the same order, with the same messages. It does
    not check that table keys and terms are elements."""
    if len(set(s.objects)) != len(s.objects):
        raise StructureError("duplicate object ids")
    objset = set(s.objects)
    names = [e.name for e in s.elements]
    if len(set(names)) != len(names):
        raise StructureError("duplicate element ids")
    for e in s.elements:
        if e.source not in objset or e.target not in objset:
            raise StructureError(f"element {e.name} touches an unknown object")
        if e.is_identity and e.source != e.target:
            raise StructureError(f"identity {e.name} has source != target")
    for obj in s.objects:
        ids = [e for e in s.elements if e.is_identity and e.source == obj]
        if len(ids) != 1:
            raise StructureError(f"object {obj} has {len(ids)} identities")

    def identity_at(obj):
        return next(e for e in s.elements if e.is_identity and e.source == obj)

    for (a, b), d in s.table.items():
        if a.source != b.target:
            raise StructureError(f"table entry ({a.name}, {b.name}) is not composable")
        for e, m in d.terms.items():
            if m < 1:
                raise StructureError(
                    f"nonpositive multiplicity {m} in ({a.name}, {b.name})"
                )
            if e.source != b.source or e.target != a.target:
                raise StructureError(
                    f"term {e.name} of ({a.name}, {b.name}) has wrong source/target"
                )
    if not s.partial:
        for a in s.elements:
            for b in s.elements:
                if a.source == b.target and (a, b) not in s.table:
                    raise StructureError(
                        f"incomplete table: missing entry ({a.name}, {b.name})"
                    )
    for a in s.elements:
        one_t = identity_at(a.target)
        one_s = identity_at(a.source)
        for pair in ((one_t, a), (a, one_s)):
            entry = s.table.get(pair)
            if entry is None and s.partial:
                continue
            if entry is None or entry.terms != {a: 1}:
                raise StructureError(f"identity does not act strictly on {a.name}")

    if s.involution is not None:
        inv = s.involution
        if set(inv) != set(s.elements) or set(inv.values()) != set(s.elements):
            raise StructureError("involution is not a bijection on elements")
        for e, f in inv.items():
            if inv[f] != e:
                raise StructureError(f"involution not self-inverse at {e.name}")
            if f.source != e.target or f.target != e.source:
                raise StructureError(f"involution of {e.name} does not swap endpoints")
            if e.is_identity and f != e:
                raise StructureError(f"involution moves identity {e.name}")
        for (a, b), d in s.table.items():
            dual = s.table.get((inv[b], inv[a]))
            if dual is None:
                if s.partial:
                    continue
                raise StructureError(f"missing dual entry for ({a.name}, {b.name})")
            starred = {inv[e]: m for e, m in d.terms.items()}
            if starred != dual.terms:
                raise StructureError(
                    f"involution is not an anti-homomorphism at ({a.name}, {b.name})"
                )


def reference_sweep(s):
    """The record of check_associativity, from a sweep on Elements through
    compose; a triple is skipped when a product it needs has no entry.
    Raises StructureError where reference_validate does."""
    reference_validate(s)

    def product(x, terms, on_left):
        out = {}
        for t, m in terms.items():
            pair = (x, t) if on_left else (t, x)
            if pair not in s.table:
                return None
            for e, k in compose(s, *pair).items():
                out[e] = out.get(e, 0) + m * k
        return out

    checked = skipped = 0
    failure = None
    for a in s.elements:
        for b in (b for b in s.elements if b.target == a.source):
            for c in (c for c in s.elements if c.target == b.source):
                if (a, b) not in s.table or (b, c) not in s.table:
                    skipped += 1
                    continue
                left = product(c, compose(s, a, b), on_left=False)
                right = product(a, compose(s, b, c), on_left=True)
                if left is None or right is None:
                    skipped += 1
                    continue
                checked += 1
                if left != right and failure is None:
                    failure = {
                        "triple": [a.name, b.name, c.name],
                        "left": {e.name: left[e] for e in s.elements if e in left},
                        "right": {e.name: right[e] for e in s.elements if e in right},
                    }
    return {
        "check": "associativity",
        "status": "pass" if failure is None else "fail",
        "witnesses": [] if failure is None else [failure],
        "checked": checked,
        "skipped": skipped,
    }


@st.composite
def random_shadows(draw):
    """Valid one- or two-object shadows with random products, in a random
    element order; partial ones drop some entries between non-identities.
    Multiplicities are small or up to 2 ** 40, so products need wide slots."""
    objects = tuple(range(draw(st.integers(1, 2))))
    ends = st.tuples(st.sampled_from(objects), st.sampled_from(objects))
    mults = draw(st.sampled_from([st.integers(1, 2), st.integers(1, 2**40)]))
    elements = [Element(f"1_{o}", o, o, is_identity=True) for o in objects]
    for i, (src, tgt) in enumerate(draw(st.lists(ends, max_size=5))):
        elements.append(Element(f"x{i}", src, tgt))
    elements = draw(st.permutations(elements))
    partial = draw(st.booleans())
    table = {}
    for a in elements:
        for b in elements:
            if a.source != b.target:
                continue
            if a.is_identity or b.is_identity:
                table[(a, b)] = Decomposition({b if a.is_identity else a: 1})
                continue
            if partial and draw(st.booleans()):
                continue
            fits = [e for e in elements if (e.source, e.target) == (b.source, a.target)]
            if fits:
                terms = draw(st.dictionaries(st.sampled_from(fits), mults))
                table[(a, b)] = Decomposition(terms)
            else:
                table[(a, b)] = Decomposition.zero()
    return Shadow(objects=objects, elements=tuple(elements), table=table, partial=partial)


@settings(max_examples=60)
@given(random_shadows())
def test_sweep_matches_reference_on_random_shadows(s):
    # key order too: a record is printed as JSON
    assert json.dumps(check_associativity(s)) == json.dumps(reference_sweep(s))


def _non_identity_pairs(s):
    return [p for p in s.table if not (p[0].is_identity or p[1].is_identity)]


def _bumped(s, rng):
    """s with one multiplicity of a non-identity entry raised by one."""
    pairs = [p for p in _non_identity_pairs(s) if s.table[p].terms]
    if not pairs:
        return None
    pair = rng.choice(pairs)
    term = rng.choice(list(s.table[pair].terms))
    return s._replace(table={**s.table, pair: s.table[pair] + Decomposition({term: 1})})


def _term_added(s, rng):
    """s with a term in its hom space added to a non-identity entry."""
    pairs = _non_identity_pairs(s)
    if not pairs:
        return None
    a, b = rng.choice(pairs)
    hom = [e for e in s.elements if (e.source, e.target) == (b.source, a.target)]
    entry = s.table[(a, b)] + Decomposition({rng.choice(hom): 1})
    return s._replace(table={**s.table, (a, b): entry})


def _entry_dropped(s, rng):
    """s, a partial shadow, without one of its non-identity entries."""
    pairs = _non_identity_pairs(s)
    if not (s.partial and pairs):
        return None
    table = dict(s.table)
    del table[rng.choice(pairs)]
    return s._replace(table=table)


def test_sweep_matches_reference_on_families_and_seeded_corruptions():
    families = [build_bn(r) for r in range(1, 7)] + [window_shadow(k) for k in range(13)]
    statuses = []
    for seed, s in enumerate(families):
        rng = random.Random(seed)
        # without the involution a corruption reaches the sweep
        plain = s._replace(involution=None)
        corrupted = [f(plain, rng) for f in (_bumped, _term_added, _entry_dropped)]
        for v in [s, *filter(None, corrupted)]:
            report = check_associativity(v)
            assert json.dumps(report) == json.dumps(reference_sweep(v))
            statuses.append(report["status"])
    assert (statuses.count("pass"), statuses.count("fail")) == (32, 32)


def _dual_corrupted(s, rng):
    """s with a term t in its hom space added to a non-identity entry (a, b)
    and t* added to (b*, a*), so that the involution is still an
    anti-homomorphism; a self-dual entry gets both."""
    inv = s.involution
    a, b = rng.choice(_non_identity_pairs(s))
    t = rng.choice([e for e in s.elements if (e.source, e.target) == (b.source, a.target)])
    table = dict(s.table)
    table[(a, b)] += Decomposition({t: 1})
    table[(inv[b], inv[a])] += Decomposition({inv[t]: 1})
    return s._replace(table=table)


def _swept_as_reference(s):
    """Assert that check_associativity agrees with reference_sweep on s;
    return "pass", or for a failure whether the first failing triple's
    middle b is swept ("fail") or left to its dual because b* comes first
    ("dual")."""
    validate_shadow(s)
    report = check_associativity(s)
    assert json.dumps(report) == json.dumps(reference_sweep(s))
    if report["status"] == "pass":
        return "pass"
    (failure,) = report["witnesses"]
    b = s.element(failure["triple"][1])
    return "dual" if s.index_of(s.involution[b]) < s.index_of(b) else "fail"


def test_sweep_with_the_involution_matches_reference_on_bn():
    outcomes = [
        _swept_as_reference(_dual_corrupted(build_bn(rank), random.Random(100 * rank + seed)))
        for rank in range(1, 7)
        for seed in range(4)
    ]
    # the first failure has a middle E..., whose star F... comes first
    assert outcomes == ["dual"] * 24


@pytest.mark.parametrize("swapped, counts", [(True, (4, 119, 5)), (False, (40, 472, 0))])
def test_sweep_with_the_involution_matches_reference_on_two_elements(swapped, counts):
    # every table on e, x, y with multiplicities 0 or 1 for which the
    # involution, x* = y or x and y fixed, is an anti-homomorphism
    x, y = Element("x", 0, 0), Element("y", 0, 0)
    inv = {E: E, x: y, y: x} if swapped else {E: E, x: x, y: y}
    pairs = [(x, x), (x, y), (y, x), (y, y)]
    outcomes = []
    for bits in range(2**12):
        table = {
            pair: Decomposition({t: 1 for k, t in enumerate((E, x, y)) if bits >> (3 * i + k) & 1})
            for i, pair in enumerate(pairs)
        }
        s = one_object_shadow(table, elements=(E, x, y), involution=inv)
        try:
            validate_shadow(s)
        except StructureError:
            continue
        outcomes.append(_swept_as_reference(s))
    assert (outcomes.count("pass"), outcomes.count("fail"), outcomes.count("dual")) == counts


def _validation_message(validate, s):
    """The StructureError message validate gives on s, or None."""
    try:
        validate(s)
    except StructureError as err:
        return str(err)
    return None


def _dual_entry_pairs(s):
    """The pairs of distinct dual non-identity entries of s, as the two
    keys in table order."""
    keys = list(s.table)
    at = {key: k for k, key in enumerate(keys)}
    inv = s.involution
    pairs = []
    for a, b in keys:
        dual = (inv[b], inv[a])
        if dual in at and at[(a, b)] < at[dual] and not (a.is_identity or b.is_identity):
            pairs.append(((a, b), dual))
    return pairs


def _with_entry(s, key, d):
    table = dict(s.table)
    table[key] = d
    return s._replace(table=table)


def _assert_one_sided_corruptions_match_reference(s, pairs, changes):
    """Change one entry of each dual pair, the first in table order and then
    the second, each way changes gives: validate_shadow fails with the
    message the reference validator gives, which walks every entry."""
    failed = 0
    for pair in pairs:
        for key in pair:
            for change in changes(s, key):
                corrupted = _with_entry(s, key, change)
                want = _validation_message(reference_validate, corrupted)
                assert _validation_message(validate_shadow, corrupted) == want, (key, want)
                failed += want is not None
    return failed


def _bump_each_term(s, key):
    terms = s.table[key].terms
    return [Decomposition({**terms, t: terms[t] + 1}) for t in terms]


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_one_sided_corruption_of_a_dual_pair_is_reported_as_before(rank):
    s = build_bn(rank)
    pairs = _dual_entry_pairs(s)
    # every first entry's dual comes later, so half of the corruptions hit
    # the entry the loop skips
    assert pairs and all(a != b for a, b in pairs)
    failed = _assert_one_sided_corruptions_match_reference(s, pairs, _bump_each_term)
    assert failed == sum(2 * len(s.table[first].terms) for first, _ in pairs)


@pytest.mark.parametrize("swapped", [True, False])
def test_one_sided_corruption_of_a_dual_pair_on_two_elements(swapped):
    # every valid table on e, x, y with multiplicities 0 or 1, x* = y or x
    # and y fixed, with one entry of its one dual pair given each other
    # term set
    x, y = Element("x", 0, 0), Element("y", 0, 0)
    inv = {E: E, x: y, y: x} if swapped else {E: E, x: x, y: y}
    pairs = [(x, x), (x, y), (y, x), (y, y)]
    supports = [
        Decomposition({t: 1 for k, t in enumerate((E, x, y)) if bits >> k & 1})
        for bits in range(8)
    ]
    tables = failed = 0
    for bits in range(2**12):
        table = {pair: supports[bits >> (3 * i) & 7] for i, pair in enumerate(pairs)}
        s = one_object_shadow(table, elements=(E, x, y), involution=inv)
        if _validation_message(validate_shadow, s) is not None:
            continue
        tables += 1
        failed += _assert_one_sided_corruptions_match_reference(
            s,
            _dual_entry_pairs(s),
            lambda s, key: [d for d in supports if d != s.table[key]],
        )
    # each valid table has one pair of distinct dual entries, and each of
    # the 2 x 7 changes breaks the involution
    assert failed == tables * 14 > 0


def test_partial_window_without_dual_entries_passes():
    # drop the second entry of every dual pair of a window: the first
    # entries are left without their duals, which a partial table allows
    s = window_shadow(6)
    pairs = _dual_entry_pairs(s)
    assert pairs
    table = {key: d for key, d in s.table.items() if key not in {b for _, b in pairs}}
    windowed = s._replace(table=table)
    assert windowed.partial and len(windowed.table) == len(s.table) - len(pairs)
    validate_shadow(windowed)
    reference_validate(windowed)
    # a changed entry whose dual is absent is not compared with anything
    first = pairs[0][0]
    validate_shadow(_with_entry(windowed, first, windowed.table[first] + windowed.table[first]))


G = Element("g", 0, 0)
H = Element("h", 0, 0)
V = Element("v", 0, 0)
W = Element("w", 0, 0)
X = Element("x", 0, 0)
Y = Element("y", 0, 0)
Z = Element("z", 0, 0)


def _generator_sweep(s):
    """The sweep's record, the ids its closure leaves to the subring
    argument (None when it gives up) and the status of the sweep of the
    generators' rows alone."""
    others = sweep._closure(s)
    alone = None if others is None else sweep._sweep(s, others)["status"]
    return check_associativity(s), others, alone


def test_kernel_sweeps_everything_when_the_generators_miss_an_element():
    # every row whose middle is g holds, but z is no product of g's: z
    # becomes a generator too, two of three elements, and the closure gives up
    zero = Decomposition({})
    table = {(G, G): zero, (G, Z): zero, (Z, Z): zero, (Z, G): Decomposition({G: 1})}
    s = one_object_shadow(table, elements=(E, G, Z))
    record, others, alone = _generator_sweep(s)
    assert others is None
    assert sweep._sweep(s, [2])["status"] == "pass"
    assert record == sweep._sweep(s, ()) == reference_sweep(s)
    assert record["witnesses"] == [{"triple": ["z", "z", "g"], "left": {}, "right": {"g": 1}}]


def test_kernel_closes_the_generators_under_the_involution():
    # the cyclic group of order 3 with unit x and g* = h: g, first of the
    # elements that are terms of the fewest entries, becomes a generator
    # together with h, though g g = h would generate h; g h = x generates x
    power = {X: 0, G: 1, H: 2}
    cyclic = dict(map(reversed, power.items()))
    table = {
        (a, b): Decomposition({cyclic[(power[a] + power[b]) % 3]: 1}) for a in power for b in power
    }
    s = one_object_shadow(table, elements=(E, G, X, H), involution={E: E, G: H, H: G, X: X})
    record, others, alone = _generator_sweep(s)
    assert others == [0, 2] and alone == "pass"
    assert record == reference_sweep(s)


def test_kernel_takes_the_full_record_when_a_generator_row_fails():
    # g g = x and g x = y generate x and y. The first failing triple
    # (g, x, y) has the middle x, before every failure in g's row
    zero = Decomposition({})
    nonzero = {
        (G, G): Decomposition({X: 1}),
        (G, X): Decomposition({Y: 1}),
        (X, G): Decomposition({Y: 1}),
        (Y, Y): Decomposition({X: 1, Y: 1}),
    }
    table = {(a, b): nonzero.get((a, b), zero) for a in (G, X, Y) for b in (G, X, Y)}
    s = one_object_shadow(table, elements=(E, G, X, Y))
    record, others, alone = _generator_sweep(s)
    assert others == [0, 2, 3] and alone == "fail"
    assert sweep._sweep(s, others)["witnesses"][0]["triple"] == ["x", "g", "y"]
    assert record == reference_sweep(s)
    assert record["witnesses"] == [{"triple": ["g", "x", "y"], "left": {"x": 1, "y": 1}, "right": {}}]


def test_closure_never_splits_an_entry_of_two_ungenerated_terms():
    # g g = u + v generates neither u nor v: u becomes the second generator,
    # and then v = g g - u is generated. Every row whose middle is g holds,
    # but (g u) g = g g = u + v while g (u g) = 0
    zero = Decomposition({})
    nonzero = {
        (G, G): Decomposition({U: 1, V: 1}),
        (G, U): Decomposition({G: 1}),
        (V, G): Decomposition({G: 1}),
        (V, U): Decomposition({U: 1, V: 1}),
    }
    table = {(a, b): nonzero.get((a, b), zero) for a in (G, U, V) for b in (G, U, V)}
    s = one_object_shadow(table, elements=(E, G, U, V))
    record, others, alone = _generator_sweep(s)
    assert others == [0, 3] and alone == "fail"
    assert sweep._sweep(s, [0, 2, 3])["status"] == "pass"
    assert record == reference_sweep(s)
    assert record["witnesses"][0]["triple"] == ["g", "u", "g"]


def test_closure_counts_down_the_ungenerated_terms_of_an_entry():
    # g g = u + v waits for one of its terms; once u is a generator, u u = w
    # and the count of g g generate the rest. Without the count v would be
    # a third generator of five elements, and the closure would give up
    zero = Decomposition({})
    nonzero = {(G, G): Decomposition({U: 1, V: 1}), (U, U): Decomposition({W: 1})}
    rest = (G, U, V, W)
    table = {(a, b): nonzero.get((a, b), zero) for a in rest for b in rest}
    s = one_object_shadow(table, elements=(E, *rest))
    record, others, alone = _generator_sweep(s)
    assert others == [0, 3, 4]
    assert record == reference_sweep(s)


def _left_zero(k):
    """The table x y = x on an identity and k elements x1..xk."""
    xs = [Element(f"x{i}", 0, 0) for i in range(1, k + 1)]
    table = {(a, b): Decomposition({a: 1}) for a in xs for b in xs}
    return one_object_shadow(table, elements=(E, *xs))


def test_closure_gives_up_on_a_left_zero_table():
    # no product generates anything, so each element becomes a generator
    # until they pass half of the elements: the full sweep answers
    small = _left_zero(12)
    assert sweep._closure(small) is None
    assert check_associativity(small) == reference_sweep(small)
    big = _left_zero(169)
    assert sweep._closure(big) is None
    assert check_associativity(big) == {
        "check": "associativity",
        "status": "pass",
        "witnesses": [],
        "checked": 170**3,
        "skipped": 0,
    }


def _generators_at_return(s):
    """sweep._closure(s) and its count of generators when it returns, read
    from its frame."""
    counts = []

    def on_return(frame, event, arg):
        if event == "return":
            counts.append(frame.f_locals["generators"])

    def on_call(frame, event, arg):
        if frame.f_code is sweep._closure.__code__:
            frame.f_trace_lines = False
            return on_return
        return None

    tracing = sys.gettrace()
    sys.settrace(on_call)
    try:
        others = sweep._closure(s)
    finally:
        sys.settrace(tracing)
    return others, counts


def test_closure_gives_up_on_the_left_zero_table_after_86_generators():
    # every element is a term of as many entries, so ties go lowest first;
    # no product generates anything, and the 86th generator passes half of
    # the 170 elements
    assert _generators_at_return(_left_zero(169)) == (None, [86])


@pytest.mark.parametrize("rank", range(1, 9))
def test_closure_on_bn_picks_each_generator_with_its_star(rank):
    s = build_bn(rank)
    star = s._view[4]
    others = sweep._closure(s)
    generators = set(range(len(s.elements))) - set(others)
    # the elements that are terms of the fewest entries first: from each
    # object i below the middle, the single step F_i and the longest power
    # F_i^(n - 2i), with their stars E_(i+1) and E_(n-i)^(n - 2i); as many
    # as the 2 n single steps E_i, F_i, half of them single steps
    _, f_step = bnverify._single_steps(s, rank)
    lower = range((rank + 1) // 2)
    picked = {f_step[i] for i in lower}
    picked |= {s._id_of[udot.dp("fe", rank - 2 * i, 0, i).name] for i in lower}
    assert generators == picked | {star[g] for g in picked}
    assert len(generators) == 2 * rank


def _redirected(s, data):
    """s, a full one-object shadow whose entries are one term each, with
    one entry of two non-identities sent to another non-identity."""
    entries, star = s._ids
    at = data.draw(st.sampled_from([k for k, (a, b, _) in enumerate(entries) if a and b]))
    a, b, (t, _) = entries[at]
    term = data.draw(st.sampled_from([x for x in range(1, len(s.elements)) if x != t]))
    changed = [*entries[:at], (a, b, (term, 1)), *entries[at + 1 :]]
    return Shadow._on_ids(s.objects, s.elements, changed, star)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(transformation_semigroups(), st.data())
def test_sweep_matches_reference_on_transformation_semigroups(s, data):
    assert json.dumps(check_associativity(s)) == json.dumps(reference_sweep(s))
    # one entry changed, which most often breaks associativity
    if len(s.elements) > 2:
        broken = _redirected(s, data)
        assert json.dumps(check_associativity(broken)) == json.dumps(reference_sweep(broken))


@st.composite
def _bn_with_changed_entries(draw):
    """build_bn(2..6) made on ids with one or two entries that have no
    identity factor changed, each with its dual, so that the copy still
    passes validation: a self-dual entry gets a term and its star."""
    n = draw(st.integers(2, 6))
    s = build_bn(n)
    entries, star = s._ids
    rows = {(a, b): row for a, b, row in entries}
    identity = [e.is_identity for e in s.elements]
    pairs = sorted(pair for pair in rows if not (identity[pair[0]] or identity[pair[1]]))
    for _ in range(draw(st.integers(1, 2))):
        a, b = draw(st.sampled_from(pairs))
        ends = (s.elements[b].source, s.elements[a].target)
        hom = [i for i, e in enumerate(s.elements) if (e.source, e.target) == ends]
        terms = draw(st.dictionaries(st.sampled_from(hom), st.integers(1, 3), max_size=2))
        dual = (star[b], star[a])
        starred = {star[t]: m for t, m in terms.items()}
        if dual == (a, b):
            terms = {t: terms.get(t, 0) + starred.get(t, 0) for t in terms.keys() | starred}
            starred = {star[t]: m for t, m in terms.items()}
        rows[a, b] = tuple(x for t, m in sorted(terms.items()) for x in (t, m))
        rows[dual] = tuple(x for t, m in sorted(starred.items()) for x in (t, m))
    changed = [(a, b, rows[a, b]) for a, b, _ in entries]
    return n, Shadow._on_ids(s.objects, s.elements, changed, star)


@given(_bn_with_changed_entries())
def test_kernel_matches_the_full_sweep_on_changed_bn_tables(case):
    _, s = case
    validate_shadow(s)
    record, others, alone = _generator_sweep(s)
    full = sweep._sweep(s, ())
    assert json.dumps(record) == json.dumps(full)
    if others is not None:
        assert alone == full["status"]


def test_partial_sweep_keeps_the_rows_whose_dual_is_absent():
    # x* = y and y y is absent, so (x x)* is not validated; y x = x + y.
    # (x y) x = 0 but x (y x) = x x + x y = x, while the dual triple
    # (y, x, y) needs (y x) y = x y + y y and is skipped
    x, y = Element("x", 0, 0), Element("y", 0, 0)
    table = {
        (x, x): Decomposition({x: 1}),
        (x, y): Decomposition(),
        (y, x): Decomposition({x: 1, y: 1}),
    }
    s = one_object_shadow(table, elements=(E, x, y), involution={E: E, x: y, y: x}, partial=True)
    validate_shadow(s)
    report = check_associativity(s)
    assert report["witnesses"] == [{"triple": ["x", "y", "x"], "left": {}, "right": {"x": 1}}]
    assert (report["status"], report["checked"], report["skipped"]) == ("fail", 20, 7)
    assert reference_sweep(s) == report


def test_sweep_on_formal_zero_entries():
    zero = Decomposition.zero()
    # t t = u, and u is annihilated on both sides
    nilpotent = one_object_shadow(
        {(T, T): Decomposition({U: 1}), (T, U): zero, (U, T): zero, (U, U): zero}
    )
    # (t t) t = u t = 0 but t (t t) = t u = u
    broken = one_object_shadow(
        {(T, T): Decomposition({U: 1}), (T, U): Decomposition({U: 1}), (U, T): zero, (U, U): zero}
    )
    for s in (nilpotent, broken):
        assert check_associativity(s) == reference_sweep(s)
    assert check_associativity(nilpotent)["status"] == "pass"
    assert check_associativity(broken)["witnesses"] == [
        {
            "triple": ["t", "t", "t"],
            "left": {},
            "right": {"u": 1},
        }
    ]


def test_sweep_slots_hold_mass_squared():
    # the heaviest entry has mass 2, and (t u) u = 2 (v u) = 4 e while
    # t (u u) = t e = t: with slots of 2 bits rather than the 3 of mass ** 2,
    # e's slot would carry into t's and the two sides would pack alike
    v = Element("v", 0, 0)
    elements = (E, T, U, v)
    table = {(a, b): Decomposition.zero() for a in elements[1:] for b in elements[1:]}
    table[(U, U)] = Decomposition({E: 1})
    table[(T, U)] = Decomposition({v: 2})
    table[(v, U)] = Decomposition({E: 2})
    s = one_object_shadow(table, elements=elements)
    report = check_associativity(s)
    assert report["witnesses"] == [{"triple": ["t", "u", "u"], "left": {"e": 4}, "right": {"t": 1}}]
    assert (report["status"], report["checked"], report["skipped"]) == ("fail", 64, 0)
    assert reference_sweep(s) == report


def test_sweep_on_c_rows_of_one_element():
    # the window of 0 is one element; in the two-object shadow below every
    # b with source 0 has the one c with target 0, the identity 1_0
    e0 = Element("1_0", 0, 0, is_identity=True)
    e1 = Element("1_1", 1, 1, is_identity=True)
    x = Element("x", 0, 1)
    y = Element("y", 1, 1)
    table = {
        (e0, e0): Decomposition({e0: 1}),
        (e1, e1): Decomposition({e1: 1}),
        (x, e0): Decomposition({x: 1}),
        (e1, x): Decomposition({x: 1}),
        (e1, y): Decomposition({y: 1}),
        (y, e1): Decomposition({y: 1}),
        (y, y): Decomposition({y: 1}),
        (y, x): Decomposition({x: 2}),
    }
    two = Shadow(objects=(0, 1), elements=(e0, e1, x, y), table=table)
    del table[(y, x)]
    without_yx = two._replace(table=table, partial=True)
    expected = [
        (window_shadow(0), "pass", 1, 0),
        (two, "fail", 16, 0),
        (without_yx, "pass", 12, 4),
    ]
    for s, status, checked, skipped in expected:
        report = check_associativity(s)
        assert (report["status"], report["checked"], report["skipped"]) == (status, checked, skipped)
        assert reference_sweep(s) == report
    # (y y) x = y x = 2 x but y (y x) = 2 (y x) = 4 x
    assert check_associativity(two)["witnesses"] == [
        {
            "triple": ["y", "y", "x"],
            "left": {"x": 2},
            "right": {"x": 4},
        }
    ]


def test_window_sweep_at_the_clebsch_limit():
    report = check_associativity(window_shadow(90))
    assert (report["status"], report["checked"], report["skipped"]) == ("pass", 129766, 623805)


V = Element("v", 0, 0)
# t t = u, every other product of t, u and v is v, and u u = 2 v: (t t) u =
# u u = 2 v while t (t u) = t v = v
ONE_TERM_FIRST = {
    (T, T): {U: 1},
    (T, U): {V: 1},
    (T, V): {V: 1},
    (U, T): {V: 1},
    (U, U): {V: 2},
    (U, V): {V: 1},
    (V, T): {V: 1},
    (V, U): {V: 1},
    (V, V): {V: 1},
}


@pytest.mark.parametrize(
    "absent, status, checked, skipped",
    [((), "fail", 64, 0), (((V, T),), "fail", 51, 13), (((U, U), (V, T)), "pass", 43, 21)],
    ids=["full", "partial-failing", "partial-passing"],
)
def test_sweep_on_a_first_failing_row_of_one_term(absent, status, checked, skipped):
    # the row (t, t) has the one term u with multiplicity 1; on a partial
    # table the triples that need an absent entry are skipped
    table = {
        pair: Decomposition(terms) for pair, terms in ONE_TERM_FIRST.items() if pair not in absent
    }
    s = one_object_shadow(table, elements=(E, T, U, V), partial=bool(absent))
    report = check_associativity(s)
    assert (report["status"], report["checked"], report["skipped"]) == (status, checked, skipped)
    if status == "fail":
        assert report["witnesses"] == [
            {"triple": ["t", "t", "u"], "left": {"v": 2}, "right": {"v": 1}}
        ]
    assert reference_sweep(s) == report


def test_run_test_accepts_only_evenly_spaced_ids():
    assert _run((1, 3, 5), 2) == (1, 5)
    assert _run([0, 3, 6, 9], 3) == (0, 9)
    assert _run((4, 5, 6), 1) == (4, 6)
    assert _run((4,), 2) == (4, 4)
    assert _run((1, 3), 2) == (1, 3)
    not_runs = [
        ((1, 1, 3), 2),  # a repeated id
        ((1, 3, 3, 5), 2),
        ((1, 1, 5), 2),
        ((1, 3, 7), 2),  # a missing id
        ((1, 3, 5, 9), 2),
        ((1, 4, 5), 2),
        ((5, 3, 1), 2),  # unsorted ids
        ((1, 5, 3), 2),
        ((1, 3, 5), 1),  # another step
        ((1, 3, 5), 0),
        ((), 2),
        ((0, 1, 10**12), 1),  # a far-off last id
    ]
    for ids, step in not_runs:
        assert _run(ids, step) is None, (ids, step)


def test_the_sweep_marks_runs_of_three_or_more_ones():
    x = [Element(f"x{i}", 0, 0) for i in range(1, 8)]
    elements = (E, *x)

    def d(*terms):
        return Decomposition({x[i - 1]: m for i, m in terms})

    marked = {
        (x[0], x[0]): d((1, 1), (3, 1), (5, 1)),  # step 2
        (x[0], x[1]): d((2, 1), (3, 1), (4, 1), (5, 1)),  # step 1
        (x[0], x[2]): d((1, 1), (4, 1), (7, 1)),  # step 3
    }
    unmarked = {
        (x[1], x[0]): d((1, 1), (3, 2), (5, 1)),  # a multiplicity of 2
        (x[1], x[1]): d((1, 2), (3, 2), (5, 2)),
        (x[1], x[2]): d((4, 1)),  # a single term
        (x[1], x[3]): d((2, 1), (4, 1)),  # two terms
        (x[1], x[4]): d((1, 1), (3, 1), (7, 1)),  # a missing term
        (x[1], x[5]): d(),
    }
    s = Shadow((0,), elements, {**marked, **unmarked}, partial=True)
    runs = sweep._pack(s, s._view.rows, s._view.order)[2]
    # x1 has id 1: the entries (x1, x1), (x1, x2) and (x1, x3)
    n = len(elements)
    assert runs == {n + 1: (1, 5, 2), n + 2: (2, 5, 1), n + 3: (1, 7, 3)}


def test_window_sweep_matches_reference_through_the_run_path():
    for k in range(31):
        s = window_shadow(k)
        runs = sweep._pack(s, s._view.rows, s._view.order)[2]
        # from K = 4 the window has entries of three terms, 2 2 = 0 + 2 + 4
        assert bool(runs) == (k >= 4)
        assert json.dumps(check_associativity(s)) == json.dumps(reference_sweep(s))


def _run_broken(s, rng, how):
    """s, without its involution, with one entry of three or more terms
    changed so that it is no run: an inner term moved to an id outside the
    entry, doubled, or dropped."""
    pairs = [p for p, d in s.table.items() if len(d.terms) >= 3]
    pairs.sort(key=lambda p: tuple(map(s.index_of, p)))
    pair = rng.choice(pairs)
    terms = dict(s.table[pair].terms)

    def run(terms):
        # a run as the sweep marks one
        ids = sorted(map(s.index_of, terms))
        ones = set(terms.values()) == {1}
        return len(ids) > 2 and ones and _run(ids, ids[1] - ids[0])

    inner = rng.choice(sorted(terms, key=s.index_of)[1:-1])
    if how == "doubled":
        terms[inner] = 2
    else:
        del terms[inner]
    if how == "moved":
        hom = [e for e in s.elements if (e.source, e.target) == (inner.source, inner.target)]
        # not back, and not where the terms make a run of another step
        others = [e for e in hom if e not in terms and e != inner and not run({**terms, e: 1})]
        terms[rng.choice(others)] = 1
    assert not run(terms)
    return s._replace(involution=None, table={**s.table, pair: Decomposition(terms)})


@pytest.mark.parametrize("how", ["moved", "doubled", "dropped"])
def test_sweep_matches_reference_on_broken_runs(how):
    statuses = []
    for k in (4, 7, 12, 20):
        for seed in range(3):
            s = _run_broken(window_shadow(k), random.Random(100 * k + seed), how)
            report = check_associativity(s)
            assert json.dumps(report) == json.dumps(reference_sweep(s))
            statuses.append(report["status"])
    assert "fail" in statuses


def _random_run_table(rng, elements, runs):
    """A partial table on one object: strict identities, the given entries,
    and for every other pair of non-identities no entry, a run of three or
    more terms with step 1, 2 or 3, or one to three terms with
    multiplicities 1 or 2."""
    e, rest = elements[0], elements[1:]
    table = {}
    for a in elements:
        table[(a, e)] = table[(e, a)] = Decomposition({a: 1})
    for a in rest:
        for b in rest:
            kind = rng.randrange(3)
            if kind == 1:
                step = rng.randint(1, 3)
                lo = rng.randrange(len(rest) - 2 * step)
                hi = rng.randrange(lo + 2 * step, len(rest), step)
                table[(a, b)] = Decomposition(dict.fromkeys(rest[lo : hi + 1 : step], 1))
            elif kind == 2:
                terms = rng.sample(elements, rng.randint(1, 3))
                table[(a, b)] = Decomposition({t: rng.randint(1, 2) for t in terms})
    table.update(runs)
    return Shadow(objects=(0,), elements=elements, table=table, partial=True)


def test_sweep_matches_reference_on_a_step_three_run():
    x = [Element(f"x{i}", 0, 0) for i in range(1, 8)]
    elements = (E, *x)
    # x1 x1 = x1 + x4 + x7, ids 1, 4 and 7: a run of step 3
    step_three = {(x[0], x[0]): Decomposition(dict.fromkeys((x[0], x[3], x[6]), 1))}
    statuses = []
    for seed in range(20):
        s = _random_run_table(random.Random(seed), elements, step_three)
        runs = sweep._pack(s, s._view.rows, s._view.order)[2]
        assert runs[1 * len(elements) + 1] == (1, 7, 3)
        report = check_associativity(s)
        assert json.dumps(report) == json.dumps(reference_sweep(s))
        statuses.append(report["status"])
    assert "fail" in statuses


def _two_windows(k, j):
    """window_shadow(j) on object 1, then window_shadow(k) on object 0: a
    prefix chain of a run on object 0 passes through the elements of
    object 1, whose c-rows are shorter when j < k."""
    copies = [
        (w, {e: Element(e.name + side, obj, obj, e.is_identity) for e in w.elements})
        for w, side, obj in ((window_shadow(j), "b", 1), (window_shadow(k), "a", 0))
    ]
    elements = tuple(e for _, c in copies for e in c.values())
    table = {
        (c[a], c[b]): Decomposition({c[t]: m for t, m in d.items()})
        for w, c in copies
        for (a, b), d in w.table.items()
    }
    return Shadow((0, 1), elements, table, {e: e for e in elements}, partial=True)


def test_sweep_matches_reference_on_runs_in_two_hom_spaces():
    for k, j in ((4, 4), (9, 6)):
        s = _two_windows(k, j)
        runs = sweep._pack(s, s._view.rows, s._view.order)[2]
        assert {step for _, _, step in runs.values()} == {2}
        assert {s.elements[lo].source for lo, _, _ in runs.values()} == {0, 1}
        windows = [check_associativity(window_shadow(x)) for x in (k, j)]
        report = check_associativity(s)
        assert json.dumps(report) == json.dumps(reference_sweep(s))
        counts = (report["status"], report["checked"], report["skipped"])
        assert counts == ("pass", *(sum(w[key] for w in windows) for key in ("checked", "skipped")))
        for seed in range(3):
            for how in ("moved", "doubled", "dropped"):
                broken = _run_broken(s, random.Random(seed), how)
                report = check_associativity(broken)
                assert json.dumps(report) == json.dumps(reference_sweep(broken))


def _set_multiplicity(draw, table, s, scale):
    filled = [pair for pair, d in table.items() if d.terms]
    if filled:
        pair = draw(st.sampled_from(filled))
        terms = dict(table[pair].terms)
        term = draw(st.sampled_from(sorted(terms, key=s.index_of)))
        terms[term] *= scale
        table[pair] = Decomposition(terms)


def _zero_multiplicity(draw, table, s):
    _set_multiplicity(draw, table, s, 0)


def _doubled_multiplicity(draw, table, s):
    # on an identity's entry this breaks strictness, elsewhere often duality
    _set_multiplicity(draw, table, s, 2)


def _wrong_endpoints(draw, table, s):
    pair = draw(st.sampled_from(list(table)))
    ends = (pair[1].source, pair[0].target)
    strays = [e for e in s.elements if (e.source, e.target) != ends]
    if strays:
        table[pair] = table[pair] + Decomposition({draw(st.sampled_from(strays)): 1})


def _dropped_entry(draw, table, s):
    del table[draw(st.sampled_from(list(table)))]


def _non_composable_key(draw, table, s):
    pairs = [(a, b) for a in s.elements for b in s.elements if a.source != b.target]
    if pairs:
        pair = draw(st.sampled_from(pairs))
        table[pair] = Decomposition({pair[0]: 1})


CORRUPTIONS = (
    _zero_multiplicity,
    _doubled_multiplicity,
    _wrong_endpoints,
    _dropped_entry,
    _non_composable_key,
)


def _reversed_twin(s, e):
    """An element with e's endpoints swapped, e itself when it has them, or
    None."""
    ends = (e.target, e.source)
    return next((f for f in (e, *s.elements) if (f.source, f.target) == ends), None)


@st.composite
def corrupted_shadows(draw):
    """A random shadow, or a small built one with an involution, with one to
    three corruptions and its table in a random insertion order."""
    s = draw(
        st.one_of(
            random_shadows(),
            st.sampled_from([build_bn(1), build_bn(2), window_shadow(4)]),
        )
    )
    involution = None if s.involution is None else dict(s.involution)
    if involution is None and draw(st.booleans()):
        involution = {e: _reversed_twin(s, e) for e in s.elements}
        if None in involution.values():
            involution = None
    table = dict(s.table)
    for _ in range(draw(st.integers(1, 3))):
        swap = involution is not None and len(s.elements) > 1
        if swap and draw(st.integers(0, len(CORRUPTIONS))) == 0:
            x, y = draw(st.permutations(s.elements))[:2]
            involution[x], involution[y] = involution[y], involution[x]
        elif table:
            draw(st.sampled_from(CORRUPTIONS))(draw, table, s)
    table = dict(draw(st.permutations(list(table.items()))))
    return s._replace(table=table, involution=involution)


def _outcome(validate, s):
    try:
        validate(s)
    except StructureError as err:
        return type(err), str(err)
    return None


@settings(max_examples=300, deadline=None)
@given(corrupted_shadows())
def test_validate_matches_reference_on_corrupted_shadows(s):
    assert _outcome(validate_shadow, s) == _outcome(reference_validate, s)


def _hand_built(data):
    """The shadow of a file, built by hand from Elements and
    Decompositions in file order."""
    by_name = {
        row["id"]: Element(row["id"], row["source"], row["target"], row["identity"])
        for row in data["elements"]
    }
    table = {
        (by_name[row["left"]], by_name[row["right"]]): Decomposition(
            {by_name[k]: m for k, m in row["result"].items()}
        )
        for row in data["table"]
    }
    inv = data["involution"]
    return Shadow(
        objects=tuple(data["objects"]),
        elements=tuple(by_name.values()),
        table=table,
        involution=None if inv is None else {by_name[k]: by_name[v] for k, v in inv.items()},
        partial=data.get("partial", False),
    )


@settings(max_examples=300, deadline=None)
@given(corrupted_shadows(), st.data())
def test_validate_matches_reference_on_loaded_corrupted_shadows(s, draw):
    # the loader makes the table on ids directly; the same file built by
    # hand must fail first in the same place
    data = json.loads(dumps_shadow(s))
    inv = data["involution"]
    if inv and draw.draw(st.booleans()):  # a file may leave out an image
        del inv[draw.draw(st.sampled_from(sorted(inv)))]
    loaded = shadow_from_dict(data)
    assert _outcome(validate_shadow, loaded) == _outcome(reference_validate, _hand_built(data))


def test_bn_suite_and_file_verbs_never_build_the_element_table(monkeypatch, tmp_path, capsys):
    path = tmp_path / "bn4.json"
    save_shadow(build_bn(4), str(path))
    derived = []
    derive = Shadow.__getattr__

    def counting_getattr(self, name):
        if name in ("table", "involution"):
            derived.append(name)
        return derive(self, name)

    monkeypatch.setattr(Shadow, "__getattr__", counting_getattr)
    made = []
    init = Decomposition.__init__

    def counting_init(self, terms=None):
        made.append(terms)
        init(self, terms)

    monkeypatch.setattr(Decomposition, "__init__", counting_init)
    # a fresh cache: another test may have read the table of a cached shadow
    monkeypatch.setattr(bnverify, "build_bn", functools.lru_cache(udot.build_bn.__wrapped__))
    assert all(c["status"] == "pass" for c in bnverify.verify_bn(8))
    # the suite reads the integer view alone: it calls no compose either
    assert (derived, made) == ([], [])
    for argv in (
        ["check", str(path)],
        ["cells", str(path), "--kind", "left"],
        ["ideals", str(path)],
        ["cell-module", str(path), "--left-cell-of", "1_1"],
    ):
        assert main(argv) == 0, argv
        assert (derived, made) == ([], []), argv
    capsys.readouterr()
    # the positive control: the library API reads the derived table
    assert len(load_shadow(str(path)).table) == 259
    assert derived == ["table"] and made


def test_cached_shadows_are_read_only():
    s = build_bn(2)
    pair, entry = next(iter(s.table.items()))
    with pytest.raises(AttributeError):
        s.table.clear()
    with pytest.raises(TypeError):
        s.table[pair] = Decomposition.zero()
    with pytest.raises(TypeError):
        del s.table[pair]
    with pytest.raises(TypeError):
        s.involution[pair[0]] = pair[0]
    with pytest.raises(TypeError):
        entry.terms[pair[0]] = 5
    with pytest.raises(AttributeError, match="cannot assign to field 'table'"):
        s.table = {}
    with pytest.raises(AttributeError, match="cannot assign to field 'terms'"):
        entry.terms = {}
    assert check_associativity(build_bn(2))["status"] == "pass"


def test_construction_copies_the_given_mappings():
    terms = {U: 1}
    table = {**associative_toy().table, (T, T): Decomposition(terms)}
    involution = {E: E, T: T, U: U}
    s = Shadow(objects=(0,), elements=(E, T, U), table=table, involution=involution)
    terms.clear()
    table.clear()
    involution.clear()
    assert s == associative_toy()._replace(involution={E: E, T: T, U: U})


@pytest.mark.parametrize(
    "make, fields",
    [
        (lambda: T, ("name", "source", "target", "is_identity")),
        (lambda: Element("i", 1, 1, is_identity=True), ("name", "source", "target", "is_identity")),
        (lambda: udot.dp("ef", 1, 2, 3), ("kind", "fpow", "epow", "base")),
        (lambda: cell_partition(build_bn(2), "left"), ("kind", "classes")),
    ],
    ids=["element", "identity", "monomial", "partition"],
)
def test_records_hash_as_the_tuple_of_their_fields(make, fields):
    # sets and dicts of them then iterate in the same order, so reports keep
    # their bytes
    x = make()
    values = tuple(getattr(x, name) for name in fields)
    assert hash(x) == hash(values)
    assert x == values


@pytest.mark.parametrize(
    "make",
    [lambda: Decomposition({T: 1}), associative_toy, lambda: build_bn(2)],
    ids=["decomposition", "hand-built", "on-ids"],
)
def test_decompositions_and_shadows_are_not_hashable(make):
    x = make()
    with pytest.raises(TypeError, match=f"unhashable type: '{type(x).__name__}'"):
        hash(x)


SHADOW_FIELDS = ("objects", "elements", "table", "involution", "partial")


@pytest.mark.parametrize(
    "make, changes",
    [
        (associative_toy, {}),
        (associative_toy, {"involution": {E: E, T: T, U: U}}),
        (associative_toy, {"table": {(E, E): Decomposition({E: 1})}, "partial": True}),
        (lambda: build_bn(2), {}),
        (lambda: build_bn(2), {"involution": None}),
        (lambda: build_bn(2), {"elements": build_bn(2).elements[::-1], "objects": (1, 0, 2)}),
        (lambda: window_shadow(3), {}),
        (lambda: window_shadow(3), {"table": {}}),
    ],
)
def test_replace_is_a_shadow_rebuilt_field_by_field(make, changes):
    s = make()
    rebuilt = Shadow(**{name: changes.get(name, getattr(s, name)) for name in SHADOW_FIELDS})
    replaced = s._replace(**changes)
    assert type(replaced) is Shadow
    assert replaced == rebuilt
    assert s == make()
    assert (replaced == s) == (not changes)


@pytest.mark.parametrize("kind", ["left", "right", "two-sided"])
def test_cells_refuse_a_missing_entry_of_a_full_shadow(kind):
    s = one_object_shadow({(T, T): Decomposition({U: 1})})
    with pytest.raises(StructureError, match=r"missing table entry for \("):
        cell_partition(s, kind)


def test_a_term_outside_the_elements_is_a_structure_error():
    ghost = Element("ghost", 0, 0)
    message = "table names 'ghost', which is not an element"
    # a ghost term, then a ghost key
    for entry in ({(T, T): Decomposition({ghost: 1})}, {(ghost, T): Decomposition({T: 1})}):
        s = one_object_shadow({**associative_toy().table, **entry})
        with pytest.raises(StructureError, match=re.escape(message)):
            validate_shadow(s)
        with pytest.raises(StructureError, match=re.escape(message)):
            check_associativity(s)
        with pytest.raises(StructureError, match=re.escape(message)):
            cell_partition(s, "left")


def test_associativity_structural_error_status():
    s = one_object_shadow({(T, T): Decomposition({T: 1, U: 1})})
    with pytest.raises(StructureError, match="incomplete"):
        check_associativity(s)


def test_partial_window_skips_boundary_triples():
    s = window_shadow(3)
    assert s.partial
    report = check_associativity(s)
    assert report["status"] == "pass"
    assert report["skipped"] > 0


def test_json_roundtrip_is_identity():
    for s in (build_bn(2), window_shadow(4), associative_toy()):
        text = dumps_shadow(s)
        again = shadow_from_dict(json.loads(text))
        assert again == s
        assert dumps_shadow(again) == text


def reference_dumps(s):
    """The file text as json's indent path writes it."""
    return json.dumps(shadow_to_dict(s), indent=2) + "\n"


names = st.text(st.sampled_from('ab"\\/é€\x00\n%{}'), max_size=4)


@st.composite
def written_shadows(draw):
    """Hand-built shadows, not validated: names with quotes, backslashes,
    control and non-ASCII characters, empty tables, zero entries and terms,
    partial tables, with and without an involution."""
    objects = tuple(range(draw(st.integers(1, 2))))
    ends = st.sampled_from(objects)
    elements = tuple(
        Element(name, draw(ends), draw(ends), draw(st.booleans()))
        for name in draw(st.lists(names, max_size=4, unique=True))
    )
    table, involution = {}, None
    if elements:
        some = st.sampled_from(elements)
        for pair in draw(st.lists(st.tuples(some, some), unique=True)):
            table[pair] = Decomposition(draw(st.dictionaries(some, st.integers(0, 3))))
        if draw(st.booleans()):
            involution = {a: draw(some) for a in draw(st.sets(some))}
    return Shadow(objects, elements, table, involution, draw(st.booleans()))


scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), names)
keys = st.one_of(names, st.integers(-2, 2), st.booleans(), st.none(), st.floats(-1, 1))


def containers(values):
    # lists of rows are dicts whose fields may differ from the first row's
    rows = st.dictionaries(st.sampled_from(["a", "b", "%s", 1]), values, max_size=3)
    return st.one_of(
        st.lists(values, max_size=4),
        st.lists(values, max_size=4).map(tuple),
        st.dictionaries(keys, values, max_size=4),
        # a container json takes for a dict, which the writer passes to it
        st.dictionaries(keys, values, min_size=1, max_size=2).map(OrderedDict),
        st.lists(rows, max_size=4),
        st.lists(st.integers(), max_size=4),
    )


json_values = st.recursive(scalars, containers, max_leaves=24)


@settings(max_examples=400)
@given(st.one_of(written_shadows(), json_values))
def test_dumps_shadow_is_json_indent_text(x):
    """The writer gives the bytes of json.dumps(x, indent=2) and a newline
    on shadow files and on any JSON value: None, floats, tuples, dict
    subclasses, quoted, control, non-ASCII and % strings, keys that are not
    strings, empty containers, and rows whose fields differ from the first
    row's."""
    if isinstance(x, Shadow):
        assert dumps_shadow(x) == reference_dumps(x)
        x = shadow_to_dict(x)
    assert "".join(json_pieces(x)) == json.dumps(x, indent=2) + "\n"


def test_the_writer_holds_one_member_at_a_time():
    # a report shaped like cell-module's: 100 matrices of 60 x 60 entries
    doc = {"basis": ["a"] * 60, "matrices": {str(k): ((k % 2,) * 60,) * 60 for k in range(100)}}
    one = len("".join(json_pieces({"matrices": {"99": doc["matrices"]["99"]}})))
    tracemalloc.start()
    try:
        total = sum(map(len, json_pieces(doc)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total > 90 * one
    assert peak < 5 * one


def test_dumps_shadow_on_built_and_odd_shadows():
    for s in (build_bn(1), build_bn(3), window_shadow(0), window_shadow(5), associative_toy()):
        assert dumps_shadow(s) == reference_dumps(s)
    # values json writes itself: a float, None and nested tuples among the
    # objects, a name that is a number, a multiplicity that is a float
    x = Element(7, 0, 0)
    s = Shadow((0, 1.5, None, (1, (2, {"k": "%s"}))), (E, x), {(x, E): Decomposition({x: 2.0})}, {x: E})
    assert dumps_shadow(s) == reference_dumps(s)
    # a list of rows whose fields differ from the first row's
    s = Shadow(({"a": 1}, {"a": 2}, {"b": 3}, {}, 4), (E,), {})
    assert dumps_shadow(s) == reference_dumps(s)


def test_json_format_field_and_ordering():
    s = build_bn(1)
    data = shadow_to_dict(s)
    assert data["format"] == 1
    assert list(data)[0] == "format"
    assert "partial" not in data
    assert shadow_to_dict(window_shadow(2))["partial"] is True
    # loader tolerates a missing format field
    del data["format"]
    assert shadow_from_dict(data) == s


def test_save_load_files(tmp_path):
    path = tmp_path / "w.json"
    s = window_shadow(3)
    save_shadow(s, str(path))
    assert load_shadow(str(path)) == s


def test_save_shadow_refuses_a_path_it_cannot_write(tmp_path):
    for path in (tmp_path, tmp_path / "missing" / "w.json"):
        with pytest.raises(InputError, match=f"cannot write {re.escape(str(path))}: "):
            save_shadow(build_bn(1), str(path))


def test_load_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(InputError):
        load_shadow(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2]")
    with pytest.raises(InputError):
        load_shadow(str(bad))
    bad.write_text("{\"format\": 1}")
    with pytest.raises(InputError, match="malformed"):
        load_shadow(str(bad))


def test_duplicate_ids_in_file_rejected():
    data = {
        "format": 1,
        "objects": [0],
        "elements": [
            {"id": "e", "source": 0, "target": 0, "identity": True},
            {"id": "e", "source": 0, "target": 0, "identity": False},
        ],
        "involution": None,
        "table": [],
    }
    with pytest.raises(InputError):
        shadow_from_dict(data)


def _format_99(data):
    data["format"] = 99


def _duplicate_row(data):
    data["table"].append(dict(data["table"][0], result={}))


def _boolean_multiplicity(data):
    row = data["table"][0]
    row["result"] = {name: True for name in row["result"]}


def _string_partial(data):
    data["partial"] = "false"


def _numeric_identity_flag(data):
    data["elements"][0]["identity"] = 1


def _numeric_id(data):
    data["elements"][0]["id"] = 5


def _list_result(data):
    data["table"][0]["result"] = [1]


def _list_involution(data):
    data["involution"] = []


@pytest.mark.parametrize(
    "corrupt,message",
    [
        (_format_99, "unsupported format 99"),
        (_duplicate_row, "duplicate table row"),
        (_boolean_multiplicity, "expected an integer, got true"),
        (_string_partial, 'expected a boolean, got "false"'),
        (_numeric_identity_flag, "expected a boolean, got 1"),
        (_numeric_id, "expected a string, got 5"),
        (_list_result, "expected an object, got [1]"),
        (_list_involution, "expected an object, got []"),
    ],
)
def test_loader_refuses_instead_of_fixing_up(tmp_path, capsys, corrupt, message):
    data = shadow_to_dict(build_bn(1))
    corrupt(data)
    with pytest.raises(InputError, match=re.escape(message)):
        shadow_from_dict(data)
    path = tmp_path / "corrupt.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_rows_keyed_true_and_one_are_written_apart():
    # True == 1, so a row keyed True matched the template of a first row
    # keyed 1 and was written with the key "1"
    x = [{1: 0}, {True: 0}]
    assert "".join(json_pieces(x)) == json.dumps(x, indent=2) + "\n"
