import json
import re
from dataclasses import FrozenInstanceError, replace

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
    compose_left,
    dumps_shadow,
    load_shadow,
    save_shadow,
    validate_shadow,
    window_shadow,
)
from fiatcell.cli import main
from fiatcell.shadow import shadow_from_dict, shadow_to_dict

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
    s = associative_toy()
    assert compose_left(s, T, Decomposition({T: 2, U: 1})).terms == {U: 3}


def test_incomplete_table_is_an_error():
    s = one_object_shadow({(T, T): Decomposition({T: 1, U: 1})})
    with pytest.raises(StructureError, match="incomplete"):
        validate_shadow(s)


def test_identity_must_act_strictly():
    s = associative_toy()
    s = replace(s, table={**s.table, (E, T): Decomposition({T: 2})})
    with pytest.raises(StructureError, match="strictly"):
        validate_shadow(s)


def test_nonpositive_multiplicity_rejected():
    s = associative_toy()
    s = replace(s, table={**s.table, (T, T): Decomposition({U: 0})})
    with pytest.raises(StructureError, match="multiplicity"):
        validate_shadow(s)
    # the cell engine reads the same checked view, validated or not
    s = replace(s, table=dict(s.table))
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
    s = replace(associative_toy(), involution={E: E, T: U, U: T})
    # t* = u breaks the anti-homomorphism: (t t)* = u* = t but t* t* = u
    with pytest.raises(StructureError, match="anti-homomorphism"):
        validate_shadow(s)
    s = replace(associative_toy(), involution={E: E, T: T})
    with pytest.raises(StructureError, match="bijection"):
        validate_shadow(s)


def test_involution_fixes_identities():
    s = replace(associative_toy(), involution={E: T, T: E, U: U})
    with pytest.raises(StructureError, match="moves identity"):
        validate_shadow(s)


def test_associativity_pass_and_counts():
    report = check_associativity(build_bn(2))
    assert report.ok
    assert report.status == "pass"
    assert report.checked > 0 and report.skipped == 0


def test_associativity_failure_reported():
    report = check_associativity(non_associative_toy())
    assert report.status == "fail"
    # every triple starting with e, with (t, e) or with (t, t, e) agrees;
    # then (t t) t = u t = t while t (t t) = t u = u
    assert report.failure == {
        "triple": ["t", "t", "t"],
        "left": {"t": 1},
        "right": {"u": 1},
    }
    assert (report.checked, report.skipped) == (27, 0)


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
    """(status, checked, skipped, failure) of a sweep on Elements through
    compose; a triple is skipped when a product it needs has no entry."""
    try:
        reference_validate(s)
    except StructureError:
        return "structural-error", 0, 0, None

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
    return ("pass" if failure is None else "fail"), checked, skipped, failure


@st.composite
def random_shadows(draw):
    """Valid one- or two-object shadows with random products, in a random
    element order; partial ones drop some entries between non-identities."""
    objects = tuple(range(draw(st.integers(1, 2))))
    ends = st.tuples(st.sampled_from(objects), st.sampled_from(objects))
    elements = [Element(f"1_{o}", o, o, is_identity=True) for o in objects]
    for i, (src, tgt) in enumerate(draw(st.lists(ends, max_size=3))):
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
                terms = draw(st.dictionaries(st.sampled_from(fits), st.integers(1, 2)))
                table[(a, b)] = Decomposition(terms)
            else:
                table[(a, b)] = Decomposition.zero()
    return Shadow(objects=objects, elements=tuple(elements), table=table, partial=partial)


@settings(max_examples=60)
@given(random_shadows())
def test_sweep_matches_reference_on_random_shadows(s):
    report = check_associativity(s)
    status, checked, skipped, failure = reference_sweep(s)
    assert (report.status, report.checked, report.skipped) == (status, checked, skipped)
    # key order too: a witness is printed as JSON
    assert json.dumps(report.failure) == json.dumps(failure)


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
    return replace(s, table=table, involution=involution)


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
    with pytest.raises(FrozenInstanceError):
        s.table = {}
    with pytest.raises(FrozenInstanceError):
        entry.terms = {}
    assert check_associativity(build_bn(2)).ok


def test_construction_copies_the_given_mappings():
    terms = {U: 1}
    table = {**associative_toy().table, (T, T): Decomposition(terms)}
    involution = {E: E, T: T, U: U}
    s = Shadow(objects=(0,), elements=(E, T, U), table=table, involution=involution)
    terms.clear()
    table.clear()
    involution.clear()
    assert s == replace(associative_toy(), involution={E: E, T: T, U: U})


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
        report = check_associativity(s)
        assert report.status == "structural-error"
        assert report.message == message
        with pytest.raises(StructureError, match=re.escape(message)):
            cell_partition(s, "left")


def test_associativity_structural_error_status():
    s = one_object_shadow({(T, T): Decomposition({T: 1, U: 1})})
    report = check_associativity(s)
    assert report.status == "structural-error"
    assert "incomplete" in report.message


def test_partial_window_skips_boundary_triples():
    s = window_shadow(3)
    assert s.partial
    report = check_associativity(s)
    assert report.ok
    assert report.skipped > 0


def test_json_roundtrip_is_identity():
    for s in (build_bn(2), window_shadow(4), associative_toy()):
        text = dumps_shadow(s)
        again = shadow_from_dict(json.loads(text))
        assert again == s
        assert dumps_shadow(again) == text


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
