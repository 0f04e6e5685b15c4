import json
import re

import pytest

from fiatcell import (
    Decomposition,
    Element,
    InputError,
    Shadow,
    StructureError,
    build_bn,
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
    assert d.scaled(2).terms == {T: 6, U: 6}
    assert d.scaled(0).is_zero
    assert Decomposition.zero().is_zero
    assert d.mult(T) == 3 and d.mult(E) == 0
    assert d.support() == frozenset({T, U})


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
    s.table[(E, T)] = Decomposition({T: 2})
    with pytest.raises(StructureError, match="strictly"):
        validate_shadow(s)


def test_nonpositive_multiplicity_rejected():
    s = associative_toy()
    s.table[(T, T)] = Decomposition({U: 0})
    with pytest.raises(StructureError, match="multiplicity"):
        validate_shadow(s)


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
    s = associative_toy()
    s.involution = {E: E, T: U, U: T}
    # t* = u breaks the anti-homomorphism: (t t)* = u* = t but t* t* = u
    with pytest.raises(StructureError, match="anti-homomorphism"):
        validate_shadow(s)
    s.involution = {E: E, T: T}
    with pytest.raises(StructureError, match="bijection"):
        validate_shadow(s)


def test_involution_fixes_identities():
    s = associative_toy()
    s.involution = {E: T, T: E, U: U}
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
    assert report.failure is not None
    assert set(report.failure) == {"triple", "left", "right"}


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
