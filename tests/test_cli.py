import copy
import hashlib
import inspect
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fiatcell
from fiatcell import (
    Decomposition,
    Element,
    InputError,
    Shadow,
    StructureError,
    build_bn,
    check_associativity,
    dp,
    dumps_shadow,
    load_shadow,
    save_shadow,
    window_shadow,
)
from fiatcell import checks
from fiatcell.checks import json_pieces, parse_range
from fiatcell.cli import main
from fiatcell.clebsch import CLEBSCH_LIMIT
from fiatcell.ideals import IDEALS_LIMIT
from fiatcell.shadowfile import FILE_LIMIT_ELEMENTS, FILE_LIMIT_TERMS, shadow_to_dict
import udot_rewriter


# F0^(1) and E1^(1), composable as E1^(1) after F0^(1)
F0, E1 = dp("fe", 1, 0, 0), dp("fe", 0, 1, 1)


def run_cli(env, *argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fiatcell", *argv],
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


def non_associative_file(path):
    e = Element("e", 0, 0, is_identity=True)
    t = Element("t", 0, 0)
    u = Element("u", 0, 0)
    table = {}
    for a in (e, t, u):
        table[(a, e)] = Decomposition({a: 1})
        table[(e, a)] = Decomposition({a: 1})
    table[(t, t)] = Decomposition({u: 1})
    table[(t, u)] = Decomposition({u: 1})
    table[(u, t)] = Decomposition({t: 1})
    table[(u, u)] = Decomposition({e: 1})
    save_shadow(Shadow(objects=(0,), elements=(e, t, u), table=table), str(path))


def test_parse_range():
    assert parse_range("4") == range(4, 5)
    assert parse_range("2..6") == range(2, 7)
    assert parse_range("1..1000000000000") == range(1, 10**12 + 1)
    with pytest.raises(InputError):
        parse_range("x")
    with pytest.raises(InputError):
        parse_range("6..2")


def test_build_bn_stdout(capsys):
    assert main(["build", "bn", "--n", "2"]) == 0
    out = capsys.readouterr().out
    assert out == dumps_shadow(build_bn(2))


def test_build_bn_rejects_out_of_range(capsys):
    assert main(["build", "bn", "--n", "9"]) == 2
    assert "error:" in capsys.readouterr().err


def test_internal_inconsistency_exits_one(monkeypatch, capsys):
    from fiatcell import schur
    from fiatcell.checks import ConsistencyError

    def broken(a):
        raise ConsistencyError("insertion lost a letter")

    monkeypatch.setattr(schur, "_insert", broken)
    assert main(["build", "schur", "--n", "1", "--r", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal inconsistency: insertion lost a letter\n"


def test_structure_error_exits_two(monkeypatch, capsys):
    from fiatcell import schur
    from fiatcell.checks import StructureError

    def broken(a):
        raise StructureError("no such row")

    monkeypatch.setattr(schur, "_insert", broken)
    assert main(["build", "schur", "--n", "1", "--r", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no such row\n"


@pytest.mark.parametrize(
    "argv, lines",
    [
        # a file larger than a pipe's buffer: the child blocks until the
        # read end closes, whenever that is
        (["build", "bn", "--n", "8"], 1),
        # the read end closes before the child, still starting up, writes
        (["verify", "bn", "--n", "1"], 0),
        (["verify", "schur", "--n", "1", "--r", "1"], 0),
        (["--help"], 0),
    ],
    ids=["build-bn", "verify-bn", "verify-schur", "help"],
)
def test_a_closed_stdout_exits_two_with_one_line(child_env, argv, lines):
    proc = subprocess.Popen(
        [sys.executable, "-m", "fiatcell", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env,
    )
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    # no traceback, and no "Exception ignored" from the flush at exit
    assert err == b"error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_build_clebsch_zero(capsys):
    assert main(["build", "clebsch", "--max", "0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [e["id"] for e in doc["elements"]] == ["0"]
    assert "partial" not in doc


def test_build_schur_report(tmp_path):
    out = tmp_path / "schur.json"
    assert main(["build", "schur", "--n", "2", "--r", "2", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["matrices"] == 10
    assert all(c["status"] == "pass" for c in doc["checks"])


def test_check_pass(tmp_path, capsys):
    path = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(path))
    assert main(["check", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass"
    assert doc["checked"] > 0 and doc["skipped"] == 0


def test_check_reports_failure(tmp_path, capsys):
    path = tmp_path / "bad.json"
    non_associative_file(path)
    assert main(["check", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "fail"
    assert doc["failure"]["triple"] == ["t", "t", "t"]


def test_check_structural_error_exits_two(tmp_path, capsys):
    path = tmp_path / "no-identity.json"
    t = Element("t", 0, 0)
    table = {(t, t): Decomposition({t: 1})}
    save_shadow(Shadow(objects=(0,), elements=(t,), table=table), str(path))
    assert main(["check", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "structural-error"
    assert "identities" in doc["message"]
    assert main(["cells", str(path)]) == 2
    capsys.readouterr()


def test_check_prints_the_structure_error_of_the_sweep(tmp_path, capsys):
    path = tmp_path / "not-composable.json"
    doc = {
        "format": 1,
        "partial": True,
        "objects": [0, 1],
        "elements": [
            {"id": "1_0", "source": 0, "target": 0, "identity": True},
            {"id": "1_1", "source": 1, "target": 1, "identity": True},
            {"id": "x", "source": 0, "target": 1, "identity": False},
        ],
        "involution": None,
        "table": [{"left": "x", "right": "x", "result": {}}],
    }
    path.write_text(json.dumps(doc))
    with pytest.raises(StructureError) as err:
        check_associativity(load_shadow(str(path)))
    assert main(["check", str(path)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "structural-error"
    assert doc["message"] == str(err.value) == "table entry (x, x) is not composable"


def test_check_missing_and_malformed(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "content",
    [b'{"objects": "\xff"}', b"[" * 100_000, b'{"format": ' + b"1" * 5000 + b"}"],
    ids=["not-utf-8", "nested-100000-deep", "int-of-5000-digits"],
)
def test_check_unreadable_json_exits_two(tmp_path, capsys, content):
    path = tmp_path / "unreadable.json"
    path.write_bytes(content)
    assert main(["check", str(path)]) == 2
    assert "is not valid JSON" in capsys.readouterr().err


def test_cells_partition(tmp_path, capsys):
    path = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(path))
    assert main(["cells", str(path), "--kind", "left"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "left"
    assert ["1_0", "F0^(1)", "F0^(2)"] in doc["classes"]
    assert len(doc["classes"]) == 4


def test_cells_dot_needs_two_sided(tmp_path, capsys):
    path = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(path))
    dot = tmp_path / "poset.dot"
    assert main(["cells", str(path), "--kind", "left", "--dot", str(dot)]) == 2
    capsys.readouterr()
    assert not dot.exists()
    assert main(["cells", str(path), "--kind", "two-sided", "--dot", str(dot)]) == 0
    capsys.readouterr()
    assert dot.read_text().startswith("digraph cell_poset {")


def test_ideals(tmp_path, capsys):
    path = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(path))
    assert main(["ideals", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3
    assert doc["status"] == "pass"
    assert doc["ideals"][0] == {"antichain": [], "members": []}


def test_ideals_at_clebsch_window_limit(tmp_path, child_env):
    # 24 cells in a chain and 25 thick ideals: the enumeration must follow
    # the ideals, not the 2**24 subsets of cells
    path = tmp_path / "clebsch90.json"
    assert main(["build", "clebsch", "--max", "90", "-o", str(path)]) == 0
    proc = subprocess.run(
        [sys.executable, "-m", "fiatcell", "ideals", str(path)],
        capture_output=True,
        env=child_env,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert (
        hashlib.sha256(proc.stdout).hexdigest()
        == "0e062c029a92665cbfa49e574d422bc05e11592315e88f7aa701191a221907e0"
    )


def test_cell_module(tmp_path, capsys):
    path = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(path))
    assert main(["cell-module", str(path), "--left-cell-of", "1_0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["basis"] == ["1_0", "F0^(1)", "F0^(2)"]
    assert doc["matrices"]["E1^(1)"][0][1] == 2
    assert main(["cell-module", str(path), "--left-cell-of", "ghost"]) == 2
    capsys.readouterr()


def test_export_is_idempotent(tmp_path, capsys):
    path = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(path))
    original = path.read_text()
    assert main(["export", str(path)]) == 0
    assert capsys.readouterr().out == original
    out = tmp_path / "again.json"
    assert main(["export", str(path), "-o", str(out)]) == 0
    assert out.read_text() == original


def test_verify_bn_deterministic(capsys):
    assert main(["verify", "bn", "--n", "1..2"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "bn", "--n", "1..2"]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert doc["status"] == "pass"
    assert [row["n"] for row in doc["results"]] == [1, 2]
    assert doc["results"][1]["elements"] == 10


def test_verify_bad_range(capsys):
    assert main(["verify", "bn", "--n", "0..2"]) == 2
    capsys.readouterr()


class WorkStarted(Exception):
    """Raised by a patched work function: the CLI got past its checks."""


def _refused_before_work(monkeypatch, capsys, argv, accepted, *work):
    """Patch each work function where the CLI reads it at call time, then
    check that the same patch stops `accepted` (so the patch is live) and
    is never reached by `argv`, which must exit 2. Returns the stderr of
    the refusal."""
    calls = []

    def patch(target):
        def fake(*args, **kwargs):
            calls.append(target)
            raise WorkStarted(target)

        monkeypatch.setattr(f"fiatcell.{target}", fake)

    for target in work:
        patch(target)
    with pytest.raises(WorkStarted):
        main(accepted)
    assert calls == [work[0]]
    calls.clear()
    capsys.readouterr()
    assert main(argv) == 2
    assert calls == []
    return capsys.readouterr().err


BN_WORK = ("bnverify.build_bn", "bnverify.verify_bn")


def test_verify_bn_refuses_range_past_limit_before_any_rank(monkeypatch, capsys):
    argv = ["verify", "bn", "--n", "8..9"]
    accepted = ["verify", "bn", "--n", "8"]
    err = _refused_before_work(monkeypatch, capsys, argv, accepted, *BN_WORK)
    assert err == "error: rank must be between 1 and 8, got 9\n"


def test_verify_bn_refuses_huge_range_at_once(monkeypatch, capsys):
    argv = ["verify", "bn", "--n", "1..1000000000000"]
    accepted = ["verify", "bn", "--n", "1..8"]
    err = _refused_before_work(monkeypatch, capsys, argv, accepted, *BN_WORK)
    assert err == "error: rank must be between 1 and 8, got 9\n"


@pytest.mark.parametrize(
    "n, r, message",
    [
        ("1", "8..9", "r must be between 1 and 8, got 9"),
        ("0..2", "9", "n must be between 1 and 4, got 0"),
        ("1..5", "9", "r must be between 1 and 8, got 9"),
        ("3..6", "2..8", "n must be between 1 and 4, got 5"),
    ],
)
def test_verify_schur_refuses_range_past_limit_before_any_rank(
    monkeypatch, capsys, n, r, message
):
    argv = ["verify", "schur", "--n", n, "--r", r]
    accepted = ["verify", "schur", "--n", "1..4", "--r", "1..8"]
    err = _refused_before_work(monkeypatch, capsys, argv, accepted, "schur.verify_schur")
    # the message a loop over the ranges would have met first
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("bound", [str(CLEBSCH_LIMIT + 1), "-1"])
@pytest.mark.parametrize("verb, work", [("build", "window_shadow"), ("verify", "verify_clebsch")])
def test_clebsch_refuses_bound_past_limit_before_any_work(monkeypatch, capsys, verb, work, bound):
    argv = [verb, "clebsch", "--max", bound]
    accepted = [verb, "clebsch", "--max", str(CLEBSCH_LIMIT)]
    err = _refused_before_work(monkeypatch, capsys, argv, accepted, f"clebsch.{work}")
    assert err == f"error: window bound must be between 0 and {CLEBSCH_LIMIT}, got {bound}\n"


# one 1 x 1 RSK pair, for rsk_inverse's bound
PAIR = fiatcell.rsk(fiatcell.MarginMatrix(((1,),)))

# the divided-power rewriter, which only the tests hold (udot_rewriter)
REWRITER = {"basis_change", "compose_monomials", "dp_normalize", "normalize_blocks"}

# entry -> bad arguments and the message each is refused with
GUARDS = [
    ("verify_schur", (2.0, 3), "n must be an integer, got 2.0"),
    ("verify_schur", (2, 3.0), "r must be an integer, got 3.0"),
    ("schur_report", (True, 1), "n must be an integer, got True"),
    ("enumerate_dominant", (1, True), "r must be an integer, got True"),
    ("cells_via_rsk", (2.0, 3), "n must be an integer, got 2.0"),
    ("build_bn", (2.0,), "rank must be an integer, got 2.0"),
    ("build_bn", (True,), "rank must be an integer, got True"),
    ("verify_bn", (2.0,), "rank must be an integer, got 2.0"),
    ("window_shadow", (2.0,), "window bound must be an integer, got 2.0"),
    ("window_shadow", (False,), "window bound must be an integer, got False"),
    ("verify_clebsch", (3.0,), "window bound must be an integer, got 3.0"),
    ("bn_basis", (2.0,), "rank must be an integer, got 2.0"),
    ("bn_basis", (True,), "rank must be an integer, got True"),
    ("bn_basis", (-1,), "rank must be between 1 and 8, got -1"),
    ("bn_basis", (9,), "rank must be between 1 and 8, got 9"),
    ("defining_action", (2.0,), "rank must be an integer, got 2.0"),
    ("defining_action", (True,), "rank must be an integer, got True"),
    ("defining_action", (-1,), "rank must be between 1 and 8, got -1"),
    ("defining_action", (9,), "rank must be between 1 and 8, got 9"),
    ("recursion_check", (2.0,), "rank must be an integer, got 2.0"),
    ("recursion_check", (True,), "rank must be an integer, got True"),
    ("recursion_check", (-1,), "rank must be between 1 and 8, got -1"),
    ("recursion_check", (9,), "rank must be between 1 and 8, got 9"),
    ("single_cell_check", (2.0,), "window bound must be an integer, got 2.0"),
    ("single_cell_check", (True,), "window bound must be an integer, got True"),
    ("single_cell_check", (-3,), "window bound must be between 0 and 90, got -3"),
    ("single_cell_check", (91,), "window bound must be between 0 and 90, got 91"),
    ("normalize_blocks", (2.0, [("F", 1)], 0), "rank must be an integer, got 2.0"),
    ("normalize_blocks", (True, [("F", 1)], 0), "rank must be an integer, got True"),
    ("normalize_blocks", (-1, [("F", 1)], 0), "rank must be between 1 and 8, got -1"),
    ("normalize_blocks", (9, [("F", 1)], 0), "rank must be between 1 and 8, got 9"),
    ("normalize_blocks", (2, [("F", 1)], 0.0), "object must be an integer, got 0.0"),
    ("normalize_blocks", (2, [("F", 1)], True), "object must be an integer, got True"),
    ("normalize_blocks", (2, [("F", 1)], -1), "object must be between 0 and 2, got -1"),
    ("normalize_blocks", (2, [("F", 1)], 3), "object must be between 0 and 2, got 3"),
    ("dp_normalize", (2.0, "EF", 0), "rank must be an integer, got 2.0"),
    ("dp_normalize", (True, "EF", 0), "rank must be an integer, got True"),
    ("dp_normalize", (-1, "EF", 0), "rank must be between 1 and 8, got -1"),
    ("dp_normalize", (9, "EF", 0), "rank must be between 1 and 8, got 9"),
    ("dp_normalize", (2, "EF", 0.0), "object must be an integer, got 0.0"),
    ("dp_normalize", (2, "EF", False), "object must be an integer, got False"),
    ("dp_normalize", (2, "EF", -1), "object must be between 0 and 2, got -1"),
    ("dp_normalize", (2, "EF", 3), "object must be between 0 and 2, got 3"),
    ("basis_change", (2.0, {F0: 1}), "rank must be an integer, got 2.0"),
    ("basis_change", (True, {F0: 1}), "rank must be an integer, got True"),
    ("basis_change", (-1, {F0: 1}), "rank must be between 1 and 8, got -1"),
    ("basis_change", (9, {F0: 1}), "rank must be between 1 and 8, got 9"),
    ("compose_monomials", (2.0, E1, F0), "rank must be an integer, got 2.0"),
    ("compose_monomials", (True, E1, F0), "rank must be an integer, got True"),
    ("compose_monomials", (-1, E1, F0), "rank must be between 1 and 8, got -1"),
    ("compose_monomials", (9, E1, F0), "rank must be between 1 and 8, got 9"),
    ("cg_op", (2.0, 1), "fusion factor must be an integer, got 2.0"),
    ("cg_op", (1, True), "fusion factor must be an integer, got True"),
    ("cg_op", (-1, 2), "fusion factor must be between 0 and 180, got -1"),
    ("cg_op", (2, 2 * CLEBSCH_LIMIT + 1), "fusion factor must be between 0 and 180, got 181"),
    ("cg_op", (10**12, 10**12), f"fusion factor must be between 0 and 180, got {10**12}"),
    ("verify_relations", (2.0,), "rank must be an integer, got 2.0"),
    ("verify_relations", (True,), "rank must be an integer, got True"),
    ("verify_relations", (-1,), "rank must be between 1 and 8, got -1"),
    ("verify_relations", (9,), "rank must be between 1 and 8, got 9"),
    ("rsk_inverse", (PAIR, 1.0), "n must be an integer, got 1.0"),
    ("rsk_inverse", (PAIR, True), "n must be an integer, got True"),
    ("DPMonomial", ("F", 1, 0, 0), "bad monomial kind 'F'"),
    ("DPMonomial", ("fe", 1.0, 0, 0), "divided power must be an integer, got 1.0"),
    ("DPMonomial", ("ef", 1, 1, True), "object must be an integer, got True"),
    ("dp", ("fe", 1.0, 0, 0), "divided power must be an integer, got 1.0"),
    ("dp", ("ef", 1, True, 0), "divided power must be an integer, got True"),
    ("DPMonomial", ("fe", 1, "1", 0), "divided power must be an integer, got '1'"),
    ("DPMonomial", ("ef", None, 1, 0), "divided power must be an integer, got None"),
    ("dp", ("fe", 0, 0, 0.0), "object must be an integer, got 0.0"),
    ("MarginMatrix", (((1.0,),),), "matrix entry must be an integer, got 1.0"),
    ("MarginMatrix", (((None,),),), "matrix entry must be an integer, got None"),
    # rsk would never return on this matrix: the refusal is tested, not rsk
    ("MarginMatrix", (((0, 1.5), (1, 0)),), "matrix entry must be an integer, got 1.5"),
    ("Tableau", (((True,),),), "tableau entry must be an integer, got True"),
    ("Tableau", (((1, 2.0),),), "tableau entry must be an integer, got 2.0"),
    ("MarginMatrix", ((1,),), "matrix must be a tuple of row tuples, got (1,)"),
    ("Tableau", ((1,),), "tableau must be a tuple of row tuples, got (1,)"),
    ("Tableau", (None,), "tableau must be a tuple of row tuples, got None"),
]

# exported callables that take no integer
TAKE_NO_INTEGER = {
    "CellPartition",
    "ConsistencyError",
    "FiatcellError",
    "InputError",
    "RskPair",
    "StructureError",
    "antichains",
    "cell_module",
    "cell_partition",
    "cell_poset",
    "check_associativity",
    "compose",
    "dumps_shadow",
    "is_strongly_regular",
    "load_shadow",
    "m_values",
    "poset_to_dot",
    "principal_ideal",
    "quotient_by_upset",
    "rsk",
    "save_shadow",
    "thick_ideals",
    "upsets_by_enumeration",
    "validate_shadow",
}

# exported records whose integers are data, not a rank, a bound or an
# object index checked against a rank: object ids, entries and
# multiplicities (checked where a shadow is validated) and bitsets
INTEGERS_AS_DATA = {
    "CellModuleMatrices",
    "CellPoset",
    "Decomposition",
    "Element",
    "Shadow",
}


def test_every_exported_callable_is_guarded_or_listed():
    guarded = {entry for entry, _, _ in GUARDS}
    lists = [guarded, TAKE_NO_INTEGER, INTEGERS_AS_DATA]
    exported = {name for name in fiatcell.__all__ if callable(getattr(fiatcell, name))}
    for name in sorted(exported):
        assert sum(name in names for names in lists) == 1, name
    # the rewriter, which the tests hold, is the one guarded entry not exported
    assert set().union(*lists) - exported == REWRITER


@pytest.mark.parametrize("entry, args, message", GUARDS)
def test_rank_guards_refuse_non_integers(entry, args, message):
    # built first: a cache keyed by value alone would hand 2.0 and True these
    # shadows without reaching the guard
    build_bn(1), build_bn(2)
    # the rewriter is the one entry not exported: the tests hold it
    func = getattr(udot_rewriter if entry in REWRITER else fiatcell, entry)
    with pytest.raises(InputError) as err:
        func(*args)
    assert str(err.value) == message


_E, _T = Element("e", 0, 0, is_identity=True), Element("t", 0, 0)
# small shadows for the entry-point test: two bn ranks, a partial window, a
# fiat toy (t t = e + 2 t), and two that are not valid: a missing entry and a
# term outside the elements
ENTRY_SHADOWS = [
    build_bn(1),
    build_bn(2),
    window_shadow(3),
    Shadow(
        (0,),
        (_E, _T),
        {
            (_E, _E): Decomposition({_E: 1}),
            (_E, _T): Decomposition({_T: 1}),
            (_T, _E): Decomposition({_T: 1}),
            (_T, _T): Decomposition({_E: 1, _T: 2}),
        },
        {_E: _E, _T: _T},
    ),
    Shadow((0,), (_E, _T), {(_E, _E): Decomposition({_E: 1})}),
    Shadow((0,), (_E,), {(_E, _E): Decomposition({Element("zz", 0, 0): 1})}),
]
ENTRY_ELEMENTS = sorted({e for s in ENTRY_SHADOWS for e in s.elements} | {Element("zz", 0, 0)})
ENTRY_CELLS = [
    cls
    for s in ENTRY_SHADOWS[:4]
    for kind in ("left", "right", "two-sided")
    for cls in fiatcell.cell_partition(s, kind).classes
]
ENTRY_MATRICES = [
    fiatcell.MarginMatrix(rows) for rows in (((1,),), ((0, 1), (1, 0)), ((1, 1), (0, 1)))
]
ENTRY_PAIRS = [fiatcell.rsk(a) for a in ENTRY_MATRICES]


class _InDir(str):
    """A file name that the entry-point test resolves inside its directory."""


# a rank, a bound or a power: small values, values past every limit, and
# values that are not integers
_INTEGERS = st.one_of(st.integers(-1, 4), st.sampled_from([9, 91, 181, True, 2.0, None, "2"]))
_WORDS = st.sampled_from(["fe", "ef", "left", "right", "two-sided", "", "E", "F", None, 1])
_ELEMENT = st.sampled_from(ENTRY_ELEMENTS)
# a file, a file that is not JSON, a directory and two missing paths
_PATHS = st.sampled_from(
    [_InDir(name) for name in ("shadow.json", "garbage.json", ".", "missing.json", "no/x.json")]
)
_TERMS = st.dictionaries(_ELEMENT, st.integers(0, 3), max_size=3)
_DECOMPOSITION = st.builds(Decomposition, _TERMS)
_ELEMENT_SET = st.one_of(st.sampled_from(ENTRY_CELLS), st.frozensets(_ELEMENT, max_size=3))
# row tuples of any depth, with entries that are not integers
_ROWS = st.recursive(
    st.one_of(st.integers(-1, 3), st.sampled_from([None, 1.5, True])),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)

# the values a parameter of an exported callable draws, by its annotation
# or, when it has none, by its name: the kind of value it documents, with
# random content
ENTRY_ARGUMENTS = {
    "int": _INTEGERS,
    "str": _WORDS,
    "bool": st.booleans(),
    "path": _PATHS,
    "Shadow": st.sampled_from(ENTRY_SHADOWS),
    "Element": _ELEMENT,
    "Decomposition": _DECOMPOSITION,
    "Mapping[Element, int] | None": st.none() | _TERMS,
    "frozenset[Element]": _ELEMENT_SET,
    "CellPoset": st.sampled_from([fiatcell.cell_poset(s) for s in ENTRY_SHADOWS[:4]]),
    "MarginMatrix": st.sampled_from(ENTRY_MATRICES),
    "RskPair": st.sampled_from(ENTRY_PAIRS),
    "Tableau": st.sampled_from([pair.p for pair in ENTRY_PAIRS]),
    "tuple[tuple[int, ...], ...]": _ROWS,
    # the fields of the records, which keep what they are given
    "objects": st.lists(st.integers(0, 2), max_size=2).map(tuple),
    "elements": st.lists(_ELEMENT, max_size=3).map(tuple),
    "table": st.dictionaries(st.tuples(_ELEMENT, _ELEMENT), _DECOMPOSITION, max_size=3),
    "involution": st.none() | st.dictionaries(_ELEMENT, _ELEMENT, max_size=3),
    "partial": st.booleans(),
    "tuple[frozenset, ...]": st.lists(_ELEMENT_SET, max_size=2).map(tuple),
    "tuple[frozenset[Element], ...]": st.lists(_ELEMENT_SET, max_size=2).map(tuple),
    "tuple[int, ...]": st.lists(st.integers(0, 3), max_size=3).map(tuple),
    "tuple[tuple[int, int], ...]": st.lists(st.tuples(_INTEGERS, _INTEGERS), max_size=2).map(tuple),
    "tuple[Element, ...]": st.lists(_ELEMENT, max_size=3).map(tuple),
    "dict[Element, Matrix]": st.dictionaries(_ELEMENT, _ROWS, max_size=2),
}
# the exception classes, whose signatures cannot be read, take any values
_ANY = st.one_of(_INTEGERS, _WORDS, _ELEMENT)


# values of another type where a Shadow, a CellPoset, an element, a cell or
# a Schur record is taken: a poset for a shadow, a shadow for a poset, an
# element for a cell, a cell for an element, and a matrix for a tableau
# pair and back among them
WRONG_TYPES = {
    "Shadow": st.sampled_from([5, None, "bn", ENTRY_ELEMENTS, fiatcell.cell_poset(build_bn(1))]),
    "CellPoset": st.sampled_from([5, None, "bn", (), build_bn(1)]),
    "Element": st.sampled_from([5, None, "e", frozenset({_E}), Decomposition({_E: 1}), build_bn(1)]),
    "frozenset[Element]": st.sampled_from([5, None, "cell", _E, build_bn(1)]),
    "MarginMatrix": st.sampled_from([5, None, ((1,),), ENTRY_PAIRS[0], ENTRY_PAIRS[0].p]),
    "RskPair": st.sampled_from([5, None, (), ENTRY_MATRICES[0], ENTRY_PAIRS[0].p]),
    "Tableau": st.sampled_from([5, None, ((1,),), ENTRY_MATRICES[0], ENTRY_PAIRS[0]]),
}


def _kinds(func):
    """The kind of value each parameter of func takes, as ENTRY_ARGUMENTS
    names it; None when its signature cannot be read."""
    try:
        parameters = inspect.signature(func).parameters.values()
    except ValueError:
        return None
    kinds = []
    for p in parameters:
        if p.annotation is inspect.Parameter.empty or p.name == "path":
            kinds.append(p.name)
        else:
            kinds.append(getattr(p.annotation, "__forward_arg__", p.annotation))
    return kinds


def _arguments(func):
    """The strategy of an argument tuple for func, one value a parameter."""
    kinds = _kinds(func)
    if kinds is None:
        return st.lists(_ANY, max_size=2).map(tuple)
    return st.tuples(*(ENTRY_ARGUMENTS[kind] for kind in kinds))


@pytest.fixture(scope="module")
def entry_dir(tmp_path_factory):
    """A directory with a shadow file and a file that is not JSON."""
    path = tmp_path_factory.mktemp("entry")
    save_shadow(build_bn(1), str(path / "shadow.json"))
    (path / "garbage.json").write_text("{not json")
    return path


@pytest.mark.parametrize(
    "name", [name for name in fiatcell.__all__ if callable(getattr(fiatcell, name))]
)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_exported_callables_raise_only_fiatcell_errors(entry_dir, name, data):
    """Every exported callable, on small random arguments of the kinds it
    documents, returns or raises a FiatcellError, as the command line exits
    0, 1 or 2 and never with a traceback. One that takes a Shadow, a
    CellPoset, an element, a cell or a Schur record raises InputError when
    one of them is of another type."""
    func = getattr(fiatcell, name)
    args = data.draw(_arguments(func), label="args")
    args = [str(entry_dir / a) if isinstance(a, _InDir) else a for a in args]
    try:
        func(*args)
    except fiatcell.FiatcellError:
        pass
    # the records whose fields are data keep what they are given
    kinds = [] if name in INTEGERS_AS_DATA else _kinds(func) or []
    typed = [i for i, kind in enumerate(kinds) if kind in WRONG_TYPES]
    if typed:
        i = data.draw(st.sampled_from(typed), label="wrong-type position")
        args[i] = data.draw(WRONG_TYPES[kinds[i]], label="wrong type")
        with pytest.raises(InputError):
            func(*args)


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("check_associativity", (5,), "shadow must be a Shadow, got int"),
        ("cell_module", (5, frozenset()), "shadow must be a Shadow, got int"),
        ("compose", (5, _E, _E), "shadow must be a Shadow, got int"),
        ("validate_shadow", (None,), "shadow must be a Shadow, got NoneType"),
        ("thick_ideals", (5,), "poset must be a CellPoset, got int"),
        ("poset_to_dot", (build_bn(1), build_bn(1)), "poset must be a CellPoset, got Shadow"),
        ("compose", (build_bn(1), 5, _E), "element must be an Element, got int"),
        ("principal_ideal", (build_bn(1), "1_0", "left"), "element must be an Element, got str"),
        ("cell_module", (build_bn(1), _E), "left cell must be a frozenset, got Element"),
        ("m_values", (build_bn(1), [_E]), "two-sided cell must be a frozenset, got list"),
        ("quotient_by_upset", (build_bn(1), None), "upset must be a frozenset, got NoneType"),
        ("rsk", (((1,),),), "matrix must be a MarginMatrix, got tuple"),
        ("rsk_inverse", (((1,),), 1), "pair must be a RskPair, got tuple"),
        ("RskPair", (5, 5), "insertion tableau must be a Tableau, got int"),
    ],
)
def test_shadow_and_poset_parameters_refuse_other_types(name, args, message):
    with pytest.raises(InputError) as err:
        getattr(fiatcell, name)(*args)
    assert str(err.value) == message


def sized_file(path, elements, terms):
    """A valid partial shadow file on one object with the given numbers of
    elements and table terms: identity rows first, then rows x y, in order,
    each with as many terms as are left, up to every non-identity."""
    names = ["e"] + [f"x{i}" for i in range(1, elements)]
    rows = [("e", b, [b]) for b in names] + [(a, "e", [a]) for a in names[1:]]
    left = terms - len(rows)
    for a, b in itertools.product(names[1:], repeat=2):
        if left <= 0:
            break
        rows.append((a, b, names[1 : 1 + min(left, elements - 1)]))
        left -= len(rows[-1][2])
    doc = {
        "format": 1,
        "partial": True,
        "objects": [0],
        "elements": [
            {"id": x, "source": 0, "target": 0, "identity": x == "e"} for x in names
        ],
        "involution": None,
        "table": [{"left": a, "right": b, "result": dict.fromkeys(r, 1)} for a, b, r in rows],
    }
    path.write_text(json.dumps(doc))
    return path


ELEMENTS_AT_LIMIT = (FILE_LIMIT_ELEMENTS, 2 * FILE_LIMIT_ELEMENTS - 1)
TERMS_AT_LIMIT = (100, FILE_LIMIT_TERMS)


@pytest.mark.parametrize("elements, terms", [ELEMENTS_AT_LIMIT, TERMS_AT_LIMIT])
def test_file_at_size_limit_loads(tmp_path, capsys, elements, terms):
    path = sized_file(tmp_path / "at.json", elements, terms)
    doc = json.loads(path.read_text())
    assert len(doc["elements"]) == elements
    assert sum(len(row["result"]) for row in doc["table"]) == terms
    assert main(["export", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["elements"] == doc["elements"]
    assert sum(len(row["result"]) for row in out["table"]) == terms


@pytest.mark.parametrize(
    "at, past, message",
    [
        (
            ELEMENTS_AT_LIMIT,
            (FILE_LIMIT_ELEMENTS + 1, 2 * FILE_LIMIT_ELEMENTS + 1),
            f"{FILE_LIMIT_ELEMENTS + 1} elements, more than the limit of {FILE_LIMIT_ELEMENTS}",
        ),
        (
            TERMS_AT_LIMIT,
            (100, FILE_LIMIT_TERMS + 1),
            f"{FILE_LIMIT_TERMS + 1} table terms, more than the limit of {FILE_LIMIT_TERMS}",
        ),
    ],
    ids=["elements", "terms"],
)
@pytest.mark.parametrize(
    "verb",
    [["check"], ["cells"], ["ideals"], ["cell-module", "--left-cell-of", "e"], ["export"]],
    ids=lambda verb: verb[0],
)
def test_file_verbs_refuse_past_size_limit(monkeypatch, capsys, tmp_path, verb, at, past, message):
    # the file at the limit gets as far as building elements; the one past
    # it is refused before
    at_path = sized_file(tmp_path / "at.json", *at)
    past_path = sized_file(tmp_path / "past.json", *past)
    argv, accepted = [verb[0], str(past_path), *verb[1:]], [verb[0], str(at_path), *verb[1:]]
    err = _refused_before_work(monkeypatch, capsys, argv, accepted, "shadowfile.shadow_from_dict")
    assert err == f"error: {past_path} has {message}\n"


def zero_products_file(path, k, product=lambda a, b: {}):
    """A shadow file on one object: the identity e and k elements whose
    products a b are product(a, b); by default all zero, so k incomparable
    cells above e's and 2**k + 1 thick ideals."""
    names = ["e"] + [f"x{i}" for i in range(1, k + 1)]
    rows = [("e", b, {b: 1}) for b in names] + [(a, "e", {a: 1}) for a in names[1:]]
    rows += [(a, b, product(a, b)) for a, b in itertools.product(names[1:], repeat=2)]
    doc = {
        "format": 1,
        "objects": [0],
        "elements": [
            {"id": x, "source": 0, "target": 0, "identity": x == "e"} for x in names
        ],
        "involution": None,
        "table": [{"left": a, "right": b, "result": r} for a, b, r in rows],
    }
    path.write_text(json.dumps(doc))
    return str(path)


def test_cell_module_at_the_file_bound_is_written_in_pieces(monkeypatch, tmp_path):
    # a left-zero table (x y = x) on the identity and 169 elements: one left
    # cell of 169, so 170 matrices of 169 x 169 entries, 50 MB of text
    k = FILE_LIMIT_ELEMENTS - 1
    path = zero_products_file(tmp_path / "lz.json", k, lambda a, b: {a: 1})
    sizes, write_text = [], checks.write_text

    def counted(pieces, out):
        write_text((sizes.append(len(p)) or p for p in pieces), out)

    monkeypatch.setattr(checks, "write_text", counted)
    assert main(["cell-module", path, "--left-cell-of", "x1", "-o", os.devnull]) == 0
    # the text of one matrix, as a report that holds only it writes it
    one = len("".join(json_pieces({"matrices": {f"x{k}": ((1,) * k,) * k}})))
    assert max(sizes) <= one
    assert sum(sizes) > 150 * one


def test_ideals_refuses_past_the_ideal_limit_before_any_output(monkeypatch, capsys, tmp_path):
    k = 14
    assert IDEALS_LIMIT == 2**k + 1
    at = zero_products_file(tmp_path / "at.json", k)
    past = zero_products_file(tmp_path / "past.json", k + 1)
    message = f"error: the cell poset has more than the limit of {IDEALS_LIMIT} thick ideals\n"
    assert main(["ideals", past]) == 2
    assert capsys.readouterr() == ("", message)
    # the file at the limit gets past antichains to the up-set count
    err = _refused_before_work(
        monkeypatch, capsys, ["ideals", past], ["ideals", at], "ideals.upsets_by_enumeration"
    )
    assert err == message


def test_advertised_files_are_inside_the_size_limit():
    for s, size in ((build_bn(8), (165, 4109)), (window_shadow(CLEBSCH_LIMIT), (91, 65941))):
        doc = shadow_to_dict(s)
        terms = sum(len(row["result"]) for row in doc["table"])
        assert (len(doc["elements"]), terms) == size
        assert size[0] <= FILE_LIMIT_ELEMENTS and size[1] <= FILE_LIMIT_TERMS


def test_build_clebsch_at_limit(capsys):
    assert main(["build", "clebsch", "--max", str(CLEBSCH_LIMIT)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["elements"]) == CLEBSCH_LIMIT + 1


def test_verify_clebsch(capsys):
    assert main(["verify", "clebsch", "--max", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["results"][0]["max"] == 6
    assert doc["status"] == "pass"


def test_verify_schur(capsys):
    assert main(["verify", "schur", "--n", "2", "--r", "1..3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [(row["n"], row["r"]) for row in doc["results"]] == [(2, 1), (2, 2), (2, 3)]
    assert doc["status"] == "pass"


def test_verify_schur_at_rank_limit(capsys):
    assert main(["verify", "schur", "--n", "1..2", "--r", "8"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["status"] == "pass"
    assert [len(row["checks"]) for row in doc["results"]] == [11, 11]


def test_unknown_verb_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


USAGE_ERRORS = {
    "no verb": [],
    "unknown verb": ["frobnicate"],
    "no construction": ["verify"],
    "unknown construction": ["build", "frobnicate"],
    "unknown option": ["check", "{b2}", "--frobnicate"],
    "abbreviated option": ["cell-module", "{b2}", "--left", "1_0"],
    "option without a value": ["build", "bn", "--n"],
    "output without a value": ["check", "{b2}", "-o"],
    "missing required option": ["build", "schur", "--n", "2"],
    "non-integer --n": ["build", "bn", "--n", "2.0"],
    "non-integer --max": ["verify", "clebsch", "--max", "x"],
    "--kind outside its choices": ["cells", "{b2}", "--kind", "up"],
    "missing path": ["check"],
    "extra path": ["check", "{b2}", "{b2}"],
}


@pytest.mark.parametrize("argv", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_errors_exit_two(tmp_path, capsys, argv):
    b2 = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(b2))
    with pytest.raises(SystemExit) as exc:
        main([a.format(b2=b2) for a in argv])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: fiatcell ") and "\nfiatcell: error: " in err


def test_usage_error_names_the_fault(capsys):
    with pytest.raises(SystemExit):
        main(["build", "bn", "--n", "x"])
    assert capsys.readouterr().err == (
        "usage: fiatcell build bn --n N [-o OUTPUT]\n"
        "fiatcell: error: argument --n: invalid int value: 'x'\n"
    )


@pytest.mark.parametrize(
    "argv, verbs, first",
    [
        (["-h"], 11, "build bn"),
        (["--help"], 11, "build bn"),
        (["verify", "-h"], 3, "verify bn"),
        (["cells", "x", "--help"], 1, "cells path"),
    ],
)
def test_help_prints_the_usage(capsys, argv, verbs, first):
    # the usage of every verb that the words before -h leave open
    assert main(argv) == 0
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert err == "" and len(lines) == verbs
    assert lines[0].startswith(f"usage: fiatcell {first} ")


def test_help_exits_zero_as_a_process(child_env):
    proc = run_cli(child_env, "--help")
    assert proc.returncode == 0 and proc.stderr == ""
    assert "fiatcell cell-module path --left-cell-of" in proc.stdout


@pytest.mark.parametrize("value", [["--max", "-1"], ["--max=-1"]])
@pytest.mark.parametrize("verb", ["build", "verify"])
def test_negative_values_reach_the_range_check(capsys, verb, value):
    assert main([verb, "clebsch", *value]) == 2
    message = f"error: window bound must be between 0 and {CLEBSCH_LIMIT}, got -1\n"
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize(
    "argv",
    [
        ["cells", "{b2}", "--kind", "left", "-o", "{out}"],
        ["cells", "--kind=left", "{b2}", "--output={out}"],
        ["cells", "--kind", "right", "--kind", "left", "{b2}", "--output", "{out}"],
        ["cells", "-o{out}", "--kind", "left", "--", "{b2}"],
        ["cells", "-o={out}", "{b2}", "--kind=left"],
    ],
)
def test_option_spellings_agree(tmp_path, capsys, argv):
    b2, out = tmp_path / "b2.json", tmp_path / "out.json"
    save_shadow(build_bn(2), str(b2))
    assert main(["cells", str(b2), "--kind", "left"]) == 0
    expected = capsys.readouterr().out
    assert main([a.format(b2=b2, out=out) for a in argv]) == 0
    assert out.read_text() == expected


def test_module_entry_point(child_env):
    proc = run_cli(child_env, "verify", "bn", "--n", "4")
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_on_the_standard_library_alone(tmp_path):
    # -I -S: no site-packages and no PYTHONPATH, so no third-party import
    # works; -B, since -I ignores PYTHONDONTWRITEBYTECODE: no bytecode in src
    path = tmp_path / "b2.json"
    save_shadow(build_bn(2), str(path))
    src = str(Path(fiatcell.__file__).parent.parent)
    run = f"import sys, runpy; sys.path.insert(0, {src!r}); "
    run += "runpy.run_module('fiatcell', run_name='__main__', alter_sys=True)"
    for argv in (
        ["verify", "bn", "--n", "2"],
        ["cell-module", str(path), "--left-cell-of", "F0^(1)"],
    ):
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", run, *argv],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr


VALID_FILES = [shadow_to_dict(build_bn(1)), shadow_to_dict(window_shadow(2))]
OTHER_JSON = [None, True, 0, 1.5, "x", [], [1], {}, {"x": 1}]


def _locations(value, path=()):
    """(path, value) for every member and item below the root."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield path + (key,), child
        yield from _locations(child, path + (key,))


def _parent(doc, path):
    for key in path[:-1]:
        doc = doc[key]
    return doc


@st.composite
def mutated_files(draw):
    doc = copy.deepcopy(draw(st.sampled_from(VALID_FILES)))
    for _ in range(draw(st.integers(1, 3))):
        locations = list(_locations(doc))
        how = draw(st.sampled_from(["replace", "drop", "duplicate"]))
        if how == "replace":
            path, old = draw(st.sampled_from(locations))
            others = [v for v in OTHER_JSON if type(v) is not type(old)]
            _parent(doc, path)[path[-1]] = copy.deepcopy(draw(st.sampled_from(others)))
        elif how == "drop":
            keyed = [p for p, _ in locations if isinstance(_parent(doc, p), dict)]
            path = draw(st.sampled_from(keyed))
            del _parent(doc, path)[path[-1]]
        else:
            rows = [p for p, _ in locations if isinstance(_parent(doc, p), list)]
            if rows:
                path = draw(st.sampled_from(rows))
                parent = _parent(doc, path)
                parent.append(copy.deepcopy(parent[path[-1]]))
    return doc


@settings(max_examples=60)
@given(mutated_files(), st.sampled_from(["1_0", "0", "F0^(1)", "1"]))
def test_mutated_files_exit_cleanly(doc, element):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "mutated.json")
        Path(path).write_text(json.dumps(doc))
        for argv in (
            ["check", path],
            ["cells", path],
            ["ideals", path],
            ["cell-module", path, "--left-cell-of", element],
        ):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                assert main(argv) in (0, 1, 2), argv
