import json
import subprocess
import sys

import pytest

from fiatcell import (
    Decomposition,
    Element,
    InputError,
    Shadow,
    build_bn,
    dumps_shadow,
    save_shadow,
)
from fiatcell.cli import main, parse_range


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "fiatcell", *argv],
        capture_output=True,
        text=True,
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
    assert parse_range("4") == [4]
    assert parse_range("2..6") == [2, 3, 4, 5, 6]
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


def test_check_missing_and_malformed(tmp_path, capsys):
    assert main(["check", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["check", str(bad)]) == 2
    capsys.readouterr()


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
    dot = tmp_path / "poset.dot"
    out = tmp_path / "again.json"
    assert main(["export", str(path), "--dot", str(dot), "-o", str(out)]) == 0
    assert out.read_text() == original
    assert "c1 -> c0;" in dot.read_text()


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


def test_module_entry_point(tmp_path):
    proc = run_cli("verify", "bn", "--n", "4")
    assert proc.returncode == 0, proc.stderr
