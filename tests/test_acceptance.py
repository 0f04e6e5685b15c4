"""Acceptance gate: one test per advertised guarantee, one line each under
pytest -v. Time budgets are asserted where the guarantee includes one."""

import hashlib
import io
import json
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from math import comb

from fiatcell import (
    Decomposition,
    Element,
    Shadow,
    build_bn,
    cell_module,
    cell_partition,
    cell_poset,
    cg_op,
    check_associativity,
    defining_action,
    dp_normalize,
    recursion_check,
    save_shadow,
    single_cell_check,
    thick_ideals,
    upsets_by_enumeration,
    verify_relations,
    verify_schur,
    window_shadow,
)
from fiatcell.cli import main
from fiatcell.clebsch import associativity_unbounded
from fiatcell.ideals import antichains
from fiatcell.udot import bn_cells_report
from udot_oracle import oracle_dp_coeffs


def test_bn_associativity_and_hom_pair_counts():
    for n in range(1, 7):
        start = time.monotonic()
        s = build_bn(n)
        report = check_associativity(s)
        assert report.ok and report.skipped == 0, (n, report)
        for i in range(n + 1):
            for j in range(n + 1):
                count = sum(
                    1 for e in s.elements if (e.source, e.target) == (i, j)
                )
                assert count == min(i, j, n - i, n - j) + 1, (n, i, j)
        assert time.monotonic() - start < 10, f"rank {n} over budget"
    assert len(build_bn(2).elements) == 10


def test_bn_exchange_and_merge_identities():
    shadows = {n: build_bn(n) for n in range(1, 7)}  # cached, outside the budget
    start = time.monotonic()
    for n, s in shadows.items():
        for check in verify_relations(n, s):
            assert check["status"] == "pass", (n, check)
    assert time.monotonic() - start < 1


def test_bn_cell_structure_and_m_statistic():
    start = time.monotonic()
    for n in range(1, 7):
        s = build_bn(n)
        assert len(cell_partition(s, "two-sided").classes) == n // 2 + 1
        for check in bn_cells_report(n, s):
            assert check["status"] == "pass", (n, check)
    assert time.monotonic() - start < 30


def test_top_cell_module_matches_defining_action():
    for n in range(1, 7):
        s = build_bn(n)
        left = cell_partition(s, "left")
        cm = cell_module(s, left.class_of(s.element("1_0")))
        assert [e.name for e in cm.basis] == ["1_0"] + [
            f"F0^({k})" for k in range(1, n + 1)
        ]
        action = defining_action(n, s, validate=True)
        for e in s.elements:
            assert cm.matrices[e] == action[e], (n, e.name)


def test_divided_power_engine_matches_single_step_oracle():
    for n in range(1, 6):
        for length in range(7):
            for word in product("EF", repeat=length):
                for base in range(n + 1):
                    got = {
                        (m.fpow, m.epow): c
                        for m, c in dp_normalize(n, word, base).items()
                    }
                    assert got == oracle_dp_coeffs(n, word, base), (n, word, base)


def test_rank_reduction_recursion_outcome():
    # recorded outcome: the index-shift correspondence holds on the nose
    for n in range(3, 7):
        assert recursion_check(n) == {
            "check": "rank-reduction-index-shift",
            "status": "pass",
            "witnesses": [],
        }


def test_fusion_associativity_unit_and_single_cell():
    start = time.monotonic()
    ok, witness = associativity_unbounded(25)
    assert ok and witness is None
    assert all(cg_op(0, a) == {a} == cg_op(a, 0) for a in range(26))
    assert single_cell_check(25)
    assert time.monotonic() - start < 5


def test_schur_rsk_and_cells_full_sweep():
    start = time.monotonic()
    for n in range(1, 4):
        for r in range(1, 7):
            for check in verify_schur(n, r):
                assert check["status"] == "pass", (n, r, check)
    assert time.monotonic() - start < 30


def test_thick_ideals_count_antichains():
    built = [build_bn(n) for n in range(1, 7)]
    built += [window_shadow(k) for k in range(0, 7)]
    for s in built:
        poset = cell_poset(s)
        ideals = thick_ideals(s, poset)
        assert len(ideals) == len(antichains(poset)) == len(
            upsets_by_enumeration(poset)
        )
    for n in range(1, 7):
        assert len(thick_ideals(build_bn(n))) == n // 2 + 2


def test_verify_reports_are_byte_identical():
    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "fiatcell", "verify", "bn", "--n", "1..6"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    serial = run()
    assert run() == serial
    assert json.loads(serial)["status"] == "pass"


# SHA-256 of exit code, stdout, stderr and any written file, per CLI run.
RECORDED_DIGESTS = {
    "verify bn --n 1..8": (
        "e9b6c11303c1a7ba97aa03396362b505df90dd2e3af1c88b1cb310b5a3587c56"
    ),
    "verify clebsch --max 25": (
        "9a2cc0f8173c72fd71c1a4b8e00d14afc0a1bbe6648b88c1f80ff61283b3615c"
    ),
    "bn4 check": (
        "ec77b35dac15719d01730b5df73b79a90740506ec716c220caecbc320ae01666"
    ),
    "bn4 cells --kind left": (
        "1969e1c7e0fa22b7a8301aa53937b1dadd34072a8ffe230de5f1241a398cec92"
    ),
    "bn4 cells --kind right": (
        "82d81fc8f5e0133daf344d99e41fd8005f53ee88e4bbe36391cb48794716038d"
    ),
    "bn4 cells --kind two-sided": (
        "da62be3d5523186de7677a1be95d7220553aedbe963b0ad0d52d0b1cd696d650"
    ),
    "bn4 cells --dot": (
        "08af50f197fe92bbef7b41f2c8802887a05705c822b8f41716a4b6f98775ef97"
    ),
    "bn4 ideals": (
        "b14bda6739acb5bb5a08cb1ffaf21a73788eb63db1ff0e0c9847564edf51b333"
    ),
    "bn4 cell-module": (
        "b3a20b3942d4930b95e05541b9808735ce33f2819da6feccc0691543fb42c541"
    ),
    "cg6 check": (
        "3f2c3608b045a1fe1a78fcf1268cb747e063f8627f754396d9e64e24eb044e9c"
    ),
    "cg6 cells --kind left": (
        "1f1d7181427d0261676e9457711956c88536ffcec7650605a2bb7a9ee58c6ec2"
    ),
    "cg6 cells --kind right": (
        "20963887030ca18d4b9c884b4e760e354f648b40bb17535f51601d3df45c1279"
    ),
    "cg6 cells --kind two-sided": (
        "d083179697a0f95ca4c9784309e514cf2d6c2f9c49676d3d2b653f1a2ba661d0"
    ),
    "cg6 cells --dot": (
        "c81ba3aab7e5a3c277510068e4597e478318216bd1cdedde9072a86724b75ebe"
    ),
    "cg6 ideals": (
        "d9dc6d1c154b43a682eb5a5d2866c094d0ade465516daafe4fe8ca55445a218d"
    ),
    "cg6 cell-module": (
        "22c2557818ecbe532804399b78f84d0822f5e4e0b92a19ec520a236b723fcd5f"
    ),
    "non-associative check": (
        "818a25aa45e4322877f8b89f3f464d0fd160b77bf1262d42c8226a194a217291"
    ),
}


def _non_associative_shadow():
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
    return Shadow(objects=(0,), elements=(e, t, u), table=table)


def _cli_digest(argv, written=None):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    digest = hashlib.sha256(f"{code}\n{out.getvalue()}\0{err.getvalue()}\0".encode())
    if written is not None:
        digest.update(written.read_bytes())
    return digest.hexdigest()


def test_cli_outputs_match_recorded_digests(tmp_path):
    dot = tmp_path / "poset.dot"
    runs = {
        "verify bn --n 1..8": (["verify", "bn", "--n", "1..8"], None),
        "verify clebsch --max 25": (["verify", "clebsch", "--max", "25"], None),
    }
    files = {"bn4": (["bn", "--n", "4"], "1_1"), "cg6": (["clebsch", "--max", "6"], "2")}
    for stem, (build, element) in files.items():
        path = str(tmp_path / f"{stem}.json")
        assert main(["build", *build, "-o", path]) == 0
        runs[f"{stem} check"] = (["check", path], None)
        for kind in ("left", "right", "two-sided"):
            runs[f"{stem} cells --kind {kind}"] = (["cells", path, "--kind", kind], None)
        runs[f"{stem} cells --dot"] = (["cells", path, "--dot", str(dot)], dot)
        runs[f"{stem} ideals"] = (["ideals", path], None)
        runs[f"{stem} cell-module"] = (["cell-module", path, "--left-cell-of", element], None)
    path = tmp_path / "toy.json"
    save_shadow(_non_associative_shadow(), str(path))
    runs["non-associative check"] = (["check", str(path)], None)

    got = {label: _cli_digest(argv, written) for label, (argv, written) in runs.items()}
    assert got == RECORDED_DIGESTS
