"""Acceptance gate: one test per advertised guarantee, one line each under
pytest -v. Time budgets are asserted where the guarantee includes one."""

import json
import subprocess
import sys
import time
from itertools import product
from math import comb

from fiatcell import (
    build_bn,
    cell_module,
    cell_partition,
    cell_poset,
    cg_op,
    check_associativity,
    defining_action,
    dp_normalize,
    recursion_check,
    single_cell_check,
    thick_ideals,
    upsets_by_enumeration,
    verify_relations,
    verify_schur,
    window_shadow,
)
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
