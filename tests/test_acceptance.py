"""Acceptance gate: one test per advertised guarantee, one line each under
pytest -v. Time budgets are asserted where the guarantee includes one."""

import hashlib
import io
import json
import runpy
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from math import comb
from pathlib import Path

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
from fiatcell.bnverify import bn_cells_report
from udot_oracle import oracle_dp_coeffs
from udot_rewriter import dp_normalize


def test_bn_associativity_and_hom_pair_counts():
    for n in range(1, 7):
        start = time.monotonic()
        s = build_bn(n)
        report = check_associativity(s)
        assert report["status"] == "pass" and report["skipped"] == 0, (n, report)
        for i in range(n + 1):
            for j in range(n + 1):
                count = sum(
                    1 for e in s.elements if (e.source, e.target) == (i, j)
                )
                assert count == min(i, j, n - i, n - j) + 1, (n, i, j)
        assert time.monotonic() - start < 10, f"rank {n} over budget"
    assert len(build_bn(2).elements) == 10


def test_bn_exchange_and_merge_identities():
    for n in range(1, 7):
        build_bn(n)  # cached, outside the budget
    start = time.monotonic()
    for n in range(1, 7):
        for check in verify_relations(n):
            assert check["status"] == "pass", (n, check)
    assert time.monotonic() - start < 1


def test_bn_cell_structure_and_m_statistic():
    start = time.monotonic()
    for n in range(1, 7):
        s = build_bn(n)
        assert len(cell_partition(s, "two-sided").classes) == n // 2 + 1
        for check in bn_cells_report(n):
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
        action = defining_action(n)
        for e in s.elements:
            entries = {
                (i, j): v
                for i, row in enumerate(cm.matrices[e])
                for j, v in enumerate(row)
                if v
            }
            assert entries == {(e.target, e.source): action[e]}, (n, e.name)


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
    assert associativity_unbounded(25) == {
        "check": "fusion-associativity-unbounded",
        "status": "pass",
        "witnesses": [],
    }
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
        ideals = thick_ideals(poset)
        assert len(ideals) == len(antichains(poset)) == len(
            upsets_by_enumeration(poset)
        )
    for n in range(1, 7):
        assert len(thick_ideals(cell_poset(build_bn(n)))) == n // 2 + 2


def test_verify_reports_are_byte_identical(child_env):
    def run():
        proc = subprocess.run(
            [sys.executable, "-m", "fiatcell", "verify", "bn", "--n", "1..6"],
            capture_output=True,
            text=True,
            env=child_env,
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
    "verify clebsch --max 90": (
        "504c19344ae8751d455a4a00dd34d022c33f810c4140b68073c7eb7753f04fae"
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
    "bn4 export": (
        "99890404f1a3346d0b9db0101a62b17c1bf4eb2ee8095c5c8079819dfa29092a"
    ),
    "cg6 export": (
        "b6cece0015658dd648a9df79275b85cec4142169257a609b489959485b788482"
    ),
    "non-associative check": (
        "818a25aa45e4322877f8b89f3f464d0fd160b77bf1262d42c8226a194a217291"
    ),
    "non-associative check with involution": (
        "58a9b1cdf64c0cc5819f8544abaac2b848b1e3786b14d7f5acf18deb5eedb337"
    ),
    "bn8 check": (
        "ad6ade0f60e2187c0630650ca17d0d5e3c72b8e161a83c52a52e55bf140f3591"
    ),
    "verify schur": (
        "1a2dd1dcc2124377f66bd79c018f04377e9084fd9899bb3b3f800c9d1a62df26"
    ),
    "verify schur --n 1..2 --r 8": (
        "59b239b0ef52e36c09f9ae23d8a9e6e8b928bcafc7a89d413a28beb68de41a21"
    ),
    "verify schur --n 3 --r 8": (
        "f6941161bc858b263be9b8ccca79fba664c7e96e433cfa9cc6ef9865d0cdd9c1"
    ),
    "build schur --n 4 --r 4": (
        "a69f6ded87cd176e81f459f436054289a713d9b76c34bfb26578904838ff2dfe"
    ),
    "build schur --n 4 --r 5": (
        "83eb7f73eef05499c8d74aaabc6b41bd45bc97d9c394f74d11b6c5af1743bc61"
    ),
    "build schur --n 2 --r 3 -o FILE": (
        "2416cfe774d4d7f504dfa381d4031880bf67bdfa40d1574f54aa70bdef99faac"
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


def _non_associative_shadow_with_involution():
    # x* = y; every product is 0 but y x = e, so (x y) x = 0 while
    # x (y x) = x: the first failing triple has the middle y, whose star x
    # comes first, and is the dual of (y, x, y)
    e = Element("e", 0, 0, is_identity=True)
    x = Element("x", 0, 0)
    y = Element("y", 0, 0)
    table = {(a, b): Decomposition() for a in (x, y) for b in (x, y)}
    for a in (e, x, y):
        table[(a, e)] = Decomposition({a: 1})
        table[(e, a)] = Decomposition({a: 1})
    table[(y, x)] = Decomposition({e: 1})
    return Shadow(objects=(0,), elements=(e, x, y), table=table, involution={e: e, x: y, y: x})


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
        "verify clebsch --max 90": (["verify", "clebsch", "--max", "90"], None),
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
        runs[f"{stem} export"] = (["export", path], None)
    path = tmp_path / "toy.json"
    save_shadow(_non_associative_shadow(), str(path))
    runs["non-associative check"] = (["check", str(path)], None)
    path = tmp_path / "dual.json"
    save_shadow(_non_associative_shadow_with_involution(), str(path))
    runs["non-associative check with involution"] = (["check", str(path)], None)
    path = tmp_path / "bn8.json"
    assert main(["build", "bn", "--n", "8", "-o", str(path)]) == 0
    runs["bn8 check"] = (["check", str(path)], None)
    runs["verify schur"] = (["verify", "schur"], None)
    runs["verify schur --n 1..2 --r 8"] = (["verify", "schur", "--n", "1..2", "--r", "8"], None)
    runs["verify schur --n 3 --r 8"] = (["verify", "schur", "--n", "3", "--r", "8"], None)
    runs["build schur --n 4 --r 4"] = (["build", "schur", "--n", "4", "--r", "4"], None)
    runs["build schur --n 4 --r 5"] = (["build", "schur", "--n", "4", "--r", "5"], None)
    report = tmp_path / "schur.json"
    runs["build schur --n 2 --r 3 -o FILE"] = (
        ["build", "schur", "--n", "2", "--r", "3", "-o", str(report)],
        report,
    )

    got = {label: _cli_digest(argv, written) for label, (argv, written) in runs.items()}
    assert got == RECORDED_DIGESTS


DEMOS = Path(__file__).resolve().parent.parent / "demos"

# SHA-256 of the stdout of each demo.
RECORDED_DEMO_DIGESTS = {
    "custom_shadow.py": (
        "f8a089431c248ae70cd5f2ef9859810cf58ca3721fc9eb64dfc2a5364e681e6f"
    ),
    "divided_power_tour.py": (
        "73103d41bc17b90e2c0d78bb766b20c87e2247a697dd2f3b2a829cbe099190f1"
    ),
    "fusion_window.py": (
        "20b233256a41721ba1a1186f9e4458d72e195b43102f1e55154dcb4e850605de"
    ),
    "ideals_and_quotients.py": (
        "f94d0c81ff961194dc16be1daa0fee664753c7956990631db3749a9a9d9ecf8e"
    ),
    "rsk_cells.py": (
        "e05bcd84e588d675caff29ffc2f44855fae6713802badbe541df12303b6d96f9"
    ),
}


def test_demos_match_recorded_digests():
    got = {}
    for path in sorted(DEMOS.glob("*.py")):
        out = io.StringIO()
        with redirect_stdout(out):
            runpy.run_path(str(path), run_name="__main__")
        got[path.name] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert got == RECORDED_DEMO_DIGESTS


# SHA-256 of the shadow file each build writes.
RECORDED_BUILD_DIGESTS = {
    "bn --n 8": "46ea5613acad80bc6572d86ecfa9cce35e84a4b8985300f16bec586fd8beb112",
    "clebsch --max 30": "13409ee7a2a63f7ac9f1a4cc3c8429bd60b1414ef75fe651e775f373220934fc",
}


def test_built_files_match_recorded_digests(tmp_path):
    got = {}
    for label in RECORDED_BUILD_DIGESTS:
        path = tmp_path / "built.json"
        assert main(["build", *label.split(), "-o", str(path)]) == 0
        got[label] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert got == RECORDED_BUILD_DIGESTS
