"""Self-test of the benchmark: every oracle accepts a real fiatcell output and
rejects the same output with one deliberate corruption; a failing operation
makes a run incorrect unless it shows exactly its operation's known fault;
the tracer keeps stdout byte-identical, survives a missing target and keeps
caches clearable.

    python3 perfbench/check_oracles.py

Exits 0 when every case holds, 1 otherwise. Runs small ranks only (~10 s).
"""

from __future__ import annotations

import copy
import json
import shutil
import sys

import oracles
import run
from oracles import FileShadow, OracleError

FAILURES: list[str] = []


def cli(work, *argv: str) -> bytes:
    result = run.run_process([sys.executable, "-m", "fiatcell", *argv], work)
    if result.code != 0:
        raise SystemExit(f"fiatcell {' '.join(argv)} exited {result.code}: {result.stderr.decode()}")
    return result.stdout


def case(name: str, check, good, corrupt) -> None:
    """check(good) must pass and check(corrupt(copy of good)) must raise."""
    try:
        check(good)
    except OracleError as err:
        FAILURES.append(f"{name}: rejects the real output: {err}")
        return
    bad = corrupt(copy.deepcopy(good))
    try:
        check(bad)
    except OracleError:
        print(f"ok    {name}")
        return
    FAILURES.append(f"{name}: accepts the corrupted output")


def dumps(doc) -> bytes:
    return (json.dumps(doc, indent=2) + "\n").encode()


def bump_first_multiplicity(doc):
    row = next(r for r in doc["table"] if r["result"])
    key = next(iter(row["result"]))
    row["result"][key] += 1
    return doc


def move_triple(doc):
    doc["checked"] += 1
    doc["skipped"] -= 1
    return doc


def move_element(doc):
    doc["classes"][0].append(doc["classes"][1].pop())
    return doc


def bump_ssyt(doc):
    doc["shapes"][-1]["ssyt"] += 1
    return doc


def drop_last_table_row(doc):
    doc["table"].pop()
    return doc


def oracle_cases(work) -> None:
    bn3 = str(work / "bn3.json")
    w6 = str(work / "w6.json")
    cli(work, "build", "bn", "--n", "3", "-o", bn3)
    cli(work, "build", "clebsch", "--max", "6", "-o", w6)
    bn3_doc = json.loads(open(bn3).read())
    w6_doc = json.loads(open(w6).read())
    s3, s6 = FileShadow(bn3_doc), FileShadow(w6_doc)

    case("bn file: one multiplicity bumped", lambda d: oracles.check_bn_file(dumps(d), 3), bn3_doc, bump_first_multiplicity)
    case("window file: one entry dropped", lambda d: oracles.check_window_file(dumps(d), 6), w6_doc, drop_last_table_row)

    doc = json.loads(cli(work, "verify", "bn", "--n", "1..3"))
    case("verify bn: element count off by one", lambda d: oracles.check_verify_bn(d, [1, 2, 3]), doc,
         lambda d: d["results"][2].update(elements=d["results"][2]["elements"] + 1) or d)

    doc = json.loads(cli(work, "verify", "schur", "--n", "1..2", "--r", "1..3"))
    case("verify schur: dominant count off by one", lambda d: oracles.check_verify_schur(d, [1, 2], [1, 2, 3]), doc,
         lambda d: d["results"][-1]["checks"][0].update(witnesses=[d["results"][-1]["checks"][0]["witnesses"][0] + 1]) or d)

    doc = json.loads(cli(work, "build", "schur", "--n", "2", "--r", "3"))
    case("schur report: one SSYT count off by one", lambda d: oracles.check_schur_report(d, 2, 3), doc, bump_ssyt)

    doc = json.loads(cli(work, "check", w6))
    case("window check: one triple moved from skipped to checked", lambda d: oracles.check_check(d, s6), doc, move_triple)

    doc = json.loads(cli(work, "check", bn3))
    case("bn check: one triple moved to checked", lambda d: oracles.check_check(d, s3), doc, move_triple)

    doc = json.loads(cli(work, "cells", bn3, "--kind", "left"))
    case("cells: one element moved to another class", lambda d: oracles.check_cells(d, s3, "left"), doc, move_element)

    dot = str(work / "bn3.dot")
    cli(work, "cells", bn3, "--kind", "two-sided", "--dot", dot)
    text = open(dot).read()
    edge = next(line for line in text.splitlines() if "->" in line)
    case("dot: one covering edge dropped", lambda t: oracles.check_dot(t, s3), text, lambda t: t.replace(edge + "\n", ""))

    doc = json.loads(cli(work, "ideals", bn3))
    case("ideals: count off by one", lambda d: oracles.check_ideals(d, s3), doc, lambda d: d.update(count=d["count"] + 1) or d)
    case("ideals: one member dropped", lambda d: oracles.check_ideals(d, s3), doc,
         lambda d: d["ideals"][-1]["members"].pop() and d)

    doc = json.loads(cli(work, "cell-module", bn3, "--left-cell-of", "1_1"))
    name = next(iter(doc["matrices"]))
    case("cell-module: one matrix entry bumped", lambda d: oracles.check_cell_module(d, s3, "1_1"), doc,
         lambda d: d["matrices"][name][0].__setitem__(0, d["matrices"][name][0][0] + 1) or d)

    out = str(work / "bn3.export.json")
    cli(work, "export", bn3, "-o", out)
    case("export: one multiplicity bumped", lambda d: oracles.check_export(dumps(d), s3), json.loads(open(out).read()),
         bump_first_multiplicity)

    doc = json.loads(cli(work, "verify", "clebsch", "--max", "6"))
    case("verify clebsch: one window triple moved to checked", lambda d: oracles.check_verify_clebsch(d, 6), doc,
         lambda d: move_triple(d["results"][0]["checks"][-1]) and d)


def tracer_cases(work) -> None:
    sys.path.insert(0, str(run.SRC))
    import fiatcell.cli
    import fiatcell.udot
    from tracer import TARGETS, Tracer

    op = run.Op("verify bn --n 1..3", ["verify", "bn", "--n", "1..3"], lambda o, f: None)
    plain = run.run_inprocess(op)
    originals = {name: getattr(fiatcell.udot, name) for name in ("build_bn", "compose", "cell_partition")}
    tracer = Tracer(TARGETS + [("cells", "no_such_function", "span")])
    with tracer:
        traced = run.run_inprocess(op)
        clearable = callable(getattr(fiatcell.udot.build_bn, "cache_clear", None))
        patched = (
            fiatcell.udot.cell_partition is not originals["cell_partition"]
            and fiatcell.cli.build_bn is fiatcell.udot.build_bn is not originals["build_bn"]
        )
    checks = {
        "traced stdout is byte-identical": traced.stdout == plain.stdout and traced.code == plain.code == 0,
        "absent target is listed, not fatal": tracer.absent == ["cells.no_such_function"],
        "names imported into other modules are patched": patched and tracer.value("udot.build_bn", "calls") > 0,
        "build_bn.cache_clear stays reachable": clearable,
        "originals restored after uninstall": all(getattr(fiatcell.udot, k) is v for k, v in originals.items()),
        "spans recorded with parents": any(span["parent"] is not None for span in tracer.spans),
    }
    for name, ok in checks.items():
        if ok:
            print(f"ok    tracer: {name}")
        else:
            FAILURES.append(f"tracer: {name}")


def judge_cases(work) -> None:
    """Needs w6.json in `work` (written by oracle_cases)."""
    ops = {op.label: op for op in run.schur_sweep(work).ops + run.shadow_files(work).ops}
    r8, small = ops["verify schur --n 1..2 --r 8"], ops["verify schur --n 1 --r 1"]
    module, ideals = ops["cell-module w6"], ops["ideals w6"]
    real_module = run.run_cli(module, work)
    bumped = json.loads(real_module.stdout)
    name = next(iter(bumped["matrices"]))
    bumped["matrices"][name][0][0] += 1

    def result(code: int, stdout: bytes = b"", stderr: bytes = b"") -> run.Result:
        return run.Result(code, 0.0, stdout, stderr, {})

    # name -> ((op, result), want (failed, known faults, errors))
    cases = {
        "correct output is neither failed nor wrong": ((small, run.run_cli(small, work)), (0, 0, 0)),
        "r = 8 suite failing with its coset limit is a known fault": ((r8, run.run_cli(r8, work)), (1, 1, 0)),
        "r = 8 suite killed by the timeout is wrong": ((r8, result(-9)), (1, 0, 1)),
        "r = 8 suite exiting 2 for another reason is wrong": ((r8, result(2, stderr=b"error: n must be 1..4")), (1, 0, 1)),
        "a verify suite with a failing check (exit 1) is wrong": ((small, result(1, b'{"status": "fail"}')), (1, 0, 1)),
        "window cell module that is not a representation is a known fault": ((module, real_module), (1, 1, 0)),
        "window cell module with a wrong entry is wrong": ((module, result(0, dumps(bumped))), (1, 0, 1)),
        "window ideals that are not closed are a known fault": ((ideals, run.run_cli(ideals, work)), (1, 1, 0)),
    }
    for name, ((op, res), want) in cases.items():
        outputs = run.Outputs()
        outputs.add(op, res)
        failed, known, errors = outputs.judge()
        if (failed, len(known), len(errors)) == want:
            print(f"ok    judge: {name}")
        else:
            FAILURES.append(f"judge: {name}: failed {failed}, known {known}, errors {errors}")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = run.OUT / "check-oracles"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        oracle_cases(work)
        judge_cases(work)
        tracer_cases(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in FAILURES:
        print(f"FAIL  {failure}")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
