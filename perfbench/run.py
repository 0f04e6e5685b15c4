"""fiatcell benchmark: three CLI workloads, one fresh process per operation.

    python3 perfbench/run.py --workload bn-ladder --seed 1 --seconds 40 --trace 0

With --trace 0 every operation runs as `python -m fiatcell ...` in a fresh
interpreter, from src/ with FIATCELL_THREADS unset, all on one CPU, and the
end-to-end metrics are reported, with times scaled to a reference speed of
the host (Clock). With --trace 1 every operation runs in this process
through fiatcell.cli.main, once untraced and once traced (package caches
cleared before each), and the per-layer metrics are reported. Either way
every output is checked by the independent oracles in oracles.py, outside
the timed region, and the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import oracles
from oracles import OracleError, parse_json

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_PASSES = 2
OP_TIMEOUT_S = 170
# Times are reported at a reference speed of the host (see Clock): how long
# the probe takes at that speed, and how much work may run between probes.
START_REF_S = 0.075
PROBE_EVERY_S = 1.0

# metric names and units are BENCHMARK.json's
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}


class SetupError(Exception):
    pass


@dataclass(frozen=True)
class Fault:
    """A known fault of fiatcell that an operation shows on every run while
    the fault stands: exit `code` with `stderr` in its error stream, or, when
    `law` is set, exit 0 with an output whose one error is that oracle law."""

    code: int = 0
    stderr: bytes = b""
    law: str | None = None

    def shown_by(self, result: "Result", error: Exception | None) -> bool:
        if self.law is not None:
            return result.code == 0 and isinstance(error, OracleError) and error.law == self.law
        return result.code == self.code and self.stderr in result.stderr


@dataclass
class Op:
    """One CLI invocation. `check(stdout, files)` raises OracleError when the
    output is wrong; `files` maps each path in `writes` to its bytes. An
    operation with a `fault` that shows it is counted as failed; any other
    nonzero exit or wrong output makes the run incorrect."""

    label: str
    argv: list[str]
    check: Callable[[bytes, dict[str, bytes]], None]
    writes: tuple[str, ...] = ()
    fault: Fault | None = None


@dataclass
class Workload:
    name: str
    builds: list[tuple[list[str], Callable[[bytes], None]]]  # set-up files: argv ending in "-o PATH", check
    ops: list[Op]
    big: str  # labels of the big and small operations
    small: str


# ---------------------------------------------------------------- workloads


def _json_check(fn):
    def check(stdout: bytes, files: dict[str, bytes]) -> None:
        fn(parse_json(stdout))

    return check


def _file_check(path: str, fn):
    def check(stdout: bytes, files: dict[str, bytes]) -> None:
        oracles.expect(stdout == b"", "unexpected stdout")
        fn(files[path])

    return check


def bn_ladder(work: Path) -> Workload:
    """Normal-form build, associativity sweep and cell engine over ranks 1..8
    in one process, the rank-1 floor, and the rank-8 file write."""
    b8 = str(work / "bn8.json")
    small = Op("verify bn --n 1", ["verify", "bn", "--n", "1"], _json_check(lambda d: oracles.check_verify_bn(d, [1])))
    return Workload(
        "bn-ladder",
        builds=[],
        ops=[
            Op(
                "verify bn --n 1..8",
                ["verify", "bn", "--n", "1..8"],
                _json_check(lambda d: oracles.check_verify_bn(d, list(range(1, 9)))),
            ),
            Op("build bn --n 8", ["build", "bn", "--n", "8", "-o", b8], _file_check(b8, lambda b: oracles.check_bn_file(b, 8)), (b8,)),
        ]
        + [small] * 3,
        big="verify bn --n 1..8",
        small="verify bn --n 1",
    )


def schur_sweep(work: Path) -> Workload:
    """Only the schur layer: enumeration, RSK, round trip, antidominant scan
    and double cosets. Ranks stop at r = 6 and the build at n = 4, r = 4 so
    that three passes fit in a run (r = 7 and n = 4, r = 5 take 7-11 s
    each). The r = 8 suite fails today (exit 2) and is kept so that its fix
    shows; once it passes it meets the same oracles."""
    small = Op(
        "verify schur --n 1 --r 1",
        ["verify", "schur", "--n", "1", "--r", "1"],
        _json_check(lambda d: oracles.check_verify_schur(d, [1], [1])),
    )
    big = Op(
        "build schur --n 4 --r 4",
        ["build", "schur", "--n", "4", "--r", "4"],
        _json_check(lambda d: oracles.check_schur_report(d, 4, 4)),
    )
    return Workload(
        "schur-sweep",
        builds=[],
        ops=[
            Op(
                "verify schur --n 1..3 --r 1..6",
                ["verify", "schur", "--n", "1..3", "--r", "1..6"],
                _json_check(lambda d: oracles.check_verify_schur(d, [1, 2, 3], list(range(1, 7)))),
            ),
            Op(
                "verify schur --n 1..2 --r 8",
                ["verify", "schur", "--n", "1..2", "--r", "8"],
                _json_check(lambda d: oracles.check_verify_schur(d, [1, 2], [8])),
                fault=Fault(code=2, stderr=b"direct coset enumeration is limited to r <= 7"),
            ),
        ]
        + [big] * 2
        + [small] * 4,
        big=big.label,
        small=small.label,
    )


# file stem -> (build argv, file check, element whose left cell is the module)
SHADOW_FILES = {
    "bn8": (["build", "bn", "--n", "8"], lambda b: oracles.check_bn_file(b, 8), "1_2"),
    "bn2": (["build", "bn", "--n", "2"], lambda b: oracles.check_bn_file(b, 2), "1_1"),
    "w30": (["build", "clebsch", "--max", "30"], lambda b: oracles.check_window_file(b, 30), "4"),
    "w6": (["build", "clebsch", "--max", "6"], lambda b: oracles.check_window_file(b, 6), "2"),
}
# On a partial window fiatcell's cell module is not a representation and its
# thick ideals are not closed under the one-round ideals (CHANGES.md, FOUND).
WINDOW_FAULTS = {
    "cell-module": Fault(law=oracles.REPRESENTATION),
    "ideals": Fault(law=oracles.CLOSURE),
}


def shadow_files(work: Path) -> Workload:
    """File verbs on prebuilt shadows: loader and validation on every call,
    two full bn shadows and two partial fusion windows."""
    builds, ops = [], []
    shadows: dict[str, oracles.FileShadow] = {}

    def on(stem, fn):
        # the file is read once, on first use, after set-up has written it
        def check(stdout: bytes, files: dict[str, bytes]) -> None:
            if stem not in shadows:
                shadows[stem] = oracles.FileShadow(parse_json((work / f"{stem}.json").read_bytes()))
            fn(stdout, files, shadows[stem])

        return check

    for stem, (argv, file_check, element) in SHADOW_FILES.items():
        faults = WINDOW_FAULTS if stem.startswith("w") else {}
        path = str(work / f"{stem}.json")
        dot = str(work / f"{stem}.dot")
        export = str(work / f"{stem}.export.json")
        builds.append((argv + ["-o", path], file_check))

        def dot_check(out, files, s, dot=dot):
            oracles.check_cells(parse_json(out), s, "two-sided")
            oracles.check_dot(files[dot].decode(), s)

        def export_check(out, files, s, export=export):
            oracles.expect(out == b"", "unexpected stdout")
            oracles.check_export(files[export], s)

        ops += [
            Op(f"check {stem}", ["check", path], on(stem, lambda o, f, s: oracles.check_check(parse_json(o), s))),
            Op(f"cells {stem} --kind left", ["cells", path, "--kind", "left"], on(stem, lambda o, f, s: oracles.check_cells(parse_json(o), s, "left"))),
            Op(f"cells {stem} --kind right", ["cells", path, "--kind", "right"], on(stem, lambda o, f, s: oracles.check_cells(parse_json(o), s, "right"))),
            Op(f"cells {stem} --kind two-sided --dot", ["cells", path, "--kind", "two-sided", "--dot", dot], on(stem, dot_check), (dot,)),
            Op(
                f"ideals {stem}",
                ["ideals", path],
                on(stem, lambda o, f, s: oracles.check_ideals(parse_json(o), s)),
                fault=faults.get("ideals"),
            ),
            Op(
                f"cell-module {stem}",
                ["cell-module", path, "--left-cell-of", element],
                on(stem, lambda o, f, s, e=element: oracles.check_cell_module(parse_json(o), s, e)),
                fault=faults.get("cell-module"),
            ),
            Op(f"export {stem}", ["export", path, "-o", export], on(stem, export_check), (export,)),
        ]
    big = Op(
        "verify clebsch --max 25",
        ["verify", "clebsch", "--max", "25"],
        _json_check(lambda d: oracles.check_verify_clebsch(d, 25)),
    )
    small = next(op for op in ops if op.label == "cells w6 --kind left")
    return Workload("shadow-files", builds=builds, ops=ops + [big] * 3 + [small] * 2, big=big.label, small=small.label)


WORKLOADS = {"bn-ladder": bn_ladder, "schur-sweep": schur_sweep, "shadow-files": shadow_files}


# ---------------------------------------------------------------- running


@dataclass
class Result:
    code: int
    seconds: float
    stdout: bytes
    stderr: bytes
    files: dict[str, bytes]
    maxrss_kb: int = 0


def _read_files(paths) -> dict[str, bytes]:
    out = {}
    for p in paths:
        with contextlib.suppress(OSError):
            out[p] = Path(p).read_bytes()
    return out


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("FIATCELL_THREADS", None)
    return env


def run_process(argv: list[str], work: Path) -> Result:
    """Run one command to completion in a fresh interpreter and collect its
    exit code, wall time, output and max RSS."""
    out_path, err_path = work / "op.stdout", work / "op.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, cwd=SRC, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Result(code, seconds, out_path.read_bytes(), err_path.read_bytes(), {}, usage.ru_maxrss)


def pin_to_one_cpu() -> None:
    """Run this process and every child on one CPU, the highest it may use.
    Each operation is one serial process, so it loses nothing, and the probes
    then time the same CPU as the operations between them."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def slowness() -> float:
    """How slow the host runs now against the reference speed (1.0 there):
    the median of three timings of a bare interpreter start
    (`python -I -c pass`) over START_REF_S. The probe runs no fiatcell code.
    Of the probes tried it tracked the operations' drift best: a start-up
    reads files, unmarshals code and runs much of the interpreter, while a
    small pure-Python loop, which stays in cache, slowed much less than the
    operations did."""
    starts = []
    for _ in range(3):
        start = perf_counter()
        subprocess.run([sys.executable, "-I", "-c", "pass"], check=True)
        starts.append(perf_counter() - start)
    return statistics.median(starts) / START_REF_S


class Clock:
    """Wall times scaled to the reference speed of the host.

    The host's speed drifts by up to 2x over seconds to minutes, and
    processes started one after another on one CPU all feel it. So the
    host's slowness is probed before the first step, after any step that
    ends PROBE_EVERY_S or more of unprobed work, and at the end, and each
    step's wall time is divided by the mean of the probes on either side."""

    def __init__(self):
        self.probes = [slowness()]
        self.steps: list[tuple[float, int]] = []  # wall seconds, index of the probe before
        self.unprobed = 0.0

    def step(self, seconds: float) -> int:
        """Record one step's wall time; returns its index in scaled()."""
        self.steps.append((seconds, len(self.probes) - 1))
        self.unprobed += seconds
        if self.unprobed >= PROBE_EVERY_S:
            self.probes.append(slowness())
            self.unprobed = 0.0
        return len(self.steps) - 1

    def scaled(self) -> list[float]:
        if self.unprobed:
            self.probes.append(slowness())
            self.unprobed = 0.0
        return [seconds * 2 / (self.probes[i] + self.probes[i + 1]) for seconds, i in self.steps]


def run_cli(op: Op, work: Path) -> Result:
    result = run_process([sys.executable, "-m", "fiatcell", *op.argv], work)
    result.files = _read_files(op.writes)
    return result


def run_inprocess(op: Op) -> Result:
    """fiatcell.cli.main(argv) in this process, after clearing the package's
    caches; stdout and stderr are captured."""
    import fiatcell.cli
    from tracer import clear_package_caches

    clear_package_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = fiatcell.cli.main(list(op.argv))
        seconds = perf_counter() - start
    return Result(code, seconds, out.getvalue().encode(), err.getvalue().encode(), _read_files(op.writes))


def set_up(workload: Workload, work: Path) -> tuple[float, bytes]:
    """Cold import plus the workload's input files, each in a fresh process;
    returns the wall time and a digest of the files written."""
    start = perf_counter()
    steps = [["-c", "import fiatcell"]] + [["-m", "fiatcell", *argv] for argv, _ in workload.builds]
    for step in steps:
        result = run_process([sys.executable, *step], work)
        if result.code != 0:
            raise SetupError(f"set-up step {step} exited {result.code}: {result.stderr.decode()[-2000:]}")
    seconds = perf_counter() - start
    digest = hashlib.sha256()
    for argv, _ in workload.builds:
        digest.update(Path(argv[-1]).read_bytes())
    return seconds, digest.digest()


def check_setup_files(workload: Workload) -> list[str]:
    errors = []
    for argv, check in workload.builds:
        try:
            check(Path(argv[-1]).read_bytes())
        except OracleError as err:
            errors.append(f"set-up {' '.join(argv[:-2])}: {err}")
    return errors


def passes(seconds: float, least: int):
    """Yield 0, 1, 2, ... for whole passes: `least` at first, then another
    while one more (judged by the last pass) fits in `seconds`."""
    start = perf_counter()
    last = 0.0
    n = 0
    while n < least or perf_counter() - start + last <= seconds:
        begin = perf_counter()
        yield n
        last = perf_counter() - begin
        n += 1


class Outputs:
    """Distinct results seen in a run, with how often each was seen; each is
    judged once."""

    def __init__(self):
        self.seen: dict[bytes, list] = {}  # digest -> [op, result, times seen]

    def add(self, op: Op, result: Result) -> None:
        h = hashlib.sha256(op.label.encode())
        h.update(result.code.to_bytes(4, "little", signed=True))
        for part in (result.stdout, result.stderr):
            h.update(len(part).to_bytes(8, "little") + part)
        for path in sorted(result.files):
            h.update(path.encode() + b"\0" + result.files[path])
        self.seen.setdefault(h.digest(), [op, result, 0])[2] += 1

    def judge(self) -> tuple[int, list[str], list[str]]:
        """(failed, known, errors): the attempts whose result is not right,
        the known faults among them, and every other wrong result."""
        failed, known, errors = 0, [], []
        for op, result, times in self.seen.values():
            error = None
            if result.code == 0:
                try:
                    op.check(result.stdout, result.files)
                    continue
                except (OracleError, KeyError, IndexError, TypeError, ValueError, AttributeError) as err:
                    # a malformed document fails its oracle like a wrong one
                    error = err
            failed += times
            if op.fault is not None and op.fault.shown_by(result, error):
                known.append(f"{op.label} ({times}x): {error or result.stderr.decode().strip()}")
            elif error is None:
                errors.append(f"{op.label}: exit {result.code}: {result.stderr.decode()[-500:].strip()}")
            else:
                errors.append(f"{op.label}: {type(error).__name__}: {error}")
        return failed, known, errors


def measure(workload: Workload, work: Path, seed: int, seconds: float) -> tuple[dict, int, int, list[str], list[str]]:
    """End-to-end run: every operation a fresh process, passes until `seconds`.

    Everything runs on one CPU, and every time is taken at the reference
    speed (Clock). A set-up runs once ahead and again before every pass, so
    that its samples, like those of the operations, are spread over the whole
    run. Every metric is a median over the run; setup_s, whose first sample
    may include writing the bytecode cache, is one too."""
    pin_to_one_cpu()
    clock = Clock()
    setups: list[tuple[int, bytes]] = []  # clock step, digest of the files written

    def timed_set_up():
        spent, digest = set_up(workload, work)
        setups.append((clock.step(spent), digest))

    timed_set_up()
    rng = random.Random(seed)
    outputs = Outputs()
    passes_run: list[list[int]] = []  # the clock steps of each pass
    samples: dict[str, list[int]] = {}
    peak_kb = attempted = 0
    for _ in passes(seconds, MIN_PASSES):
        timed_set_up()
        order = list(workload.ops)
        rng.shuffle(order)
        steps = []
        for op in order:
            result = run_cli(op, work)
            steps.append(clock.step(result.seconds))
            attempted += 1
            peak_kb = max(peak_kb, result.maxrss_kb)
            samples.setdefault(op.label, []).append(steps[-1])
            outputs.add(op, result)
        passes_run.append(steps)
    at_ref = clock.scaled()
    metrics = {
        "setup_s": statistics.median(at_ref[i] for i, _ in setups),
        "pass_s": statistics.median(sum(at_ref[i] for i in steps) for steps in passes_run),
        "big_op_s": statistics.median(at_ref[i] for i in samples[workload.big]),
        "small_op_s": statistics.median(at_ref[i] for i in samples[workload.small]),
        "peak_rss_mb": peak_kb / 1024,
    }
    wall = [seconds for seconds, _ in clock.steps]
    print(
        f"wall time: {sum(wall):.3f} s over {len(wall)} steps, {sum(at_ref):.3f} s at the reference speed;"
        f" host slowness over {len(clock.probes)} probes: median {statistics.median(clock.probes):.3f},"
        f" {min(clock.probes):.3f} to {max(clock.probes):.3f}"
    )
    for label in (workload.big, workload.small):
        print(f"{label}: " + ", ".join(f"{wall[i]:.3f} s ({at_ref[i]:.3f})" for i in samples[label]) + " (at the reference speed)")
    errors = check_setup_files(workload)
    if len({digest for _, digest in setups}) != 1:
        errors.append("set-up wrote different input files in one run")
    failed, known, wrong = outputs.judge()
    return {key: metrics[key] for key in END_TO_END}, attempted, failed, known, errors + wrong


def trace(workload: Workload, work: Path, seed: int, seconds: float) -> tuple[dict, int, int, list[str], list[str]]:
    """Per-layer run: every operation in process, untraced then traced; spans
    go to .perfbench_out/trace-<workload>-seed<seed>.jsonl."""
    from tracer import Tracer

    os.environ.pop("FIATCELL_THREADS", None)  # serial, as in the end-to-end run
    set_up(workload, work)
    errors = check_setup_files(workload)
    sys.path.insert(0, str(SRC))
    import fiatcell.cli  # noqa: F401  (loads every module the tracer patches)

    rng = random.Random(seed)
    outputs = Outputs()
    tracer = Tracer()
    per_pass: list[dict] = []
    spans: list[dict] = []
    attempted = 0
    for n in passes(seconds, 1):
        order = list(workload.ops)
        rng.shuffle(order)
        tracer.reset()
        untraced = traced = 0.0
        for i, op in enumerate(order):
            plain = run_inprocess(op)
            tracer.op = f"{n}:{i}:{op.label}"
            with tracer:
                result = run_inprocess(op)
            untraced += plain.seconds
            traced += result.seconds
            if (plain.code, plain.stdout, plain.files) != (result.code, result.stdout, result.files):
                errors.append(f"{op.label}: traced output differs from untraced output")
            attempted += 1
            outputs.add(op, result)
        per_pass.append(layer_metrics(tracer, traced - untraced))
        spans += tracer.spans
    with open(OUT / f"trace-{workload.name}-seed{seed}.jsonl", "w") as fh:
        fh.write(json.dumps({"workload": workload.name, "seed": seed, "absent": tracer.absent, "passes": per_pass}) + "\n")
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    if tracer.absent:
        print(f"traced names absent from fiatcell: {', '.join(tracer.absent)}", file=sys.stderr)
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in PER_LAYER}
    failed, known, wrong = outputs.judge()
    return metrics, attempted, failed, known, errors + wrong


def layer_metrics(tracer, overhead: float) -> dict[str, float]:
    calls = tracer.value("cells.principal_ideal", "calls")
    special = {
        "shadow.triples_checked": tracer.counters.get("shadow.triples_checked", 0),
        "shadow.triples_skipped": tracer.counters.get("shadow.triples_skipped", 0),
        "cells.principal_ideal.distinct": len(tracer.ideal_keys),
        "cells.principal_ideal.useful_ratio": len(tracer.ideal_keys) / calls if calls else 0.0,
        "trace.overhead_s": overhead,
    }
    out = {}
    for key in PER_LAYER:
        if key in special:
            out[key] = special[key]
        else:
            function, stat = key.rsplit(".", 1)
            out[key] = tracer.value(function, stat)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fiatcell" / "__main__.py").is_file():
        print(f"error: no fiatcell package under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir()
    try:
        workload = WORKLOADS[args.workload](work)
        run = trace if args.trace else measure
        metrics, attempted, failed, known, errors = run(workload, work, args.seed, args.seconds)
    except SetupError as err:
        print(f"error: set-up failed: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for message in errors:
        print(f"incorrect: {message}", file=sys.stderr)
    print(f"{args.workload}: attempted {attempted}, failed {failed}, correct {not errors}")
    for message in known:
        print(f"  known fault: {message}")
    for key, value in metrics.items():
        print(f"  {key:40s} {value:14.6f} {UNITS[key]}")
    doc = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": UNITS[key]} for key, value in metrics.items()},
    }
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
