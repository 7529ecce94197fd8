"""Scenario benchmark for setflow.

Usage, from the repository root::

    python3 bench/run.py --workload builtin_suite --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

The scenario documents of a workload are generated from the seed
(``workloads.py``) and run serially, in this process, through the public
entry ``setflow.cli.main(["run", DOC, "--out", DIR, "--jobs", "1"])``, one
document per call.  Every run is verified: exit code, each check's
``passed`` flag, expected verdicts, and CSV/JSON artifacts that exist and
parse.  ``--trace 0`` reports the end-to-end metrics, with pass timings in
units of a yardstick kernel timed around every document (see
``yardstick``); ``--trace 1`` runs one untraced and one traced pass, asserts
that both wrote byte-identical artifacts, and reports the per-layer
metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a results file with the environment goes to
``bench/.work/results/``.  The exit code is 0 only when every run was
correct.  ``--workload all`` runs each workload in a child process and
prints every metric with its unit.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import tracing
import workloads
from setup_probe import prepare

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
PROBE = BENCH / "setup_probe.py"
SETUP_PROBES = 5
SETUP_TIMEOUT = 120.0
# Benchmark-side bound on the closed-form area error of the cyclic k=3 flow.
CYCLIC3_RTOL = 1e-3


# ---------------------------------------------------------------------------
# running and verifying documents


@dataclass
class Record:
    """One ``setflow run`` of one document, with the yardstick around it."""

    doc: dict
    code: int
    seconds: float
    cpu: float
    ref_wall: float = 1.0
    ref_cpu: float = 1.0
    problems: list = field(default_factory=list)


@dataclass
class PassResult:
    """One pass; ``tol_records`` are the runs that met the accuracy target."""

    records: list
    tol_records: list = field(default_factory=list)
    tol_errors: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(r.seconds for r in self.records)

    @property
    def cpu(self) -> float:
        return sum(r.cpu for r in self.records)

    @property
    def wall_norm(self) -> float:
        return sum(r.seconds / r.ref_wall for r in self.records)

    @property
    def cpu_norm(self) -> float:
        return sum(r.cpu / r.ref_cpu for r in self.records)

    @property
    def tol_seconds(self) -> float:
        return sum(r.seconds for r in self.tol_records)

    @property
    def tol_norm(self) -> float:
        return sum(r.seconds / r.ref_wall for r in self.tol_records)

    @property
    def steps(self) -> int:
        return sum(workloads.flow_steps(r.doc) for r in self.records)

    @property
    def tol_steps(self) -> int:
        return sum(workloads.flow_steps(r.doc) for r in self.tol_records)


# Host-speed yardstick.  On a shared host the CPU throughput of one process
# can swing by 2x within seconds and drift by 30% over minutes, so raw
# seconds from runs minutes apart are not comparable.  A fixed kernel of
# small and large rFFTs and interpreter work, run by the benchmark (never by
# setflow) before the first document of a pass and after each document,
# measures the host's speed around every run; the ``*_norm`` metrics are
# run times in units of the yardstick's time.
_YARD_SMALL = np.linspace(0.0, 1.0, 512)
_YARD_LARGE = np.linspace(0.0, 1.0, 8192)
YARDSTICK_ITERATIONS = 10000


def yardstick() -> tuple:
    """(wall, cpu) seconds of one run of the reference kernel."""
    acc = 0.0
    start, cpu_start = perf_counter(), process_time()
    for i in range(YARDSTICK_ITERATIONS):
        spectrum = np.fft.rfft(_YARD_SMALL)
        acc += float(np.dot(spectrum.real, spectrum.real))
        if i % 8 == 0:
            acc += float(np.fft.rfft(_YARD_LARGE)[1].real)
        pair = {"i": i, "next": [i, i + 1]}
        for j in range(10):
            acc += pair["next"][1] - pair["i"] + 0.5 * j
    return perf_counter() - start, process_time() - cpu_start


def write_documents(docs, directory: Path) -> list:
    directory.mkdir(parents=True)
    paths = []
    for doc in docs:
        path = directory / f"{doc['name']}.scenario.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        paths.append(path)
    return paths


def run_document(cli, path: Path, out_dir: Path) -> tuple:
    """(exit code, wall seconds, CPU seconds) of one CLI run, output dropped.

    An exception escaping the CLI is printed and counted as exit code -1, so
    one crashing document fails its run instead of the whole benchmark.
    """
    with contextlib.redirect_stdout(io.StringIO()):
        start, cpu_start = perf_counter(), process_time()
        try:
            code = cli.main(["run", str(path), "--out", str(out_dir), "--jobs", "1"])
        except Exception:
            traceback.print_exc()
            code = -1
        seconds, cpu = perf_counter() - start, process_time() - cpu_start
    return code, seconds, cpu


def read_report(doc: dict, out_dir: Path):
    """The JSON report of a run, or None when it is missing or unparsable."""
    try:
        return json.loads((out_dir / f"{doc['name']}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def read_csv(path: Path) -> tuple:
    """(header, float rows) of a trajectory CSV; raises ValueError if malformed."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if not rows or not rows[0] or rows[0][0] != "t":
        raise ValueError("CSV header must start with 't'")
    header = rows[0]
    if any(len(row) != len(header) for row in rows[1:]):
        raise ValueError("CSV rows differ in width from the header")
    return header, np.array(rows[1:], dtype=float).reshape(len(rows) - 1, len(header))


def closed_form_errors(report) -> list:
    if report is None:
        return []
    return [float(c["details"]["max_rel_error"]) for c in report.get("checks", [])
            if c.get("kind") == "closed_form_area"]


def cyclic3_error(header, rows) -> float:
    """Worst relative deviation of the CSV's V from the k=3 closed form."""
    v = rows[:, header.index("V")]
    ref = workloads.cyclic3_reference_area(rows[:, 0], v[0], rows[0, header.index("W1")],
                                           workloads.CYCLIC3_PSI)
    return float(np.max(np.abs(v - ref) / ref))


def verify(record: Record, out_dir: Path) -> list:
    """Closed-form errors of a run; appends what is wrong to ``record.problems``."""
    doc, problems = record.doc, record.problems
    if record.code != 0:
        problems.append(f"exit code {record.code}")
    report = read_report(doc, out_dir)
    if report is None:
        problems.append("JSON report missing or unparsable")
        return []
    checks = report.get("checks", [])
    if report.get("passed") is not True:
        problems.append("report says not passed")
    if len(checks) != len(doc["checks"]):
        problems.append(f"{len(checks)} check results for {len(doc['checks'])} checks")
    for spec, result in zip(doc["checks"], checks):
        if result.get("passed") is not True:
            problems.append(f"check {spec['kind']} failed")
        expect, kind = spec.get("expect"), result.get("details", {}).get("kind")
        if isinstance(expect, str) and kind != expect:
            problems.append(f"check {spec['kind']}: verdict {kind!r}, expected {expect!r}")
    try:
        header, rows = read_csv(out_dir / f"{doc['name']}.csv")
    except (OSError, ValueError) as exc:
        problems.append(f"CSV missing or unparsable: {exc}")
        return closed_form_errors(report)
    if len(rows) != report.get("trajectory", {}).get("frames"):
        problems.append(f"CSV has {len(rows)} rows, report says "
                        f"{report.get('trajectory', {}).get('frames')} frames")
    errors = closed_form_errors(report)
    if doc["params"]["source"].get("B") == workloads.ROTATION_120:
        error = cyclic3_error(header, rows)
        if not error <= CYCLIC3_RTOL:
            problems.append(f"cyclic3 closed-form error {error:.3g} > {CYCLIC3_RTOL:g}")
        errors.append(error)
    return errors


def run_pass(cli, workload: str, plan, out_dir: Path) -> PassResult:
    """One timed pass over the workload's documents, then verification."""
    out_dir.mkdir(parents=True)
    gc.collect()
    records = []
    before = yardstick()

    def run(item) -> Record:
        nonlocal before
        path, doc = item
        code, seconds, cpu = run_document(cli, path, out_dir)
        after = yardstick()
        records.append(Record(doc, code, seconds, cpu, ref_wall=(before[0] + after[0]) / 2,
                              ref_cpu=(before[1] + after[1]) / 2))
        before = after
        return records[-1]

    if workload != "accuracy_ladder":
        for item in plan:
            run(item)
        result = PassResult(records=records, tol_records=records)
        result.tol_errors = [e for r in records for e in verify(r, out_dir)]
        return result

    def run_rung(item):
        record = run(item)
        errors = closed_form_errors(read_report(record.doc, out_dir))
        return (max(errors) if errors else float("inf")), record

    hits = []
    for _, rungs in plan:
        hits.append(workloads.climb_ladder(run_rung, rungs, workloads.LADDER_TOL))
        if hits[-1] is None:
            records[-1].problems.append(
                f"no rung reached closed-form error <= {workloads.LADDER_TOL:g}")
    for record in records:
        verify(record, out_dir)
    hits = [hit for hit in hits if hit is not None]
    return PassResult(records=records, tol_records=[record for _, _, record in hits],
                      tol_errors=[error for _, error, _ in hits])


def plan_for(workload: str, seed: int, directory: Path):
    """Write the workload's documents; return the run plan over (path, doc)."""
    if workload == "accuracy_ladder":
        plan = []
        for name, rungs in workloads.ladder_rungs(seed):
            paths = write_documents(rungs, directory / name)
            plan.append((name, list(zip(paths, rungs))))
        return plan
    docs = workloads.documents(workload, seed)
    return list(zip(write_documents(docs, directory), docs))


def plan_paths(workload: str, plan) -> list:
    if workload == "accuracy_ladder":
        return [path for _, rungs in plan for path, _ in rungs]
    return [path for path, _ in plan]


def differing_artifacts(left: Path, right: Path) -> list:
    """Names of artifacts that differ between two output directories."""
    names = sorted({p.name for p in left.iterdir()} | {p.name for p in right.iterdir()})
    return [n for n in names
            if not ((left / n).is_file() and (right / n).is_file()
                    and (left / n).read_bytes() == (right / n).read_bytes())]


# ---------------------------------------------------------------------------
# measurements


def time_setup(paths) -> list:
    """Seconds from spawn to exit of fresh interpreters running the set-up.

    ``Popen.wait`` with a timeout polls in steps of up to 50 ms, which would
    quantize the timing, so the wait blocks and a watchdog kills a child
    that outlives ``SETUP_TIMEOUT``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, str(PROBE), *map(str, paths)], cwd=ROOT,
                                env=env, stdout=subprocess.DEVNULL)
        watchdog = threading.Timer(SETUP_TIMEOUT, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        times.append(perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)
    return times


def end_to_end_metrics(setup_times, passes) -> dict:
    wall = statistics.median(p.wall_norm for p in passes)
    first = passes[0]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_norm": (wall, "ref"),
        "cpu_norm": (statistics.median(p.cpu_norm for p in passes), "ref"),
        "steps_per_ref": (first.steps / wall, "1/ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "max_rel_error": (max(first.tol_errors, default=0.0), "ratio"),
        "time_to_tol_norm": (statistics.median(p.tol_norm for p in passes), "ref"),
        "steps_to_tol": (first.tol_steps, "count"),
    }


def raw_seconds(passes) -> dict:
    """The end-to-end timings in plain seconds, for the results file."""
    wall = statistics.median(p.wall for p in passes)
    return {
        "wall_s": wall,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "steps_per_s": passes[0].steps / wall,
        "time_to_tol_s": statistics.median(p.tol_seconds for p in passes),
        "yardstick_s": statistics.median(r.ref_wall for p in passes for r in p.records),
    }


BODIES_TIMED = ("area", "mixed_area", "linear_image", "perimeter", "hausdorff_distance",
                "convexity_defect")
COMPARISON_CHECKS = ("check_xi0_stability", "check_wazewski", "lyapunov_quadratic_check",
                     "bound_check", "check_practical")


def per_layer_metrics(tracer, output_bytes: int, overhead_s: float) -> dict:
    out = {}
    for fn in BODIES_TIMED:
        out[f"bodies.{fn}.calls"] = (tracer.calls(f"bodies.{fn}"), "count")
        out[f"bodies.{fn}.self_s"] = (tracer.self_time(f"bodies.{fn}"), "s")
    images = tracer.calls("bodies.linear_image")
    out["bodies.convexify.calls"] = (tracer.calls("bodies.convexify"), "count")
    out["bodies.convexify.per_image"] = (
        tracer.calls("bodies.convexify") / images if images else 0.0, "ratio")
    steps = tracer.calls("flow.step")
    out["flow.step.calls"] = (steps, "count")
    out["flow.step.self_s"] = (tracer.self_time("flow.step"), "s")
    out["flow.step.us_per_call"] = (
        1e6 * tracer.inclusive("flow.step") / steps if steps else 0.0, "us")
    for name in ("flow.expm", "flow.source", "flow.evolve",
                 "comparison.integrate", "comparison.rhs"):
        out[f"{name}.calls"] = (tracer.calls(name), "count")
        out[f"{name}.self_s"] = (tracer.self_time(name), "s")
    for fn in COMPARISON_CHECKS:
        out[f"comparison.{fn}.s"] = (tracer.inclusive(f"comparison.{fn}"), "s")
    for fn in ("linearize", "ball_source_fixed_point"):
        out[f"certificates.{fn}.calls"] = (tracer.calls(f"certificates.{fn}"), "count")
        out[f"certificates.{fn}.s"] = (tracer.inclusive(f"certificates.{fn}"), "s")
    out["scenarios.parse_scenario.self_s"] = (tracer.self_time("scenarios.parse_scenario"), "s")
    out["scenarios.run_scenario.self_s"] = (tracer.self_time("scenarios.run_scenario"), "s")
    out["scenarios.output_bytes"] = (output_bytes, "bytes")
    out["cli.main.self_s"] = (tracer.self_time("cli.main"), "s")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def isolation(tracer, traced_wall: float) -> dict:
    """Shares of the traced pass's wall time, by layer self time and by step."""
    shares = {f"{layer}.self_share": tracer.layer_self_time(layer) / traced_wall
              for layer in tracing.LAYERS}
    shares["bodies+flow.self_share"] = shares["bodies.self_share"] + shares["flow.self_share"]
    shares["flow.step.inclusive_share"] = tracer.inclusive("flow.step") / traced_wall
    return shares


# ---------------------------------------------------------------------------
# environment and results


def source_lines() -> dict:
    """Non-blank, non-comment lines per module of src/setflow."""
    counts = {}
    for path in sorted((SRC / "setflow").glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        counts[path.name] = sum(1 for ln in lines if ln.strip() and not ln.strip().startswith("#"))
    return counts


def git_commit():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(seed: int) -> dict:
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
        "sloc": source_lines(),
    }


def pass_summary(p: PassResult) -> dict:
    return {"wall_s": p.wall, "cpu_s": p.cpu, "wall_norm": p.wall_norm, "steps": p.steps,
            "time_to_tol_s": p.tol_seconds,
            "runs": [{"name": r.doc["name"], "exit": r.code, "seconds": r.seconds,
                      "cpu_s": r.cpu, "yardstick_s": r.ref_wall, "problems": r.problems}
                     for r in p.records]}


# ---------------------------------------------------------------------------
# entry points


def measure(args, setflow, work: Path) -> tuple:
    """(metrics, passes, details) for one workload run."""
    plan = plan_for(args.workload, args.seed, work / "docs")
    paths = plan_paths(args.workload, plan)
    prepare(paths)
    if args.trace:
        untraced = run_pass(setflow.cli, args.workload, plan, work / "untraced")
        tracer = tracing.Tracer()
        with tracing.instrument(tracer, setflow):
            traced = run_pass(setflow.cli, args.workload, plan, work / "traced")
        differing = differing_artifacts(work / "untraced", work / "traced")
        if differing:
            traced.records[-1].problems.append(
                "traced artifacts differ from untraced: " + ", ".join(differing))
        output_bytes = sum(p.stat().st_size for p in (work / "traced").iterdir())
        metrics = per_layer_metrics(tracer, output_bytes, traced.wall - untraced.wall)
        details = {"spans": tracer.table(), "isolation": isolation(tracer, traced.wall)}
        return metrics, [untraced, traced], details

    setup_times = time_setup(paths)
    passes, durations = [], []
    start = perf_counter()
    while True:
        out_dir = work / f"pass{len(passes)}"
        passes.append(run_pass(setflow.cli, args.workload, plan, out_dir))
        shutil.rmtree(out_dir)
        durations.append(perf_counter() - start - sum(durations))
        if sum(durations) + statistics.median(durations) > args.seconds:
            break
    details = {"setup_s_samples": setup_times, "raw_seconds": raw_seconds(passes)}
    return end_to_end_metrics(setup_times, passes), passes, details


def run_workload(args) -> int:
    sys.path.insert(0, str(SRC))
    import setflow
    import setflow.cli  # noqa: F401

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        metrics, passes, details = measure(args, setflow, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = [r for p in passes for r in p.records]
    failed = [r for r in records if r.problems]
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    results_dir = WORK / "results"
    results_dir.mkdir(exist_ok=True)
    results_file = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results_file.write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(args.seed), "result": result,
        "passes": [pass_summary(p) for p in passes], **details,
    }, indent=1) + "\n", encoding="utf-8")
    for r in failed:
        print(f"FAILED {r.doc['name']}: {'; '.join(r.problems)}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}", file=sys.stderr)
    for name, value in details.get("raw_seconds", {}).items():
        print(f"{args.workload} {name} {value:.6g} (raw seconds, not a metric)", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in a child process; print every metric with its unit."""
    status = 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(proc.stderr)
        if not lines:
            continue
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "setflow" / "cli.py").is_file():
        print(f"error: no setflow sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
