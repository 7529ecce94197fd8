"""Tests for the benchmark's own code: ``python3 -m pytest bench/tests -q``."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 2.0
        traced_leaf()
        traced_leaf()

    def outer():
        clock.now += 4.0
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()

    assert tracer.stats["leaf"] == [2, 2.0, 2.0]
    assert tracer.stats["middle"] == [1, 4.0, 2.0]
    assert tracer.stats["outer"] == [1, 8.0, 4.0]
    assert tracer.edges[(None, "outer")] == [1, 8.0]
    assert tracer.edges[("middle", "leaf")] == [2, 2.0]


def test_span_closes_when_the_call_raises():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    assert tracer.stats["boom"] == [1, 1.0, 1.0]
    assert tracer._stack == []


def test_instrument_wraps_every_binding_and_restores_it():
    import setflow
    from setflow import bodies, certificates, comparison, flow

    before = {(m.__name__, k): v for m in (bodies, flow, certificates, comparison)
              for k, v in vars(m).items()}
    source_values = flow.SourceTerm.values
    rhs = comparison.ComparisonSystem.__call__
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, setflow):
        assert flow.area is bodies.area is certificates.area
        assert flow.area.__wrapped__ is before[("setflow.flow", "area")]
        assert certificates.area.__wrapped__ is before[("setflow.certificates", "area")]
        u = bodies.make_ball(1.0, grid_size=64)
        params = flow.SemiflowParams(A=-np.eye(2), phi=flow.constant(1.0),
                                     source=flow.ball_source(flow.constant(1.0)))
        flow.step(u, params, 1e-3)
    after = {(m.__name__, k): v for m in (bodies, flow, certificates, comparison)
             for k, v in vars(m).items()}
    assert after == before
    assert flow.SourceTerm.values is source_values
    assert comparison.ComparisonSystem.__call__ is rhs
    assert tracer.calls("flow.step") == 1
    assert tracer.calls("bodies.area") == 2
    assert tracer.calls("flow.source") == 2
    assert tracer.calls("flow.expm") == 1
    assert tracer.edges[("flow.step", "bodies.linear_image")][0] == 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_documents_are_determined_by_the_seed(workload):
    assert workloads.documents(workload, 5) == workloads.documents(workload, 5)
    assert workloads.documents(workload, 5) != workloads.documents(workload, 6)
    fixed = ("grid_size", "horizon", "dt", "checks", "track", "params")
    shape = [[d.get(k) for k in fixed] for d in workloads.documents(workload, 5)]
    if workload != "comparison_search":
        assert shape == [[d.get(k) for k in fixed] for d in workloads.documents(workload, 6)]


def test_builtin_suite_steps_count_every_evolve():
    steps = {d["name"]: workloads.flow_steps(d) for d in workloads.builtin_suite(0)}
    assert steps["ball_fixed_point"] == 10000
    assert steps["segment_growth"] == 4000       # main evolve + 3 growth_scaling evolves
    assert sum(steps.values()) == 29000


def test_ladder_stops_at_the_first_rung_within_tolerance():
    errors = iter([3.0e-3, 1.5e-3, 7.5e-4, 3.7e-4, 1.9e-4])
    calls = []

    def run_rung(doc):
        calls.append(doc)
        return next(errors), 0.1 * len(calls)

    assert workloads.climb_ladder(run_rung, list("abcde"), 5e-4) == (3, 3.7e-4, 0.4)
    assert calls == list("abcd")


def test_ladder_reports_none_when_no_rung_meets_tolerance():
    calls = []

    def run_rung(doc):
        calls.append(doc)
        return 1.0, 0.0

    assert workloads.climb_ladder(run_rung, [1, 2, 3], 5e-4) is None
    assert calls == [1, 2, 3]


def test_ladder_rungs_halve_dt():
    for _, rungs in workloads.ladder_rungs(0):
        dts = [doc["dt"] for doc in rungs]
        assert dts[0] == workloads.LADDER_DT0
        assert all(b == a / 2 for a, b in zip(dts, dts[1:]))


def test_cyclic3_closed_form_solves_the_mixed_area_system():
    from scipy.linalg import expm
    psi, w0, w1 = workloads.CYCLIC3_PSI, 1.3, 1.7
    mat = np.array([[-2.0, 2.0 * psi], [psi, psi - 2.0]])
    times = np.linspace(0.0, 2.0, 5)
    expected = [(expm(mat * t) @ [w0, w1])[0] for t in times]
    assert np.allclose(workloads.cyclic3_reference_area(times, w0, w1, psi), expected,
                       rtol=1e-12)


def _write_outputs(out_dir, name, passed=True, kind="asymptotically_stable", frames=2):
    report = {"passed": passed, "trajectory": {"frames": frames},
              "checks": [{"kind": "xi0_stability", "passed": passed,
                          "details": {"kind": kind}}]}
    (out_dir / f"{name}.json").write_text(json.dumps(report))
    (out_dir / f"{name}.csv").write_text("t,V\n0,1\n0.001,1.01\n")


def _record(code=0):
    doc = {"name": "x", "params": {"source": {"kind": "zero"}},
           "checks": [{"kind": "xi0_stability", "expect": "asymptotically_stable"}]}
    return run.Record(doc=doc, code=code, seconds=0.0, cpu=0.0)


def test_verify_accepts_correct_artifacts(tmp_path):
    _write_outputs(tmp_path, "x")
    record = _record()
    run.verify(record, tmp_path)
    assert record.problems == []


@pytest.mark.parametrize("breakage", ["exit", "verdict", "failed", "frames", "csv", "report"])
def test_verify_flags_each_kind_of_failure(tmp_path, breakage):
    _write_outputs(tmp_path, "x", passed=breakage != "failed",
                   kind="stable" if breakage == "verdict" else "asymptotically_stable",
                   frames=3 if breakage == "frames" else 2)
    if breakage == "csv":
        (tmp_path / "x.csv").write_text("t,V\n0,1,2\n")
    if breakage == "report":
        (tmp_path / "x.json").write_text("{not json")
    record = _record(code=1 if breakage == "exit" else 0)
    run.verify(record, tmp_path)
    assert record.problems


def test_differing_artifacts_names_the_files_that_differ(tmp_path):
    left, right = tmp_path / "l", tmp_path / "r"
    left.mkdir()
    right.mkdir()
    for d in (left, right):
        (d / "a.csv").write_text("same")
    (left / "b.json").write_text("1")
    (right / "b.json").write_text("2")
    (left / "c.csv").write_text("only left")
    assert run.differing_artifacts(left, right) == ["b.json", "c.csv"]


def _cyclic3_outputs(out_dir, scale):
    times = np.linspace(0.0, 0.01, 11)
    v = workloads.cyclic3_reference_area(times, 1.0, 1.2, workloads.CYCLIC3_PSI) * scale
    rows = "".join(f"{t:.17g},{a:.17g},{a:.17g},1.2,1.2\n" for t, a in zip(times, v))
    (out_dir / "c.csv").write_text("t,V,W0,W1,W2\n" + rows)
    (out_dir / "c.json").write_text(json.dumps(
        {"passed": True, "trajectory": {"frames": 11}, "checks": []}))
    doc = {"name": "c", "checks": [],
           "params": {"source": {"kind": "linear_body", "B": workloads.ROTATION_120}}}
    return run.Record(doc=doc, code=0, seconds=0.0, cpu=0.0)


def test_verify_checks_the_cyclic3_closed_form(tmp_path):
    good = _cyclic3_outputs(tmp_path, scale=1.0)
    assert run.verify(good, tmp_path) == [0.0] and good.problems == []
    # keep V(0) exact so the reference is unchanged, inflate the rest
    bad = _cyclic3_outputs(tmp_path, scale=np.linspace(1.0, 1.01, 11))
    run.verify(bad, tmp_path)
    assert any("cyclic3" in p for p in bad.problems)


def test_a_crashing_cli_counts_as_a_failed_run(tmp_path):
    class Crashing:
        @staticmethod
        def main(argv):
            raise RuntimeError("boom")

    code, seconds, _ = run.run_document(Crashing, tmp_path / "doc.json", tmp_path)
    assert code == -1 and seconds >= 0.0


def test_normalized_times_divide_each_run_by_the_yardstick_around_it():
    doc = {"name": "x", "horizon": 1.0, "dt": 0.5, "checks": []}
    records = [run.Record(doc, 0, seconds=2.0, cpu=1.0, ref_wall=0.5, ref_cpu=0.25),
               run.Record(doc, 0, seconds=3.0, cpu=3.0, ref_wall=1.0, ref_cpu=1.0)]
    result = run.PassResult(records=records, tol_records=records[1:])
    assert (result.wall, result.cpu) == (5.0, 4.0)
    assert (result.wall_norm, result.cpu_norm) == (7.0, 7.0)
    assert (result.tol_seconds, result.tol_norm, result.tol_steps) == (3.0, 3.0, 2)
    assert result.steps == 4


def test_yardstick_measures_positive_time():
    wall, cpu = run.yardstick()
    assert wall > 0.0 and cpu > 0.0
