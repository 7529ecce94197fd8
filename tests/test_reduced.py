"""The reduced solution of scalar-A flows (``flow.solve_reduced``) against the
stepper, and the boundary of the dispatch (``scenarios.solve``)."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from setflow import bodies, cli, comparison, flow, scenarios
from setflow.errors import BlowupError
from setflow.scenarios import SchemaError

from helpers import FRAMES, random_polygon, random_smooth_body

_C, _S = -0.5, math.sqrt(3.0) / 2.0
ROTATION_120 = ((_C, -_S), (_S, _C))
OPERATORS = {
    "reflection": ((1.0, 0.0), (0.0, -1.0)),
    "quarter_turn": ((0.0, -1.0), (1.0, 0.0)),
    "swap": ((0.0, 1.0), (1.0, 0.0)),
    "rotation_120": ROTATION_120,
    "nilpotent": ((0.0, 1.0), (0.0, 0.0)),
}
HORIZON, DT = 0.5, 0.02


def clock(kind, scale):
    if kind == "constant":
        return flow.constant(scale)
    if kind == "rational":
        return flow.rational([scale, 0.5 * scale], [1.0, 1.0])
    # the kink lies past every area reached: a step across it costs the
    # stepper its second order there, with a constant set by where it falls
    return flow.table([0.0, 100.0, 200.0], [scale, 2.0 * scale, scale])


def body(kind, seed, grid_size):
    rng = np.random.default_rng(seed)
    return (random_polygon(rng, grid_size, spread=1.0) if kind == "polygon"
            else random_smooth_body(rng, grid_size))


def relative_error(got, want):
    return float(np.max(np.abs(got - want))) / max(float(np.max(np.abs(want))), 1e-300)


@st.composite
def reducible_flows(draw):
    """(u0, params, tracked) of a flow that solve_reduced solves."""
    grid_size = draw(st.sampled_from([64, 512]))
    operator = draw(st.sampled_from(sorted(OPERATORS)))
    # evolve re-circumscribes a kinked body at every pull-back that lands
    # off the grid (ROADMAP item 3), so under the 120-degree rotation it
    # converges to a larger body than the reduced flow's; such a body is
    # drawn only under the other operators
    shapes = ["smooth"] if operator == "rotation_120" else ["polygon", "smooth"]
    u0 = body(draw(st.sampled_from(shapes)), draw(st.integers(0, 2 ** 32)), grid_size)
    phi = clock(draw(st.sampled_from(["constant", "rational", "table"])),
                draw(st.floats(0.2, 1.5)))
    psi = clock(draw(st.sampled_from(["constant", "rational", "table"])),
                draw(st.floats(0.1, 1.0)))
    kind = draw(st.sampled_from(["zero", "ball", "constant", "linear"]))
    source = {"zero": flow.zero_source(), "ball": flow.ball_source(psi),
              "constant": flow.constant_source(body("smooth", 1, grid_size)),
              "linear": flow.linear_source(psi, OPERATORS[operator])}[kind]
    a = draw(st.floats(-2.0, 1.0))
    params = flow.SemiflowParams(A=a * np.eye(2), phi=phi, source=source)
    tracked = {"V": bodies.area, "perimeter": bodies.perimeter,
               **flow.mixed_columns(OPERATORS[operator], 2)}
    return u0, params, tracked


def tight_clocks(rhs, start, times):
    """The clock ODE of ``flow.solve_reduced`` at rtol 1e-14, a reference
    whose own error lies below the stepper's at ``DT / 4``."""
    system = comparison.ComparisonSystem(dim=len(start), rhs=rhs, name="clocks")
    return comparison.integrate(system, start, times, rtol=1e-14).states


@settings(max_examples=60, deadline=None)
@given(reducible_flows())
def test_evolve_converges_to_the_reduced_flow_at_second_order(case):
    u0, params, tracked = case
    assert flow.reducible(params)
    reduced = flow.solve_reduced(u0, params, HORIZON, DT, tracked, clocks=tight_clocks)
    assert reduced.solver == "reduced"
    coarse = flow.evolve(u0, params, HORIZON, DT, tracked)
    fine = flow.evolve(u0, params, HORIZON, DT / 4, tracked)
    assert reduced.times.tobytes() == coarse.times.tobytes()
    for name, want in reduced.tracked.items():
        errors = [relative_error(coarse.tracked[name], want),
                  relative_error(fine.tracked[name][::4], want)]
        if errors[0] < 1e-11:       # the stepper is exact here: no source, a constant clock
            assert errors[1] < 1e-11, name
            continue
        assert math.log(errors[0] / errors[1], 4) >= 1.9, (name, errors)


@pytest.mark.parametrize("k", range(2, 9))
def test_a_rotation_of_finite_order_is_folded_and_a_near_one_is_stepped(k):
    angle = 2.0 * math.pi / k
    rotation = np.array([[math.cos(angle), -math.sin(angle)],
                         [math.sin(angle), math.cos(angle)]])
    # B^k = (1 + 1e-10) I: the comparison layer's order test (1e-9) sees
    # order k, but the fold needs B^k = I to a few ulps
    near = rotation * (1.0 + 1e-10 / k)
    assert flow.cyclic_order(near) == flow.cyclic_order(rotation) == k
    u0 = bodies.make_ball(1.0, center=(0.3, 0.0), grid_size=64)

    def params(mat):
        return flow.SemiflowParams(A=-np.eye(2), phi=flow.constant(1.0),
                                   source=flow.linear_source(flow.constant(0.5), mat))
    assert flow.reducible(params(rotation)) and not flow.reducible(params(near))
    stepped = scenarios.solve(u0, params(near), 0.05, 1e-2)
    assert stepped.solver == "split_step"
    assert stepped.to_csv() == flow.evolve(u0, params(near), 0.05, 1e-2).to_csv()


@pytest.mark.parametrize("mat", [[[2.0, 0.0], [0.0, 2.0]], [[1e200, 0.0], [0.0, 1e200]],
                                 [[0.0, 1e200], [1e200, 0.0]]])
def test_a_linear_source_of_infinite_order_is_not_reducible(mat):
    params = flow.SemiflowParams(A=-np.eye(2), phi=flow.constant(1.0),
                                 source=flow.linear_source(flow.constant(0.5), mat))
    assert flow.reducible(params) is None


def test_the_folded_reflection_meets_its_closed_form_to_rounding():
    doc = scenarios.builtin_scenarios()["reflection_square"]
    scenario = scenarios.parse_scenario(doc)
    traj = scenarios.solve(scenario.initial_body, scenario.params, 3.0, 1e-3, scenario.track)
    w = traj.tracked
    closed = 0.5 * np.exp(-traj.times) * (w["W0"][0] + w["W1"][0]) \
        + 0.5 * np.exp(-3.0 * traj.times) * (w["W0"][0] - w["W1"][0])
    assert relative_error(w["V"], closed) < 1e-14


@pytest.mark.parametrize("psi, horizon, dt", [(0.99, 720.0, 0.05), (0.5, 1500.0, 0.1)])
def test_a_decaying_cyclic_flow_over_a_long_horizon_finishes_as_evolve_does(
        tmp_path, psi, horizon, dt):
    # sigma = psi t passes 710, where cosh(sigma) alone overflows while the
    # weight e^{-t} cosh(sigma) stays below 1
    doc = scenarios.builtin_scenarios()["reflection_square"]
    source = {**doc["params"]["source"], "psi": {"kind": "constant", "value": psi}}
    doc.update(grid_size=64, horizon=horizon, dt=dt, checks=[],
               params={**doc["params"], "source": source})
    code, report, _ = run(doc, tmp_path)
    assert code == cli.EXIT_OK and report["solver"] == "reduced"
    scenario = scenarios.parse_scenario(doc)
    want = scenarios.solve(scenario.initial_body, scenario.params, horizon, dt,
                           scenario.track).tracked["V"][-1]
    errors = [abs(flow.evolve(scenario.initial_body, scenario.params, horizon, h,
                              scenario.track).tracked["V"][-1] - want)
              for h in (dt, dt / 2)]
    assert errors[1] <= errors[0] / 3.5


def test_a_clock_ode_without_its_solver_is_stepped():
    u0 = bodies.make_ball(1.0, center=(0.3, 0.0), grid_size=64)
    params = flow.SemiflowParams(A=-np.eye(2), phi=flow.rational([2.0, 1.0], [1.0, 1.0]),
                                 source=flow.linear_source(flow.constant(0.5),
                                                           OPERATORS["reflection"]))
    traj = flow.solve_reduced(u0, params, 0.05, 1e-2)
    assert traj.solver == "split_step"
    assert traj.to_csv() == flow.evolve(u0, params, 0.05, 1e-2).to_csv()


# ---------------------------------------------------------------------------
# the boundary of the dispatch


def document(**overrides):
    doc = {"schema": 1, "name": "reduced", "grid_size": 128,
           "initial_body": {"kind": "ball", "radius": 1.0},
           "params": {"A": [[-1.0, 0.0], [0.0, -1.0]],
                      "phi": {"kind": "constant", "value": 1.0},
                      "source": {"kind": "ball_source",
                                 "psi": {"kind": "constant", "value": 0.5}}},
           "horizon": 1.0, "dt": 0.01, "track": ["V", "perimeter"]}
    doc.update(overrides)
    return doc


def run(doc, out):
    path = out / f"{doc['name']}.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["run", str(path), "--out", str(out / "out")])
    report = json.loads((out / "out" / f"{doc['name']}.json").read_text())
    csv = (out / "out" / f"{doc['name']}.csv").read_text()
    return code, report, csv


@pytest.mark.parametrize("phi, solver", [
    ({"kind": "constant", "value": 1.0}, "reduced"),
    ({"kind": "rational", "num": [2.0, 1.0], "den": [1.0, 1.0]}, "reduced"),
    # tau' = 1 + V escapes in finite time: the clocks leave and the flow is stepped
    ({"kind": "rational", "num": [1.0, 1.0], "den": [1.0]}, "split_step"),
], ids=["constant_clock", "rational_clock", "escaping_clock"])
def test_a_growing_ball_flow_still_blows_up(tmp_path, phi, solver):
    params = {"A": [[1.0, 0.0], [0.0, 1.0]], "phi": phi,
              "source": {"kind": "ball_source", "psi": {"kind": "constant", "value": 1.0}}}
    doc = document(name="grow", params=params, horizon=20.0, dt=1e-2)
    code, report, csv = run(doc, tmp_path)
    assert code == cli.EXIT_BLOWUP and report["solver"] == solver
    scenario = scenarios.parse_scenario(doc)
    with pytest.raises(BlowupError) as stepped:
        flow.evolve(scenario.initial_body, scenario.params, 20.0, 1e-2, scenario.track)
    _, ends, stored = flow._schedule(20.0, 1e-2)
    times = np.concatenate(([0.0], ends[stored]))
    interval = float(np.max(np.diff(times)))
    reached = report["diagnostic"]["blow_up_at"]
    assert abs(reached - stepped.value.reached_time) <= interval
    rows = [line.split(",") for line in csv.splitlines()[1:]]
    assert len(rows) == report["trajectory"]["frames"] >= 2
    assert [float(row[0]) for row in rows] == pytest.approx(times[:len(rows)], rel=1e-12)
    assert float(rows[-1][0]) < reached <= float(rows[-1][0]) + interval


def test_a_stiff_clock_is_stepped_within_a_bounded_budget():
    # rho' = -1e13 rho + 1: an explicit stepper would need some 1e13 steps
    u0 = bodies.make_ball(1.0, grid_size=64)
    params = flow.SemiflowParams(A=-np.eye(2), phi=flow.rational([1e13], [1.0]),
                                 source=flow.ball_source(flow.constant(1.0)))
    traj = scenarios.solve(u0, params, 1.0, 1e-2)
    assert traj.solver == "split_step"
    assert traj.to_csv() == flow.evolve(u0, params, 1.0, 1e-2).to_csv()


@pytest.mark.parametrize("params", [
    {"A": [[-1.0, 0.2], [0.0, -1.0]], "phi": {"kind": "constant", "value": 1.0},
     "source": {"kind": "ball_source", "psi": {"kind": "constant", "value": 0.5}}},
    {"A": [[-1.0, 0.0], [0.0, -1.0]], "phi": {"kind": "constant", "value": 1.0},
     "source": {"kind": "linear_body", "psi": {"kind": "constant", "value": 0.5},
                "B": [[2.0, 0.0], [0.0, 2.0]]}},
], ids=["non_scalar_A", "B_2I"])
def test_a_flow_that_does_not_qualify_is_stepped(tmp_path, params):
    doc = document(params=params)
    code, report, csv = run(doc, tmp_path)
    assert code == cli.EXIT_OK and report["solver"] == "split_step"
    scenario = scenarios.parse_scenario(doc)
    assert csv == flow.evolve(scenario.initial_body, scenario.params, 1.0, 0.01,
                              scenario.track).to_csv()


def test_the_work_cap_still_counts_the_steps_of_a_reduced_flow():
    steps = scenarios.MAX_FLOW_WORK // 128
    at_cap = document(horizon=float(steps), dt=1.0)
    assert flow.reducible(scenarios.parse_scenario(at_cap).params)
    with pytest.raises(SchemaError, match="'dt' is too small"):
        scenarios.parse_scenario(document(horizon=float(steps + 1), dt=1.0))


# ---------------------------------------------------------------------------
# the stored frames, measured a block at a time


def measured_per_frame(traj, tracked):
    """Each tracked column of each stored row, applied to the row alone."""
    return {name: [np.asarray(fn(bodies._adopt(row.copy()))) for row in traj.tracked["h"]]
            for name, fn in tracked.items()}


def assert_blocks_equal_frames(traj, tracked):
    for name, per_frame in measured_per_frame(traj, tracked).items():
        assert len(traj.tracked[name]) == len(per_frame), name
        for got, want in zip(traj.tracked[name], per_frame):
            assert np.asarray(got).tobytes() == want.tobytes(), name
    assert traj.final.values.tobytes() == traj.tracked["h"][-1].tobytes()


BLOCK_OPERATORS = {name: OPERATORS[name]
                   for name in ("reflection", "quarter_turn", "nilpotent", "rotation_120")}


@st.composite
def blocked_flows(draw):
    """(u0, params, horizon, dt, tracked): a reduced flow whose stored frames
    fill one to three blocks, the last one whole or not."""
    grid_size = draw(st.sampled_from([16, 64, 512, 8192]))
    operator = draw(st.sampled_from(sorted(BLOCK_OPERATORS)))
    mat = BLOCK_OPERATORS[operator]
    u0 = body(draw(st.sampled_from(["polygon", "smooth"])), draw(st.integers(0, 2 ** 32)),
              grid_size)
    psi = clock(draw(st.sampled_from(["constant", "rational"])), draw(st.floats(0.1, 1.0)))
    source = {"zero": flow.zero_source(), "ball": flow.ball_source(psi),
              "constant": flow.constant_source(body("smooth", 1, grid_size)),
              "linear": flow.linear_source(psi, mat)}[
        draw(st.sampled_from(["zero", "ball", "constant", "linear"]))]
    phi = clock(draw(st.sampled_from(["constant", "rational"])), draw(st.floats(0.2, 1.5)))
    params = flow.SemiflowParams(A=draw(st.floats(-2.0, 0.5)) * np.eye(2), phi=phi,
                                 source=source)
    rows = max(2, flow.BLOCK_BYTES // (8 * grid_size))
    frames = draw(st.integers(1, 3)) * rows + draw(st.sampled_from([0, 1, rows - 1]))
    frames = min(max(frames, 2), flow.MAX_STORED_FRAMES + 1)
    dt = 0.01
    k = flow.cyclic_order(mat) or 2
    tracked = {"V": bodies.area, "perimeter": bodies.perimeter,
               **flow.mixed_columns(mat, k),
               "dH_ref": lambda u: bodies.hausdorff_distance(
                   u, bodies.make_ball(1.0, grid_size=grid_size)),
               **FRAMES}
    return u0, params, (frames - 1) * dt, dt, tracked


@settings(max_examples=30, deadline=None)
@given(blocked_flows())
def test_each_block_measures_its_frames_bit_for_bit(case):
    u0, params, horizon, dt, tracked = case
    traj = scenarios.solve(u0, params, horizon, dt, tracked)
    assert traj.solver == "reduced"
    assert len(traj.times) == round(horizon / dt) + 1
    assert_blocks_equal_frames(traj, tracked)
    with pytest.MonkeyPatch.context() as patch:      # two frames a block
        patch.setattr(flow, "BLOCK_BYTES", 1)
        alone = scenarios.solve(u0, params, horizon, dt, tracked)
    for name, series in traj.tracked.items():
        assert series.tobytes() == alone.tracked[name].tobytes(), name


@pytest.mark.parametrize("grid_size", [64, 512, 8192])
@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("radius", [1.0, 1e-305], ids=["guard", "not_finite"])
def test_a_blow_up_inside_a_block_keeps_the_per_frame_rule(grid_size, where, radius):
    # the frames are e^{a t} h0: the unit disc first passes the guard
    # 1e6 at frame i; the tiny one stays inside it until e^{a t} overflows
    # at frame i, a row that is not finite
    rows = max(2, flow.BLOCK_BYTES // (8 * grid_size))
    i = rows + {"first": 0, "middle": rows // 2, "last": rows - 1}[where]
    dt = 0.01
    exponent = math.log(1e6) if radius == 1.0 else flow.EXP_MAX
    params = flow.SemiflowParams(A=exponent / ((i - 0.5) * dt) * np.eye(2),
                                 phi=flow.constant(1.0), source=flow.zero_source())
    u0 = bodies.make_ball(radius, grid_size=grid_size)
    horizon = (i + 3) * dt
    tracked = {"V": bodies.area, "perimeter": bodies.perimeter, **FRAMES}
    with pytest.raises(BlowupError) as err:
        flow.solve_reduced(u0, params, horizon, dt, tracked)
    _, ends, stored = flow._schedule(horizon, dt)
    times = np.concatenate(([0.0], ends[stored]))
    reached = times[i] if radius == 1.0 else times[i - 1]
    assert err.value.reached_time == reached
    assert str(err.value) == f"support values exceeded {1e6:.3g} at t={times[i]:.6g}"
    partial = err.value.partial
    assert partial.solver == "reduced"
    assert partial.times.tobytes() == times[:i].tobytes()
    assert_blocks_equal_frames(partial, tracked)


def test_a_column_that_does_not_give_one_value_per_frame_is_named():
    u0 = bodies.make_ball(1.0, grid_size=64)
    params = flow.SemiflowParams(A=-np.eye(2), phi=flow.constant(1.0),
                                 source=flow.ball_source(flow.constant(0.5)))
    with pytest.raises(ValueError, match="column 'one'"):
        flow.solve_reduced(u0, params, 1.0, 0.01, {"V": bodies.area, "one": lambda u: 1.0})


def sequential_schedule(horizon, dt):
    """evolve's steps ``(h, t, stored)`` as the loop ``t += min(dt, horizon - t)``."""
    n_steps = max(1, math.ceil(horizon / dt - 1e-12))
    stride = max(1, math.ceil(n_steps / flow.MAX_STORED_FRAMES))
    t, steps = 0.0, []
    for i in range(n_steps):
        h = min(dt, horizon - t)
        t += h
        steps.append((h, t, (i + 1) % stride == 0 or i == n_steps - 1))
    return steps


@st.composite
def horizons(draw):
    """(horizon, dt) below one step, near a whole number of steps, or anywhere."""
    dt = draw(st.floats(1e-3, 10.0))
    kind = draw(st.sampled_from(["below_dt", "near_whole", "any"]))
    if kind == "below_dt":
        return dt * draw(st.floats(1e-6, 1.0, exclude_max=True)), dt
    if kind == "near_whole":
        return dt * draw(st.integers(1, 20000)) * (1.0 + draw(st.floats(-1e-12, 1e-12))), dt
    return dt * draw(st.floats(1e-3, 20000.0)), dt


@settings(max_examples=300, deadline=None)
@example((1500.0, 0.1))
@example((0.05, 0.1))
@given(horizons())
def test_the_schedule_arrays_are_the_sequential_loop_bit_for_bit(case):
    horizon, dt = case
    steps, ends, stored = flow._schedule(horizon, dt)
    want = sequential_schedule(horizon, dt)
    assert steps.tobytes() == np.array([h for h, _, _ in want]).tobytes()
    assert ends.tobytes() == np.array([t for _, t, _ in want]).tobytes()
    assert stored.tolist() == [s for _, _, s in want]
