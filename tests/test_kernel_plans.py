"""Cached pull-back plans, the area forms and the step built on them.

Every cached kernel must reproduce the uncached reference formulas in
``helpers`` bit for bit, so that CSV/JSON outputs stay byte-identical.
scipy's periodic ``CubicSpline`` and ``expm`` are the tolerance oracles of
the package's spline and its closed-form exponential.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setflow import bodies as B, flow as F
from setflow.errors import BlowupError

import helpers

RNG = np.random.default_rng(2024)

GRIDS = (16, 64, 512, 8192)
ROT120 = np.array([[np.cos(2 * np.pi / 3), -np.sin(2 * np.pi / 3)],
                   [np.sin(2 * np.pi / 3), np.cos(2 * np.pi / 3)]])
MATRICES = {
    **{f"exp(-{s})I": np.exp(-s) * np.eye(2) for s in (0.0, 1e-3, 0.37, 2.5, 30.0, 40.0)},
    "reflection": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "quarter_turn": np.array([[0.0, -1.0], [1.0, 0.0]]),
    "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "rank_one": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "rotation_120": ROT120,
    "zero": np.zeros((2, 2)),
}
SQUARE = [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]


def sample_bodies(m):
    return [B.make_polygon(SQUARE, m), helpers.random_polygon(RNG, m),
            helpers.random_smooth_body(RNG, m), B.make_segment(2.0, 0.3, m)]


@pytest.mark.parametrize("m", GRIDS)
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_image_values_match_the_uncached_pullback(m, name):
    mat = MATRICES[name]
    for u in sample_bodies(m):
        for _ in range(2):      # the second call reads the cached plan
            got = B._image_values(u.values, B._operator(mat))
            assert np.array_equal(got, helpers.reference_image_values(u.values, mat))


@pytest.mark.parametrize("m", GRIDS)
@pytest.mark.parametrize("name", ["reflection", "quarter_turn", "swap", "rank_one", "zero"])
def test_grid_landing_pullbacks_are_gathers(m, name):
    # B = [[0, 1], [0, 0]] (rank_one) maps every p to (0, p_x): B^T p lands on
    # +-pi/2 or vanishes, so nilpotent sources never reach the spline
    plan = B._pullback_plan(MATRICES[name].tobytes(), m)
    assert plan.gather is not None and plan.cells is None


def test_rotation_120_pullback_is_a_spline():
    plan = B._pullback_plan(ROT120.tobytes(), 64)
    assert plan.gather is None and plan.cells.shape == (2, 64) and plan.weights.shape == (4, 64)
    assert plan.polygon.shape == (2, 64)


@pytest.mark.parametrize("name", ["rotation_120", "reflection", "exp(-0.37)I"])
def test_a_stack_of_frames_is_pulled_back_as_each_frame_alone(name):
    # the square plus a growing disc: the spline images of the first frames
    # leave the cone and take the polygon fallback, those of the last do not
    rows = np.array([B.make_polygon(SQUARE, 64).values + r for r in (0.0, 1.0, 10.0, 100.0)])
    op = B._operator(MATRICES[name])
    alone = np.array([B._image_values(row.copy(), op) for row in rows])
    assert B._image_values(rows, op).tobytes() == alone.tobytes()
    if name == "rotation_120":
        plan = B._pullback_plan(op.key, 64)
        kinked = [B.convexity_defect(B._spline_image(row, plan)).min() < 0.0 for row in rows]
        assert kinked == [True, True, False, False]


@pytest.mark.parametrize("m", GRIDS)
def test_scalar_pullbacks_under_a_moving_clock_match(m):
    u = helpers.random_smooth_body(RNG, m)
    for s in RNG.uniform(0.0, 5e-3, size=50):
        mat = np.exp(-s) * np.eye(2)
        assert np.array_equal(B._image_values(u.values, B._operator(mat)),
                              helpers.reference_image_values(u.values, mat))


@pytest.mark.parametrize("m", GRIDS)
def test_forms_and_defect_match_the_uncached_formulas(m):
    u, v = helpers.random_polygon(RNG, m), helpers.random_smooth_body(RNG, m)
    for hu, hv in ((u.values, u.values), (u.values, v.values), (v.values, u.values)):
        assert B._mixed_form(hu, hv) == helpers.reference_mixed_form(hu, hv)
    assert B.area(u) == helpers.reference_mixed_form(u.values, u.values)
    assert B.mixed_area(u, v) == helpers.reference_mixed_form(u.values, v.values)
    assert B.mixed_area(u, v.values) == B.mixed_area(u, v)
    assert B.mixed_area(u, u) == B.area(u)
    for w in (u.values, v.values, u.values - v.values):
        assert np.array_equal(B.convexity_defect(w), helpers.reference_convexity_defect(w))


@pytest.mark.parametrize("name", ["reflection", "rank_one", "rotation_120", "zero"])
def test_cached_arrays_are_read_only(name):
    mat = MATRICES[name]
    B._image_values(B.make_ball(1.0, grid_size=64).values, B._operator(mat))
    plan = B._pullback_plan(mat.tobytes(), 64)
    arrays = [a for a in (plan.norms, plan.gather, plan.cells, plan.weights, plan.polygon)
              if a is not None]
    arrays += [B._curvature_multipliers(64),
               F._flow_matrix(MATRICES["quarter_turn"].tobytes(), 0.5).matrix]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0


def _grid_matrices(m):
    # every rotation by a grid multiple, and each composed with the axis
    # reflection
    rotations = [np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
                 for a in 2.0 * np.pi * np.arange(m) / m]
    return rotations + [r @ MATRICES["reflection"] for r in rotations]


SIGNED_ZEROS = st.sampled_from([0.0, -0.0])


@st.composite
def two_by_two(draw, m):
    kind = draw(st.sampled_from(["zeros", "scalar", "identity", "grid", "random"]))
    if kind == "zeros":
        return np.array(draw(st.lists(SIGNED_ZEROS, min_size=4, max_size=4))).reshape(2, 2)
    if kind == "scalar":
        c = draw(st.one_of(SIGNED_ZEROS, st.floats(-5.0, 5.0)))
        return np.array([[c, draw(SIGNED_ZEROS)], [draw(SIGNED_ZEROS), c]])
    if kind == "identity":
        return np.array([[1.0, draw(SIGNED_ZEROS)], [draw(SIGNED_ZEROS), 1.0]])
    if kind == "grid":
        return draw(st.sampled_from(_grid_matrices(m)))
    entry = st.one_of(SIGNED_ZEROS, st.floats(-4.0, 4.0))
    return np.array(draw(st.lists(entry, min_size=4, max_size=4))).reshape(2, 2)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(data=st.data(), m=st.sampled_from([16, 64]), seed=st.integers(0, 2 ** 16),
       smooth=st.booleans())
def test_the_operator_pulls_back_as_its_matrix(data, m, seed, smooth):
    mat = data.draw(two_by_two(m))
    rng = np.random.default_rng(seed)
    u = helpers.random_smooth_body(rng, m) if smooth else helpers.random_polygon(rng, m)
    op = B._operator(mat)
    (a, b), (c, d) = mat.tolist()
    scalar = b == c == 0.0 and a == d
    assert op.scale == (a if scalar and a > 0.0 else None)
    assert op.identity is (scalar and a == 1.0)
    assert op.key == mat.tobytes() and np.array_equal(op.matrix, mat)
    assert not op.matrix.flags.writeable and not np.shares_memory(op.matrix, mat)
    assert B._operator(op) is op and B.as_matrix(op) is op.matrix
    resolved, raw = B.linear_image(u, op), B.linear_image(u, mat)
    assert resolved.values.tobytes() == raw.values.tobytes()
    assert (resolved is u) is (raw is u) is op.identity
    # as numbers: where M^T p vanishes the reference writes +0.0, and the
    # plan 0.0 times a sample, which is -0.0 on a negative one
    assert np.array_equal(resolved.values, helpers.reference_image_values(u.values, mat))


def test_a_constant_clock_resolves_the_flow_operator_once(monkeypatch):
    # every step pulls back along exp(A dt): its operator is made and
    # validated once, and each step hands it to linear_image as it is
    a = np.array([[-1.0, 0.3], [0.0, -2.0]])
    made = []
    operator = B._operator

    def counted(op):
        if not isinstance(op, B._Operator):
            made.append(np.array(op, dtype=float))
        return operator(op)

    monkeypatch.setattr(B, "_operator", counted)
    params = F.SemiflowParams(A=a, phi=F.constant(1.0),
                              source=F.ball_source(F.constant(0.5)))
    F.evolve(B.make_ball(1.0, grid_size=64), params, horizon=0.05, dt=1e-3)
    flow_matrix = F.expm(a * 1e-3)
    assert sum(np.array_equal(mat, flow_matrix) for mat in made) == 1
    assert len(made) <= 3       # A, exp(A dt) and a shorter last step


def test_plan_cache_stays_bounded_under_a_rational_clock():
    # a non-scalar A under a volume-dependent clock pulls back along a new
    # matrix every step; the fixed source matrix must keep hitting its plan
    params = F.SemiflowParams(A=[[-1.0, 0.0], [0.0, -2.0]],
                              phi=F.rational([1.0], [1.0, 1.0]),
                              source=F.linear_source(F.constant(0.5),
                                                     MATRICES["reflection"]))
    u = B.make_ball(1.0, grid_size=64)
    B._pullback_plan.cache_clear()
    F._flow_matrix.cache_clear()
    n = 3000
    for _ in range(n):
        u = F.step(u, params, 1e-3)
    plans, mats = B._pullback_plan.cache_info(), F._flow_matrix.cache_info()
    assert plans.currsize <= plans.maxsize
    assert mats.currsize <= mats.maxsize
    assert plans.misses >= n                 # one new pull-back per step
    assert plans.hits >= 2 * n - 1           # the source plan, twice per step


def test_a_raw_second_argument_is_read_on_every_call():
    u = helpers.random_smooth_body(RNG, 64)
    raw = B.make_ball(1.0, grid_size=64).values.copy()
    before = B.mixed_area(u, raw)
    raw *= 2.0
    raw[3] += 0.25
    assert B.mixed_area(u, raw) == helpers.reference_mixed_form(u.values, raw)
    assert B.mixed_area(u, raw) != before


def test_the_tracked_areas_are_the_forms_of_the_stored_frames():
    _, u0, params = FLOWS["reflection"]
    u0 = B.SupportFunction2D(u0.values)
    read = []
    traj = F.evolve(u0, params, horizon=0.02, dt=1e-3,
                    tracked={"V": B.area, **F.mixed_columns(MATRICES["swap"], 2),
                             "h": lambda u: read.append(u) or u.values})
    assert read[0] is u0
    assert np.array_equal(traj.tracked["V"],
                          [helpers.reference_mixed_form(h, h) for h in traj.tracked["h"]])


def test_a_sourceless_step_under_the_identity_returns_its_input():
    # with no source, step returns the pulled-back body itself, which is the
    # body it was given when the flow matrix is the identity
    u = helpers.random_smooth_body(RNG, 64)
    still = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0), source=F.zero_source())
    assert F.step(u, still, 1e-3) is u
    decay = F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0), source=F.zero_source())
    out = F.step(u, decay, 1e-3)
    assert np.array_equal(out.values, helpers.reference_step(u, decay, 1e-3).values)


@pytest.mark.parametrize("phi, calls", [
    (F.constant(1.0), 0),
    (F.rational([1.0], [1.0, 1.0]), 1),
    (F.table([0.0, 2.0], [1.0, 0.5]), 1),
    (lambda v: 1.0, 1),
], ids=["constant", "rational", "table", "callable"])
def test_only_a_non_constant_clock_estimates_the_midpoint_volume(monkeypatch, phi, calls):
    counted = []
    mixed_area = F.mixed_area
    monkeypatch.setattr(F, "mixed_area", lambda u, v: counted.append(v) or mixed_area(u, v))
    params = F.SemiflowParams(A=-np.eye(2), phi=phi, source=F.ball_source(F.constant(0.5)))
    u = B.make_ball(1.0, grid_size=64)
    out = F.step(u, params, 1e-3)
    assert len(counted) == calls
    assert np.array_equal(out.values, helpers.reference_step(u, params, 1e-3).values)


@pytest.mark.parametrize("a, clock", [(-np.eye(2), 1.0), (np.zeros((2, 2)), 1.0),
                                      (-np.eye(2), 0.0)], ids=["A=-I", "A=0", "clock=0"])
def test_no_half_step_of_a_body_in_the_cone_leaves_it(a, clock):
    # the step projects nothing: the source of a body in the cone is in the
    # cone, so is the half-step u + dt/2 F, and so is its pull-back, also
    # along the identity (A = 0, or a clock at 0), which hands it back as it
    # is
    rng = np.random.default_rng(11)
    dt = 2e-3
    starts = [B.make_polygon(SQUARE, 64), B.make_segment(2.0, 0.3, 64),
              B.make_polygon(np.add(SQUARE, [3.0, -1.0]), 64),
              *(helpers.random_polygon(rng, 64) for _ in range(3))]
    for mat in (ROT120, np.array([[1.0, 0.7], [0.2, -0.4]]), rng.uniform(-1, 1, (2, 2))):
        params = F.SemiflowParams(A=a, phi=F.constant(clock),
                                  source=F.linear_source(F.constant(0.5), mat))
        for u in starts:
            for _ in range(20):
                half = u.values + 0.5 * dt * params.source.values(B.area(u), u)
                assert B.convexity_defect(half).min() >= -B.convexity_tolerance(half)
                u = F.step(u, params, dt)
                assert B.validate(u) == []


@pytest.mark.parametrize("name", ["scalar", "reflection", "rotation_120", "shear"])
def test_an_overflowing_pullback_is_rejected(name):
    # a gather overflows to inf, the spline's curvatures to nan
    mat = {"scalar": 4.0 * np.eye(2), "reflection": 4.0 * MATRICES["reflection"],
           "rotation_120": 4.0 * ROT120, "shear": np.array([[4.0, 1.0], [0.0, 3.0]])}[name]
    u = B.scale(B.make_polygon(SQUARE, 64), 1e308)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="support values must be finite"):
        B.linear_image(u, mat)


def test_the_convexity_tolerance_is_not_finite_for_non_finite_samples():
    assert B.convexity_tolerance(np.array([0.5, -3.0])) == B.CONVEXITY_RTOL * 3.0
    assert B.convexity_tolerance(np.array([0.5, -0.25])) == B.CONVEXITY_RTOL
    assert B.convexity_tolerance(np.array([1.0, -np.inf])) == np.inf
    for values in ([1.0, np.nan], [np.nan, 1.0], [np.inf, np.nan], [np.nan, -np.inf]):
        assert np.isnan(B.convexity_tolerance(np.array(values)))


def test_a_run_keeps_no_frames_resident():
    # after a warm-up run of 10 steps has faulted in the temporaries of a
    # step, a kept run of 400 steps at M=8192 grows the peak by less than a
    # tenth of the 26 MB that its frames would take
    code = """
import resource
import numpy as np
from setflow import bodies, flow

steps, m = 400, 8192
params = flow.SemiflowParams(A=-np.eye(2), phi=flow.constant(1.0),
                             source=flow.ball_source(flow.constant(1.0)))
u0 = bodies.make_ball(1.0, grid_size=m)
run = lambda n: flow.evolve(u0, params, horizon=n * 1e-3, dt=1e-3)
peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
run(10)
first = peak()
traj = run(steps)
print((peak() - first) * 1024 / (8 * steps * m))
"""
    proc = helpers.run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 0.1     # in the 26 MB of 400 frames


def _evolve_reference(u, params, horizon, dt):
    frames, t = [u], 0.0
    for _ in range(int(np.ceil(horizon / dt - 1e-12))):
        h = min(dt, horizon - t)
        frames.append(helpers.reference_step(frames[-1], params, h))
        t += h
    return frames


FLOWS = {
    "ball": (512, B.make_ball(1.2, grid_size=512),
             F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                              source=F.ball_source(F.constant(1.0)))),
    "reflection": (512, B.make_polygon(SQUARE, 512),
                   F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                                    source=F.linear_source(F.constant(0.5),
                                                           MATRICES["reflection"]))),
    "nilpotent_rational": (512, B.make_polygon(SQUARE, 512),
                           F.SemiflowParams(A=-np.eye(2),
                                            phi=F.rational([1.0], [1.0, 1.0]),
                                            source=F.linear_source(F.constant(0.5),
                                                                   MATRICES["rank_one"]))),
    "rotation_120": (64, B.make_polygon([[1.0, 0.0], [0.0, 0.6], [-1.0, 0.0], [0.0, -0.6]], 64),
                     F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                                      source=F.linear_source(F.constant(0.4), ROT120))),
    # a constant clock that is not a ScalarFunction keeps the midpoint estimate
    "callable_clock": (512, B.make_polygon(SQUARE, 512),
                       F.SemiflowParams(A=-np.eye(2), phi=lambda v: 1.0,
                                        source=F.linear_source(F.constant(0.5),
                                                               MATRICES["reflection"]))),
    # an identity pull-back hands the half-step back
    "still_rotation_120": (64, B.make_polygon(SQUARE, 64),
                           F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                                            source=F.linear_source(F.constant(0.5),
                                                                   ROT120))),
    "table_clock": (512, B.make_ball(1.2, grid_size=512),
                    F.SemiflowParams(A=[[-1.0, 0.3], [0.0, -2.0]],
                                     phi=F.table([0.0, 2.0, 8.0], [1.0, 0.7, 0.2]),
                                     source=F.ball_source(F.constant(0.5)))),
}


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_evolve_frames_match_the_reference_step(name):
    _, u0, params = FLOWS[name]
    dt, n = 1e-3, 200
    traj = F.evolve(u0, params, horizon=n * dt, dt=dt, tracked=helpers.FRAMES)
    expected = _evolve_reference(u0, params, n * dt, dt)
    assert len(traj.tracked["h"]) == len(expected) == n + 1
    for got, want in zip(traj.tracked["h"], expected):
        assert np.array_equal(got, want.values)
    assert np.array_equal(traj.final.values, expected[-1].values)


def _step_at_the_moved_body(u, params, dt):
    # the split step with its second source half evaluated at the moved body
    # instead of the predictor, from the public kernels
    v0 = B.area(u)
    f0 = params.source.values(v0, u)
    v_mid = max(v0 + 0.5 * dt * F.volume_rate(u, params), 0.0)
    start = u if f0 is None else B._adopt(u.values + (0.5 * dt) * f0)
    moved = B.linear_image(start, F.expm(params.A * (float(params.phi(v_mid)) * dt)))
    f1 = params.source.values(B.area(moved), moved)
    return moved if f1 is None else B._adopt(moved.values + (0.5 * dt) * f1)


@pytest.mark.parametrize("phi", [F.constant(1.0), F.rational([1.0], [1.0, 1.0])],
                         ids=["constant_clock", "rational_clock"])
@pytest.mark.parametrize("source", [
    F.zero_source(),
    F.ball_source(F.constant(0.5)),
    F.constant_source(B.make_polygon([[0.3, 0.0], [0.0, 0.2], [-0.1, -0.1]], 64)),
], ids=["sourceless", "constant_ball", "constant_body"])
def test_a_source_independent_of_the_body_keeps_its_bits(phi, source):
    # without a source the predictor is the moved body, and a source that
    # reads neither the body nor its volume has the same value at both, so
    # the frames are those of the step evaluated at the moved body
    params = F.SemiflowParams(A=[[-1.0, 0.3], [0.0, -2.0]], phi=phi, source=source)
    u = B.make_polygon(np.add(SQUARE, [3.0, -1.0]), 64)
    dt = 2.0 ** -10                 # every step of evolve is dt exactly
    traj = F.evolve(u, params, horizon=50 * dt, dt=dt, tracked=helpers.FRAMES)
    for frame in traj.tracked["h"][1:]:
        u = _step_at_the_moved_body(u, params, dt)
        assert np.array_equal(frame, u.values)


def test_v_w0_and_the_next_area_read_one_form_per_frame(monkeypatch):
    # the tracked V computes the self form of a step's result and keeps it
    # on the body; W0 and the next step's starting area read it
    self_forms, results = [], []
    mixed_form, step = B._mixed_form, F.step

    def counted_form(hu, hv, *diffs):
        if hv is hu:
            self_forms.append(hu)
        return mixed_form(hu, hv, *diffs)

    def kept_step(*args):
        results.append(step(*args))
        return results[-1]

    monkeypatch.setattr(B, "_mixed_form", counted_form)
    monkeypatch.setattr(F, "step", kept_step)
    _, u0, params = FLOWS["reflection"]
    u0 = B.SupportFunction2D(u0.values)     # no form kept from another test
    traj = F.evolve(u0, params, horizon=0.01, dt=1e-3,
                    tracked={"V": B.area, **F.mixed_columns(MATRICES["reflection"], 2),
                             **helpers.FRAMES})
    assert len(results) == 10
    for body in results:
        assert sum(h is body.values for h in self_forms) == 1
    # the other self form of a step is the area of its predictor
    assert len(self_forms) == 1 + 2 * len(results)
    assert np.array_equal(traj.tracked["W0"], traj.tracked["V"])
    assert np.array_equal(traj.tracked["W0"],
                          [helpers.reference_mixed_form(h, h) for h in traj.tracked["h"]])


def test_a_stored_step_pulls_the_body_back_along_b_twice(monkeypatch):
    # the W1 column keeps its pull-back on the stored body, and the next
    # step's source reads it: only the predictor's source and the new body's
    # column pull back along B
    reflection = MATRICES["reflection"].tobytes()
    pullbacks = []
    image_values = B._image_values

    def counted(values, op):
        if op.key == reflection:
            pullbacks.append(values)
        return image_values(values, op)

    monkeypatch.setattr(B, "_image_values", counted)
    _, u0, params = FLOWS["reflection"]
    u0 = B.SupportFunction2D(u0.values)     # no pull-back kept from another test
    traj = F.evolve(u0, params, horizon=0.01, dt=1e-3,
                    tracked={"V": B.area, **F.mixed_columns(MATRICES["reflection"], 2)})
    assert len(traj.times) == 11
    assert len(pullbacks) == 1 + 2 * 10


def test_a_body_takes_the_difference_of_its_samples_once(monkeypatch):
    # its area, a mixed area and three moving columns read one kept difference
    rng = np.random.default_rng(12)
    u, v = helpers.random_polygon(rng, 64), helpers.random_smooth_body(rng, 64)
    differences = []
    difference = B._difference

    def counted(values):
        differences.append(values)
        return difference(values)

    monkeypatch.setattr(B, "_difference", counted)
    B.area(u)
    B.mixed_area(u, v)
    columns = F.mixed_columns(MATRICES["quarter_turn"], 4)    # R, -I and R^3
    for name in ("W1", "W2", "W3"):
        columns[name](u)
    assert sum(values is u.values for values in differences) == 1
    assert not u._diff.flags.writeable


def test_stored_frames_are_read_only_and_not_shared_between_runs(monkeypatch):
    _, u0, params = FLOWS["reflection"]
    monkeypatch.setattr(F, "MAX_STORED_FRAMES", 4)    # every third of 10 steps
    read = []
    tracked = {"h": lambda u: read.append(u) or u.values}
    first, second = (F.evolve(u0, params, horizon=0.01, dt=1e-3, tracked=tracked)
                     for _ in range(2))
    assert len(first.tracked["h"]) == 5                # t = 0, 3, 6, 9 and 10 dt
    assert len(read) == 10 and read[5] is u0
    for a, b in zip(read[1:5], read[6:]):
        assert not a.values.flags.writeable
        assert np.array_equal(a.values, b.values)
        assert not np.shares_memory(a.values, b.values)
    assert read[4] is first.final and read[9] is second.final
    assert not np.shares_memory(first.tracked["h"], second.tracked["h"])


def test_volume_rate_matches_the_reference_forms():
    _, u, params = FLOWS["reflection"]
    v = helpers.reference_mixed_form(u.values, u.values)
    f = params.source.values(v, u)
    expected = params.trace * float(params.phi(v)) * v \
        + 2.0 * helpers.reference_mixed_form(u.values, f)
    assert F.volume_rate(u, params) == expected


# ---------------------------------------------------------------------------
# scipy as the tolerance oracle of the spline and of the exponential


@pytest.mark.parametrize("m", GRIDS)
@pytest.mark.parametrize("name", ["rotation_120", "rotation_1", "shear"])
def test_spline_pullback_matches_scipy_cubic_spline(m, name):
    from scipy.interpolate import CubicSpline

    mat = {"rotation_120": ROT120,
           "rotation_1": np.array([[np.cos(1.0), -np.sin(1.0)], [np.sin(1.0), np.cos(1.0)]]),
           "shear": np.array([[1.0, 0.7], [0.2, -0.4]])}[name]
    w = B.grid_directions(m) @ mat
    norms = np.hypot(w[:, 0], w[:, 1])
    points = np.arctan2(w[:, 1], w[:, 0]) % (2.0 * np.pi)
    plan = B._pullback_plan(mat.tobytes(), m)
    assert plan.cells is not None
    for u in sample_bodies(m):
        spline = CubicSpline(np.append(B.grid_angles(m), 2.0 * np.pi),
                             np.append(u.values, u.values[0]), bc_type="periodic")
        expected = norms * spline(points)
        got = B._spline_image(u.values, plan)
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(u.values))


def test_expm_is_exact_on_scalar_and_zero_matrices():
    from scipy.linalg import expm

    for s in np.concatenate(([0.0, 1e-300, 700.0], RNG.uniform(0.0, 50.0, 500),
                             RNG.uniform(0.0, 1e-3, 500))):
        assert np.array_equal(F.expm(-s * np.eye(2)), expm(-s * np.eye(2)))
        assert np.array_equal(F.expm(-s * np.eye(2)), np.exp(-s) * np.eye(2))
    assert np.array_equal(F.expm(np.zeros((2, 2))), np.eye(2))


def _matrix_with_q(q, rng):
    # mu I + N with N = [[h, b], [c, -h]] and N^2 = (h^2 + b c) I = q I
    mu, h, b = rng.standard_normal(3)
    return np.array([[mu + h, b], [(q - h * h) / b, mu - h]])


@pytest.mark.parametrize("kind", ["random", "q_positive", "q_negative", "nilpotent",
                                  "q_tiny", "q_near_threshold"])
def test_expm_matches_scipy(kind):
    from scipy.linalg import expm

    rng = np.random.default_rng(7)
    make = {
        "random": lambda: rng.standard_normal((2, 2)),
        "q_positive": lambda: _matrix_with_q(rng.uniform(0.1, 4.0), rng),
        "q_negative": lambda: _matrix_with_q(-rng.uniform(0.1, 4.0), rng),
        "nilpotent": lambda: _matrix_with_q(0.0, rng),
        "q_tiny": lambda: _matrix_with_q(rng.uniform(-1e-6, 1e-6), rng),
        "q_near_threshold": lambda: _matrix_with_q(rng.choice([-1.0, 1.0])
                                                   * rng.uniform(0.5e-6, 2e-6), rng),
    }[kind]
    for _ in range(500):
        mat = make()
        want = expm(mat)
        got = F.expm(mat)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_expm_does_not_overflow_on_the_way():
    # e^mu cosh(r) with mu = -500, r = 800: cosh(r) alone would overflow
    from scipy.linalg import expm

    mat = np.array([[300.0, 1e-3], [0.0, -1300.0]])
    want = expm(mat)
    got = F.expm(mat)
    assert np.isfinite(got).all()
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("make", [
    lambda x: np.diag([x, -1.0]),
    lambda x: np.array([[x, 1.0], [0.0, x]]),                   # q = 0
    lambda x: np.array([[x - 1.0, 1.0], [1.0, x - 1.0]]),       # q = 1: mu + r = x
    lambda x: np.array([[x, -1.0], [1.0, x]]),                  # q = -1: mu = x
], ids=["diagonal", "q_zero", "q_positive", "q_negative"])
def test_expm_overflows_past_the_threshold_without_a_warning(make):
    with np.errstate(over="ignore"):
        assert np.exp(np.nextafter(F.EXP_MAX, np.inf)) == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at = F.expm(make(F.EXP_MAX))
        past = F.expm(make(np.nextafter(F.EXP_MAX, np.inf)))
    assert np.isfinite(at).all() and not np.isfinite(past[0, 0])
    if make(0.0)[0, 1] == 0.0:
        assert at[0, 0] == np.exp(F.EXP_MAX) and past[0, 0] == np.inf


def test_expm_of_a_diagonal_matrix_is_elementwise():
    for a, d in RNG.uniform(-40.0, 5.0, size=(200, 2)):
        assert np.array_equal(F.expm(np.diag([a, d])), np.diag(np.exp([a, d])))


def _negative(v):
    # a clock the factories would reject; step must still refuse it
    return -1.0


class TestStepErrors:
    def test_negative_phi_rejected(self):
        params = F.SemiflowParams(A=-np.eye(2), phi=_negative,
                                  source=F.zero_source())
        with pytest.raises(ValueError, match="phi must be nonnegative"):
            F.step(B.make_ball(1.0, grid_size=64), params, 1e-3)

    @pytest.mark.parametrize("make_source", [
        lambda psi: F.ball_source(psi),
        lambda psi: F.linear_source(psi, MATRICES["reflection"]),
    ])
    def test_negative_psi_rejected(self, make_source):
        params = F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                                  source=make_source(_negative))
        with pytest.raises(ValueError, match="psi must be nonnegative"):
            F.step(B.make_ball(1.0, grid_size=64), params, 1e-3)

    def test_non_finite_result_raises_blowup(self):
        # psi vanishes at the start and is huge at the grown area, so the
        # second source half-step overflows
        psi = F.table([0.0, 10.0, 20.0], [0.0, 0.0, 1e308])
        params = F.SemiflowParams(A=np.eye(2), phi=F.constant(1.0),
                                  source=F.ball_source(psi))
        with np.errstate(over="ignore"), pytest.raises(BlowupError) as err:
            F.step(B.make_ball(1.0, grid_size=64), params, 4.0)
        assert err.value.reached_time == 4.0
