"""The lean paths of ``step``, ``evolve`` and the frame columns keep their bits.

Each mixed column is one pull-back and one mixed form, a body keeps its
difference and its pull-backs for every later reader, and a body's sup
norm is both the finiteness test of a new body and the overflow guard of
``evolve``.  Each must give exactly what the reference formulas give.
"""

import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from setflow import bodies as B, flow as F
from setflow.errors import BlowupError

import helpers


def _rotation(angle):
    return np.array([[math.cos(angle), -math.sin(angle)],
                     [math.sin(angle), math.cos(angle)]])


OPERATORS = {
    "identity": np.eye(2),
    "scalar": 1.5 * np.eye(2),
    "negative_scalar": -0.75 * np.eye(2),
    "reflection_x": np.array([[1.0, 0.0], [0.0, -1.0]]),
    "reflection_y": np.array([[-1.0, 0.0], [0.0, 1.0]]),
    "swap": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "quarter_turn": np.array([[0.0, -1.0], [1.0, 0.0]]),
    "grid_rotation": _rotation(2.0 * math.pi * 3 / 16),
    "rotation_120": _rotation(2.0 * math.pi / 3),
    "shear": np.array([[1.0, 0.4], [0.0, 1.0]]),
    "rank_one": np.array([[0.0, 1.0], [0.0, 0.0]]),
}


def _reference_columns(u, op, count):
    # the column formula of each power on its own: one pull-back of the
    # body along the power, one mixed form
    powers = [B._operator(np.linalg.matrix_power(B.as_matrix(op), i)) for i in range(count)]
    return [B._mixed_form(u.values, B._image_values(u.values, p)) for p in powers]


@settings(derandomize=True, max_examples=120, deadline=None)
@given(name=st.sampled_from(sorted(OPERATORS)), count=st.integers(1, 8),
       m=st.sampled_from([16, 64, 512]), seed=st.integers(0, 2 ** 16),
       smooth=st.booleans())
def test_frame_columns_keep_the_bits_of_each_column(name, count, m, seed, smooth):
    rng = np.random.default_rng(seed)
    u = helpers.random_smooth_body(rng, m) if smooth else helpers.random_polygon(rng, m)
    columns = F.mixed_columns(OPERATORS[name], count)
    assert list(columns) == [f"W{i}" for i in range(count)]
    expected = _reference_columns(u, OPERATORS[name], count)
    # the last column first: a column read out of order gives the same bits
    got = [columns[f"W{i}"](u) for i in reversed(range(count))][::-1]
    assert got == expected
    assert got == [helpers.reference_mixed_form(u.values, helpers.reference_image_values(
        u.values, B.as_matrix(np.linalg.matrix_power(OPERATORS[name], i))))
        for i in range(count)]


@pytest.mark.parametrize("m", [64, 8192])
def test_the_gather_powers_keep_their_bits(m):
    # the quarter turn's powers R, -I and R^3 are three gathers
    u = helpers.random_polygon(np.random.default_rng(8), m)
    got = [fn(u) for fn in F.mixed_columns(OPERATORS["quarter_turn"], 4).values()]
    assert got == _reference_columns(u, OPERATORS["quarter_turn"], 4)


def test_the_columns_recompute_for_each_new_body():
    columns = F.mixed_columns(OPERATORS["rotation_120"], 3)
    rng = np.random.default_rng(5)
    for u in (helpers.random_polygon(rng, 64), helpers.random_smooth_body(rng, 64)):
        got = [fn(u) for fn in columns.values()]
        assert got == _reference_columns(u, OPERATORS["rotation_120"], 3)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(name=st.sampled_from(sorted(OPERATORS)), count=st.integers(1, 5),
       m=st.sampled_from([16, 64, 512]), seed=st.integers(0, 2 ** 16),
       smooth=st.booleans())
def test_the_mixed_columns_obey_minkowskis_inequality(name, count, m, seed, smooth):
    # W_i^2 >= V[u] V[B^i u], to 1e-6 of the scale of the compared quantities
    rng = np.random.default_rng(seed)
    u = helpers.random_smooth_body(rng, m) if smooth else helpers.random_polygon(rng, m)
    op = OPERATORS[name]
    for i, column in enumerate(F.mixed_columns(op, count).values()):
        w = column(u)
        product = B.area(u) * B.area(B.linear_image(u, np.linalg.matrix_power(op, i)))
        assert w * w - product >= -1e-6 * max(w * w, product)


def _signed_zeros(op):
    # the operator with every zero entry made -0.0: equal, but other bytes
    op = np.array(op, dtype=float)
    op[op == 0.0] = -0.0
    return op


def _bits(result):
    return np.asarray(result, dtype=float).tobytes()


@settings(derandomize=True, max_examples=150, deadline=None)
@given(name=st.sampled_from(sorted(OPERATORS)), m=st.sampled_from([16, 64, 512]),
       seed=st.integers(0, 2 ** 16), smooth=st.booleans(), order=st.permutations(range(8)))
def test_a_kept_array_never_changes_a_result(name, m, seed, smooth, order):
    # each reader gives on a body that keeps its difference and pull-backs
    # the bits it gives on a fresh body, whichever reader ran first
    rng = np.random.default_rng(seed)
    make = helpers.random_smooth_body if smooth else helpers.random_polygon
    u, v = make(rng, m), make(rng, m)
    op = OPERATORS[name]
    columns = F.mixed_columns(op, 3)
    readers = [B.area, lambda b: B.mixed_area(b, v), lambda b: B.mixed_area(b, v.values),
               *columns.values(),
               *(lambda b, mat=mat: F.linear_source(F.constant(0.5), mat).values(1.0, b)
                 for mat in (op, _signed_zeros(op)))]
    fresh = [_bits(read(B.SupportFunction2D(u.values))) for read in readers]
    kept = B.SupportFunction2D(u.values)
    for _ in range(2):
        assert [_bits(readers[i](kept)) for i in order] == [fresh[i] for i in order]
    # the -0.0 matrix keeps a pull-back of its own, keyed by its bytes
    assert {op.tobytes(), _signed_zeros(op).tobytes()} <= set(kept._images)
    arrays = [kept._diff, *kept._images.values()]
    assert not any(a.flags.writeable for a in arrays)


def test_threads_reading_one_body_get_the_bits_of_a_fresh_body():
    # a body sets its kept arrays without a lock: a race computes one array
    # twice, with the same bits, so no reader sees another result
    rng = np.random.default_rng(21)
    op = OPERATORS["rotation_120"]
    source = F.linear_source(F.constant(0.5), op)
    readers = [B.area, *F.mixed_columns(op, 3).values(), lambda b: source.values(1.0, b)]
    shared = [helpers.random_smooth_body(rng, 512) for _ in range(20)]
    expected = [[_bits(read(B.SupportFunction2D(u.values))) for read in readers] for u in shared]
    results = [[] for _ in range(8)]

    def work(out):
        out.extend([_bits(read(u)) for read in readers] for u in shared)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(out,)) for out in results]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(out == expected for out in results)


@pytest.mark.parametrize("name", ["scalar", "reflection_x", "rotation_120", "shear"])
def test_a_non_finite_column_image_is_rejected(name):
    u = B.scale(B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]], 64), 1e308)
    columns = F.mixed_columns(4.0 * OPERATORS[name], 2)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="support values must be finite"):
        columns["W1"](u)


def test_a_body_keeps_its_sup_norm():
    rng = np.random.default_rng(3)
    u = helpers.random_polygon(rng, 64)
    assert u._norm == float(np.max(np.abs(u.values)))
    image = B.linear_image(u, OPERATORS["shear"])
    assert image._norm == float(np.max(np.abs(image.values)))
    params = F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                              source=F.ball_source(F.constant(0.5)))
    out = F.step(u, params, 1e-3)
    assert out._norm == float(np.max(np.abs(out.values)))
    adopted = B._adopt(u.values.copy())
    assert adopted._norm is None
    assert B._sup_norm(adopted) == u._norm == adopted._norm


def test_a_constant_ball_source_reads_one_cached_array():
    source = F.ball_source(F.constant(0.5))
    u = B.make_ball(1.0, grid_size=64)
    first, second = source.values(1.0, u), source.values(2.0, u)
    assert first is second and not first.flags.writeable
    assert np.array_equal(first, np.full(64, 0.5))
    varying = F.ball_source(F.rational([0.5], [1.0]))
    assert np.array_equal(varying.values(1.0, u), first)
    with pytest.raises(ValueError, match="psi must be nonnegative"):
        F.ball_source(F.ScalarFunction(kind="constant", value=-1.0)).values(1.0, u)


@pytest.mark.parametrize("radii", [(-0.0, 0.0), (0.0, -0.0)],
                         ids=["negative_zero_first", "zero_first"])
def test_a_zero_ball_keeps_its_sign_whatever_ran_before(radii):
    # -0.0 and 0.0 compare equal, but a sum with a -0.0 body keeps the sign
    # of the source's zero, so each psi reads its own cached samples
    u = B.SupportFunction2D(np.full(64, -0.0))
    for radius in radii:
        params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                                  source=F.ball_source(F.constant(radius)))
        negative = math.copysign(1.0, radius) < 0.0
        assert np.signbit(params.source.values(0.0, u)).tolist() == [negative] * 64
        assert np.signbit(F.step(u, params, 1e-3).values).tolist() == [negative] * 64


def _plain_psi(volume):
    return 0.5 / (1.0 + 0.1 * volume)


def _plain_clock(volume):
    return 1.0 / (1.0 + 0.5 * volume)


# the resolved psi and matrix of a source rebuilt by dataclasses.replace are
# those of the new fields, not of the source it was made from
SOURCES = {
    "zero": F.zero_source(),
    "ball": F.ball_source(F.rational([0.5], [1.0, 0.1])),
    "ball_plain": F.ball_source(_plain_psi),
    "ball_replaced": dataclasses.replace(F.ball_source(F.constant(2.0)),
                                         psi=F.constant(0.25)),
    "linear": F.linear_source(F.constant(0.5), OPERATORS["rotation_120"]),
    "linear_plain": F.linear_source(_plain_psi, OPERATORS["shear"]),
    "linear_replaced": dataclasses.replace(
        F.linear_source(F.constant(2.0), OPERATORS["swap"]),
        psi=F.constant(0.5), matrix=OPERATORS["rotation_120"]),
    "constant": F.constant_source(B.make_ball(0.25, grid_size=64)),
}
CLOCKS = {
    "constant": F.constant(1.0),
    "rational": F.rational([1.0], [1.0, 0.5]),
    "table": F.table([0.0, 10.0], [1.0, 0.5]),
    "plain": _plain_clock,
}


@pytest.mark.parametrize("clock", sorted(CLOCKS))
@pytest.mark.parametrize("source", sorted(SOURCES))
def test_a_step_evaluates_its_source_twice(monkeypatch, source, clock):
    # once at the body and once at the predictor; the midpoint volume of a
    # clock that is not constant reads the first samples, a zero source's too.
    # Params rebuilt by dataclasses.replace resolve their own clock.
    values = F.SourceTerm.values
    calls = []

    def counted(self, volume, u):
        calls.append(volume)
        return values(self, volume, u)

    made = F.SemiflowParams(A=-np.eye(2), phi=CLOCKS[clock], source=SOURCES[source])
    rebuilt = dataclasses.replace(
        F.SemiflowParams(A=0.5 * np.eye(2), phi=F.constant(3.0),
                         source=F.ball_source(F.constant(2.0))),
        A=-np.eye(2), phi=CLOCKS[clock], source=SOURCES[source])
    u = helpers.random_polygon(np.random.default_rng(4), 64)
    expected = helpers.reference_step(u, made, 1e-3)
    monkeypatch.setattr(F.SourceTerm, "values", counted)
    for params in (made, rebuilt):
        calls.clear()
        out = F.step(B.SupportFunction2D(u.values), params, 1e-3)
        assert len(calls) == 2
        assert np.array_equal(out.values, expected.values)


def test_a_linear_source_keeps_a_read_only_copy_of_its_matrix():
    # a later write to the caller's array changes neither the source nor
    # its samples; a source made directly coerces its matrix too
    b = np.array([[1.0, 0.0], [0.0, -1.0]])
    source = F.linear_source(F.constant(0.5), b)
    u = helpers.random_polygon(np.random.default_rng(5), 64)
    before = source.values(1.0, u)
    b[0, 1] = 0.7
    assert source.matrix is not b and not source.matrix.flags.writeable
    assert np.array_equal(source.matrix, [[1.0, 0.0], [0.0, -1.0]])
    assert np.array_equal(source.values(1.0, B.SupportFunction2D(u.values)), before)
    direct = F.SourceTerm(kind="linear", psi=F.constant(0.5), matrix=[[0, 1], [1, 0]])
    assert direct.matrix.dtype == float and not direct.matrix.flags.writeable
    assert np.array_equal(direct.values(1.0, u),
                          0.5 * helpers.reference_image_values(u.values, direct.matrix))


def test_the_params_keep_a_read_only_copy_of_a():
    a = -np.eye(2)
    params = F.SemiflowParams(A=a, phi=F.constant(1.0), source=F.zero_source())
    a[0, 0] = 5.0
    assert params.A[0, 0] == -1.0 and not params.A.flags.writeable
    assert params._a.key == (-np.eye(2)).tobytes()


# ---------------------------------------------------------------------------
# the errors of a step and of evolve


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 0.0, -1e-3])
def test_step_refuses_a_dt_that_is_not_positive_and_finite(dt):
    params = F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                              source=F.ball_source(F.constant(1.0)))
    with pytest.raises(ValueError, match="^dt must be positive$"):
        F.step(B.make_ball(1.0, grid_size=64), params, dt)


@pytest.mark.parametrize("horizon, dt", [(math.nan, 1e-3), (math.inf, 1e-3),
                                         (1.0, math.nan), (1.0, math.inf),
                                         (0.0, 1e-3), (1.0, -1e-3)],
                         ids=["nan_horizon", "inf_horizon", "nan_dt", "inf_dt",
                              "zero_horizon", "negative_dt"])
def test_evolve_refuses_a_span_that_is_not_positive_and_finite(horizon, dt):
    params = F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                              source=F.ball_source(F.constant(1.0)))
    with pytest.raises(ValueError, match="^horizon and dt must be positive$"):
        F.evolve(B.make_ball(1.0, grid_size=64), params, horizon, dt)


def _nan_psi(volume):
    return math.nan


def test_a_nan_result_raises_the_step_blowup():
    # under A = 0 the pull-back hands the half-step back untested, so the
    # NaN source reaches the end state, whose sup norm is NaN
    params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                              source=F.ball_source(_nan_psi))
    u = B.make_ball(1.0, grid_size=64)
    with pytest.raises(BlowupError, match="^non-finite support values produced by step$") as err:
        F.step(u, params, 2e-3)
    assert err.value.reached_time == 2e-3
    with pytest.raises(BlowupError, match="^non-finite support values produced by step$") as err:
        F.evolve(u, params, 0.01, 2e-3, tracked=helpers.FRAMES)
    assert err.value.reached_time == 0.0
    assert np.array_equal(err.value.partial.times, [0.0])
    assert np.array_equal(err.value.partial.tracked["h"], [u.values])


def test_an_overflowing_run_stops_at_the_guard_with_what_it_stored():
    # a tenfold growth per step leaves the guard of 1e6 times the start's
    # sup norm after a few steps; every step is stored
    params = F.SemiflowParams(A=math.log(10.0) * 10.0 * np.eye(2), phi=F.constant(1.0),
                              source=F.ball_source(F.constant(0.5)))
    u0 = B.make_ball(2.0, grid_size=64)
    dt = 0.1
    with pytest.raises(BlowupError) as err:
        F.evolve(u0, params, 100 * dt, dt, tracked=helpers.FRAMES)
    frames, t = [u0], 0.0
    guard = F.OVERFLOW_FACTOR * 2.0
    while np.max(np.abs(frames[-1].values)) <= guard:
        frames.append(helpers.reference_step(frames[-1], params, dt))
        t += dt
    assert len(frames) > 3
    assert str(err.value) == f"support values exceeded {guard:.3g} at t={t:.6g}"
    assert err.value.reached_time == t
    partial = err.value.partial
    assert np.array_equal(partial.tracked["h"], [f.values for f in frames[:-1]])
    assert np.array_equal(partial.final.values, frames[-2].values)
