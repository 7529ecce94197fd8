"""The lean paths of ``step``, ``evolve`` and the frame columns keep their bits.

A frame's mixed columns are computed together (one difference of the body,
one curvature solve), and a body's sup norm is both the
finiteness test of a new body and the overflow guard of ``evolve``.  Each
must give exactly what the per-column and per-test formulas gave.
"""

import math

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
    # the column formula of each power on its own, as it was before the
    # columns shared one pass
    powers = [B.as_matrix(np.linalg.matrix_power(B.as_matrix(op), i)) for i in range(count)]
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
    # the last column first, so that a column read out of order also computes
    # the shared pass
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
    first, second = source.values(1.0, u.values), source.values(2.0, u.values)
    assert first is second and not first.flags.writeable
    assert np.array_equal(first, np.full(64, 0.5))
    varying = F.ball_source(F.rational([0.5], [1.0]))
    assert np.array_equal(varying.values(1.0, u.values), first)
    with pytest.raises(ValueError, match="psi must be nonnegative"):
        F.ball_source(F.ScalarFunction(kind="constant", value=-1.0)).values(1.0, u.values)


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
        assert np.signbit(params.source.values(0.0, u.values)).tolist() == [negative] * 64
        assert np.signbit(F.step(u, params, 1e-3).values).tolist() == [negative] * 64


def test_the_params_keep_a_read_only_copy_of_a():
    a = -np.eye(2)
    params = F.SemiflowParams(A=a, phi=F.constant(1.0), source=F.zero_source())
    a[0, 0] = 5.0
    assert params.A[0, 0] == -1.0 and not params.A.flags.writeable
    assert params._a_bytes == (-np.eye(2)).tobytes()


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
