"""Cached pull-back plans, cached form weights and the step built on them.

Every cached kernel must reproduce the uncached reference formulas in
``helpers`` bit for bit, so that CSV/JSON outputs stay byte-identical.
"""

import numpy as np
import pytest

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
            got = B._image_values(u.values, mat)
            assert np.array_equal(got, helpers.reference_image_values(u.values, mat))


@pytest.mark.parametrize("m", GRIDS)
def test_scalar_pullbacks_under_a_moving_clock_match(m):
    u = helpers.random_smooth_body(RNG, m)
    for s in RNG.uniform(0.0, 5e-3, size=50):
        mat = np.exp(-s) * np.eye(2)
        assert np.array_equal(B._image_values(u.values, mat),
                              helpers.reference_image_values(u.values, mat))


@pytest.mark.parametrize("m", GRIDS)
def test_forms_and_defect_match_the_uncached_formulas(m):
    u, v = helpers.random_polygon(RNG, m), helpers.random_smooth_body(RNG, m)
    for hu, hv in ((u.values, u.values), (u.values, v.values), (v.values, u.values)):
        assert B._mixed_form(hu, hv) == helpers.reference_mixed_form(hu, hv)
    assert B.area(u) == helpers.reference_mixed_form(u.values, u.values)
    assert B.mixed_area(u, v) == helpers.reference_mixed_form(u.values, v.values)
    for w in (u.values, v.values, u.values - v.values):
        assert np.array_equal(B.convexity_defect(w), helpers.reference_convexity_defect(w))


@pytest.mark.parametrize("name", ["reflection", "rank_one", "rotation_120", "zero"])
def test_cached_arrays_are_read_only(name):
    mat = MATRICES[name]
    B._image_values(B.make_ball(1.0, grid_size=64).values, mat)
    plan = B._pullback_plan(mat.tobytes(), 64)
    arrays = [a for a in (plan.nz, plan.norms, plan.gather, plan.points) if a is not None]
    arrays += [B._form_weights(64), F._flow_matrix(MATRICES["quarter_turn"].tobytes(), 0.5)]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 1.0


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
}


@pytest.mark.parametrize("name", sorted(FLOWS))
def test_evolve_frames_match_the_reference_step(name):
    _, u0, params = FLOWS[name]
    dt, n = 1e-3, 200
    traj = F.evolve(u0, params, horizon=n * dt, dt=dt, store_every=1)
    expected = _evolve_reference(u0, params, n * dt, dt)
    assert len(traj.bodies) == len(expected) == n + 1
    for got, want in zip(traj.bodies, expected):
        assert np.array_equal(got.values, want.values)


def test_volume_rate_matches_the_reference_forms():
    _, u, params = FLOWS["reflection"]
    v = helpers.reference_mixed_form(u.values, u.values)
    f = params.source.values(v, u.values)
    expected = params.trace * float(params.phi(v)) * v \
        + 2.0 * helpers.reference_mixed_form(u.values, f)
    assert F.volume_rate(u, params) == expected


class TestStepErrors:
    def test_negative_phi_rejected(self):
        params = F.SemiflowParams(A=-np.eye(2), phi=F.rational([-1.0], [1.0]),
                                  source=F.zero_source())
        with pytest.raises(ValueError, match="phi must be nonnegative"):
            F.step(B.make_ball(1.0, grid_size=64), params, 1e-3)

    @pytest.mark.parametrize("make_source", [
        lambda psi: F.ball_source(psi),
        lambda psi: F.linear_source(psi, MATRICES["reflection"]),
    ])
    def test_negative_psi_rejected(self, make_source):
        params = F.SemiflowParams(A=-np.eye(2), phi=F.constant(1.0),
                                  source=make_source(F.rational([-1.0], [1.0])))
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
