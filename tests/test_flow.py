"""Split-step integrator, Picard oracle, volume rates, reachable sets."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from setflow import bodies as B, flow as F, scenarios
from setflow.errors import BlowupError

import helpers

RNG = np.random.default_rng(77)

MINUS_I = -np.eye(2)
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])


def zero_params():
    return F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                            source=F.zero_source())


def contraction_params(psi=0.0):
    src = F.ball_source(F.constant(psi)) if psi else F.zero_source()
    return F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0), source=src)


class TestStep:
    def test_zero_params_is_identity(self):
        u = helpers.random_polygon(RNG)
        assert B.hausdorff_distance(F.step(u, zero_params(), 0.01), u) == 0.0

    def test_contraction_of_ball(self):
        k = B.make_ball(1.0)
        traj = F.evolve(k, contraction_params(), horizon=1.0, dt=1e-3)
        assert B.hausdorff_distance(traj.final, B.make_ball(np.exp(-1.0))) < 1e-5

    def test_driftless_step_is_minkowski_euler(self):
        # with A = 0 one step equals u + dt * B u up to O(dt^2)
        u = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        mat = np.array([[0.0, 1.0], [1.0, 0.0]])
        params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                                  source=F.linear_source(F.constant(1.0), mat))
        dt = 1e-3
        stepped = F.step(u, params, dt)
        euler = B.minkowski_add(u, B.scale(B.linear_image(u, mat), dt))
        assert B.hausdorff_distance(stepped, euler) < dt * dt

    def test_nonpositive_dt_rejected(self):
        with pytest.raises(ValueError):
            F.step(B.make_ball(1.0), zero_params(), 0.0)


class TestOrder:
    @pytest.mark.parametrize("name", ["reflection_square", "rotation_rectangle",
                                      "sde_bound"])
    def test_the_step_is_second_order(self, name):
        # the builtin flow's area at t = 1 against dt = 1.25e-4: each halving
        # of dt from 8e-3 divides the error by 4 (a first-order step divides
        # it by about 2 here)
        scenario = scenarios.get_builtin(name)

        def area_at_1(dt):
            traj = F.evolve(scenario.initial_body, scenario.params, horizon=1.0, dt=dt,
                            tracked={"V": B.area})
            return traj.tracked["V"][-1]

        reference = area_at_1(1.25e-4)
        errors = [abs(area_at_1(dt) - reference) for dt in (8e-3, 4e-3, 2e-3, 1e-3)]
        orders = np.log2(np.divide(errors[:-1], errors[1:]))
        assert orders.min() >= 1.9


class TestEvolve:
    def test_constant_trajectory(self):
        u = helpers.random_smooth_body(RNG)
        traj = F.evolve(u, zero_params(), horizon=0.5, dt=0.01)
        assert B.hausdorff_distance(traj.final, u) == 0.0
        assert np.allclose(traj.tracked["V"], B.area(u))

    def test_blowup_reports_reached_time(self):
        params = F.SemiflowParams(A=np.eye(2), phi=F.constant(1.0),
                                  source=F.zero_source())
        with pytest.raises(BlowupError) as err:
            F.evolve(B.make_ball(1.0), params, horizon=30.0, dt=0.01)
        assert 0 < err.value.reached_time < 30.0
        assert err.value.partial is not None

    def test_a_blown_up_run_keeps_the_body_at_its_last_stored_time(self):
        params = F.SemiflowParams(A=np.eye(2), phi=F.constant(1.0),
                                  source=F.zero_source())
        with pytest.raises(BlowupError) as err:
            F.evolve(B.make_ball(1.0), params, horizon=30.0, dt=0.01,
                     tracked=helpers.FRAMES)
        partial = err.value.partial
        assert len(partial.tracked["h"]) == len(partial.times) > 1
        assert np.array_equal(partial.final.values, partial.tracked["h"][-1])

    def test_linear_part_matches_single_pullback(self):
        u = helpers.random_smooth_body(RNG)
        a_mat = np.array([[0.2, 0.5], [-0.4, 0.1]])
        params = F.SemiflowParams(A=a_mat, phi=F.constant(0.8),
                                  source=F.zero_source())
        traj = F.evolve(u, params, horizon=1.0, dt=0.01)
        exact = B.linear_image(u, expm(a_mat * 0.8))
        assert B.hausdorff_distance(traj.final, exact) < 1e-6

    def test_liouville_area_ratio(self):
        # with F = 0 and constant phi the area grows exactly like the
        # determinant of the flow map
        for _ in range(3):
            u = helpers.random_smooth_body(RNG)
            a_mat = RNG.uniform(-0.5, 0.5, size=(2, 2))
            c = RNG.uniform(0.4, 1.2)
            params = F.SemiflowParams(A=a_mat, phi=F.constant(c),
                                      source=F.zero_source())
            traj = F.evolve(u, params, horizon=1.0, dt=0.01)
            ratio = traj.tracked["V"][-1] / B.area(u)
            assert ratio == pytest.approx(np.exp(np.trace(a_mat) * c), rel=1e-4)

    def test_semigroup_law(self):
        u = helpers.random_smooth_body(RNG)
        params = helpers.random_mild_params(RNG)
        dt = 1e-3
        once = F.evolve(u, params, horizon=0.05, dt=dt).final
        half = F.evolve(u, params, horizon=0.02, dt=dt).final
        chained = F.evolve(half, params, horizon=0.03, dt=dt).final
        assert B.hausdorff_distance(once, chained) <= 10 * dt

    def test_continuity_in_initial_data(self):
        params = F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0),
                                  source=F.ball_source(F.constant(0.5)))
        u0 = B.make_ball(1.0)
        u1 = B.make_ball(1.0, center=(0.01, 0.0))
        d0 = B.hausdorff_distance(u0, u1)
        dT = B.hausdorff_distance(F.evolve(u0, params, 0.5, 1e-3).final,
                                  F.evolve(u1, params, 0.5, 1e-3).final)
        assert dT <= 5.0 * d0

    def test_reflection_orbit_of_asymmetric_body(self):
        # a body that is not reflection-symmetric drives both decay modes of
        # the two-mode closed form (the acceptance square only drives one)
        from setflow.certificates import reflection_area_profile
        u0 = B.make_polygon([[1.0, 0.1], [-0.3, 0.8], [-0.9, -0.2], [0.2, -0.6]])
        reflection = np.array([[1.0, 0.0], [0.0, -1.0]])
        params = F.SemiflowParams(
            A=MINUS_I, phi=F.constant(1.0),
            source=F.linear_source(F.constant(0.5), reflection))
        w = F.mixed_functionals(u0, reflection, 2)
        assert abs(w[0] - w[1]) > 0.05      # genuinely two-mode data
        traj = F.evolve(u0, params, horizon=2.0, dt=1e-3)
        ref = reflection_area_profile(traj.times, w[0], w[1])
        assert np.max(np.abs(traj.tracked["V"] - ref) / np.abs(ref)) < 1e-3

    def test_tracked_series_and_csv(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        params = F.SemiflowParams(
            A=MINUS_I, phi=F.constant(1.0),
            source=F.linear_source(F.constant(0.5), QUARTER_TURN))
        disc = B.make_ball(1.0)
        traj = F.evolve(q, params, horizon=0.2, dt=0.01,
                        tracked={"dist": lambda u: B.hausdorff_distance(u, disc),
                                 "perimeter": B.perimeter,
                                 **F.mixed_columns(QUARTER_TURN, 2), "V": B.area})
        csv = traj.to_csv()
        header = csv.splitlines()[0]
        assert header == "t,dist,perimeter,W0,W1,V"     # the order of the mapping
        assert len(csv.splitlines()) == len(traj.times) + 1
        assert traj.tracked["W0"][0] == pytest.approx(B.area(q))

    def test_a_column_of_frames_has_no_csv_cell(self):
        traj = F.evolve(B.make_ball(1.0), zero_params(), horizon=0.05, dt=0.01,
                        tracked={"V": B.area, **helpers.FRAMES})
        assert traj.tracked["h"].shape == (6, B.DEFAULT_GRID_SIZE)
        with pytest.raises(ValueError, match="column 'h' is not one number per frame"):
            traj.to_csv()


class TestVolumeRate:
    def test_pure_contraction_rate(self):
        k = B.make_ball(1.0)
        rate = F.volume_rate(k, contraction_params())
        assert rate == pytest.approx(-2 * helpers.sampled_disc_area(512), abs=1e-10)

    def test_linear_body_source_rate_formula(self):
        # rate = -2 phi(W0) W0 + 2 psi(W0) W1 for the shear source
        q = helpers.random_polygon(RNG)
        mat = np.array([[0.0, 1.0], [0.0, 0.0]])
        phi = F.rational([1.0], [1.0, 1.0])
        psi = F.constant(0.5)
        params = F.SemiflowParams(A=MINUS_I, phi=phi,
                                  source=F.linear_source(psi, mat))
        w0 = B.area(q)
        w1 = B.mixed_area(q, B.linear_image(q, mat))
        expected = -2 * phi(w0) * w0 + 2 * psi(w0) * w1
        assert F.volume_rate(q, params) == pytest.approx(expected, rel=1e-12)

    def test_finite_difference_richardson(self):
        u = helpers.random_smooth_body(RNG)
        params = helpers.random_mild_params(RNG)
        rate = F.volume_rate(u, params)

        def v_at(t):
            return F.evolve(u, params, horizon=t, dt=t / 40).tracked["V"][-1]

        v0 = B.area(u)
        h = 1e-3
        d1 = (v_at(h) - v0) / h
        d2 = (v_at(h / 2) - v0) / (h / 2)
        richardson = 2 * d2 - d1
        assert richardson == pytest.approx(rate, rel=2e-3, abs=2e-5)


class TestPicard:
    def test_linear_flow_oracle(self):
        k = B.make_ball(1.0)
        traj = F.picard_solve(k, contraction_params(), horizon=0.1, tol=1e-10,
                              tracked=helpers.FRAMES)
        for t, body in zip(traj.times, helpers.frames(traj)):
            assert B.hausdorff_distance(body, B.make_ball(np.exp(-t))) < 1e-9

    def test_constant_source_is_affine(self):
        u0 = B.make_ball(0.5)
        control = B.make_ball(1.0)
        params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                                  source=F.constant_source(control))
        traj = F.picard_solve(u0, params, horizon=0.05, tol=1e-12,
                              tracked=helpers.FRAMES)
        for t, body in zip(traj.times, helpers.frames(traj)):
            expected = B.minkowski_add(u0, B.scale(control, t))
            assert B.hausdorff_distance(body, expected) < 1e-10

    def test_agreement_with_evolve_on_shear_source(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        params = F.SemiflowParams(
            A=MINUS_I, phi=F.rational([1.0], [1.0, 1.0]),
            source=F.linear_source(F.constant(0.5), [[0.0, 1.0], [0.0, 0.0]]))
        horizon = 0.02
        pic = F.picard_solve(q, params, horizon, tol=1e-10, n_nodes=11,
                             tracked=helpers.FRAMES)
        ev = F.evolve(q, params, horizon, dt=horizon / 10, tracked=helpers.FRAMES)
        # frames line up: picard node spacing is a multiple of evolve dt
        matches = 0
        ev_frames = helpers.frames(ev)
        for t, body in zip(pic.times, helpers.frames(pic)):
            idx = np.argmin(np.abs(ev.times - t))
            if abs(ev.times[idx] - t) < 1e-12:
                assert B.hausdorff_distance(body, ev_frames[idx]) < 1e-4
                matches += 1
        assert matches >= 5

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            F.picard_solve(B.make_ball(1.0), contraction_params(psi=1.0),
                           horizon=10.0)

    def test_the_horizon_shrinks_with_the_growth_of_the_semigroup(self):
        # u(t) is the disc of radius e^{at} + psi (e^{at} - 1) / a under A = a I;
        # at a = 1e5, exp(A Phi) overflows long before t = 0.05
        u0 = B.make_ball(1.0, grid_size=64)
        source = F.ball_source(F.constant(0.5))

        def params(A):
            return F.SemiflowParams(A=A, phi=F.constant(1.0), source=source)
        large = params(1e5 * np.eye(2))
        horizon = F.contraction_horizon(u0, large)
        assert 0 < horizon < 1e-5
        traj = F.picard_solve(u0, large, 0.9 * horizon, tracked=helpers.FRAMES)
        t = traj.times[-1]
        radius = np.exp(1e5 * t) + 0.5 * np.expm1(1e5 * t) / 1e5
        assert np.max(np.abs(helpers.frames(traj)[-1].values - radius)) < 1e-9
        with pytest.raises(ValueError, match="exceeds estimated contraction horizon"):
            F.picard_solve(u0, large, horizon=0.05)
        # ||A||_2 overflows: no horizon is estimated, and none passes the guard
        with pytest.raises(ValueError, match="exceeds estimated contraction horizon nan"):
            F.picard_solve(u0, params(np.full((2, 2), 1e308)), horizon=1e-300)
        # a semigroup growing at most at the clock's rate keeps the horizon
        # of A = 0, which reads no A
        unit = F.contraction_horizon(u0, params(np.zeros((2, 2))))
        for A in (-np.eye(2), np.eye(2), [[0.0, -1.0], [1.0, 0.0]], [[0.6, 0.0], [0.8, 0.0]]):
            assert F.contraction_horizon(u0, params(A)) == unit
        assert F.contraction_horizon(u0, params(3 * np.eye(2))) < unit


class TestReachSet:
    def test_growing_disc(self):
        origin = B.make_ball(0.0)
        traj = F.reach_set(np.zeros((2, 2)), B.make_ball(1.0), origin,
                           horizon=1.0, dt=1e-3)
        for t, v in zip(traj.times, traj.tracked["V"]):
            assert v == pytest.approx(np.pi * t * t, abs=1e-4)

    def test_contractive_system_radius(self):
        # oracle: the radius solves r' = 1 - r from r(0) = 0
        sol = solve_ivp(lambda t, r: 1.0 - r, (0.0, 1.0), [0.0],
                        rtol=1e-10, atol=1e-12, dense_output=True)
        origin = B.make_ball(0.0)
        traj = F.reach_set(MINUS_I, B.make_ball(1.0), origin,
                           horizon=1.0, dt=1e-3, tracked=helpers.FRAMES)
        for t in (0.25, 0.5, 1.0):
            idx = np.argmin(np.abs(traj.times - t))
            body = B.SupportFunction2D(traj.tracked["h"][idx])
            expected = B.make_ball(float(sol.sol(traj.times[idx])[0]))
            assert B.hausdorff_distance(body, expected) < 1e-5

    def test_trivial_control_is_linear_flow(self):
        d0 = helpers.random_smooth_body(RNG)
        a_mat = np.array([[0.1, 0.3], [-0.2, 0.2]])
        traj = F.reach_set(a_mat, B.make_ball(0.0), d0, horizon=0.5, dt=1e-2)
        exact = B.linear_image(d0, expm(a_mat * 0.5))
        assert B.hausdorff_distance(traj.final, exact) < 1e-6


class TestMixedFunctionals:
    def test_ball_is_rotation_invariant(self):
        k = B.make_ball(1.0)
        w = F.mixed_functionals(k, QUARTER_TURN, 4)
        assert np.allclose(w, helpers.sampled_disc_area(512), atol=1e-10)

    def test_segment_alternation(self):
        for n in (4.0, 8.0, 16.0):
            seg = B.make_segment(n)
            w = F.mixed_functionals(seg, QUARTER_TURN, 4)
            assert abs(w[0]) <= 1e-12 * n * n
            assert w[1] == pytest.approx(n * n / 2, rel=1e-12)
            assert abs(w[2]) <= 1e-12 * n * n
            assert w[3] == pytest.approx(n * n / 2, rel=1e-12)

    def test_identity_operator(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        w = F.mixed_functionals(q, np.eye(2), 2)
        assert w[0] == pytest.approx(B.area(q), abs=1e-12)
        assert w[1] == pytest.approx(B.area(q), abs=1e-12)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            F.mixed_functionals(B.make_ball(1.0), np.eye(2), 0)


class TestScalarFunction:
    @pytest.mark.parametrize("nodes", [[2.0, 0.0, 1.0], [0.0, 1.0, 1.0]],
                             ids=["unsorted", "repeated"])
    def test_table_nodes_must_strictly_increase(self, nodes):
        with pytest.raises(ValueError, match="strictly increase"):
            F.table(nodes, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("den", [[0.0], [0.0, 0.0], [], [0.0, 1.0], [1.0, -1.0],
                                     [1.0, -2.0, 1.0], [-1.0, 0.0, 1.0]],
                             ids=["zero", "zeros", "empty", "root_0", "root_1",
                                  "double_root_1", "roots_pm_1"])
    def test_rational_denominator_may_not_vanish_on_the_half_line(self, den):
        with pytest.raises(ValueError, match="root in"):
            F.rational([1.0], den)

    @pytest.mark.parametrize("den", [[1.0], [1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.25],
                                     [2.0, 0.0]],
                             ids=["constant", "root_-1", "roots_pm_i", "double_root_-2",
                                  "zero_leading_coefficient"])
    def test_rational_denominator_without_a_root_on_the_half_line(self, den):
        f = F.rational([1.0], den)
        assert f(1.0) == pytest.approx(1.0 / np.polyval(den[::-1], 1.0))

    @pytest.mark.parametrize("num, den", [
        ([-1.0], [1.0]), ([0.0, -1.0], [1.0]), ([-1.0, 0.0, 1.0], [1.0]),
        ([2.0, -3.0, 1.0], [1.0]), ([1.0, -2.5, 1.0], [1.0]), ([1.0], [-1.0, -1.0]),
        ([1e-9, -1.0], [1.0, 1.0]),
    ], ids=["negative_constant", "negative_slope", "negative_before_1",
            "negative_between_1_and_2", "negative_between_roots_of_a_concave_start",
            "negative_denominator", "negative_past_a_tiny_root"])
    def test_rational_negative_on_the_half_line_is_rejected(self, num, den):
        with pytest.raises(ValueError, match="negative somewhere"):
            F.rational(num, den)

    @pytest.mark.parametrize("num, den", [
        ([], [1.0]), ([0.0], [1.0]), ([0.0, 1.0], [1.0]), ([1.0, -2.0, 1.0], [1.0]),
        ([-1.0], [-1.0, -1.0]), ([1.0, -1.0, 0.3], [1.0]), ([2.0, 3.0, 1.0], [1.0]),
    ], ids=["empty", "zero", "identity", "double_root_1", "negative_over_negative",
            "no_real_root", "negative_roots_only"])
    def test_rational_nonnegative_on_the_half_line_is_accepted(self, num, den):
        f = F.rational(num, den)
        assert min(f(s) for s in np.linspace(0.0, 5.0, 501)) >= 0.0

    @pytest.mark.parametrize("make", [
        lambda x: F.constant(x), lambda x: F.rational([1.0, x], [1.0]),
        lambda x: F.rational([1.0], [1.0, x]), lambda x: F.table([0.0, x], [1.0, 1.0]),
        lambda x: F.table([0.0, 1.0], [1.0, x]),
    ], ids=["constant", "rational_num", "rational_den", "table_nodes", "table_values"])
    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_non_finite_numbers_are_rejected(self, make, x):
        with pytest.raises(ValueError, match="finite"):
            make(x)

    def test_negative_table_values_are_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            F.table([0.0, 1.0], [1.0, -0.5])

    @pytest.mark.parametrize("f", [
        F.constant(0.7), F.constant(0.0), F.rational([], [1.0]),
        F.rational([1.0, 0.5], [1.0, 0.0, 0.25]), F.rational([0.3, -1.0, 1.0], [2.0, 0.1]),
        F.table([0.0, 1.0, 4.0], [1.0, 0.5, 2.0]),
    ], ids=["constant", "zero", "empty_rational", "rational", "rational_quadratic", "table"])
    def test_values_are_bit_equal_to_the_parametric_formulas(self, f):
        def formula(s):
            # the scalar function written out from its parameters
            if f.kind == "constant":
                return f.value
            if f.kind == "rational":
                return np.polyval(f.num[::-1], s) / np.polyval(f.den[::-1], s)
            return np.interp(s, f.s_nodes, f.s_values)

        s = np.concatenate([[0.0, 1.0, 4.0, 5.0, 1e6],
                            np.random.default_rng(3).uniform(0.0, 10.0, 200)])
        for x in s:
            got = f(x)
            assert type(got) is float and got == float(formula(float(x)))
        assert np.array_equal(f(s), np.broadcast_to(formula(s), s.shape))
        assert np.array_equal(f(s.reshape(5, 41)), f(s).reshape(5, 41))

    @pytest.mark.parametrize("f, lo, hi, expected", [
        (F.constant(0.7), 0.0, 5.0, (0.7, 0.7)),
        (F.rational([], [1.0]), 0.0, 5.0, (0.0, 0.0)),
        (F.rational([1.0], [1.0, 1.0]), 0.0, 5.0, (1.0 / 6.0, 1.0)),
        # (1 + s/2) / (1 + s^2/4) peaks at s = 2 (sqrt 2 - 1), at (1 + sqrt 2) / 2
        (F.rational([1.0, 0.5], [1.0, 0.0, 0.25]), 0.0, 5.0,
         (3.5 / 7.25, (1.0 + np.sqrt(2.0)) / 2.0)),
        (F.rational([1.0, -2.0, 1.0], [1.0]), 0.5, 1.5, (0.0, 0.25)),
        (F.table([0.0, 1.0, 4.0], [1.0, 0.5, 2.0]), 0.0, 5.0, (0.5, 2.0)),
        (F.table([0.0, 1.0, 4.0], [1.0, 0.5, 2.0]), 0.5, 1.5, (0.5, 0.75)),
        (F.table([0.0, 1.0, 4.0], [1.0, 0.5, 2.0]), 2.0, 2.0, (1.0, 1.0)),
    ], ids=["constant", "zero", "decreasing", "interior_peak", "interior_root", "table",
            "table_node_inside", "table_point"])
    def test_the_range_takes_the_extremes(self, f, lo, hi, expected):
        assert f.range(lo, hi) == pytest.approx(expected, rel=1e-14, abs=1e-15)

    @settings(max_examples=80, derandomize=True, database=None, deadline=None)
    @given(helpers.RATIONAL_CLOCKS | helpers.TABLE_CLOCKS, st.floats(0.0, 5.0),
           st.floats(0.0, 5.0))
    def test_the_range_holds_dense_samples(self, f, a, b):
        # the extremes of 10^5 + 1 equal samples of [lo, hi], its ends
        # among them, lie in the range, to the rounding of the values
        lo, hi = sorted((a, b))
        values = f(np.linspace(lo, hi, 10 ** 5 + 1))
        low, high = f.range(lo, hi)
        tol = 1e-12 * max(1.0, float(np.max(values)))
        assert low - tol <= np.min(values) and np.max(values) <= high + tol
        assert low <= values[0] <= high and low <= values[-1] <= high

    def test_parameters_define_equality(self):
        assert F.rational([1.0], [1.0, 1.0]) == F.rational([1.0], [1.0, 1.0])
        assert hash(F.table([0.0, 1.0], [1.0, 2.0])) == hash(F.table([0.0, 1.0], [1.0, 2.0]))
        assert F.constant(1.0) != F.constant(2.0)
        with pytest.raises(ValueError, match="unknown scalar function kind"):
            F.ScalarFunction(kind="cubic")(1.0)

    def test_scalar_functions_and_params_survive_pickling(self):
        fns = [F.constant(0.7), F.rational([1.0, 0.5], [1.0, 0.0, 0.25]),
               F.table([0.0, 1.0, 4.0], [1.0, 0.5, 2.0])]
        for f in fns:
            g = pickle.loads(pickle.dumps(f))
            assert g == f and g(2.5) == f(2.5)
        params = F.SemiflowParams(A=MINUS_I, phi=fns[1], source=F.ball_source(fns[2]))
        u = B.make_ball(1.0, grid_size=64)
        again = pickle.loads(pickle.dumps(params))
        assert np.array_equal(F.step(u, again, 1e-3).values, F.step(u, params, 1e-3).values)
