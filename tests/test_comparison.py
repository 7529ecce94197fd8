"""Comparison systems: integration, quasimonotonicity, stability verdicts."""

import numpy as np
import pytest
from scipy.linalg import expm

from setflow import bodies as B, comparison as C, flow as F
from setflow.errors import BlowupError

import helpers

RNG = np.random.default_rng(9)

MINUS_I = -np.eye(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
SHEAR = np.array([[0.0, 1.0], [0.0, 0.0]])

# xi0' = 50 (0.08 - xi1) xi0 with xi1 frozen: only states with xi1 < 0.08
# grow.  The 16 directions of seed 3 have xi1 >= 0.11 at delta = 1, so all
# survive eps = 1 there, but one grows past eps in the decay run at delta = 1/2
NON_MONOTONE = C.ComparisonSystem(
    dim=2, rhs=lambda xi: np.array([50.0 * (0.08 - xi.T[1]) * xi.T[0],
                                    0.0 * xi.T[1]]).T, name="non_monotone")


# g_1 falls once xi_0 passes 4.5, so on the box [0, 5]^2 only the samples
# whose eta_0 lies past 4.5 break quasimonotonicity, in component 1
LATE_VIOLATION = C.ComparisonSystem(
    dim=2, rhs=lambda xi: np.array([0.0 * xi.T[0], -np.maximum(xi.T[0] - 4.5, 0.0)]).T,
    name="late_violation")


class TestIntegrate:
    def test_nilpotent_closed_form(self):
        # phi = 1, psi = 1/2: xi1 = w0 exp(-2t), xi0 = exp(-2t)(s0 + w0 t)
        sys2 = C.nilpotent_source_system(F.constant(1.0), F.constant(0.5))
        s0, w0 = 2.0, 1.5
        traj = C.integrate(sys2, [s0, w0], horizon=2.0, dt_out=0.05)
        t = traj.times
        assert np.max(np.abs(traj.states[:, 1] - w0 * np.exp(-2 * t))) < 1e-7
        assert np.max(np.abs(traj.states[:, 0] - np.exp(-2 * t) * (s0 + w0 * t))) < 1e-7

    def test_sde_growth_matches_matrix_exponential(self):
        sys_m = C.sde_growth_system(SWAP)
        traj = C.integrate(sys_m, [1.0, 0.0], horizon=1.0, dt_out=0.1)
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        exact = np.array([expm(m * t) @ [1.0, 0.0] for t in traj.times])
        assert np.max(np.abs(traj.states - exact)) < 1e-6

    def test_zero_rhs_is_constant(self):
        flat = C.ComparisonSystem(dim=3, rhs=lambda xi: np.zeros(3))
        traj = C.integrate(flat, [1.0, 2.0, 3.0], horizon=5.0, dt_out=1.0)
        assert np.allclose(traj.states, [1.0, 2.0, 3.0])

    def test_negative_start_rejected(self):
        flat = C.ComparisonSystem(dim=1, rhs=lambda xi: np.zeros(1))
        with pytest.raises(ValueError):
            C.integrate(flat, [-1.0], horizon=1.0)

    def test_blowup_raises(self):
        quad = C.scalar_system(lambda x: x * x)
        with pytest.raises(BlowupError) as err:
            C.integrate(quad, [1.0], horizon=2.0, dt_out=0.01)
        assert 0.9 < err.value.reached_time <= 1.05

    def test_single_functional_chain(self):
        # k = 1 closes on itself: xi0' = (-2 phi + 2 psi) xi0
        sys1 = C.cyclic_mixed_system(F.constant(1.0), F.constant(0.25), 1)
        traj = C.integrate(sys1, [2.0], horizon=1.0, dt_out=0.25)
        assert np.max(np.abs(traj.states[:, 0]
                             - 2.0 * np.exp(-1.5 * traj.times))) < 1e-7

    def test_table_clock(self):
        phi = F.table([0.0, 1.0, 10.0], [1.0, 0.5, 0.5])
        sys2 = C.nilpotent_source_system(phi, F.constant(0.0))
        traj = C.integrate(sys2, [0.5, 0.0], horizon=0.5, dt_out=0.1)
        # below s = 1 the interpolated clock is 1 - s/2
        assert traj.states[-1, 0] < 0.5

    def test_cone_invariance_sampled(self):
        # quasimonotone systems started in the cone stay there (no clamping)
        for system in (C.sde_growth_system(SWAP),
                       C.nilpotent_source_system(F.constant(1.0), F.constant(0.5)),
                       C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 4)):
            xi0 = RNG.uniform(0.0, 2.0, system.dim)
            traj = C.integrate(system, xi0, horizon=1.0, dt_out=0.05)
            assert traj.clamp_events == 0
            assert np.min(traj.states) >= -1e-12

    @pytest.mark.parametrize("system", [
        C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 1),
        C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 2),
        C.cyclic_mixed_system(F.constant(1.0), F.constant(0.4), 3),
        C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 4),
        C.nilpotent_source_system(F.constant(1.0), F.constant(0.5)),
        C.nilpotent_source_system(F.rational([1.0], [1.0, 1.0]), F.constant(2.0)),
        C.nilpotent_source_system(F.table([0.0, 1.0, 10.0], [1.0, 0.5, 0.5]),
                                  F.constant(0.5)),
        C.sde_growth_system(SWAP),
        C.linear_system([[-1.0, 0.3, -0.2], [0.5, -2.0, 0.1], [-0.4, 0.2, 0.3]]),
        C.scalar_system(lambda t, x: -(1.0 + 0.5 * np.cos(t)) * x,
                        time_dependent=True),
    ], ids=lambda s: s.name)
    def test_batch_rows_match_single_calls(self, system):
        rng = np.random.default_rng(17)
        xi0 = rng.uniform(0.0, 2.0, size=(7, system.dim))
        xi0[0] = 0.0
        batch = C.integrate(system, xi0, horizon=3.0, dt_out=0.1)
        assert batch.states.shape == (31, 7, system.dim)
        clamped = 0
        for i, row in enumerate(xi0):
            single = C.integrate(system, row, horizon=3.0, dt_out=0.1)
            assert np.array_equal(batch.states[:, i], single.states)
            clamped += single.clamp_events
        assert batch.clamp_events == clamped
        assert np.array_equal(batch.times, single.times)

    def test_batch_ends_at_first_stop(self):
        # row 1 grows past 2 near t = ln 2; row 0 would never stop
        growth = C.linear_system([[1.0]])
        stop = lambda t, xi: xi[..., 0] >= 2.0
        single = C.integrate(growth, [1.0], horizon=3.0, dt_out=0.1,
                             stop_condition=stop)
        batch = C.integrate(growth, [[0.0], [1.0]], horizon=3.0, dt_out=0.1,
                            stop_condition=stop)
        assert single.stopped_early and batch.stopped_early
        # the batch keeps the output times every row reached before the stop
        assert np.array_equal(batch.times, single.times[:-1])
        assert np.array_equal(batch.states[:, 1], single.states[:-1])

    def test_batch_row_leaving_guard_raises(self):
        # the second row's large scale must not lift the first row's guard
        system = C.linear_system([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(BlowupError) as single:
            C.integrate(system, [1.0, 0.0], horizon=30.0, dt_out=1.0)
        with pytest.raises(BlowupError) as batch:
            C.integrate(system, [[1.0, 0.0], [0.0, 1e6]], horizon=30.0, dt_out=1.0)
        assert batch.value.reached_time == single.value.reached_time
        assert C.integrate(system, [0.0, 1e6], horizon=30.0, dt_out=1.0).states[-1, 1] == 1e6

    @pytest.mark.parametrize("fn", [
        F.constant(0.7), F.rational([1.0, 0.5], [1.0, 1.0, 0.25]),
        F.table([0.0, 0.3, 1.0, 10.0], [1.0, 0.2, 0.5, 0.5]),
    ], ids=lambda f: f.kind)
    def test_scalar_function_on_array_matches_scalar_calls(self, fn):
        s = np.random.default_rng(4).uniform(0.0, 12.0, size=(5, 3))
        values = fn(s)
        assert values.shape == s.shape
        assert np.array_equal(values, [[fn(float(x)) for x in row] for row in s])
        assert type(fn(1.5)) is float


class TestDenseOutput:
    """Output times are read from the accepted steps, which they do not cut."""

    @staticmethod
    def counted(system):
        calls = []

        def rhs(xi):
            calls.append(xi.shape)
            return system(0.0, xi)
        return C.ComparisonSystem(dim=system.dim, rhs=rhs), calls

    @pytest.mark.parametrize("horizon", [1.0, 3.0])
    def test_dense_outputs_match_the_closed_form(self, horizon):
        # xi' = [[0, 2], [2, 0]] xi from (1, 0) is (cosh 2t, sinh 2t)
        times = np.linspace(0.0, horizon, 1001)
        traj = C.integrate(C.sde_growth_system(SWAP), [1.0, 0.0], times=times,
                           rtol=C.CHECK_RTOL)
        exact = np.column_stack([np.cosh(2 * times), np.sinh(2 * times)])
        rel = np.abs(traj.states - exact) / np.maximum(np.abs(exact), 1e-300)
        assert np.max(rel) < 1e-7

    def test_rhs_calls_do_not_grow_with_the_outputs(self):
        calls = {}
        for n_out in (11, 1001):
            system, log = self.counted(C.sde_growth_system(SWAP))
            C.integrate(system, [1.0, 0.0], times=np.linspace(0.0, 1.0, n_out),
                        rtol=C.CHECK_RTOL)
            calls[n_out] = len(log)
            # the single-state path never hands the right-hand side a batch
            assert set(log) == {(2,)}
        assert calls[1001] <= 1.1 * calls[11]

    def test_each_attempt_takes_eleven_rhs_calls(self):
        system, log = self.counted(C.sde_growth_system(SWAP))
        traj = C.integrate(system, [1.0, 0.0], horizon=1.0, dt_out=0.001,
                           rtol=C.CHECK_RTOL)
        assert 0 < traj.steps < 100
        assert len(log) == 11 * (traj.steps + traj.rejected)

    def test_the_last_output_is_the_accepted_state(self):
        # a stop condition that never fires sees every accepted step
        accepted = []
        traj = C.integrate(C.sde_growth_system(SWAP), [1.0, 0.0],
                           times=np.linspace(0.0, 1.0, 1001), rtol=C.CHECK_RTOL,
                           stop_condition=lambda t, xi: accepted.append((t, xi.copy())))
        assert not traj.stopped_early and len(accepted) == traj.steps
        assert accepted[-1][0] == pytest.approx(1.0, abs=1e-14)
        assert np.array_equal(traj.states[-1], accepted[-1][1])

    def test_a_stop_ends_with_the_stopping_state(self):
        growth = C.linear_system([[1.0]])
        traj = C.integrate(growth, [1.0], horizon=3.0, dt_out=0.01, rtol=C.CHECK_RTOL,
                           stop_condition=lambda t, xi: xi[0] >= 2.0)
        # the outputs inside the stopping step come first, then its end state
        assert traj.stopped_early and traj.states[-1, 0] >= 2.0
        assert traj.times[-2] < traj.times[-1] <= traj.times[-2] + 0.01
        assert np.allclose(traj.states[:, 0], np.exp(traj.times), rtol=1e-8)

    def test_batch_counters_sum_the_rows(self):
        system = C.cyclic_mixed_system(F.constant(1.0), F.constant(0.4), 3)
        xi0 = np.random.default_rng(5).uniform(0.0, 2.0, size=(5, 3))
        batch = C.integrate(system, xi0, horizon=3.0, dt_out=0.01)
        singles = [C.integrate(system, row, horizon=3.0, dt_out=0.01) for row in xi0]
        assert batch.steps == sum(s.steps for s in singles)
        assert batch.rejected == sum(s.rejected for s in singles)

    def test_reports_carry_the_rk4_counters(self):
        system = C.sde_growth_system(SWAP)
        witness = C.check_practical(system, lam=1.0, bound=100.0, horizon=1.0).witness
        traj = C.integrate(system, [1.0, 1.0], horizon=1.0, dt_out=1.0 / 256,
                           rtol=C.CHECK_RTOL)
        assert (witness["steps"], witness["rejected"], witness["clamp_events"]) == (
            traj.steps, traj.rejected, traj.clamp_events)
        assert 0 < witness["steps"] < 256


class TestWazewski:
    def test_sde_system_passes(self):
        rep = C.check_wazewski(C.sde_growth_system(SWAP), (0.0, 5.0), 256)
        assert rep.passed

    def test_nonincreasing_clock_passes(self):
        sys2 = C.nilpotent_source_system(F.rational([1.0], [1.0, 1.0]),
                                         F.constant(0.5))
        rep = C.check_wazewski(sys2, (0.0, 5.0), 256)
        assert rep.passed

    def test_sign_violation_detected(self):
        bad = C.ComparisonSystem(dim=2, rhs=lambda xi: np.array([-xi.T[1], 0.0 * xi.T[1]]).T)
        rep = C.check_wazewski(bad, (0.0, 5.0), 256)
        assert not rep.passed
        assert rep.violation["component"] == 0

    @pytest.mark.parametrize("system, box, seed", [
        (C.ComparisonSystem(dim=2, rhs=lambda xi: np.array([-xi.T[1], 0.0 * xi.T[1]]).T),
         (0.0, 5.0), 0),
        (LATE_VIOLATION, (0.0, 5.0), 1),
        (C.linear_system([[-1.0, 0.3, 0.2], [0.5, -2.0, 0.1], [0.4, 0.2, 0.3]]),
         [[0.0, 1.0], [0.5, 2.0], [0.0, 3.0]], 2),
        (C.cyclic_mixed_system(F.rational([1.0], [1.0, 1.0]), F.constant(0.4), 4),
         (0.0, 10.0), 3),
        (C.nilpotent_source_system(F.table([0.0, 1.0, 10.0], [1.0, 2.0, 0.5]),
                                   F.constant(0.5)), (0.0, 5.0), 4),
    ], ids=["sign_violation", "late_violation", "quasimonotone_box", "cyclic_k4",
            "increasing_clock"])
    def test_matches_per_sample_loop(self, system, box, seed):
        rep = C.check_wazewski(system, box, 256, seed=seed)
        expected = helpers.reference_check_wazewski(system, box, 256, seed=seed)
        assert C._plain(rep) == C._plain(expected)

    def test_blocks_keep_the_first_violation(self, monkeypatch):
        whole = C.check_wazewski(LATE_VIOLATION, (0.0, 5.0), 256, seed=1)
        monkeypatch.setattr(C, "WAZEWSKI_BLOCK", 3 * LATE_VIOLATION.dim ** 2)
        blocks = C.check_wazewski(LATE_VIOLATION, (0.0, 5.0), 256, seed=1)
        assert not whole.passed and C._plain(blocks) == C._plain(whole)

    @pytest.mark.parametrize("kwargs", [
        {"n_samples": 0}, {"sample_box": (5.0, 1.0)}, {"sample_box": (-1.0, 1.0)},
    ], ids=["no_samples", "inverted_box", "box_outside_cone"])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            C.check_wazewski(C.sde_growth_system(SWAP),
                             **{"sample_box": (0.0, 5.0), **kwargs})


class TestXi0Stability:
    def test_decaying_pair_is_asymptotically_stable(self):
        sys2 = C.nilpotent_source_system(F.constant(1.0), F.constant(0.5))
        verdict = C.check_xi0_stability(sys2, eps_grid=(0.5,), T_check=10.0,
                                        n_directions=16, bisect_iters=12)
        assert verdict.kind == "asymptotically_stable"

    def test_growth_system_is_unstable(self):
        verdict = C.check_xi0_stability(C.sde_growth_system(SWAP),
                                        eps_grid=(0.5,), T_check=10.0,
                                        n_directions=8, bisect_iters=10)
        assert verdict.kind == "unstable"

    def test_flat_scalar_is_stable_not_asymptotic(self):
        flat = C.scalar_system(lambda x: 0.0)
        verdict = C.check_xi0_stability(flat, eps_grid=(0.5,), T_check=5.0,
                                        n_directions=8, bisect_iters=8)
        assert verdict.kind == "stable"

    def test_nontrivial_origin_rejected(self):
        shifted = C.scalar_system(lambda x: 1.0 + x)
        with pytest.raises(ValueError):
            C.check_xi0_stability(shifted, eps_grid=(0.5,))

    @pytest.mark.parametrize("kwargs", [
        {"eps_grid": ()}, {"eps_grid": (0.5, -1.0)}, {"n_directions": 0},
        {"bisect_iters": -1}, {"T_check": 0.0},
    ], ids=["empty_eps", "negative_eps", "no_directions", "negative_iters",
            "zero_T_check"])
    def test_bad_parameters_rejected(self, kwargs):
        flat = C.scalar_system(lambda x: 0.0)
        with pytest.raises(ValueError):
            C.check_xi0_stability(flat, **kwargs)

    @pytest.mark.parametrize("system, kwargs", [
        (C.nilpotent_source_system(F.constant(1.0), F.constant(0.5)),
         dict(eps_grid=(0.5,), T_check=10.0, n_directions=16, bisect_iters=12)),
        (C.nilpotent_source_system(F.constant(1.0), F.constant(2.0)),
         dict(eps_grid=(0.5,), T_check=5.0, n_directions=16, bisect_iters=12)),
        (C.scalar_system(lambda x: 0.0),
         dict(eps_grid=(0.5,), T_check=5.0, n_directions=8, bisect_iters=8)),
        (C.sde_growth_system(SWAP),
         dict(eps_grid=(0.5,), T_check=10.0, n_directions=8, bisect_iters=10)),
        (NON_MONOTONE, dict(eps_grid=(1.0,), T_check=10.0, n_directions=16,
                            bisect_iters=4, seed=3)),
        (NON_MONOTONE, dict(eps_grid=(1.0,), T_check=10.0, n_directions=8,
                            bisect_iters=4, seed=4)),
    ], ids=["asymptotic", "bisecting", "flat", "unstable", "decay_run_fails",
            "decay_run_fails_late"])
    def test_matches_per_direction_search(self, system, kwargs):
        verdict = C.check_xi0_stability(system, **kwargs)
        expected = helpers.reference_check_xi0_stability(system, **kwargs)
        assert verdict.to_dict() == expected.to_dict()

    @pytest.mark.parametrize("seed, n_directions", [(3, 16), (4, 8)])
    def test_failed_decay_run_is_only_stable(self, seed, n_directions):
        # one direction grows past eps at half the found delta: the directions
        # that decayed before it are no evidence of asymptotic stability
        verdict = C.check_xi0_stability(NON_MONOTONE, eps_grid=(1.0,),
                                        T_check=10.0, n_directions=n_directions,
                                        bisect_iters=4, seed=seed)
        assert verdict.kind == "stable"
        assert verdict.witness["decay_run_failed"] is True
        assert verdict.witness["decay_checked"] == 0


class TestPractical:
    def test_swap_matrix_bound(self):
        verdict = C.check_practical(C.sde_growth_system(SWAP), lam=1.0,
                                    bound=100.0, horizon=1.0)
        assert verdict.kind == "practically_stable"
        assert verdict.witness["xi0_final"] == pytest.approx(np.exp(2.0), rel=1e-6)
        assert verdict.witness["margin"] > 0

    def test_zero_horizon_compares_measures(self):
        verdict = C.check_practical(C.sde_growth_system(SWAP), lam=1.0,
                                    bound=2.0, horizon=0.0)
        assert verdict.kind == "practically_stable"

    def test_failure_side(self):
        verdict = C.check_practical(C.sde_growth_system(SWAP), lam=1.0,
                                    bound=5.0, horizon=1.0)
        assert verdict.kind == "inconclusive"
        assert verdict.witness["margin"] <= 0

    def test_monotone_in_lambda(self):
        # the verdict cannot flip fail -> pass as lambda grows
        system = C.sde_growth_system(SWAP)
        passed = [C.check_practical(system, lam, 40.0, 1.0).kind
                  == "practically_stable"
                  for lam in (0.5, 1.0, 2.0, 4.0, 8.0)]
        for earlier, later in zip(passed, passed[1:]):
            assert earlier or not later

    def test_hahn_wrappers(self):
        verdict = C.check_practical(C.sde_growth_system(SWAP), lam=3.0,
                                    bound=100.0, horizon=1.0,
                                    a=C.HahnFunction(2.0, 1.0),
                                    b=C.HahnFunction(1.0, 2.0))
        assert verdict.witness["threshold"] == pytest.approx(200.0)
        assert verdict.witness["initial_state"].tolist() == [9.0, 9.0]
        assert verdict.witness["xi0_final"] == pytest.approx(9.0 * np.exp(2.0), rel=1e-6)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            C.check_practical(C.sde_growth_system(SWAP), lam=3.0, bound=2.0,
                              horizon=1.0)


class TestBoundCheck:
    def test_shear_source_equalities(self):
        # the tracked functionals satisfy the comparison system exactly,
        # so domination holds with near-zero margins
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        phi = F.rational([1.0], [1.0, 1.0])
        params = F.SemiflowParams(A=MINUS_I, phi=phi,
                                  source=F.linear_source(F.constant(0.5), SHEAR))
        traj = F.evolve(q, params, horizon=2.0, dt=1e-3,
                        tracked=F.mixed_columns(SHEAR, 2))
        rep = C.bound_check(traj, C.nilpotent_source_system(phi, F.constant(0.5)),
                            ["W0", "W1"])
        assert rep.passed
        assert abs(rep.max_violation) < 1e-4

    def test_set_equation_growth_bound(self):
        q = B.make_polygon([[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]])
        params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                                  source=F.linear_source(F.constant(1.0), SWAP))
        traj = F.evolve(q, params, horizon=1.0, dt=1e-3,
                        tracked=F.mixed_columns(SWAP, 2))
        rep = C.bound_check(traj, C.sde_growth_system(SWAP), ["W0", "W1"],
                            tol_scale=1e-6)
        assert rep.passed
        # closed-form envelope from the eigenvalue exponents also dominates
        w = traj.tracked
        s, s1 = w["W0"][0], w["W1"][0]
        root = 4.0
        mu_p, mu_m = 2.0, -2.0
        envelope = ((2 * s1 - mu_m * s) * np.exp(mu_p * traj.times)
                    + (mu_p * s - 2 * s1) * np.exp(mu_m * traj.times)) / root
        assert np.all(w["W0"] <= envelope + 1e-6)

    def test_static_flow_constant_bound(self):
        u = helpers.random_smooth_body(RNG)
        params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                                  source=F.zero_source())
        traj = F.evolve(u, params, horizon=1.0, dt=0.01,
                        tracked=F.mixed_columns(np.eye(2), 2))
        flat = C.ComparisonSystem(dim=2, rhs=lambda xi: np.zeros(2))
        rep = C.bound_check(traj, flat, ["W0", "W1"])
        assert rep.passed
        assert abs(rep.max_violation) < 1e-12


class TestLyapunovQuadratic:
    def test_pure_decay(self):
        sys2 = C.nilpotent_source_system(F.constant(1.0), F.constant(0.0))
        rep = C.lyapunov_quadratic_check(sys2, weights=(1.0, 2.0),
                                         n_samples=512)
        assert rep.passed
        assert rep.worst_ratio < 0

    def test_order2_chain_threshold(self):
        good = C.cyclic_mixed_system(F.constant(1.0), F.constant(0.9), 2)
        bad = C.cyclic_mixed_system(F.constant(1.0), F.constant(1.1), 2)
        assert C.lyapunov_quadratic_check(good, n_samples=2048).passed
        assert not C.lyapunov_quadratic_check(bad, n_samples=2048).passed

    @pytest.mark.parametrize("system, kwargs", [
        (C.nilpotent_source_system(F.constant(1.0), F.constant(0.0)),
         dict(weights=(1.0, 2.0), n_samples=512)),
        (C.cyclic_mixed_system(F.constant(1.0), F.constant(1.1), 2), dict(n_samples=2048)),
        (C.cyclic_mixed_system(F.rational([1.0], [1.0, 1.0]), F.constant(0.3), 5),
         dict(weights=(1.0, 2.0, 3.0, 2.0, 1.0), sample_box=(0.0, 4.0), seed=7)),
        (C.linear_system([[-1.0, 0.3, -0.2], [0.5, -2.0, 0.1], [-0.4, 0.2, 0.3]]),
         dict(n_samples=1000, seed=2)),
        # every ratio ties: the first sample is the worst point
        (C.linear_system([[-1.0, 0.0], [0.0, -1.0]]), dict(n_samples=64)),
    ], ids=["pure_decay", "order2_chain_unstable", "cyclic_k5_weighted", "linear_3d",
            "all_tied"])
    def test_matches_per_sample_loop(self, system, kwargs):
        rep = C.lyapunov_quadratic_check(system, **kwargs)
        expected = helpers.reference_lyapunov_quadratic_check(system, **kwargs)
        assert C._plain(rep) == C._plain(expected)

    @pytest.mark.parametrize("kwargs", [
        {"weights": (1.0, -1.0)}, {"weights": (1.0,)}, {"n_samples": 0},
        {"sample_box": (2.0, 2.0)},
    ], ids=["negative_weight", "weight_count", "no_samples", "degenerate_box"])
    def test_bad_parameters_rejected(self, kwargs):
        sys2 = C.nilpotent_source_system(F.constant(1.0), F.constant(0.5))
        with pytest.raises(ValueError):
            C.lyapunov_quadratic_check(sys2, **kwargs)


class TestVerdictSerialization:
    def test_practical_verdict_is_jsonable(self):
        import json
        verdict = C.check_practical(C.sde_growth_system(SWAP), lam=1.0,
                                    bound=100.0, horizon=1.0)
        text = json.dumps(verdict.to_dict(), sort_keys=True)
        assert "practically_stable" in text
        assert "margin" in text
