"""Comparison systems: integration, quasimonotonicity, stability verdicts."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from setflow import bodies as B, certificates as CERT, comparison as C, flow as F
from setflow.errors import BlowupError

import helpers

RNG = np.random.default_rng(9)

MINUS_I = -np.eye(2)
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
SHEAR = np.array([[0.0, 1.0], [0.0, 0.0]])
RATIONAL = F.rational([1.0], [1.0, 1.0])
CLOCKS = helpers.RATIONAL_CLOCKS | helpers.TABLE_CLOCKS

# xi0' = 50 (0.08 - xi1) xi0 with xi1 frozen: only states with xi1 < 0.08
# grow, so a start below another can end above it, and the Wazewski test
# finds the violation in component 0
NON_MONOTONE = C.ComparisonSystem(
    dim=2, rhs=lambda t, xi: np.array([50.0 * (0.08 - xi.T[1]) * xi.T[0],
                                    0.0 * xi.T[1]]).T, name="non_monotone")


# g_1 falls once xi_0 passes 4.5, so on the box [0, 5]^2 only the samples
# whose eta_0 lies past 4.5 break quasimonotonicity, in component 1
LATE_VIOLATION = C.ComparisonSystem(
    dim=2, rhs=lambda t, xi: np.array([0.0 * xi.T[0], -np.maximum(xi.T[0] - 4.5, 0.0)]).T,
    name="late_violation")


def stepped(system):
    """The same right-hand side without its matrix or chain, which ``integrate``
    steps by the Dormand-Prince pair and which no check decides in closed form."""
    return dataclasses.replace(system, matrix=None, chain=None)


def counted(system):
    """The right-hand side of ``system`` without its matrix, and the list of
    the shapes of the states it is called on; each call must be at one time."""
    calls = []

    def rhs(t, xi):
        assert np.ndim(t) == 0, t
        calls.append(xi.shape)
        return system(t, xi)
    return C.ComparisonSystem(dim=system.dim, rhs=rhs, name=system.name), calls


def dense_xi0_peak(matrix, starts, T, points=10 ** 5 + 1):
    """The largest ``xi_0`` of the starts, rows in the cone, on ``points``
    equal times of [0, T].

    Row ``j`` of the table is ``e_0 P^j``, with ``P`` scipy's ``expm`` of
    ``M T / (points - 1)``, built by doubling.  A start's largest ``xi_0``
    is at most the product of its coordinates with the largest positive
    entry of each column, so the starts are evaluated in decreasing order
    of that bound, 64 at a time, until no bound passes the largest value.
    """
    step = expm(np.asarray(matrix) * (T / (points - 1)))
    rows = np.eye(len(step))[:1]
    while len(rows) < points:
        rows = np.vstack((rows, rows @ step))
        step = step @ step
    rows = rows[:points]
    bound = starts @ np.max(np.maximum(rows, 0.0), axis=0)
    order = np.argsort(bound)[::-1]
    peak = -np.inf
    for block in range(0, len(order), 64):
        if bound[order[block]] <= peak:
            break
        peak = max(peak, float(np.max(rows @ starts[order[block:block + 64]].T)))
    return peak


class TestIntegrate:
    def test_nilpotent_closed_form(self):
        # phi = 1, psi = 1/2: xi1 = w0 exp(-2t), xi0 = exp(-2t)(s0 + w0 t)
        sys2 = C.nilpotent_source_system(F.constant(1.0), F.constant(0.5))
        s0, w0 = 2.0, 1.5
        traj = C.integrate(sys2, [s0, w0], np.linspace(0.0, 2.0, 41))
        t = traj.times
        assert np.max(np.abs(traj.states[:, 1] - w0 * np.exp(-2 * t))) < 1e-7
        assert np.max(np.abs(traj.states[:, 0] - np.exp(-2 * t) * (s0 + w0 * t))) < 1e-7

    def test_sde_growth_matches_matrix_exponential(self):
        sys_m = C.sde_growth_system(SWAP)
        traj = C.integrate(sys_m, [1.0, 0.0], np.linspace(0.0, 1.0, 11))
        m = np.array([[0.0, 2.0], [2.0, 0.0]])
        exact = np.array([expm(m * t) @ [1.0, 0.0] for t in traj.times])
        assert np.max(np.abs(traj.states - exact)) < 1e-6

    def test_zero_rhs_is_constant(self):
        flat = C.ComparisonSystem(dim=3, rhs=lambda t, xi: np.zeros_like(xi))
        traj = C.integrate(flat, [1.0, 2.0, 3.0], np.linspace(0.0, 5.0, 6))
        assert np.allclose(traj.states, [1.0, 2.0, 3.0])

    def test_rhs_of_another_shape_rejected(self):
        # a result of shape (1, 2) broadcasts against the (2,) state
        constant = C.ComparisonSystem(dim=2, rhs=lambda t, xi: np.array([[1.0, 2.0]]))
        with pytest.raises(ValueError, match="shape"):
            C.integrate(constant, [0.0, 0.0], np.linspace(0.0, 1.0, 5))

    def test_negative_start_rejected(self):
        flat = C.ComparisonSystem(dim=1, rhs=lambda t, xi: np.zeros(1))
        with pytest.raises(ValueError):
            C.integrate(flat, [-1.0], np.linspace(0.0, 1.0, 201))

    def test_blowup_raises(self):
        quad = C.scalar_system(lambda t, x: x * x)
        with pytest.raises(BlowupError) as err:
            C.integrate(quad, [1.0], np.linspace(0.0, 2.0, 201))
        assert 0.9 < err.value.reached_time <= 1.05

    def test_an_underflow_carries_the_partial_trajectory(self):
        # xi = 1 / (1 - t): the step size underflows as t approaches 1
        quad = C.scalar_system(lambda t, x: x * x)
        with pytest.raises(BlowupError, match="underflow") as err:
            C.integrate(quad, [1.0], np.linspace(0.0, 2.0, 201))
        partial = err.value.partial
        assert partial.steps > 0 and partial.states.shape == (len(partial.times), 1)
        assert partial.times[-1] <= err.value.reached_time
        early = partial.times < 0.9
        assert np.allclose(partial.states[early, 0], 1.0 / (1.0 - partial.times[early]),
                           rtol=1e-6)

    @pytest.mark.parametrize("T", [1e-14, 1e-13, 1e-12, 1e-10, 1.0])
    def test_short_horizons_step_to_their_end(self, T):
        # the step size floor and the output margin scale with the horizon:
        # floors of 1e-13 and 1e-14 in absolute time read the steps of a
        # horizon of 1e-12 as an underflow, and a horizon of 1e-14 as reached
        # by its first step
        system = C.nilpotent_source_system(RATIONAL, F.constant(0.5))
        practical = C.check_practical(stepped(system), lam=0.1, bound=10.0, horizon=T)
        assert practical.kind == "practically_stable" and practical.witness["steps"] >= 6
        # the bracket's exact runs take the same short spans
        verdict = C.check_xi0_stability(system, eps_grid=(0.5,), T_check=T)
        assert verdict.kind == "stable" and verdict.witness["delta_table"] == [(0.5, 0.5)]
        assert C.check_practical(system, lam=0.1, bound=10.0, horizon=T).kind == (
            "practically_stable")

    @pytest.mark.parametrize("kwargs", [
        {"times": np.linspace(0.0, np.nan, 5)}, {"times": [0.0, 0.5, np.inf]},
        {"times": [0.0, np.nan]},
        {"times": [0.0, 1.0, np.nan]}, {"xi0": [np.nan]}, {"xi0": [np.inf]},
    ], ids=["nan_horizon", "inf_horizon", "nan_time", "nan_last_time", "nan_state",
            "inf_state"])
    def test_non_finite_inputs_rejected(self, kwargs):
        decay = C.scalar_system(lambda t, x: -x)
        with pytest.raises(ValueError):
            C.integrate(decay, **{"xi0": [1.0], "times": np.linspace(0.0, 1.0, 201),
                                  **kwargs})

    @pytest.mark.parametrize("times", [[], [[0.0, 1.0]]], ids=["empty", "nested"])
    def test_output_times_of_another_shape_rejected(self, times):
        decay = C.scalar_system(lambda t, x: -x)
        with pytest.raises(ValueError, match="output times must be finite and increase from 0"):
            C.integrate(decay, [1.0], times=times)

    def test_step_factors_match_the_python_floats(self):
        rng = np.random.default_rng(8)
        tol = np.concatenate([rng.uniform(1e-12, 1e-3, 2000), [1e-6, 1e-6, 1e-6, np.nan]])
        err = np.concatenate([tol[:2000] * 10.0 ** rng.uniform(-8.0, 4.0, 2000),
                              [0.0, np.nan, np.inf, 1e-6]])
        ok = err <= tol
        factors = [C._step_factor(a, e, good)
                   for a, e, good in zip(tol.tolist(), err.tolist(), ok.tolist())]
        expected = [helpers.reference_step_factor(a, e, good)
                    for a, e, good in zip(tol.tolist(), err.tolist(), ok.tolist())]
        assert np.array_equal(factors, expected)
        assert all(type(f) is float for f in factors)
        # a rejected step with a NaN error estimate shrinks by the bound
        assert factors[-3] == factors[-1] == 0.1 and factors[-4] == 5.0

    def test_single_functional_chain(self):
        # k = 1 closes on itself: xi0' = (-2 phi + 2 psi) xi0
        sys1 = C.cyclic_mixed_system(F.constant(1.0), F.constant(0.25), 1)
        traj = C.integrate(sys1, [2.0], np.linspace(0.0, 1.0, 5))
        assert np.max(np.abs(traj.states[:, 0]
                             - 2.0 * np.exp(-1.5 * traj.times))) < 1e-7

    def test_table_clock(self):
        phi = F.table([0.0, 1.0, 10.0], [1.0, 0.5, 0.5])
        sys2 = C.nilpotent_source_system(phi, F.constant(0.0))
        traj = C.integrate(sys2, [0.5, 0.0], np.linspace(0.0, 0.5, 6))
        # below s = 1 the interpolated clock is 1 - s/2
        assert traj.states[-1, 0] < 0.5

    def test_cone_invariance_sampled(self):
        # quasimonotone systems started in the cone stay there (no clamping)
        for system in (C.sde_growth_system(SWAP),
                       C.nilpotent_source_system(F.constant(1.0), F.constant(0.5)),
                       C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 4)):
            xi0 = RNG.uniform(0.0, 2.0, system.dim)
            traj = C.integrate(system, xi0, np.linspace(0.0, 1.0, 21))
            assert traj.clamp_events == 0
            assert np.min(traj.states) >= -1e-12

    @pytest.mark.parametrize("system", [
        stepped(C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 1)),
        stepped(C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 2)),
        stepped(C.cyclic_mixed_system(F.constant(1.0), F.constant(0.4), 3)),
        stepped(C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 4)),
        stepped(C.nilpotent_source_system(F.constant(1.0), F.constant(0.5))),
        C.nilpotent_source_system(F.rational([1.0], [1.0, 1.0]), F.constant(2.0)),
        C.nilpotent_source_system(F.table([0.0, 1.0, 10.0], [1.0, 0.5, 0.5]),
                                  F.constant(0.5)),
        stepped(C.sde_growth_system(SWAP)),
        C.linear_system([[-1.0, 0.3, -0.2], [0.5, -2.0, 0.1], [-0.4, 0.2, 0.3]]),
        C.scalar_system(lambda t, x: -(1.0 + 0.5 * np.cos(t)) * x),
    ], ids=lambda s: s.name)
    def test_batch_rows_match_single_calls(self, system):
        # the right-hand side gives each row of a batch the bits of that row
        # alone; integrate, which sums its stages as matrix products, matches
        # the reference loop, which sums them term by term, to rounding
        rng = np.random.default_rng(17)
        xi0 = rng.uniform(0.0, 2.0, size=(7, system.dim))
        xi0[0] = 0.0
        t = rng.uniform(0.0, 3.0, 7)
        batch = system(t, xi0)
        for i, row in enumerate(xi0):
            assert np.array_equal(batch[i], system(t[i:i + 1], row[None])[0])
            ref = helpers.reference_integrate(system, row, np.linspace(0.0, 3.0, 31))
            single = C.integrate(system, row, np.linspace(0.0, 3.0, 31))
            assert single.states.shape == (31, system.dim)
            helpers.assert_matches_reference(single, ref)

    def test_a_row_stops_alone(self):
        # the state from 1 grows past its ceiling 2 near t = ln 2 and
        # escapes where the scalar loop does; the state from 0 holds still
        growth = stepped(C.linear_system([[1.0]]))
        times = np.linspace(0.0, 3.0, 31)
        with pytest.raises(BlowupError, match="escaped the guard") as ref:
            helpers.reference_integrate(growth, [1.0], times, ceiling=2.0)
        with pytest.raises(BlowupError, match="escaped the guard") as single:
            C.integrate(growth, [1.0], times, ceiling=2.0)
        alone = C.integrate(growth, [0.0], times, ceiling=2.0)
        helpers.assert_matches_reference(single.value, ref.value)
        assert abs(single.value.reached_time - np.log(2.0)) < 0.1
        assert 1 < len(single.value.partial.times) < 31
        assert np.all(alone.states == 0.0) and len(alone.times) == 31

    def test_rows_stop_at_their_own_thresholds(self):
        # the states from rows 0, 2, 3 and 5 reach their ceilings, 1 and 4 never do
        system = C.cyclic_mixed_system(F.rational([1.0], [1.0, 1.0]), F.constant(0.9), 3)
        xi0 = np.random.default_rng(21).uniform(0.0, 1.0, size=(6, 3))
        ceiling = np.array([1.5, 40.0, 2.0, 1.2, 150.0, 3.0])
        times = np.linspace(0.0, 4.0, 41)

        def run(integrate, row, cap):
            # the trajectory, or the escape
            try:
                return integrate(system, row, times, ceiling=cap)
            except BlowupError as err:
                return err
        escapes = 0
        for i, row in enumerate(xi0):
            ref = run(helpers.reference_integrate, row, ceiling[i])
            helpers.assert_matches_reference(run(C.integrate, row, ceiling[i]), ref)
            escapes += isinstance(ref, BlowupError)
        assert escapes == 4
        # the states below their ceilings keep the bits they get with none
        for i in (1, 4):
            below = C.integrate(system, xi0[i], times, ceiling=ceiling[i])
            assert np.array_equal(below.states, C.integrate(system, xi0[i], times).states)

    @pytest.mark.parametrize("system", [C.linear_system([[-1.0, 0.5], [0.5, -1.0]]),
                                        stepped(C.linear_system([[-1.0, 0.5], [0.5, -1.0]]))],
                             ids=["exact", "rk4"])
    @pytest.mark.parametrize("ceiling", [np.nan, [1.0, np.nan, 2.0], [[1.0], [2.0], [3.0]],
                                         [1.0, 2.0], "high"],
                             ids=["nan", "nan_row", "column", "two_for_three", "text"])
    def test_a_bad_ceiling_is_refused(self, system, ceiling):
        with pytest.raises(ValueError, match="ceiling"):
            C.integrate(system, np.ones(2), [0.0, 1.0], ceiling=ceiling)

    def test_one_ceiling_serves_all_rows(self):
        # a ceiling is one real number of any type, or None for none; a
        # list, even of one entry, is refused
        system = stepped(C.linear_system([[0.5]]))
        runs = [C.integrate(system, [1.0], [0.0, 1.0], ceiling=c)
                for c in (10.0, np.float64(10.0), 10, None)]
        for run in runs[1:]:
            assert np.array_equal(run.states, runs[0].states)
        with pytest.raises(BlowupError, match="escaped the guard"):
            C.integrate(system, [1.0], [0.0, 1.0], ceiling=np.float64(1.5))
        with pytest.raises(ValueError, match="ceiling"):
            C.integrate(system, [1.0], [0.0, 1.0], ceiling=[10.0])

    def test_batch_row_leaving_guard_raises(self):
        # each state's guard scales with its own start: the state from
        # (1, 0) escapes where the scalar loop does, the one from (0, 1e6)
        # holds still; a batch of states is refused
        system = stepped(C.linear_system([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(BlowupError) as ref:
            helpers.reference_integrate(system, [1.0, 0.0], np.linspace(0.0, 30.0, 31))
        with pytest.raises(BlowupError) as single:
            C.integrate(system, [1.0, 0.0], np.linspace(0.0, 30.0, 31))
        helpers.assert_matches_reference(single.value, ref.value)
        assert C.integrate(system, [0.0, 1e6], np.linspace(0.0, 30.0, 31)).states[-1, 1] == 1e6
        with pytest.raises(ValueError, match="initial state must have shape"):
            C.integrate(system, [[1.0, 0.0], [0.0, 1e6]], np.linspace(0.0, 30.0, 31))

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
            system, log = counted(C.sde_growth_system(SWAP))
            C.integrate(system, [1.0, 0.0], times=np.linspace(0.0, 1.0, n_out),
                        rtol=C.CHECK_RTOL)
            calls[n_out] = len(log)
            # the right-hand side sees the one state, at one time
            assert set(log) == {(2,)}
        assert calls[1001] <= 1.1 * calls[11]

    def test_an_attempt_takes_seven_rhs_calls_then_six(self):
        # the seven stages of the first attempt; the first stage of each later
        # one is the last of an accepted step or that of the rejected one
        system, log = counted(C.sde_growth_system(SWAP))
        traj = C.integrate(system, [1.0, 0.0], np.linspace(0.0, 1.0, 1001),
                           rtol=C.CHECK_RTOL)
        assert 0 < traj.steps < 100 and traj.clamp_events == 0
        assert len(log) == 7 + 6 * (traj.steps + traj.rejected - 1)

    def test_a_clamped_step_takes_its_first_stage_again(self):
        # xi0' = -xi1 drives xi0 below 0: after each clamped step the first
        # stage is taken at the clamped state, one more call
        system, log = counted(C.linear_system([[0.0, -1.0], [0.0, 0.0]]))
        traj = C.integrate(system, [0.5, 1.0], np.linspace(0.0, 2.0, 5))
        assert traj.clamp_events > 0 and np.all(traj.states[2:, 0] == 0.0)
        assert len(log) > 7 + 6 * (traj.steps + traj.rejected - 1)

    def test_the_last_output_is_the_accepted_state(self):
        # xi_0 = cosh 2t grows, so a ceiling at the last output's xi_0 is
        # first reached by the last accepted state, at t = 1, and a ceiling
        # one ulp above it is never reached: that state has the same xi_0
        system = stepped(C.sde_growth_system(SWAP))
        times = np.linspace(0.0, 1.0, 1001)
        traj = C.integrate(system, [1.0, 0.0], times, rtol=C.CHECK_RTOL)
        last = traj.states[-1, 0]
        with pytest.raises(BlowupError, match="escaped the guard") as err:
            C.integrate(system, [1.0, 0.0], times, rtol=C.CHECK_RTOL, ceiling=last)
        assert err.value.reached_time == pytest.approx(1.0, abs=1e-14)
        above = C.integrate(system, [1.0, 0.0], times, rtol=C.CHECK_RTOL,
                            ceiling=np.nextafter(last, np.inf))
        assert np.array_equal(above.states, traj.states) and above.steps == traj.steps
        # the partial trajectory ends before the last step, whose outputs it lacks
        partial = err.value.partial
        assert 1 < len(partial.times) < 1000 and partial.steps == traj.steps
        assert np.array_equal(partial.states, traj.states[:len(partial.times)])

    def test_a_stop_keeps_the_outputs_before_the_stopping_state(self):
        # xi' = xi reaches its ceiling 2 at the first accepted state past
        # ln 2; the partial trajectory ends with the last output before the
        # step that reached it, as in the reference loop
        growth = stepped(C.linear_system([[1.0]]))
        times = np.linspace(0.0, 3.0, 301)
        with pytest.raises(BlowupError, match="escaped the guard") as err:
            C.integrate(growth, [1.0], times, rtol=C.CHECK_RTOL, ceiling=2.0)
        with pytest.raises(BlowupError, match="escaped the guard") as ref:
            helpers.reference_integrate(growth, [1.0], times, rtol=C.CHECK_RTOL, ceiling=2.0)
        helpers.assert_matches_reference(err.value, ref.value, C.CHECK_RTOL)
        partial, t_stop = err.value.partial, err.value.reached_time
        assert np.log(2.0) <= t_stop < np.log(2.0) + 0.1
        assert np.array_equal(partial.times, times[:len(partial.times)])
        assert partial.times[-1] < np.log(2.0) and np.all(partial.states < 2.0)
        assert np.allclose(partial.states[:, 0], np.exp(partial.times), rtol=1e-8)
        # the full run's outputs up to there are the same; the next one lies
        # inside the step that reached the ceiling
        full = C.integrate(growth, [1.0], times, rtol=C.CHECK_RTOL)
        assert np.array_equal(full.states[:len(partial.times)], partial.states)
        assert times[len(partial.times)] < t_stop

    def test_reports_carry_the_rk4_counters(self):
        system = stepped(C.sde_growth_system(SWAP))
        witness = C.check_practical(system, lam=1.0, bound=100.0, horizon=1.0).witness
        traj = C.integrate(system, [1.0, 1.0], np.linspace(0.0, 1.0, 257),
                           rtol=C.CHECK_RTOL)
        assert (witness["steps"], witness["rejected"], witness["clamp_events"]) == (
            traj.steps, traj.rejected, traj.clamp_events)
        assert 0 < witness["steps"] < 256
        assert witness["solver"] == traj.solver == "dopri5"


class TestDormandPrince:
    """The pair's accuracy for its work, against exact and reference solutions."""

    @pytest.mark.parametrize("system", [
        C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 1),
        C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 2),
        C.cyclic_mixed_system(F.constant(0.7), F.constant(0.3), 5, a=-1.5),
        C.nilpotent_source_system(F.constant(1.0), F.constant(0.5)),
        C.sde_growth_system(SWAP),
    ], ids=lambda s: s.name)
    def test_the_global_error_falls_with_rtol(self, system):
        # the matrix-free twin against the exact exponential of the matrix:
        # from rtol 1e-6 to 1e-12 the largest error falls by at least
        # (1e-6) ** 0.9
        times = np.linspace(0.0, 3.0, 31)
        xi0 = np.linspace(1.0, 0.5, system.dim)
        exact = np.array([C._metzler_expm(system.matrix, t) @ xi0 for t in times[1:]])
        errors = [np.max(np.abs(C.integrate(stepped(system), xi0, times, rtol=rtol).states[1:]
                                - exact)) / np.max(exact) for rtol in (1e-6, 1e-12)]
        assert errors[1] <= errors[0] * 1e-6 ** 0.9
        assert errors[0] <= 10 * 1e-6

    @pytest.mark.parametrize("system, xi0", [
        (C.nilpotent_source_system(RATIONAL, F.constant(0.5)), [1.0, 0.3]),
        (C.cyclic_mixed_system(RATIONAL, F.constant(0.4), 3), [1.0, 0.5, 0.25]),
    ], ids=["nilpotent_decay", "cyclic_k3"])
    def test_fewer_rhs_calls_than_step_doubling_for_no_larger_error(self, system, xi0):
        # at CHECK_RTOL on a stored grid of 1001 times, as bound_check runs
        # nilpotent_decay's chain, the pair takes at least 30% fewer calls than
        # the RK4 step doubling it replaced and errs no more against scipy's DOP853
        from scipy.integrate import solve_ivp

        times = np.linspace(0.0, 3.0, 1001)
        counting, log = counted(system)
        final = C.integrate(counting, xi0, times, rtol=C.CHECK_RTOL).states[-1]
        doubled, doubling_calls = helpers.reference_doubling_final(system, xi0, times,
                                                                   C.CHECK_RTOL)
        exact = solve_ivp(lambda t, x: system(t, x), (0.0, 3.0), xi0, method="DOP853",
                          rtol=1e-13, atol=1e-16).y[:, -1]
        assert len(log) <= 0.7 * doubling_calls
        assert np.max(np.abs(final - exact)) <= np.max(np.abs(doubled - exact))


# Metzler matrices: the exact path's systems, by factory
EXACT_SYSTEMS = [
    C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 1),
    C.cyclic_mixed_system(F.constant(1.0), F.constant(0.5), 2),
    C.cyclic_mixed_system(F.constant(1.0), F.constant(0.4862523591439185), 3),
    C.cyclic_mixed_system(F.constant(0.7), F.constant(0.3), 5, a=-1.5),
    C.nilpotent_source_system(F.constant(1.0), F.constant(0.5)),
    C.sde_growth_system(SWAP),
    C.linear_system([[-3.0, 0.5, 0.0, 2.0], [1.0, -1.0, 0.0, 0.0],
                     [0.0, 0.3, -0.5, 0.1], [0.2, 0.0, 4.0, -6.0]], name="metzler_4d"),
]


class TestExactPath:
    """Systems with a Metzler ``matrix`` are propagated by ``exp(M h)``."""

    @pytest.mark.parametrize("system", EXACT_SYSTEMS, ids=lambda s: s.name)
    def test_rhs_is_the_matrix(self, system):
        rows = np.random.default_rng(3).uniform(0.0, 5.0, size=(50, system.dim))
        expected = rows @ system.matrix.T
        assert np.all(system.matrix[~np.eye(system.dim, dtype=bool)] >= 0)
        assert np.max(np.abs(system(np.zeros(50), rows) - expected)) <= 1e-14 * np.max(
            np.abs(expected))
        assert not system.matrix.flags.writeable

    @pytest.mark.parametrize("system", [s for s in EXACT_SYSTEMS if s.name != "sde_growth"],
                             ids=lambda s: s.name)
    def test_outputs_match_scipy_expm(self, system):
        # the xi0 search's 33 outputs on [0, 50], where the states decay by
        # up to 45 orders of magnitude; rtol plays no part
        times = np.linspace(0.0, 50.0, 33)
        for xi0 in np.random.default_rng(11).uniform(0.0, 1.0, size=(6, system.dim)):
            traj = C.integrate(system, xi0, times, rtol=1e-3)
            exact = np.array([expm(system.matrix * t) @ xi0 for t in times])
            assert traj.solver == "exact" and traj.clamp_events == traj.rejected == 0
            assert np.max(np.abs(traj.states - exact) / exact) <= 1e-12

    def test_growth_matches_its_closed_form(self):
        # (cosh 2t, sinh 2t) from (1, 0); scipy's expm errs by 1.6e-12 here
        times = np.linspace(0.0, 5.0, 33)
        traj = C.integrate(C.sde_growth_system(SWAP), [1.0, 0.0], times)
        exact = np.column_stack([np.cosh(2 * times), np.sinh(2 * times)])
        assert np.max(np.abs(traj.states - exact)[1:] / exact[1:]) <= 1e-14
        assert traj.states[0].tolist() == [1.0, 0.0]

    def test_long_intervals_take_the_squarings(self):
        # ||M|| h = 1e4 on each interval: one exp(M h) each, squared 14
        # times; the slow mode decays as exp(-t), the fast as exp(-5001 t).
        # The error stays within 2 ||M|| t ulps, the conditioning of the
        # exponential (scipy's expm errs by 1.4e-12 at t = 6)
        mat = np.array([[-2501.0, 2500.0], [2500.0, -2501.0]])
        times = np.linspace(0.0, 6.0, 4)
        traj = C.integrate(C.linear_system(mat), [1.0, 0.0], times)
        exact = 0.5 * np.exp(-times) + np.array([[0.5], [-0.5]]) * np.exp(-5001.0 * times)
        assert traj.steps == 3 and traj.states[0].tolist() == [1.0, 0.0]
        rel = np.abs(traj.states - exact.T)[1:] / exact.T[1:]
        assert np.all(rel <= 2 * 5002.0 * times[1:, None] * np.finfo(float).eps)

    def test_a_conserved_corner_holds_up_to_the_longest_exact_run(self):
        # xi = (1, 1) is a fixed point; the exact path keeps it within 1e-8
        # on every grid the checks use up to times[-1] ||M||_inf = 1e7, and
        # refuses a longer run, where the rounding of exp(M h) would decide
        system = C.linear_system([[-1.0, 1.0], [1.0, -1.0]])
        longest = C.EXACT_MAX_SPAN / C._inf_norm(system.matrix)
        for outputs in (2, 33, 257, 1001, 2049):
            for end in np.geomspace(1.0, longest, 9):
                states = C.integrate(system, np.ones(2), np.linspace(0.0, end, outputs)).states
                assert np.max(np.abs(states - 1.0)) <= 1e-8
            with pytest.raises(ValueError, match="times\\[-1\\] \\* \\|\\|M\\|\\|_inf"):
                C.integrate(system, np.ones(2), np.linspace(0.0, 2.0 * longest, outputs))

    @pytest.mark.parametrize("end", [1e12, 1e17, 1e20, 1e300])
    def test_the_searches_refuse_a_run_past_the_longest(self, end):
        # these read decay 0.99961, unstable, asymptotically_stable and a
        # false escape of a system whose corner never moves
        system = C.linear_system([[-1.0, 1.0], [1.0, -1.0]])
        with pytest.raises(ValueError, match="1e\\+07"):
            C.check_xi0_stability(system, eps_grid=(0.5,), T_check=end)
        with pytest.raises(ValueError, match="1e\\+07"):
            C.check_practical(system, lam=0.5, bound=2.0, horizon=end)

    def test_steps_count_the_sub_steps(self):
        # one exp(M h) per output interval, whatever ||M||_inf h (here 2 h)
        system = C.linear_system([[-1.0, 1.0], [1.0, -1.0]])
        for times, steps in ((np.linspace(0.0, 1.0, 11), 10), ([0.0, 1.0], 1),
                             ([0.0, 10.0], 1), ([0.0, 100.0], 1)):
            traj = C.integrate(system, [1.0, 0.0], times)
            assert (traj.steps, traj.rejected, traj.clamp_events) == (steps, 0, 0)

    def test_each_output_interval_takes_one_exponential(self):
        # a grid of unequal intervals, each with h ||M||_inf > 1/2: the
        # outputs are the chain of exp(M h_j) products, and agree with
        # scipy's expm at each time to 2 ||M|| t ulps
        system = EXACT_SYSTEMS[-1]
        times = np.array([0.0, 0.3, 0.35, 1.0, 1.1, 2.5, 4.0])
        norm = C._inf_norm(system.matrix)
        assert np.all(np.diff(times) * norm > 0.5)
        xi0 = np.ones(system.dim)
        traj = C.integrate(system, xi0, times)
        chain = [xi0]
        for h in np.diff(times):
            chain.append(C._metzler_expm(system.matrix, h) @ chain[-1])
        assert np.array_equal(traj.states, chain) and traj.steps == len(times) - 1
        exact = np.array([expm(system.matrix * t) @ xi0 for t in times])
        rel = np.abs(traj.states - exact)[1:] / exact[1:]
        assert np.all(rel <= 2 * norm * times[1:, None] * np.finfo(float).eps)

    @pytest.mark.parametrize("system", EXACT_SYSTEMS, ids=lambda s: s.name)
    def test_batch_rows_match_single_calls(self, system):
        # a batch of rows propagated by the stacked product, one exp(M h)
        # per output interval of a power of two with h ||M||_inf <= 1/2,
        # gives each row the bits that integrate gives that state alone
        rng = np.random.default_rng(17)
        xi0 = rng.uniform(0.0, 2.0, size=(7, system.dim))
        xi0[0] = 0.0
        h = 2.0 ** np.floor(np.log2(0.5 / C._inf_norm(system.matrix)))
        times = h * np.arange(31)
        prop = C._metzler_expm(system.matrix, h)
        batch = [xi0]
        for _ in times[1:]:
            batch.append(np.matmul(prop, batch[-1][..., None])[..., 0])
        for i, row in enumerate(xi0):
            single = C.integrate(system, row, times)
            assert single.steps == 30
            assert np.array_equal(np.array(batch)[:, i], single.states)
        assert np.all(np.array(batch)[:, 0] == 0.0)

    @settings(max_examples=150, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda dim: st.tuples(
        st.lists(st.floats(-10.0, 1.0), min_size=dim, max_size=dim),
        st.lists(st.floats(0.0, 1.0), min_size=dim * dim, max_size=dim * dim),
        st.lists(st.lists(st.floats(0.0, 10.0), min_size=dim, max_size=dim),
                 min_size=1, max_size=4),
        st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=8))))
    def test_fuzz_states_stay_in_the_cone(self, case):
        # every growth rate is at most 1 + 5 = 6 over at most t = 4: no row
        # reaches its guard
        diag, off, xi0, steps = case
        dim = len(diag)
        mat = np.reshape(off, (dim, dim)) + np.diag(np.subtract(diag, np.diagonal(
            np.reshape(off, (dim, dim)))))
        system = C.linear_system(mat)
        for row in xi0:
            traj = C.integrate(system, row, np.concatenate(([0.0], np.cumsum(steps))))
            assert system.matrix is not None and traj.solver == "exact"
            assert traj.clamp_events == 0 and np.all(traj.states >= 0.0)
            assert traj.states.shape == (len(steps) + 1, dim)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(st.integers(1, 6).flatmap(lambda dim: st.tuples(
        st.lists(st.floats(-4.0, 1.0), min_size=dim, max_size=dim),
        st.lists(st.floats(0.0, 2.0), min_size=dim * dim, max_size=dim * dim),
        st.lists(st.floats(0.1, 10.0), min_size=dim, max_size=dim),
        st.lists(st.floats(0.1, 2.0), min_size=1, max_size=3),
        st.floats(0.5, 8.0), st.integers(4, 12))))
    # the nilpotent pair at phi = 1, psi = 2, whose xi_0 peaks between grid points
    @example(([-2.0, -2.0], [0.0, 4.0, 0.0, 0.0], [1.0, 1.0], [0.5], 5.0, 12))
    def test_the_closed_forms_bound_the_sampled_checks(self, case):
        # against the corner bisection of the test oracle on the matrix-free
        # twin: it finds a delta no smaller, to one bisection step (a twin
        # ending unstable found none above eps 2^-iters); 4096 starts drawn in the box stay below
        # eps on 10^5 + 1 times; no sampled Lyapunov ratio passes the top
        # eigenvalue, and the sampled Wazewski test passes
        diag, off, weights, eps_grid, T_check, iters = case
        dim = len(diag)
        mat = np.reshape(off, (dim, dim))
        system = C.linear_system(mat + np.diag(np.subtract(diag, np.diagonal(mat))))
        kwargs = dict(eps_grid=eps_grid, T_check=T_check)
        verdict = C.check_xi0_stability(system, **kwargs)
        twin = helpers.reference_check_xi0_stability(stepped(system), bisect_iters=iters,
                                                     integrate=C.integrate, **kwargs)
        found = dict(twin.witness["delta_table"])
        if twin.kind == "unstable":
            found[twin.witness["failed_eps"]] = 0.0
        if verdict.kind != "unstable":
            for eps, delta in verdict.witness["delta_table"]:
                assert delta <= found.get(eps, delta) + eps * 2.0 ** -iters
            eps, delta = verdict.witness["delta_table"][0]
            starts = np.random.default_rng(7).uniform(0.0, delta, size=(4096, dim))
            assert dense_xi0_peak(system.matrix, starts, T_check) < eps
        exact = C.lyapunov_quadratic_check(system, weights=weights)
        sampled = C.lyapunov_quadratic_check(stepped(system), weights=weights)
        assert sampled.worst_ratio <= exact.worst_ratio + 1e-12
        assert exact.samples == 0 and sampled.samples == 4096
        point, beta = exact.worst_point, np.array(weights)
        assert np.all(point >= 0.0)
        assert (beta * point) @ system(0.0, point) / (beta @ (point * point)) == pytest.approx(
            exact.worst_ratio, abs=1e-10)
        assert C.check_wazewski(stepped(system), (0.0, 10.0)).passed

    def test_a_stop_inside_an_output_interval(self):
        # xi' = xi reaches its ceiling 2 at t = ln 2, inside (0.6, 0.7];
        # the run escapes at the output t = 0.7 and keeps the outputs up
        # to 0.6
        times = np.linspace(0.0, 3.0, 31)
        with pytest.raises(BlowupError, match="escaped the guard") as err:
            C.integrate(C.linear_system([[1.0]]), [1.0], times, ceiling=2.0)
        assert err.value.reached_time == times[7]
        partial = err.value.partial
        assert partial.solver == "exact" and partial.times.tolist() == times[:7].tolist()
        assert np.allclose(partial.states[:, 0], np.exp(times[:7]), rtol=1e-14)
        # 7 output intervals, the escaping one included
        assert partial.steps == 7

    def test_a_stop_at_an_output_time_does_not_reach_it(self):
        # a ceiling at the state of t = 1 is reached at that output time,
        # which the partial trajectory does not hold
        system = C.linear_system([[1.0]])
        at_one = C.integrate(system, [1.0], [0.0, 1.0, 2.0]).states[1, 0]
        with pytest.raises(BlowupError, match="escaped the guard") as err:
            C.integrate(system, [1.0], [0.0, 1.0, 2.0], ceiling=at_one)
        assert err.value.reached_time == 1.0 and err.value.partial.times.tolist() == [0.0]

    def test_guard_escape_raises_with_the_partial_trajectory(self):
        # xi' = xi passes 1e12 times its scale at t = 12 ln 10 = 27.63; a
        # state with a larger scale has a higher guard
        system = C.linear_system([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(BlowupError, match="escaped the guard") as err:
            C.integrate(system, [1.0, 0.0], np.linspace(0.0, 30.0, 31))
        assert 12 * np.log(10.0) < err.value.reached_time < 12 * np.log(10.0) + 0.5
        partial = err.value.partial
        assert partial.solver == "exact" and partial.steps > 0
        assert partial.times.tolist() == list(range(28))
        assert np.allclose(partial.states[:, 0], np.exp(partial.times), rtol=1e-13)
        assert C.integrate(system, [0.0, 1e6], np.linspace(0.0, 30.0, 31)).states[-1, 1] == 1e6

    def test_a_stop_before_an_escape_in_the_same_chunk_stops(self):
        # one escape test over all outputs: xi' = xi reaches its ceiling 2 at
        # the first output, t = 1 (so only t = 0 is reached), and would
        # escape the guard at t = 28; the first escape stops the run
        with pytest.raises(BlowupError, match="escaped the guard") as err:
            C.integrate(C.linear_system([[1.0]]), [1.0], np.linspace(0.0, 100.0, 101),
                        ceiling=2.0)
        assert err.value.reached_time == 1.0
        assert err.value.partial.times.tolist() == [0.0] and err.value.partial.steps == 1

    def test_rows_below_their_ceilings_keep_their_bits(self):
        # each state has a ceiling a tenth above its largest output, which no
        # output reaches, and gets the bits and steps it gets with none
        system = C.cyclic_mixed_system(F.constant(0.7), F.constant(0.3), 5, a=-1.5)
        times = np.linspace(0.0, 10.0, 33)
        for row in np.random.default_rng(23).uniform(0.0, 2.0, size=(6, 5)):
            alone = C.integrate(system, row, times)
            capped = C.integrate(system, row, times, ceiling=1.1 * alone.states[:, 0].max())
            assert np.array_equal(capped.states, alone.states)
            assert capped.steps == alone.steps

    def test_a_crossing_cuts_every_row_at_its_sub_step(self):
        # from (1, 0) xi_0 reaches the ceiling 5 at the output t = 2
        # (ln 5 = 1.61 lies in (1, 2]); from (0, 1) xi_0 stays 0, and the
        # state escapes the guard at t = 28 (past 27.63) instead
        system = C.linear_system([[1.0, 0.0], [0.0, 1.0]])
        times = np.linspace(0.0, 100.0, 101)
        with pytest.raises(BlowupError, match="escaped the guard") as err:
            C.integrate(system, [1.0, 0.0], times, ceiling=5.0)
        assert err.value.reached_time == 2.0
        partial = err.value.partial
        assert partial.times.tolist() == [0.0, 1.0]
        assert partial.states[:, 0] == pytest.approx([1.0, np.e], rel=1e-14)
        # two output intervals, the escaping one included
        assert partial.steps == 2
        with pytest.raises(BlowupError, match="escaped the guard") as guard:
            C.integrate(system, [0.0, 1.0], times, ceiling=5.0)
        assert 12 * np.log(10.0) < guard.value.reached_time < 12 * np.log(10.0) + 0.5
        assert guard.value.partial.times.tolist() == list(range(28))

    def test_a_negative_start_is_rejected(self):
        # exp(M h) keeps the cone only for starts inside it
        with pytest.raises(ValueError, match="nonnegative cone"):
            C.integrate(C.linear_system([[1.0]]), [-1.0], [0.0, 1000.0])

    def test_overflow_escapes_the_guard(self):
        # exp(1e3 * 30) overflows: the guard stops the run, with no warning
        with pytest.raises(BlowupError):
            C.integrate(C.linear_system([[1e3]]), [1.0], [0.0, 30.0])

    @pytest.mark.parametrize("system, exact", [
        (C.linear_system([[-1.0, 0.3, -0.2], [0.5, -2.0, 0.1], [-0.4, 0.2, 0.3]]), False),
        (C.linear_system([[-1.0, 0.0], [0.0, -1.0]]), True),
        (C.nilpotent_source_system(RATIONAL, F.constant(0.5)), False),
        (C.nilpotent_source_system(F.constant(1.0), RATIONAL), False),
        (C.cyclic_mixed_system(F.table([0.0, 1.0], [1.0, 2.0]), F.constant(0.5), 3), False),
        (C.cyclic_mixed_system(F.constant(1.0), F.constant(0.0), 3), True),
        (C.scalar_system(lambda t, x: -x), False),
    ], ids=["non_metzler", "diagonal", "rational_clock", "rational_psi", "table_clock",
            "uncoupled", "scalar"])
    def test_which_systems_are_exact(self, system, exact):
        traj = C.integrate(system, np.full(system.dim, 0.5), np.linspace(0.0, 1.0, 5))
        assert (system.matrix is not None) == exact
        assert traj.solver == ("exact" if exact else "dopri5")

    def test_a_non_metzler_system_stays_on_rk4_and_clamps(self):
        # xi0' = -xi1 drives xi0 below 0, which the stepped path clamps and counts
        system = C.linear_system([[0.0, -1.0], [0.0, 0.0]])
        traj = C.integrate(system, [0.1, 1.0], np.linspace(0.0, 1.0, 11))
        assert system.matrix is None and traj.solver == "dopri5"
        assert traj.clamp_events > 0 and traj.rejected >= 0

    @pytest.mark.parametrize("system, kwargs, iters, kind", [
        (C.nilpotent_source_system(F.constant(1.0), F.constant(2.0)),
         dict(eps_grid=(0.5,), T_check=5.0), 12, "asymptotically_stable"),
        (C.cyclic_mixed_system(F.constant(1.0), F.constant(2.0), 2),
         dict(eps_grid=(0.1, 0.5), T_check=15.0), 45, "unstable"),
        (C.cyclic_mixed_system(F.constant(1.0), F.constant(0.4862523591439185), 3), {}, 40,
         "asymptotically_stable"),
        (C.sde_growth_system(SWAP), dict(eps_grid=(0.5,), T_check=10.0), 10, "stable"),
    ], ids=["bisecting", "floor", "cyclic3", "unstable"])
    def test_search_matches_per_direction_search(self, system, kwargs, iters, kind):
        # the closed form against the test oracle's corner bisection on stepped
        # runs of the matrix-free twin, which tests crossings at the steps
        # and output times only: its delta is never smaller, to one
        # bisection step.  The bisection of the growth system stops 10
        # steps short of its delta 0.5 e^-20 and ends unstable; the closed
        # form finds that delta
        verdict = C.check_xi0_stability(system, **kwargs)
        bisected = helpers.reference_check_xi0_stability(stepped(system), bisect_iters=iters,
                                                         integrate=C.integrate, **kwargs)
        assert verdict.kind == kind and verdict.witness["solver"] == "exact"
        assert bisected.kind == ("unstable" if kind == "stable" else kind)
        step = 2.0 ** -iters
        for (eps, delta), (_, found) in zip(verdict.witness["delta_table"],
                                            bisected.witness["delta_table"]):
            assert delta <= found + eps * step
        if kind == "stable":
            (eps, delta), = verdict.witness["delta_table"]
            assert delta == pytest.approx(0.5 * np.exp(-20.0), rel=1e-13)
            assert delta < eps * step

    def test_reports_name_the_solver(self):
        system = C.sde_growth_system(SWAP)
        witness = C.check_practical(system, lam=1.0, bound=100.0, horizon=1.0).witness
        traj = C.integrate(system, [1.0, 1.0], np.linspace(0.0, 1.0, 257))
        assert witness["solver"] == "exact" and witness["xi0_final"] == traj.states[-1, 0]
        # 256 intervals of 1/256, one exp(M h) each
        assert (witness["steps"], witness["rejected"], witness["clamp_events"]) == (256, 0, 0)
        blown = C.check_practical(C.linear_system([[40.0]]), lam=1.0, bound=100.0,
                                  horizon=1.0).witness
        assert blown["solver"] == "exact" and blown["steps"] > 0
        assert "blew up" in blown["diagnostic"]


class TestWazewski:
    def test_sde_system_passes(self):
        # its Metzler matrix passes by construction, with no sample drawn;
        # the twin without the matrix passes its 256 samples
        rep = C.check_wazewski(C.sde_growth_system(SWAP), (0.0, 5.0), 256)
        assert (rep.passed, rep.samples, rep.violation) == (True, 0, None)
        assert rep.note == C.MATRIX_EVIDENCE_NOTE
        twin = C.check_wazewski(stepped(C.sde_growth_system(SWAP)), (0.0, 5.0), 256)
        assert (twin.passed, twin.samples, twin.note) == (True, 256, C.SAMPLED_EVIDENCE_NOTE)

    def test_nonincreasing_clock_passes(self):
        sys2 = C.nilpotent_source_system(F.rational([1.0], [1.0, 1.0]),
                                         F.constant(0.5))
        rep = C.check_wazewski(sys2, (0.0, 5.0), 256)
        assert rep.passed

    def test_sign_violation_detected(self):
        bad = C.ComparisonSystem(dim=2, rhs=lambda t, xi: np.array([-xi.T[1], 0.0 * xi.T[1]]).T)
        rep = C.check_wazewski(bad, (0.0, 5.0), 256)
        assert not rep.passed
        assert rep.violation["component"] == 0

    @pytest.mark.parametrize("system, box, seed", [
        (C.ComparisonSystem(dim=2, rhs=lambda t, xi: np.array([-xi.T[1], 0.0 * xi.T[1]]).T),
         (0.0, 5.0), 0),
        (LATE_VIOLATION, (0.0, 5.0), 1),
        (stepped(C.linear_system([[-1.0, 0.3, 0.2], [0.5, -2.0, 0.1], [0.4, 0.2, 0.3]])),
         [[0.0, 1.0], [0.5, 2.0], [0.0, 3.0]], 2),
        (C.cyclic_mixed_system(F.rational([1.0], [1.0, 1.0]), F.constant(0.4), 4),
         (0.0, 10.0), 3),
        (C.nilpotent_source_system(F.table([0.0, 1.0, 10.0], [1.0, 2.0, 0.5]),
                                   F.constant(0.5)), (0.0, 5.0), 4),
    ], ids=["sign_violation", "late_violation", "quasimonotone_box", "cyclic_k4",
            "increasing_clock"])
    def test_matches_per_sample_loop(self, system, box, seed):
        logged, calls = counted(system)
        rep = C.check_wazewski(logged, box, 256, seed=seed)
        expected = helpers.reference_check_wazewski(system, box, 256, seed=seed)
        assert C._plain(rep) == C._plain(expected)
        # batches of rows, each at one time
        assert calls and all(len(shape) == 2 for shape in calls)

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


def counted_runs(monkeypatch):
    """The list that each call of ``comparison.integrate`` appends its initial state's shape to."""
    calls = []
    integrate = C.integrate
    monkeypatch.setattr(C, "integrate",
                        lambda s, xi0, *args, **kw: calls.append(np.shape(xi0))
                        or integrate(s, xi0, *args, **kw))
    return calls


def oracle_deltas(expected):
    """The oracle's delta per level, 0 at the level where it ended unstable."""
    found = dict(expected.witness.get("delta_table", []))
    if expected.kind == "unstable":
        found[expected.witness["failed_eps"]] = 0.0
    return found


# nilpotent_decay's comparison system: phi = 1/(1+V), psi = 1/2, a = -1
DECAY_CHAIN = C.nilpotent_source_system(RATIONAL, F.constant(0.5))


class TestXi0Stability:
    def test_decaying_pair_is_asymptotically_stable(self):
        sys2 = C.nilpotent_source_system(F.constant(1.0), F.constant(0.5))
        verdict = C.check_xi0_stability(sys2, eps_grid=(0.5,), T_check=10.0)
        assert verdict.kind == "asymptotically_stable"

    def test_growth_system_is_unstable(self):
        # from the unit corner xi_0 = e^{2t}: at T_check = 13.6 its peak
        # e^27.2 puts delta = 0.5 e^-27.2 below the floor, and by 14 the run
        # leaves the guard 1e12.  The test oracle's bisection of the twin
        # without a matrix takes 10 steps at T_check = 10 and stops short of
        # its delta 0.5 e^-20
        system = C.sde_growth_system(SWAP)
        floor = C.check_xi0_stability(system, eps_grid=(0.5,), T_check=13.6)
        escape = C.check_xi0_stability(system, eps_grid=(0.5,), T_check=14.0)
        twin = helpers.reference_check_xi0_stability(stepped(system), eps_grid=(0.5,),
                                                      T_check=10.0, bisect_iters=10,
                                                      integrate=C.integrate)
        assert floor.kind == escape.kind == twin.kind == "unstable"
        assert floor.witness["peak"] == pytest.approx(np.exp(27.2), rel=1e-12)
        assert "blew up" in escape.witness["diagnostic"] and "peak" not in escape.witness
        for witness in (floor.witness, escape.witness):
            assert witness["failed_eps"] == 0.5 and witness["delta_table"] == []
            assert witness["delta_floor"] == C.DELTA_FLOOR and witness["solver"] == "exact"

    def test_flat_scalar_is_stable_not_asymptotic(self):
        flat = C.linear_system([[0.0]])
        verdict = C.check_xi0_stability(flat, eps_grid=(0.5,), T_check=5.0)
        assert verdict.kind == "stable" and verdict.witness["delta_table"] == [(0.5, 0.5)]

    def test_nontrivial_origin_rejected(self):
        shifted = C.scalar_system(lambda t, x: 1.0 + x)
        with pytest.raises(ValueError):
            C.check_xi0_stability(shifted, eps_grid=(0.5,))

    @pytest.mark.parametrize("kwargs", [
        {"eps_grid": ()}, {"eps_grid": (0.5, -1.0)}, {"T_check": 0.0},
    ], ids=["empty_eps", "negative_eps", "zero_T_check"])
    def test_bad_parameters_rejected(self, kwargs):
        flat = C.scalar_system(lambda t, x: 0.0)
        with pytest.raises(ValueError):
            C.check_xi0_stability(flat, **kwargs)

    @pytest.mark.parametrize("system, kwargs, iters, seed", [
        (C.nilpotent_source_system(F.constant(1.0), F.constant(0.5)),
         dict(eps_grid=(0.5,), T_check=10.0), 12, 0),
        (C.nilpotent_source_system(F.constant(1.0), F.constant(2.0)),
         dict(eps_grid=(0.5,), T_check=5.0), 12, 0),
        (C.scalar_system(lambda t, x: 0.0), dict(eps_grid=(0.5,), T_check=5.0), 8, 0),
        (C.sde_growth_system(SWAP), dict(eps_grid=(0.5,), T_check=10.0), 10, 0),
        (NON_MONOTONE, dict(eps_grid=(1.0,), T_check=10.0), 4, 3),
        (NON_MONOTONE, dict(eps_grid=(1.0,), T_check=10.0), 4, 4),
    ], ids=["asymptotic", "bisecting", "flat", "unstable", "decay_run_fails",
            "decay_run_fails_late"])
    def test_matches_per_direction_search(self, system, kwargs, iters, seed):
        # against the test oracle, which searches the one direction (1, ..., 1)
        # by stepped runs of the twin without a matrix: a system with a matrix
        # finds a delta no smaller, to one bisection step, and agrees on the
        # verdict unless the oracle stopped short of the delta (unstable).
        # A system with no matrix or chain is inconclusive, with nothing
        # sampled, where the oracle reads the flat system stable and
        # NON_MONOTONE inconclusive (its Wazewski samples fail)
        verdict = C.check_xi0_stability(system, **kwargs)
        expected = helpers.reference_check_xi0_stability(stepped(system), bisect_iters=iters,
                                                         seed=seed, integrate=C.integrate,
                                                         **kwargs)
        if system.matrix is None:
            assert expected.kind == ("stable" if system.dim == 1 else "inconclusive")
            assert verdict.to_dict() == {"kind": "inconclusive", "T_check": kwargs["T_check"],
                                         "note": C.NO_BOUND_NOTE}
            return
        assert verdict.kind == expected.kind or expected.kind == "unstable"
        found = oracle_deltas(expected)
        for eps, delta in verdict.witness["delta_table"]:
            assert delta <= found[eps] + eps * 2.0 ** -iters

    @pytest.mark.parametrize("system, kwargs, bisecting", [
        (C.nilpotent_source_system(F.constant(1.0), F.constant(0.5)),
         dict(eps_grid=(1.0, 0.1, 0.5), T_check=10.0), []),
        (DECAY_CHAIN, dict(eps_grid=(0.05, 0.1, 0.5), T_check=10.0), []),
        (C.nilpotent_source_system(F.constant(1.0), F.rational([0.3, 1.0], [1.0])),
         dict(eps_grid=(0.05, 0.5, 2.0, 5.0), T_check=10.0, bisect_iters=6), [2.0, 5.0]),
        (DECAY_CHAIN, dict(eps_grid=(20.0, 0.05, 5.0, 0.5), T_check=10.0, bisect_iters=6),
         [5.0, 20.0]),
        (C.cyclic_mixed_system(F.constant(1.0), F.constant(2.0), 2),
         dict(eps_grid=(0.1, 0.5, 1.0), T_check=15.0, bisect_iters=45), None),
        (C.cyclic_mixed_system(RATIONAL, F.constant(0.9), 2),
         dict(eps_grid=(0.05, 0.5, 50.0), T_check=10.0, bisect_iters=3), None),
    ], ids=["no_level_bisects_constant", "no_level_bisects_rational",
            "some_levels_bisect_constant", "some_levels_bisect_rational",
            "floor_constant", "unstable_level_rational"])
    def test_rounds_match_per_direction_search(self, system, kwargs, bisecting, monkeypatch):
        # the ids name the rounds of the test oracle, which bisects the
        # levels listed (None: it ends unstable).  The closed form takes one
        # exact run from a matrix, two per distinct level from a chain's
        # bracket, and finds no delta smaller than the oracle's, to one
        # bisection step; the oracle's deltas lie below the bracket's upper ends
        kwargs = dict(kwargs)
        iters = kwargs.pop("bisect_iters", 8)
        expected = helpers.reference_check_xi0_stability(stepped(system), bisect_iters=iters,
                                                         rtol=1e-10, integrate=C.integrate,
                                                         **kwargs)
        calls = counted_runs(monkeypatch)
        verdict = C.check_xi0_stability(system, **kwargs)
        if bisecting is None:
            assert expected.kind == "unstable"
        else:
            assert expected.kind == verdict.kind == "asymptotically_stable"
            assert [e for e, d in expected.witness["delta_table"] if d != e] == bisecting
        # every run is one from the unit corner
        assert set(calls) == {(system.dim,)}
        levels = set(kwargs["eps_grid"])
        assert len(calls) == (1 if system.matrix is not None else 2 * len(levels))
        assert verdict.witness["solver"] == ("exact" if system.matrix is not None else "bracket")
        found = oracle_deltas(expected)
        upper = dict(verdict.witness.get("delta_upper", []))
        for eps, delta in verdict.witness["delta_table"]:
            assert delta <= found.get(eps, delta) + eps * 2.0 ** -iters
            assert found.get(eps, 0.0) <= upper.get(eps, np.inf) * (1 + 1e-6)

    @pytest.mark.parametrize("system, eps, T_check", [
        (C.nilpotent_source_system(F.constant(1.0), F.rational([0.3, 1.0], [1.0])), 0.5, 10.0),
        (C.nilpotent_source_system(F.constant(1.0), F.rational([0.3, 1.0], [1.0])), 2.0, 10.0),
        (C.cyclic_mixed_system(F.constant(1.0), F.constant(2.0), 2), 0.1, 15.0),
    ], ids=["passing", "bisecting", "floor"])
    def test_equal_levels_repeat_one_entry(self, system, eps, T_check, monkeypatch):
        # a repeated level repeats the entry of its one pair of bracket runs
        # (at eps = 2 the bracket's delta_lo is below eps); a matrix's one
        # run decides every level
        calls = counted_runs(monkeypatch)
        single = C.check_xi0_stability(system, eps_grid=[eps], T_check=T_check)
        once = len(calls)
        verdict = C.check_xi0_stability(system, eps_grid=[eps] * 8, T_check=T_check)
        assert len(calls) == 2 * once
        if single.kind == "unstable":
            assert verdict.to_dict() == single.to_dict()
        else:
            assert verdict.kind == single.kind
            for key in ("delta_table", "delta_upper"):
                assert verdict.witness[key] == single.witness[key] * 8

    def test_a_repeated_level_repeats_its_entry_in_the_table(self):
        system = C.nilpotent_source_system(F.constant(1.0), F.rational([0.3, 1.0], [1.0]))
        distinct = C.check_xi0_stability(system, eps_grid=(0.5, 1.0), T_check=10.0)
        repeated = C.check_xi0_stability(system, eps_grid=(0.5, 0.5, 1.0), T_check=10.0)
        (low, high) = distinct.witness["delta_table"]
        assert high[1] < high[0]        # the level 1.0 has delta_lo below eps
        assert repeated.kind == distinct.kind == "asymptotically_stable"
        assert repeated.witness["delta_table"] == [low, low, high]

    def test_a_level_that_blows_up_fails_alone(self):
        # xi' = (-2 + 20 xi^2) xi: at eps = 1 the upper bracket's rate 18
        # takes its run past the guard, while the lower one, rate -2, decays,
        # so that level is inconclusive; the levels 0.1 and 0.2 below it keep
        # their deltas
        cliff = C.cyclic_mixed_system(F.constant(1.0), F.rational([0.0, 0.0, 10.0], [1.0]), 1)
        verdict = C.check_xi0_stability(cliff, eps_grid=(0.1, 1.0, 0.2), T_check=10.0)
        assert verdict.kind == "inconclusive" and verdict.witness["failed_eps"] == 1.0
        assert "blew up" in verdict.witness["diagnostic"]
        assert verdict.witness["delta_table"] == [(0.1, 0.1), (0.2, 0.2)]
        assert verdict.witness["delta_upper"] == [(0.1, 0.1), (0.2, 0.2)]

    @pytest.mark.parametrize("system, kwargs, delta", [
        # the corner is the Perron vector of M = 0.4 I + 1.2 (C - I), so
        # xi_0(t) = delta e^{0.4 t}: delta = e^{-2} at eps = 1, T_check = 5
        (C.cyclic_mixed_system(F.constant(1.0), F.constant(1.2), 8),
         dict(eps_grid=(1.0,), T_check=5.0), np.exp(-2.0)),
        # xi_0(t) = delta e^{-2t} (1 + 4t) peaks at t = 1/4 between two
        # grid points: delta = 0.5 / (2 e^{-1/2}), where the bisection of
        # the corner on the 33 exact outputs finds 0.415166
        (C.nilpotent_source_system(F.constant(1.0), F.constant(2.0)),
         dict(eps_grid=(0.5,), T_check=5.0), 0.25 * np.exp(0.5)),
    ], ids=["cyclic_k8", "nilpotent"])
    def test_the_corner_bounds_the_box(self, system, kwargs, delta):
        # 4096 starts in the reported delta box, half drawn uniformly and
        # half on its far faces (largest coordinate delta), never reach eps
        # on 10^5 + 1 equal times of [0, T_check], t = 1/4 among them; the
        # corner at delta (1 + 1e-9) does
        verdict = C.check_xi0_stability(system, **kwargs)
        assert verdict.kind != "unstable"
        (eps, found), = verdict.witness["delta_table"]
        assert found == pytest.approx(delta, rel=1e-13)
        starts = np.random.default_rng(29).uniform(0.0, 1.0, size=(4096, system.dim))
        starts[2048:] /= np.max(starts[2048:], axis=1, keepdims=True)
        assert dense_xi0_peak(system.matrix, found * (1 - 1e-12) * starts,
                              kwargs["T_check"]) < eps
        corner = np.full((1, system.dim), found * (1 + 1e-9))
        assert dense_xi0_peak(system.matrix, corner, kwargs["T_check"]) > eps

    def test_a_metzler_witness_explains_itself(self, monkeypatch):
        # from the unit corner xi_0 = e^{-2t} (1 + 4t): peak 2 e^{-1/2} at
        # t = 1/4, and 21 e^{-10} at T_check = 5.  One integration decides
        # every level
        system = C.nilpotent_source_system(F.constant(1.0), F.constant(2.0))
        kwargs = dict(eps_grid=(0.5, 0.25, 0.5), T_check=5.0)
        calls = counted_runs(monkeypatch)
        verdict = C.check_xi0_stability(system, **kwargs)
        witness = verdict.witness
        assert len(calls) == 1 and verdict.kind == "asymptotically_stable"
        assert witness["solver"] == "exact" and witness["note"] == C.MATRIX_EVIDENCE_NOTE
        assert witness["peak"] == pytest.approx(2.0 * np.exp(-0.5), rel=1e-13)
        assert witness["peak_time"] == pytest.approx(0.25, abs=1e-9)
        assert witness["decay_ratio"] == pytest.approx(21.0 * np.exp(-10.0), rel=1e-12)
        assert witness["delta_table"] == [(e, e / witness["peak"]) for e in (0.25, 0.5, 0.5)]

    def test_a_non_quasimonotone_system_is_inconclusive(self):
        # xi_0' falls as xi_1 grows, so no start bounds the states below it;
        # the system carries no matrix or chain, and nothing is sampled: the
        # right-hand side is called once, on the zero state
        logged, calls = counted(NON_MONOTONE)
        verdict = C.check_xi0_stability(logged, eps_grid=(0.5, 1.0), T_check=10.0)
        wazewski = C.check_wazewski(NON_MONOTONE, (0.0, 1.0))
        assert verdict.kind == "inconclusive" and not wazewski.passed
        assert verdict.witness == {"T_check": 10.0, "note": C.NO_BOUND_NOTE}
        assert calls == [(2,)] and wazewski.violation["component"] == 0

    def test_a_chain_is_decided_by_its_bracket(self, monkeypatch):
        # at eps = 5 the clock 1/(1+V) ranges over [1/6, 1]: M_up = [[-1/3, 1],
        # [0, -1/3]], whose xi_0 = e^{-t/3} (1 + t) peaks at 3 e^{-2/3} at
        # t = 2, and M_lo = [[-2, 1], [0, -2]], whose xi_0 never rises.  So
        # delta lies in [5 e^{2/3} / 3, 5], in two exact runs at any T_check
        lower, upper = C._bracket(DECAY_CHAIN.chain, 5.0)
        assert np.allclose(upper, [[-1.0 / 3.0, 1.0], [0.0, -1.0 / 3.0]], rtol=1e-15)
        assert np.array_equal(lower, [[-2.0, 1.0], [0.0, -2.0]])
        calls = counted_runs(monkeypatch)
        for T_check in (5.0, 50.0, 1e6):
            verdict = C.check_xi0_stability(DECAY_CHAIN, eps_grid=(5.0,), T_check=T_check)
            (eps, low), = verdict.witness["delta_table"]
            assert low == pytest.approx(5.0 * np.exp(2.0 / 3.0) / 3.0, rel=1e-12)
            assert verdict.witness["delta_upper"] == [(5.0, 5.0)]
            assert verdict.witness["solver"] == "bracket"
            assert verdict.witness["note"] == C.BRACKET_EVIDENCE_NOTE
        assert len(calls) == 6
        with pytest.raises(ValueError, match="1e\\+07"):
            C.check_xi0_stability(DECAY_CHAIN, eps_grid=(5.0,), T_check=1e7)

    def test_a_bracket_that_does_not_decay_is_only_stable(self):
        # at eps = 1 the upper bracket [[-1, 1], [0, -1]] gives xi_0 = e^{-t} (1 + t)
        # from the unit corner: 6 e^{-5} at T_check = 5, above DECAY_FACTOR,
        # and 51 e^{-50} at 50
        short = C.check_xi0_stability(DECAY_CHAIN, eps_grid=(1.0, 2.0), T_check=5.0)
        long = C.check_xi0_stability(DECAY_CHAIN, eps_grid=(1.0, 2.0), T_check=50.0)
        assert short.kind == "stable" and long.kind == "asymptotically_stable"
        assert short.witness["decay_ratio"] == pytest.approx(6.0 * np.exp(-5.0), rel=1e-12)
        assert short.witness["delta_table"][0] == long.witness["delta_table"][0] == (1.0, 1.0)

    @pytest.mark.parametrize("system", [
        C.nilpotent_source_system(F.constant(1.0), F.constant(0.5), a=-0.5),
        C.cyclic_mixed_system(F.constant(0.3), F.constant(1.2), 4, a=0.5),
        C.volume_system(F.constant(2.0), a=-1.0),
    ], ids=lambda s: s.name)
    def test_constant_clocks_bracket_to_the_matrix(self, system):
        # both ends of the bracket are the matrix, bit for bit, at any level
        for level in (0.0, 0.5, 100.0):
            for end in C._bracket(system.chain, level):
                assert np.array_equal(end, system.matrix)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(CLOCKS, CLOCKS, st.floats(-2.0, 1.0), st.integers(0, 4), st.floats(0.05, 2.0),
           st.floats(0.5, 6.0))
    # the lower bracket grows at 2/1.5 + 4 and leaves its guard by t = 6: unstable
    @example(phi=RATIONAL, psi=F.table([0.0, 1.0], [2.0, 2.0]), a=1.0, k=2, eps=0.5,
             T_check=6.0)
    def test_fuzz_the_bracket_holds_the_chain(self, phi, psi, a, k, eps, T_check):
        # k = 0 draws the nilpotent pair.  The oracle's corner delta (stepped
        # runs of the twin without a chain, 0 where it ends unstable, none
        # where its Wazewski samples fail) lies in [delta_lo, delta_hi], to
        # one bisection step below and to 1e-6 above, and 256 starts in the
        # delta_lo box, half on its far faces, keep xi_0 below eps on stepped
        # runs at rtol 1e-10
        system = (C.nilpotent_source_system(phi, psi, a=a) if k == 0
                  else C.cyclic_mixed_system(phi, psi, k, a=a))
        verdict = C.check_xi0_stability(system, eps_grid=(eps,), T_check=T_check)
        expected = helpers.reference_check_xi0_stability(
            stepped(system), eps_grid=(eps,), T_check=T_check, bisect_iters=10, rtol=1e-10,
            integrate=C.integrate)
        low = dict(verdict.witness["delta_table"]).get(eps, 0.0)
        high = dict(verdict.witness.get("delta_upper", [])).get(eps)
        if expected.kind != "inconclusive":
            found = oracle_deltas(expected)[eps]
            assert low <= found + eps * 2.0 ** -10
            if high is not None:
                assert found <= high * (1 + 1e-6)
            if verdict.kind == "unstable":     # delta_hi is below the oracle's last step
                assert found == 0.0
        if verdict.kind not in ("stable", "asymptotically_stable"):
            return
        dim = system.dim
        starts = np.random.default_rng(5).uniform(0.0, low * (1 - 1e-12), size=(256, dim))
        starts[128:] *= low * (1 - 1e-12) / np.max(starts[128:], axis=1, keepdims=True)
        stacked = C.ComparisonSystem(
            dim=256 * dim, rhs=lambda t, xi: stepped(system)(t, xi.reshape(256, dim)).ravel())
        states = C.integrate(stacked, starts.ravel(), np.linspace(0.0, T_check, 257),
                             rtol=1e-10).states
        assert np.max(states[:, ::dim]) < eps


class TestPractical:
    def test_swap_matrix_bound(self):
        verdict = C.check_practical(C.sde_growth_system(SWAP), lam=1.0,
                                    bound=100.0, horizon=1.0)
        assert verdict.kind == "practically_stable"
        assert verdict.witness["xi0_final"] == pytest.approx(np.exp(2.0), rel=1e-6)
        assert verdict.witness["margin"] > 0

    def test_zero_horizon_compares_measures(self):
        # integrate reads the one output t = 0 on either path, in no step
        for system in (C.sde_growth_system(SWAP), stepped(C.sde_growth_system(SWAP))):
            verdict = C.check_practical(system, lam=1.0, bound=2.0, horizon=0.0)
            assert verdict.kind == "practically_stable"
            assert verdict.witness["xi0_final"] == verdict.witness["xi0_max"] == 1.0
            assert verdict.witness["steps"] == 0

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

    def test_blowup_reports_the_rk4_counters(self):
        quad = C.scalar_system(lambda t, x: x * x)
        witness = C.check_practical(quad, lam=1.0, bound=100.0, horizon=2.0).witness
        with pytest.raises(BlowupError) as err:
            C.integrate(quad, [1.0], np.linspace(0.0, 2.0, 257), rtol=C.CHECK_RTOL)
        partial = err.value.partial
        assert (witness["steps"], witness["rejected"], witness["clamp_events"]) == (
            partial.steps, partial.rejected, partial.clamp_events)
        assert witness["steps"] > 0

    def test_a_chain_takes_the_upper_bracket_at_its_bound(self):
        # at A = 5 the upper bracket of nilpotent_decay's chain peaks at
        # 3 e^{-2/3} = 1.5403 from the unit corner, and the lower one never
        # rises: lambda 3 passes and lambda 4 is inconclusive, at a horizon
        # past the peak and at 1e6 alike.  At horizon 0 every lambda < A passes
        for lam, kind in ((3.0, "practically_stable"), (4.0, "inconclusive")):
            for horizon in (5.0, 1e6):
                verdict = C.check_practical(DECAY_CHAIN, lam=lam, bound=5.0, horizon=horizon)
                assert verdict.kind == kind and verdict.witness["solver"] == "bracket"
                assert verdict.witness["peak"] == pytest.approx(3.0 * np.exp(-2.0 / 3.0),
                                                               rel=1e-12)
        at_zero = C.check_practical(DECAY_CHAIN, lam=4.9, bound=5.0, horizon=0.0)
        assert at_zero.kind == "practically_stable"
        # an upper bracket that leaves its guard reads inconclusive, not unstable
        cliff = C.cyclic_mixed_system(F.constant(1.0), F.rational([0.0, 0.0, 10.0], [1.0]), 1)
        escape = C.check_practical(cliff, lam=0.5, bound=5.0, horizon=10.0)
        assert escape.kind == "inconclusive" and "blew up" in escape.witness["diagnostic"]

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
        flat = C.ComparisonSystem(dim=2, rhs=lambda t, xi: np.zeros_like(xi))
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

    def test_the_cyclic3_ratio_changes_sign_at_the_threshold(self):
        # the paper's threshold: psi = lam phi puts the top eigenvalue of the
        # chain's form at 0, so a relative step of 1e-9 moves it by 2e-9
        lam = CERT.cyclic3_ratio_threshold()
        for factor, ratio in ((1 - 1e-9, -2e-9), (1 + 1e-9, 2e-9)):
            system = C.cyclic_mixed_system(F.constant(1.0), F.constant(factor * lam), 3)
            rep = C.lyapunov_quadratic_check(system)
            assert rep.worst_ratio == pytest.approx(ratio, rel=1e-2)
            assert rep.passed == (ratio < 0)
            assert rep.samples == 0 and rep.note == C.MATRIX_EVIDENCE_NOTE

    @pytest.mark.parametrize("k, worst", [(16, 0.044739), (32, 0.041395), (64, 0.041242)])
    def test_long_cyclic_chains_fail_at_psi_one(self, k, worst):
        # the energy grows along the Perron vector, which the reported point
        # is; 4096 samples of (1e-3, 10)^k miss it, and the twin passes
        system = C.cyclic_mixed_system(F.constant(1.0), F.constant(1.0), k)
        rep = C.lyapunov_quadratic_check(system)
        assert not rep.passed and rep.worst_ratio == pytest.approx(worst, abs=1e-6)
        point = rep.worst_point
        assert np.all(point >= 0.0)
        assert point @ system(0.0, point) / (point @ point) == pytest.approx(rep.worst_ratio,
                                                                             abs=1e-12)
        assert C.lyapunov_quadratic_check(stepped(system)).passed

    def test_order2_chain_threshold(self):
        good = C.cyclic_mixed_system(F.constant(1.0), F.constant(0.9), 2)
        bad = C.cyclic_mixed_system(F.constant(1.0), F.constant(1.1), 2)
        assert C.lyapunov_quadratic_check(good, n_samples=2048).passed
        assert not C.lyapunov_quadratic_check(bad, n_samples=2048).passed

    @pytest.mark.parametrize("system, kwargs", [
        (stepped(C.nilpotent_source_system(F.constant(1.0), F.constant(0.0))),
         dict(weights=(1.0, 2.0), n_samples=512)),
        (stepped(C.cyclic_mixed_system(F.constant(1.0), F.constant(1.1), 2)), dict(n_samples=2048)),
        (C.cyclic_mixed_system(F.rational([1.0], [1.0, 1.0]), F.constant(0.3), 5),
         dict(weights=(1.0, 2.0, 3.0, 2.0, 1.0), sample_box=(0.0, 4.0), seed=7)),
        (C.linear_system([[-1.0, 0.3, -0.2], [0.5, -2.0, 0.1], [-0.4, 0.2, 0.3]]),
         dict(n_samples=1000, seed=2)),
        # every ratio ties: the first sample is the worst point
        (stepped(C.linear_system([[-1.0, 0.0], [0.0, -1.0]])), dict(n_samples=64)),
    ], ids=["pure_decay", "order2_chain_unstable", "cyclic_k5_weighted", "linear_3d",
            "all_tied"])
    def test_matches_per_sample_loop(self, system, kwargs):
        logged, calls = counted(system)
        rep = C.lyapunov_quadratic_check(logged, **kwargs)
        expected = helpers.reference_lyapunov_quadratic_check(system, **kwargs)
        assert C._plain(rep) == C._plain(expected)
        assert calls == [(kwargs.get("n_samples", 4096), system.dim)]

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
