"""Closed-form criteria: fixed points, linearization, exponents, envelopes."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from setflow import bodies as B, certificates as CERT, comparison as C, flow as F

import helpers

RNG = np.random.default_rng(5150)

MINUS_I = -np.eye(2)


def ball_source_params(psi_value=1.0, phi=None, psi=None):
    return F.SemiflowParams(A=MINUS_I,
                            phi=phi if phi is not None else F.constant(1.0),
                            source=F.ball_source(psi if psi is not None
                                                 else F.constant(psi_value)))


class TestFixedPoint:
    def test_unit_disc_fixed_point(self):
        rep = CERT.ball_source_fixed_point(F.constant(1.0), F.constant(1.0), n=2)
        assert rep.lambda0 == pytest.approx(np.pi, abs=1e-10)
        assert rep.radius == pytest.approx(1.0, abs=1e-10)
        assert rep.stable
        assert rep.log_derivative == pytest.approx(1 / np.pi, rel=1e-5)

    def test_three_dimensional_root(self):
        rep = CERT.ball_source_fixed_point(F.constant(1.0), F.constant(1.0), n=3)
        assert rep.lambda0 == pytest.approx(4 * np.pi / 3, abs=1e-9)
        assert rep.body is None

    def test_linear_clock(self):
        # phi(l) = l, psi = 1: root of l = (1/l)^2 pi, i.e. l^3 = pi
        rep = CERT.ball_source_fixed_point(
            F.ScalarFunction(kind="rational", num=(0.0, 1.0), den=(1.0,)),
            F.constant(1.0), n=2)
        assert rep.lambda0 == pytest.approx(np.pi ** (1 / 3), abs=1e-9)
        assert rep.stable          # d/dl log(l^2) = 2/l > 0

    def test_fixed_body_is_stationary(self):
        rep = CERT.ball_source_fixed_point(F.constant(1.0), F.constant(1.0), n=2)
        rate = F.volume_rate(rep.body, ball_source_params())
        assert rate == pytest.approx(0.0, abs=1e-8)

    def test_no_root_raises(self):
        with pytest.raises(ValueError):
            CERT.ball_source_fixed_point(F.constant(1.0), F.constant(0.0), n=2,
                                         bracket=(1e-6, 10.0))


class TestLinearize:
    def test_unit_disc_report(self):
        rep = CERT.ball_source_fixed_point(F.constant(1.0), F.constant(1.0), n=2)
        lin = CERT.linearize(rep.body, ball_source_params())
        assert lin.gamma0 == pytest.approx(-2.0, abs=1e-6)
        # the perimeter of the sampled unit disc, the source at the fixed point
        assert lin.delta0 == pytest.approx(2 * helpers.sampled_disc_area(512), rel=1e-6)
        assert lin.growth_constant == 1.0
        assert lin.growth_rate == pytest.approx(-1.0)
        assert lin.stable
        assert lin.routh_hurwitz["stable"]

    def test_matches_closed_form_with_varying_clock(self):
        # phi(s) = 1 + s/10, psi = 1: gamma0 = -2 (phi(l0) + l0 phi'(l0))
        phi = F.rational([1.0, 0.1], [1.0])
        lam0 = brentq(lambda l: l - np.pi / (1 + l / 10) ** 2, 0.1, 10.0,
                      xtol=1e-13)
        closed = -2.0 * ((1 + lam0 / 10) + lam0 * 0.1)
        rep = CERT.ball_source_fixed_point(phi, F.constant(1.0), n=2)
        assert rep.lambda0 == pytest.approx(lam0, abs=1e-9)
        lin = CERT.linearize(rep.body, ball_source_params(phi=phi))
        assert lin.gamma0 == pytest.approx(closed, abs=1e-3)

    def test_matches_closed_form_with_varying_source(self):
        # phi = 1, psi(s) = 1 + s/20:
        # gamma0 = -2 [1 + l0 psi(l0) d/dl (1/psi)|_{l0}]
        psi = F.rational([1.0, 0.05], [1.0])
        lam0 = brentq(lambda l: l - np.pi * (1 + l / 20) ** 2, 0.1, 50.0,
                      xtol=1e-13)
        closed = -2.0 * (1.0 - lam0 * 0.05 / (1 + lam0 / 20))
        rep = CERT.ball_source_fixed_point(F.constant(1.0), psi, n=2)
        lin = CERT.linearize(rep.body, ball_source_params(psi=psi))
        assert lin.gamma0 == pytest.approx(closed, abs=1e-3)

    def test_origin_fixed_point_of_pure_contraction(self):
        params = F.SemiflowParams(A=MINUS_I, phi=F.constant(0.7),
                                  source=F.zero_source())
        origin = B.make_ball(0.0)
        lin = CERT.linearize(origin, params)
        assert lin.gamma0 == pytest.approx(-2 * 0.7, abs=1e-8)
        assert lin.stable

    def test_non_fixed_point_rejected(self):
        with pytest.raises(ValueError):
            CERT.linearize(B.make_ball(2.0), ball_source_params())

    @pytest.mark.parametrize("matrix", [
        [[1.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]], [[0.0, -1.0], [1.0, 0.0]],
        [[2.0, 0.5], [-0.3, 0.1]], [[0.0, 1.0], [1.0, 0.0]],
    ], ids=["reflection", "shear", "quarter_turn", "general", "swap"])
    def test_body_derivative_norm_is_psi_times_the_spectral_norm(self, matrix):
        # the origin is fixed under any linear source; |F_u| there is the
        # Lipschitz constant of u -> psi B u in the Hausdorff metric
        psi = F.rational([0.7, 0.3], [1.0])
        params = F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0),
                                  source=F.linear_source(psi, matrix))
        origin = B.make_ball(0.0)
        lin = CERT.linearize(origin, params)
        norm = lin.inequality_values["F_u_norm"]
        assert norm == 0.7 * np.linalg.norm(matrix, 2)
        # no perturbation of the origin moves the source by more
        rng = np.random.default_rng(6)
        for _ in range(16):
            d = helpers.random_smooth_body(rng).values
            moved = params.source.values(0.0, d)
            assert np.max(np.abs(moved)) <= norm * np.max(np.abs(d)) * (1 + 1e-12)


class TestCubicThreshold:
    def test_root_bracket_and_residual(self):
        lam = CERT.cyclic3_ratio_threshold()
        assert 0.9 < lam < 1.0
        assert abs(3 * lam ** 3 + 14 * lam ** 2 - 16) < 1e-9

    def test_uniqueness_on_unit_interval(self):
        # derivative 9 l^2 + 28 l > 0 on (0, 1], so the root is unique there
        xs = np.linspace(1e-6, 1.0, 1000)
        deriv = 9 * xs ** 2 + 28 * xs
        assert np.all(deriv > 0)


class TestSdeExponents:
    def test_swap_matrix_discrepancy(self):
        rep = CERT.sde_growth_exponents([[0.0, 1.0], [1.0, 0.0]])
        assert (rep.formula_plus, rep.formula_minus) == (4.0, 0.0)
        assert rep.eigen_plus == pytest.approx(2.0)
        assert rep.eigen_minus == pytest.approx(-2.0)
        assert rep.discrepancy

    def test_trace_one_values(self):
        rep = CERT.sde_growth_exponents([[0.0, 1.0], [1.0, 1.0]])
        assert rep.formula_plus == pytest.approx((4 + math.sqrt(17)) / 2)
        assert rep.formula_minus == pytest.approx((4 - math.sqrt(17)) / 2)
        assert rep.eigen_plus == pytest.approx((1 + math.sqrt(17)) / 2)

    def test_vanishing_determinant_limit(self):
        rep = CERT.sde_growth_exponents([[2.0, 1e-9], [1e-9, -1e-9 / 2]])
        assert rep.eigen_plus == pytest.approx(2.0, abs=1e-6)
        assert rep.eigen_minus == pytest.approx(0.0, abs=1e-6)

    def test_precondition(self):
        with pytest.raises(ValueError):
            CERT.sde_growth_exponents(np.eye(2))

    def test_practical_criterion_report(self):
        crit = CERT.practical_growth_criterion([[0.0, 1.0], [1.0, 0.0]],
                                               lam=1.0, bound=100.0, horizon=1.0)
        assert crit["rhs"] == pytest.approx(400.0)
        assert crit["formula_satisfied"] and crit["eigen_satisfied"]
        assert crit["exponents"]["discrepancy"]


class TestInstability:
    def test_constant_source_diverges(self):
        rep = CERT.ball_source_instability(F.constant(1.0), F.constant(1.0), -2.0)
        assert rep.kind == "unstable"
        assert rep.liminf_estimate > 100

    def test_linear_source_is_inconclusive(self):
        rep = CERT.ball_source_instability(F.constant(1.0), lambda s: s, -2.0)
        assert rep.kind == "inconclusive"

    def test_square_root_source(self):
        rep = CERT.ball_source_instability(F.constant(1.0),
                                           lambda s: math.sqrt(s), 0.0)
        assert rep.kind == "unstable"
        assert rep.liminf_estimate == pytest.approx(math.sqrt(math.pi), rel=1e-9)


class TestGlobalExistence:
    def test_disc_source_equilibrium(self):
        params = ball_source_params()
        gb = CERT.GrowthBounds(
            g_upper=lambda v: 2 * math.sqrt(math.pi) * math.sqrt(max(v, 0.0)),
            g_lower=lambda v: 2 * math.sqrt(math.pi) * math.sqrt(max(v, 0.0)),
            F_sup=lambda t, nu, v0: 1.0)
        rep = CERT.global_existence_report(params, gb, B.make_ball(1.0),
                                           horizon=3.0, dt=1e-3)
        assert rep.finite
        assert rep.norm_check["passed"]
        # zeta' = -2 zeta + 2 sqrt(pi zeta) from the sampled disc's area:
        # sqrt(zeta) relaxes to sqrt(pi) at rate 1
        v0 = helpers.sampled_disc_area(512)
        exact = (math.sqrt(math.pi) + (math.sqrt(v0) - math.sqrt(math.pi)) * math.exp(-3.0)) ** 2
        assert rep.zeta_plus.states[-1, 0] == pytest.approx(exact, abs=1e-6)

    def test_source_free_is_always_finite(self):
        params = F.SemiflowParams(A=np.array([[0.3, 0.0], [0.0, 0.1]]),
                                  phi=F.constant(1.0), source=F.zero_source())
        gb = CERT.GrowthBounds(g_upper=lambda v: 0.0, g_lower=lambda v: 0.0,
                               F_sup=lambda t, nu, v0: 0.0)
        rep = CERT.global_existence_report(params, gb,
                                           helpers.random_smooth_body(RNG),
                                           horizon=2.0, dt=1e-2)
        assert rep.finite
        assert rep.norm_check["passed"]

    def test_superlinear_blowup_detected(self):
        params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                                  source=F.zero_source())
        gb = CERT.GrowthBounds(g_upper=lambda v: v * v, g_lower=lambda v: 0.0,
                               F_sup=lambda t, nu, v0: 0.0)
        rep = CERT.global_existence_report(params, gb, B.make_ball(1.0),
                                           horizon=3.0, cross_check=False)
        assert not rep.finite
        # the volume starts at pi, so the upper envelope escapes near 1/pi
        assert rep.escape_time == pytest.approx(1 / np.pi, abs=1e-2)


class TestHausdorffStability:
    def test_contractive_envelope(self):
        params = F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0),
                                  source=F.zero_source())
        verdict = CERT.hausdorff_stability_report(
            params, lambda t: 1.0, lambda t, nu: 0.0, radius=1.0,
            T_check=20.0, eps_grid=(0.5,), bisect_iters=8)
        assert verdict.kind == "asymptotically_stable"
        assert verdict.witness["measures"].startswith("h0 = h")

    def test_constant_forcing_is_unstable(self):
        params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                                  source=F.zero_source())
        verdict = CERT.hausdorff_stability_report(
            params, lambda t: 1.0, lambda t, nu: 0.5, radius=1.0)
        assert verdict.kind == "unstable"

    def test_matches_per_direction_search(self):
        # a time-dependent clock and a quadratic source: states above about
        # 1/2 grow past eps = 1, so the search bisects
        params = F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0),
                                  source=F.zero_source())
        clock = lambda t: 1.0 + 0.5 * np.cos(t)
        source = lambda t, nu: 2.0 * nu * nu
        kwargs = dict(T_check=10.0, eps_grid=(1.0,), bisect_iters=8)
        verdict = CERT.hausdorff_stability_report(params, clock, source,
                                                  radius=1.0, **kwargs)
        n_const, alpha = CERT.semigroup_envelope(params.A)
        envelope = C.scalar_system(lambda t, w: alpha * clock(t) * w + source(t, n_const * w))
        expected = helpers.reference_check_xi0_stability(envelope, **kwargs)
        got = verdict.to_dict()
        for key in ("measures", "ball_radius", "growth_constant", "growth_rate"):
            del got[key]
        assert got == expected.to_dict()
        assert got["delta_table"][0][1] < 1.0

    def test_agrees_with_linearization_for_disc_source(self):
        # around the fixed ball the source does not depend on the body, so
        # the folded deviation envelope is a pure contraction
        params = ball_source_params()
        verdict = CERT.hausdorff_stability_report(
            params, lambda t: 1.0, lambda t, nu: 0.0, radius=0.5,
            T_check=20.0, eps_grid=(0.5,), bisect_iters=8)
        rep = CERT.ball_source_fixed_point(F.constant(1.0), F.constant(1.0), n=2)
        lin = CERT.linearize(rep.body, params)
        assert verdict.kind == "asymptotically_stable"
        assert lin.stable


class TestAreaProfiles:
    # the closed-form profiles must solve the cyclic comparison systems for
    # unit clock and half-strength source; check against the matrix
    # exponential for arbitrary cone data, which exercises the resonant
    # t * exp(-2t) term no realizable body produces

    def test_reflection_profile_solves_order2_system(self):
        m2 = np.array([[-2.0, 1.0], [1.0, -2.0]])
        rng = np.random.default_rng(12)
        for _ in range(5):
            w = rng.uniform(0.0, 3.0, 2)
            for t in (0.0, 0.3, 1.0, 2.5):
                from scipy.linalg import expm
                exact = (expm(m2 * t) @ w)[0]
                assert CERT.reflection_area_profile(t, w[0], w[1]) == \
                    pytest.approx(exact, rel=1e-12, abs=1e-12)

    def test_quarter_turn_profile_solves_order4_system(self):
        m4 = np.array([[-2.0, 1.0, 0.0, 0.0],
                       [0.5, -2.0, 0.5, 0.0],
                       [0.0, 0.5, -2.0, 0.5],
                       [0.5, 0.0, 0.5, -2.0]])
        rng = np.random.default_rng(34)
        for _ in range(5):
            w = rng.uniform(0.0, 3.0, 4)
            for t in (0.0, 0.3, 1.0, 2.5):
                from scipy.linalg import expm
                exact = (expm(m4 * t) @ w)[0]
                assert CERT.quarter_turn_area_profile(t, w) == \
                    pytest.approx(exact, rel=1e-11, abs=1e-11)

    def test_segment_value_is_the_profile_at_segment_data(self):
        # segment functionals are (0, n^2/2, 0, n^2/2)
        for n in (4.0, 16.0):
            w = np.array([0.0, n * n / 2, 0.0, n * n / 2])
            for t in (0.5, 1.0):
                assert CERT.segment_growth_value(t, n) == \
                    pytest.approx(float(CERT.quarter_turn_area_profile(t, w)),
                                  rel=1e-12)


class TestSemigroupEnvelope:
    def test_normal_matrix(self):
        n_const, alpha = CERT.semigroup_envelope(MINUS_I)
        assert n_const == 1.0
        assert alpha == pytest.approx(-1.0)

    def test_nonnormal_matrix(self):
        n_const, alpha = CERT.semigroup_envelope([[-1.0, 10.0], [0.0, -1.0]])
        assert n_const > 1.0
        assert alpha == pytest.approx(-1.0)
