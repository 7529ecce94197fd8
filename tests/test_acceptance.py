"""Acceptance suite: every criterion at its stated tolerance.

Run as ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Each test prints ``ACCEPTANCE <n> PASS/FAIL: ...`` before
asserting, so the summary is visible either way.
"""

import time

import numpy as np
from scipy.linalg import expm

from setflow import bodies as B, certificates as CERT, comparison as C, flow as F

import helpers

MINUS_I = -np.eye(2)
QUARTER_TURN = np.array([[0.0, -1.0], [1.0, 0.0]])
REFLECTION = np.array([[1.0, 0.0], [0.0, -1.0]])
SHEAR = np.array([[0.0, 1.0], [0.0, 0.0]])
SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])

UNIT_SQUARE = [[0.5, 0.5], [-0.5, 0.5], [-0.5, -0.5], [0.5, -0.5]]
RECTANGLE = [[1.0, 0.5], [-1.0, 0.5], [-1.0, -0.5], [1.0, -0.5]]


def _report(n, ok, detail):
    print(f"\nACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def test_criterion_1_reflection_square_orbit():
    start = time.perf_counter()
    u0 = B.make_polygon(UNIT_SQUARE, grid_size=512)
    params = F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0),
                              source=F.linear_source(F.constant(0.5), REFLECTION))
    w = F.mixed_functionals(u0, REFLECTION, 2)
    traj = F.evolve(u0, params, horizon=3.0, dt=1e-3)
    ref = CERT.reflection_area_profile(traj.times, w[0], w[1])
    rel = float(np.max(np.abs(traj.tracked["V"] - ref) / np.abs(ref)))
    elapsed = time.perf_counter() - start
    ok = rel <= 1e-3 and elapsed < 30.0
    _report(1, ok, f"two-mode closed-form orbit, max rel err {rel:.2e} "
                   f"(tol 1e-3), runtime {elapsed:.1f}s (limit 30s)")


def test_criterion_2_quarter_turn_rectangle_orbit():
    u0 = B.make_polygon(RECTANGLE, grid_size=512)
    params = F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0),
                              source=F.linear_source(F.constant(0.5), QUARTER_TURN))
    w = F.mixed_functionals(u0, QUARTER_TURN, 4)
    traj = F.evolve(u0, params, horizon=3.0, dt=1e-3)
    ref = CERT.quarter_turn_area_profile(traj.times, w)
    rel = float(np.max(np.abs(traj.tracked["V"] - ref) / np.abs(ref)))
    ok = rel <= 2e-3
    _report(2, ok, f"four-mode closed-form orbit, max rel err {rel:.2e} (tol 2e-3)")


def test_criterion_3_segment_growth_scaling():
    params = F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0),
                              source=F.linear_source(F.constant(0.5), QUARTER_TURN))
    finals = {}
    rel_errs = {}
    for n in (4, 8, 16):
        seg = B.make_segment(float(n), grid_size=512)
        traj = F.evolve(seg, params, horizon=1.0, dt=1e-3, tracked={"V": B.area})
        finals[n] = float(traj.tracked["V"][-1])
        exact = CERT.segment_growth_value(1.0, float(n))
        rel_errs[n] = abs(finals[n] - exact) / exact
    ratios = (finals[8] / finals[4], finals[16] / finals[8])
    ok = (max(rel_errs.values()) <= 0.01
          and all(abs(r - 4.0) <= 0.05 for r in ratios))
    _report(3, ok, f"segment areas at t=1 within {max(rel_errs.values()):.2%} "
                   f"of the N^2 law (tol 1%), ratios {ratios[0]:.4f}, "
                   f"{ratios[1]:.4f} (4 +- 0.05)")


def test_criterion_4_comparison_dominance():
    phi = F.rational([1.0], [1.0, 1.0])       # 1 / (1 + s)
    psi = F.constant(0.5)
    u0 = B.make_polygon(UNIT_SQUARE, grid_size=512)
    params = F.SemiflowParams(A=MINUS_I, phi=phi,
                              source=F.linear_source(psi, SHEAR))
    traj = F.evolve(u0, params, horizon=3.0, dt=1e-3,
                    tracked={"V": B.area, **F.mixed_columns(SHEAR, 2)})
    system = C.nilpotent_source_system(phi, psi)
    rep = C.bound_check(traj, system, ["W0", "W1"], tol_scale=1e-4)
    ok = rep.passed
    _report(4, ok, f"tracked functionals below the comparison solution at all "
                   f"{len(traj.times)} stored frames, worst margin "
                   f"{rep.max_violation:.2e} (tol {rep.tolerance:.2e})")


def test_criterion_5_practical_stability_of_set_equation():
    system = C.sde_growth_system(SWAP)
    traj_xi = C.integrate(system, [1.0, 1.0], np.linspace(0.0, 1.0, 1001))
    xi0_final = float(traj_xi.states[-1, 0])
    oracle = float((expm(np.array([[0.0, 2.0], [2.0, 0.0]])) @ [1.0, 1.0])[0])
    verdict = C.check_practical(system, lam=1.0, bound=100.0, horizon=1.0)

    u0 = B.make_polygon(UNIT_SQUARE, grid_size=512)
    params = F.SemiflowParams(A=np.zeros((2, 2)), phi=F.constant(1.0),
                              source=F.linear_source(F.constant(1.0), SWAP))
    traj = F.evolve(u0, params, horizon=1.0, dt=1e-3, tracked={"V": B.area})
    xi_at_frames = C.integrate(system, [1.0, 1.0], times=traj.times)
    below = bool(np.all(traj.tracked["V"] <= xi_at_frames.states[:, 0] + 1e-9))

    exponents = CERT.sde_growth_exponents(SWAP)
    ok = (7.0 <= xi0_final <= 7.8
          and abs(xi0_final - oracle) < 1e-5
          and verdict.kind == "practically_stable"
          and below
          and exponents.discrepancy)
    _report(5, ok, f"growth-system value xi0(1) = {xi0_final:.4f} in [7.0, 7.8] "
                   f"(matrix-exponential oracle {oracle:.4f}), verdict "
                   f"{verdict.kind}, simulated area below the bound: {below}, "
                   f"exponent formula {exponents.formula_plus:.1f}/"
                   f"{exponents.formula_minus:.1f} vs eigenvalues "
                   f"{exponents.eigen_plus:.1f}/{exponents.eigen_minus:.1f} "
                   f"flagged: {exponents.discrepancy}")


def test_criterion_6_fixed_point_and_linearization():
    rep = CERT.ball_source_fixed_point(F.constant(1.0), F.constant(1.0), n=2,
                                       grid_size=512)
    lambda_err = abs(rep.lambda0 - np.pi)
    unit_ball = B.make_ball(1.0, grid_size=512)
    body_err = B.hausdorff_distance(rep.body, unit_ball)

    params = F.SemiflowParams(A=MINUS_I, phi=F.constant(1.0),
                              source=F.ball_source(F.constant(1.0)))
    lin = CERT.linearize(rep.body, params)
    gamma_err = abs(lin.gamma0 - (-2.0))

    traj = F.evolve(B.make_ball(1.2, grid_size=512), params, horizon=10.0, dt=1e-3,
                    tracked={"dH_ref": lambda u: B.hausdorff_distance(u, unit_ball)})
    final_dist = float(traj.tracked["dH_ref"][-1])
    ok = (lambda_err <= 1e-10 and body_err < 1e-9 and gamma_err <= 1e-3
          and lin.stable and final_dist < 1e-2)
    _report(6, ok, f"fixed volume pi to {lambda_err:.1e} (tol 1e-10), fixed "
                   f"body is the unit disc, gamma0 err {gamma_err:.1e} "
                   f"(tol 1e-3), stable verdict {lin.stable}, distance to the "
                   f"disc at t=10: {final_dist:.2e} (tol 1e-2)")


def test_criterion_7_geometry_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(2027)
    worst_bm = np.inf
    worst_sym = 0.0
    worst_steiner = 0.0
    worst_round = 0.0
    disc = B.make_ball(1.0)
    for _ in range(200):
        u = helpers.random_polygon(rng)
        v = helpers.random_polygon(rng)
        m = B.mixed_area(u, v)
        worst_bm = min(worst_bm, m * m - B.area(u) * B.area(v))
        sym = abs(B._mixed_form(u.values, v.values)
                  - B._mixed_form(v.values, u.values)) / max(1.0, abs(m))
        worst_sym = max(worst_sym, sym)
        _, c1, _ = B.steiner_fit(u, disc, [0.0, 0.5, 1.0])
        mk = B.mixed_area(u, disc)
        worst_steiner = max(worst_steiner, abs(c1 / 2 - mk) / max(1.0, abs(mk)))
        w = B.hukuhara_difference(B.minkowski_add(u, v), v)
        worst_round = max(worst_round,
                          np.inf if w is None else B.hausdorff_distance(w, u))
    elapsed = time.perf_counter() - start
    ok = (worst_bm >= -1e-6 and worst_sym <= 1e-8 and worst_steiner <= 1e-6
          and worst_round <= 1e-6 and elapsed < 60.0)
    _report(7, ok, f"200 random polygons: worst isoperimetric slack "
                   f"{worst_bm:.2e} (>= -1e-6), symmetry {worst_sym:.1e} "
                   f"(<= 1e-8), quadratic-fit consistency {worst_steiner:.1e} "
                   f"(<= 1e-6), difference round-trip {worst_round:.1e} "
                   f"(<= 1e-6), runtime {elapsed:.1f}s (limit 60s)")


def test_criterion_8_semigroup_and_picard_oracle():
    rng = np.random.default_rng(411)
    dt = 1e-3
    horizon = 0.05
    worst_defect = 0.0
    worst_oracle = 0.0
    for _ in range(20):
        u0 = helpers.random_smooth_body(rng)
        params = helpers.random_mild_params(rng)

        split = float(rng.integers(1, 5)) * 0.01
        once = F.evolve(u0, params, horizon, dt=dt).final
        chained = F.evolve(F.evolve(u0, params, split, dt=dt).final,
                           params, horizon - split, dt=dt).final
        worst_defect = max(worst_defect, B.hausdorff_distance(once, chained))

        pic = F.picard_solve(u0, params, horizon, tol=1e-9, n_nodes=11,
                             tracked=helpers.FRAMES)
        ev = F.evolve(u0, params, horizon, dt=dt, tracked=helpers.FRAMES)
        ev_frames = helpers.frames(ev)
        for t, body in zip(pic.times, helpers.frames(pic)):
            idx = int(np.argmin(np.abs(ev.times - t)))
            if abs(ev.times[idx] - t) < 1e-12:
                worst_oracle = max(worst_oracle,
                                   B.hausdorff_distance(body, ev_frames[idx]))
    bound = max(1e-4, 10 * dt * dt * horizon)
    ok = worst_defect <= 10 * dt and worst_oracle <= bound
    _report(8, ok, f"20 random draws: worst semigroup defect "
                   f"{worst_defect:.2e} (tol {10 * dt:.0e}), worst "
                   f"stepper-vs-fixed-point distance {worst_oracle:.2e} "
                   f"(tol {bound:.0e})")


def test_criterion_9_cubic_threshold_and_quadratic_decay():
    lam = CERT.cyclic3_ratio_threshold()
    residual = abs(3 * lam ** 3 + 14 * lam ** 2 - 16)
    in_bracket = 0.9 < lam < 1.0

    below = C.lyapunov_quadratic_check(
        C.cyclic_mixed_system(F.constant(1.0), F.constant(0.9 * lam), 3),
        sample_box=(1e-3, 10.0), n_samples=4096, seed=99)
    above = C.lyapunov_quadratic_check(
        C.cyclic_mixed_system(F.constant(1.0), F.constant(1.1 * lam), 3),
        sample_box=(1e-3, 10.0), n_samples=4096, seed=99)
    ok = (in_bracket and residual < 1e-9 and below.passed and not above.passed)
    _report(9, ok, f"threshold ratio {lam:.6f} in (0.9, 1.0), residual "
                   f"{residual:.1e} (< 1e-9); quadratic energy decays at "
                   f"0.9x threshold ({below.passed}) and fails at 1.1x "
                   f"({not above.passed})")
