"""Closed-form stability criteria and linearization reports.

These are the desk-scale certificates: linearization around a fixed body,
a Hausdorff-norm stability transfer decided by a 1x1 Metzler envelope, and
the closed-form criteria for the standard parametric flows (ball sources,
nilpotent and cyclic linear-body sources, pure set equations).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import bodies, comparison, flow
from .bodies import SupportFunction2D, area, as_matrix, make_ball, mixed_area, perimeter

FD_STEP = 1e-4              # relative step of linearize's central differences
FIXED_POINT_TOL = 1e-3      # largest drift per unit time linearize accepts
BISECTION_TOL = 1e-12       # root bracket width of the fixed-point bisections
# decreasing volumes at which ball_source_instability probes its liminf
INSTABILITY_PROBES = np.geomspace(1e-1, 1e-8, 29)
INSTABILITY_PROBES.setflags(write=False)


def semigroup_envelope(A) -> tuple:
    """Constants (N, alpha) with ``|exp(A t)| <= N exp(alpha t)``.

    alpha is the spectral abscissa; N comes from the conditioning of the
    eigenvector basis (1 for normal matrices).
    """
    mat = as_matrix(A)
    eigvals, eigvecs = np.linalg.eig(mat)
    alpha = float(np.max(eigvals.real))
    commutator = mat @ mat.T - mat.T @ mat
    if np.max(np.abs(commutator)) < 1e-12 * max(1.0, float(np.max(np.abs(mat))) ** 2):
        n_const = 1.0
    else:
        n_const = float(np.linalg.cond(eigvecs))
        if not np.isfinite(n_const):
            n_const = 1e16
    return max(n_const, 1.0), alpha


# ---------------------------------------------------------------------------
# linearization at a fixed body


@dataclass(frozen=True)
class LinearizationReport:
    """Linearized behavior of the flow at a fixed body.

    ``gamma0`` is the decay rate of the volume deviation, ``delta0`` the
    constant coupling the body deviation into the volume equation.  The
    verdict evaluates the pair of inequalities
    ``gamma0 < 0`` and
    ``(alpha phi + N |F_u|) gamma0 + N delta0 (|A| |phi'| + |F_V|) > 0``
    exactly as stated; a Routh-Hurwitz test of the same 2x2 comparison
    matrix is reported alongside as a cross-check, since the two can
    disagree (see ``notes``).
    """

    gamma0: float
    delta0: float
    growth_constant: float      # N
    growth_rate: float          # alpha
    stable: bool
    inequality_values: dict
    routh_hurwitz: dict
    fd_step: float
    notes: tuple = ()


def linearize(u_star: SupportFunction2D, params: flow.SemiflowParams) -> LinearizationReport:
    """Linearization certificate at a fixed body of the flow.

    Derivatives of phi and of the source map in the volume are estimated by
    central differences of relative step ``FD_STEP``.  The operator norm of
    the body derivative ``F_u`` is exact: ``|psi(V*)| ||B||_2`` for a linear
    source ``u -> psi B u``, whose Lipschitz constant in the Hausdorff metric
    it is, and 0 for any other.  Raises ValueError when one step of length
    ``FD_STEP`` moves ``u_star`` by more than ``FIXED_POINT_TOL`` per unit
    time.
    """
    drift = bodies.hausdorff_distance(flow.step(u_star, params, FD_STEP), u_star) / FD_STEP
    if drift > FIXED_POINT_TOL:
        raise ValueError(
            f"not a fixed point: drift {drift:.3e} per unit time exceeds "
            f"{FIXED_POINT_TOL:.1e}")

    notes = []
    v_star = area(u_star)
    phi_star = float(params.phi(v_star))
    tr_a = params.trace
    norm_a = float(np.linalg.norm(params.A, 2))
    n_const, alpha = semigroup_envelope(params.A)

    def derivatives(h):
        ev = h * max(1.0, v_star)
        lo = max(v_star - ev, 0.0)
        dphi_ = (float(params.phi(v_star + ev)) - float(params.phi(lo))) / (ev + (v_star - lo))
        f_hi = params.source.values(v_star + ev, u_star)
        f_lo = params.source.values(lo, u_star)
        zeros = np.zeros(u_star.grid_size)
        f_hi = zeros if f_hi is None else f_hi
        f_lo = zeros if f_lo is None else f_lo
        fv_ = (f_hi - f_lo) / (ev + (v_star - lo))
        return dphi_, fv_

    dphi, f_v = derivatives(FD_STEP)
    gamma0 = tr_a * (phi_star + v_star * dphi) + 2.0 * mixed_area(u_star, f_v)
    if abs(gamma0) < 10 * FD_STEP * max(1.0, abs(tr_a * phi_star)):
        # near the verdict boundary: Richardson-extrapolate the estimates
        dphi_h, fv_h = dphi, f_v
        dphi_h2, fv_h2 = derivatives(FD_STEP / 2)
        dphi = (4 * dphi_h2 - dphi_h) / 3
        f_v = (4 * fv_h2 - fv_h) / 3
        gamma0 = tr_a * (phi_star + v_star * dphi) + 2.0 * mixed_area(u_star, f_v)
        notes.append("gamma0 near zero: Richardson-extrapolated derivative estimates")

    f_u_norm = 0.0
    if params.source.kind == "linear":
        # |h_{B K} - h_{B L}|_inf <= ||B||_2 d_H(K, L), with equality for some pair
        f_u_norm = abs(float(params.source.psi(v_star))) * float(
            np.linalg.norm(params.source.matrix, 2))

    f_star = params.source.values(v_star, u_star)
    per_f = 0.0 if f_star is None else perimeter(SupportFunction2D(f_star))
    delta0 = per_f + f_u_norm * perimeter(u_star)

    f_v_norm = float(np.max(np.abs(f_v)))
    combined = ((alpha * phi_star + n_const * f_u_norm) * gamma0
                + n_const * delta0 * (norm_a * abs(dphi) + f_v_norm))
    stable = gamma0 < 0 and combined > 0

    # cross-check: eigenvalue test of the dominating 2x2 system
    m = np.array([[alpha * phi_star + n_const * f_u_norm,
                   norm_a * abs(dphi) + f_v_norm],
                  [n_const * delta0, gamma0]])
    rh = {"trace": float(np.trace(m)), "det": float(np.linalg.det(m)),
          "stable": bool(np.trace(m) < 0 and np.linalg.det(m) > 0)}
    if rh["stable"] != stable:
        notes.append("verbatim inequality pair and Routh-Hurwitz cross-check disagree")

    return LinearizationReport(
        gamma0=float(gamma0), delta0=float(delta0), growth_constant=n_const,
        growth_rate=alpha, stable=bool(stable),
        inequality_values={"gamma0": float(gamma0), "combined_lhs": float(combined),
                           "phi_star": phi_star, "dphi": float(dphi),
                           "F_u_norm": f_u_norm, "F_V_norm": f_v_norm},
        routh_hurwitz=rh, fd_step=FD_STEP, notes=tuple(notes))


# ---------------------------------------------------------------------------
# ball-source fixed point


@dataclass(frozen=True)
class FixedPointReport:
    lambda0: float              # volume of the fixed body
    radius: float               # radius of the fixed ball
    body: SupportFunction2D | None = field(metadata={"report": False})
    stable: bool
    log_derivative: float       # d/dl log(l * phi / psi) at lambda0
    residual: float


def unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(1.0 + n / 2.0)


def _bisect(f, lo, hi):
    """The midpoint of ``[lo, hi]``, a bracket of a sign change of ``f``,
    once bisection narrows it to ``BISECTION_TOL`` relative width."""
    while hi - lo > BISECTION_TOL * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def ball_source_fixed_point(phi, psi, n: int = 2, grid_size: int = 512,
                            bracket=(1e-8, 1e6)) -> FixedPointReport:
    """Fixed ball of the uniform-contraction flow with source ``psi(V) * K``.

    The fixed volume solves ``l = (psi(l)/phi(l))**n * omega_n`` with
    omega_n the unit-ball volume; the fixed body is the ball of radius
    ``psi(l0)/phi(l0)``.  Stability follows from the sign of
    ``d/dl log(l phi(l)/psi(l))`` at the root.  Bisection needs a sign
    change inside the bracket, which it narrows to ``BISECTION_TOL``
    relative width, and fails loudly otherwise.
    """
    omega = unit_ball_volume(n)

    def g(lam):
        return lam - (float(psi(lam)) / float(phi(lam))) ** n * omega

    grid = np.geomspace(bracket[0], bracket[1], 400)
    vals = np.array([g(x) for x in grid])
    sign_change = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
    if sign_change.size == 0:
        raise ValueError("no sign change of the fixed-point equation in the bracket")
    lam0 = _bisect(g, grid[sign_change[0]], grid[sign_change[0] + 1])
    radius = float(psi(lam0)) / float(phi(lam0))

    e = 1e-6 * lam0
    def log_ratio(lam):
        return math.log(lam * float(phi(lam)) / float(psi(lam)))
    dlog = (log_ratio(lam0 + e) - log_ratio(lam0 - e)) / (2 * e)

    body = make_ball(radius, grid_size=grid_size) if n == 2 else None
    return FixedPointReport(lambda0=float(lam0), radius=radius, body=body,
                            stable=dlog > 0, log_derivative=float(dlog),
                            residual=abs(g(lam0)))


def cyclic3_ratio_threshold() -> float:
    """Largest ratio psi/phi with decaying quadratic energy for the 3-chain.

    The threshold is the least positive root of ``3 l^3 + 14 l^2 - 16``,
    i.e. 2 / (top eigenvalue of the chain's coupling form); bisection on
    (0, 2) to ``BISECTION_TOL``.
    """
    return _bisect(lambda x: 3 * x ** 3 + 14 * x ** 2 - 16, 0.0, 2.0)


# ---------------------------------------------------------------------------
# pure set-equation growth exponents


@dataclass(frozen=True)
class SdeExponentsReport:
    """Growth exponents for ``D_H u = B u``: formula values vs. eigenvalues.

    ``formula_plus/minus`` evaluate ``(4 |det B| +- sqrt(tr^2 B + 16 |det B|)) / 2``;
    ``eigen_plus/minus`` are the eigenvalues of the growth system matrix
    ``[[0, 2], [2 |det B|, tr B]]`` computed independently.  The two can
    disagree; when they do the flag is set and downstream consumers should
    trust direct integration of the growth system.
    """

    formula_plus: float
    formula_minus: float
    eigen_plus: float
    eigen_minus: float
    discrepancy: bool
    system_matrix: np.ndarray


def sde_growth_exponents(matrix) -> SdeExponentsReport:
    mat = as_matrix(matrix)
    det = float(np.linalg.det(mat))
    tr = float(np.trace(mat))
    if det >= 0 or tr < 0:
        raise ValueError("requires det B < 0 and tr B >= 0")
    root = math.sqrt(tr * tr + 16 * abs(det))
    formula = ((4 * abs(det) + root) / 2, (4 * abs(det) - root) / 2)
    eigen = ((tr + root) / 2, (tr - root) / 2)
    sysm = np.array([[0.0, 2.0], [2 * abs(det), tr]])
    scale = max(1.0, abs(formula[0]), abs(eigen[0]))
    disc = max(abs(formula[0] - eigen[0]), abs(formula[1] - eigen[1])) > 1e-9 * scale
    return SdeExponentsReport(formula_plus=formula[0], formula_minus=formula[1],
                              eigen_plus=eigen[0], eigen_minus=eigen[1],
                              discrepancy=disc, system_matrix=sysm)


def practical_growth_criterion(matrix, lam: float, bound: float, horizon: float) -> dict:
    """The closed-form practical-stability inequality for ``D_H u = B u``.

    Evaluates ``2 + (2 - mu_minus) exp(mu_plus T) < bound * sqrt(tr^2 B +
    16 |det B|) / lam`` with the formula exponents, next to the same
    inequality with the eigenvalue exponents.  Reported for reference; the
    binding verdict comes from integrating the growth system.  A left side
    that is infinite (by the sign of ``2 - mu_minus``) becomes None in a report.
    """
    rep = sde_growth_exponents(matrix)
    mat = as_matrix(matrix)
    root = math.sqrt(float(np.trace(mat)) ** 2 + 16 * abs(float(np.linalg.det(mat))))
    rhs = bound * root / lam
    report = {"rhs": rhs}
    for name, mu_plus, mu_minus in (("formula", rep.formula_plus, rep.formula_minus),
                                    ("eigen", rep.eigen_plus, rep.eigen_minus)):
        try:
            growth = math.exp(mu_plus * horizon)
        except OverflowError:
            growth = math.inf
        # 0 times the exponential is 0, however large it is
        lhs = 2.0 if mu_minus == 2.0 else 2.0 + (2.0 - mu_minus) * growth
        report[f"{name}_lhs"] = lhs
        report[f"{name}_satisfied"] = lhs < rhs
    report["exponents"] = comparison._plain(rep)
    return report


# ---------------------------------------------------------------------------
# shrinking-body instability for ball sources


@dataclass(frozen=True)
class InstabilityReport:
    kind: str                   # unstable | inconclusive
    liminf_estimate: float
    threshold: float
    margin: float
    samples: tuple


def ball_source_instability(phi, psi, tr_a: float) -> InstabilityReport:
    """Volume-measure instability test for the flow with source ``psi(V) K``.

    The scalar comparison equation bounds the volume growth from below
    through the isoperimetric inequality; its zero solution is unstable
    whenever ``liminf_{s->0+} sqrt(pi/s) psi(s) / phi(s) > -tr A / 2``.
    The liminf is estimated as the minimum over the tail of the decreasing
    probe volumes ``INSTABILITY_PROBES`` (29 from 1e-1 to 1e-8), so a
    divergent limit shows up as a large estimate.
    """
    vals = np.array([math.sqrt(math.pi / s) * float(psi(s)) / float(phi(s))
                     for s in INSTABILITY_PROBES])
    tail = vals[len(vals) // 2:]
    estimate = float(np.min(tail))
    threshold = -tr_a / 2.0
    margin = estimate - threshold
    kind = "unstable" if margin > 0 else "inconclusive"
    return InstabilityReport(kind=kind, liminf_estimate=estimate,
                             threshold=threshold, margin=margin,
                             samples=tuple(zip(INSTABILITY_PROBES.tolist(), vals.tolist())))


# ---------------------------------------------------------------------------
# Hausdorff-norm stability


def hausdorff_stability_report(params: flow.SemiflowParams, clock_range, source_bound,
                               radius: float, T_check: float = 50.0,
                               eps_grid=(0.1, 1.0)) -> comparison.StabilityVerdict:
    """Norm-measure stability of the flow from its 1x1 Metzler envelope.

    On the sup-norm ball of ``radius``, ``phi`` lies in ``clock_range = (lo, hi)``
    and the source norm at state norm ``nu`` is at most ``s0 + gain nu``
    (``source_bound = (s0, gain)``).  With ``|exp(A t)| <= N exp(alpha t)`` from
    :func:`semigroup_envelope`, the norm obeys ``omega' <= rate omega + s0``,
    ``rate = alpha phi_ext + N gain``, ``phi_ext`` the end of the clock range
    maximizing ``alpha phi``.  An ``s0 > 0`` is ``unstable``; else the exact path
    of :func:`comparison.check_xi0_stability` decides ``[[rate]]``, and the
    verdict holds in the measures h0 = h = sup-norm.  A level of ``eps_grid``
    past ``radius`` or a ``T_check |rate|`` past ``comparison.EXACT_MAX_SPAN`` is
    a ValueError.  A nonlinear or time-varying envelope ``f(t, omega)`` is not decided:
    ``check_xi0_stability`` reads ``comparison.scalar_system(f)`` inconclusive.
    """
    (lo, hi), (s0, gain) = clock_range, source_bound
    if max(eps_grid) > radius:
        raise ValueError(f"eps_grid reaches past radius {radius:g}, where the bounds hold")
    if s0 > 0:
        # the envelope grows even from the zero state: no delta can work
        return comparison.StabilityVerdict(kind="unstable", witness={
            "note": "envelope right-hand side is positive at omega = 0; the "
                    "zero state is not invariant",
            "rhs_at_zero": s0, "ball_radius": radius})
    n_const, alpha = semigroup_envelope(params.A)
    rate = alpha * (hi if alpha > 0 else lo) + n_const * gain
    system = comparison.linear_system([[rate]], name="norm_envelope")
    verdict = comparison.check_xi0_stability(system, eps_grid=eps_grid, T_check=T_check)
    return comparison.StabilityVerdict(kind=verdict.kind, witness={
        **verdict.witness, "measures": "h0 = h = sup-norm of the support function",
        "ball_radius": radius, "growth_constant": n_const, "growth_rate": alpha,
        "envelope_rate": rate})


# ---------------------------------------------------------------------------
# closed-form area profiles for the cyclic flows at phi = 1, psi = 1/2


def reflection_area_profile(t, w0: float, w1: float):
    """Area along the order-2 cyclic flow from initial functionals (w0, w1)."""
    t = np.asarray(t, dtype=float)
    return 0.5 * np.exp(-t) * (w0 + w1) + 0.5 * np.exp(-3.0 * t) * (w0 - w1)


def quarter_turn_area_profile(t, w):
    """Area along the order-4 cyclic flow from initial functionals w[0..3]."""
    t = np.asarray(t, dtype=float)
    w0, w1, w2, w3 = (float(x) for x in w)
    return (np.exp(-t) / 8.0 * (2 * w0 + 3 * w1 + 2 * w2 + w3)
            + np.exp(-3.0 * t) / 8.0 * (2 * w0 - 3 * w1 + 2 * w2 - w3)
            + np.exp(-2.0 * t) / 2.0 * (w0 - w2)
            + np.exp(-2.0 * t) * t / 4.0 * (w1 - w3))


def segment_growth_value(t: float, length: float) -> float:
    """Area at time t of the order-4 cyclic flow started from a segment.

    Closed form ``(exp(-t) - exp(-3t)) * length^2 / 4``: the segment has
    zero area but order-N^2 mixed functionals, so the flow inflates it to
    a body of area proportional to length squared -- the standard witness
    for instability in the (volume, volume) pair of measures.
    """
    return 0.25 * (math.exp(-t) - math.exp(-3.0 * t)) * length * length
