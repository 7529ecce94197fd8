"""Comparison ODE systems on the nonnegative cone and stability verdicts.

The scalar functionals tracked along an orbit (area, mixed areas, norms)
satisfy differential inequalities whose right-hand sides form a
finite-dimensional comparison system.  When that system is quasimonotone
(Wazewski condition: off-diagonal monotonicity), its solutions dominate
the functionals, so stability questions about the flow reduce to the ODE.
Everything here is numerical evidence, not proof: quasimonotonicity is
sampled on a box, and stability verdicts are sampled over initial
conditions -- each verdict records the samples and margins it rests on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import BlowupError

GUARD_FACTOR = 1e12
SAMPLED_EVIDENCE_NOTE = ("sampled evidence only: quasimonotonicity and cone "
                         "behavior checked on the supplied box, not globally")


@dataclass(frozen=True)
class ComparisonSystem:
    """An ODE ``xi' = g(xi)`` on the nonnegative cone.

    ``rhs`` maps states to derivatives along the last axis: a state vector
    of shape ``(dim,)`` or a batch of rows of shape ``(n, dim)``, each row
    giving the same result as its own single-state call.  Set
    ``time_dependent`` for right-hand sides with signature ``rhs(t, xi)``;
    a batch then comes with one time per row, shape ``(n,)``.
    """

    dim: int
    rhs: object
    name: str = ""
    time_dependent: bool = False

    def __call__(self, t, xi: np.ndarray) -> np.ndarray:
        if self.time_dependent:
            return np.asarray(self.rhs(t, xi), dtype=float)
        return np.asarray(self.rhs(xi), dtype=float)


# -- standard families -------------------------------------------------------
#
# Each right-hand side reads the components as ``x = xi.T`` (``x[i]`` is a
# number for one state and a column for a batch) and assembles the result
# as ``np.array([...]).T``, so a batch row is computed by exactly the
# arithmetic of a single state.


def nilpotent_source_system(phi, psi, a: float = -1.0) -> ComparisonSystem:
    """Area/mixed-area pair for a linear-body source with B^2 = 0.

    ``xi0' = 2 a phi(xi0) xi0 + 2 psi(xi0) xi1``,
    ``xi1' = 2 a phi(xi0) xi1``  (a = the scalar part of A, usually -1).
    """
    def rhs(xi):
        x = xi.T
        p, q = phi(x[0]), psi(x[0])
        return np.array([2 * a * p * x[0] + 2 * q * x[1],
                         2 * a * p * x[1]]).T
    return ComparisonSystem(dim=2, rhs=rhs, name="nilpotent_source")


def cyclic_mixed_system(phi, psi, k: int, a: float = -1.0) -> ComparisonSystem:
    """Coupled mixed-area chain for a linear-body source with B^k = identity.

    The chain closes cyclically: each W_i = V[u, B^i u] feeds its
    neighbors, and the last feeds back into W_0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")

    def rhs(xi):
        x = xi.T
        p, q = phi(x[0]), psi(x[0])
        if k == 1:
            return np.array([2 * a * p * x[0] + 2 * q * x[0]]).T
        out = [2 * a * p * x[0] + 2 * q * x[1]]
        for i in range(1, k - 1):
            out.append(2 * a * p * x[i] + q * (x[i - 1] + x[i + 1]))
        out.append(2 * a * p * x[k - 1] + q * (x[k - 2] + x[0]))
        return np.array(out).T
    return ComparisonSystem(dim=k, rhs=rhs, name=f"cyclic_mixed_k{k}")


def _matrix_rhs(mat):
    # the stacked product reproduces ``mat @ xi`` row by row; ``xi @ mat.T``
    # takes another kernel and can differ in the last bit
    return lambda xi: (mat @ xi[..., None])[..., 0]


def sde_growth_system(matrix) -> ComparisonSystem:
    """Growth system for the set equation ``D_H u = B u`` (det B < 0, tr B >= 0).

    ``xi0' = 2 xi1``, ``xi1' = 2 |det B| xi0 + tr B xi1``; the right-hand
    sides are quasimonotone since the off-diagonal coefficients are
    nonnegative.
    """
    mat = np.asarray(matrix, dtype=float)
    det = float(np.linalg.det(mat))
    tr = float(np.trace(mat))
    if det >= 0 or tr < 0:
        raise ValueError("requires det B < 0 and tr B >= 0")
    m = np.array([[0.0, 2.0], [2.0 * abs(det), tr]])
    return ComparisonSystem(dim=2, rhs=_matrix_rhs(m), name="sde_growth")


def linear_system(matrix, name: str = "linear") -> ComparisonSystem:
    mat = np.asarray(matrix, dtype=float)
    if not (mat.ndim == 2 and mat.shape[0] == mat.shape[1] > 0 and np.all(np.isfinite(mat))):
        raise ValueError("matrix must be square, nonempty and finite")
    return ComparisonSystem(dim=mat.shape[0], rhs=_matrix_rhs(mat), name=name)


def scalar_system(f, name: str = "scalar", time_dependent: bool = False) -> ComparisonSystem:
    """One-dimensional system ``xi' = f(xi)`` (or ``f(t, xi)``).

    ``f`` is called on a number for one state and on a column (with a
    column of times) for a batch; a constant result is broadcast.
    """
    def column(value, x):
        return np.array([np.broadcast_to(value, np.shape(x))]).T

    if time_dependent:
        return ComparisonSystem(dim=1, rhs=lambda t, xi: column(f(t, xi.T[0]), xi.T[0]),
                                name=name, time_dependent=True)
    return ComparisonSystem(dim=1, rhs=lambda xi: column(f(xi.T[0]), xi.T[0]), name=name)


# -- integration -------------------------------------------------------------


@dataclass
class ComparisonTrajectory:
    times: np.ndarray
    states: np.ndarray          # shape (len(times), dim), or (len(times), n, dim)
                                # for a batch of n initial states
    clamp_events: int = 0
    stopped_early: bool = False


def _rk4(system, t, xi, h):
    hx = h if xi.ndim == 1 else h[:, None]      # a batch has one step per row
    k1 = system(t, xi)
    k2 = system(t + 0.5 * h, xi + 0.5 * hx * k1)
    k3 = system(t + 0.5 * h, xi + 0.5 * hx * k2)
    k4 = system(t + h, xi + hx * k3)
    return xi + (hx / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def integrate(system: ComparisonSystem, xi0, horizon: float | None = None,
              dt_out: float | None = None, times=None,
              rtol: float = 1e-8, atol: float = 1e-12,
              clamp: bool = True, stop_condition=None) -> ComparisonTrajectory:
    """Adaptive RK4 trajectory on [0, horizon], sampled on a uniform grid.

    Step doubling controls the local error.  Negative undershoots are
    clamped to zero (the cone is the domain of the theory) and counted.
    Raises :class:`BlowupError` when the state escapes the overflow guard;
    an optional ``stop_condition(t, xi)`` terminates the trajectory early
    (used by stability searches once a threshold is crossed).

    ``xi0`` may also be a batch of initial states, shape ``(n, dim)``.  Each
    row then steps with its own time, step size, tolerance, clamping and
    guard, so row ``i`` of the result equals ``integrate(system, xi0[i])``
    bit for bit, and ``states`` has shape ``(len(times), n, dim)``.
    ``stop_condition`` receives the rows that just took a step (times of
    shape ``(k,)``, states ``(k, dim)``) and returns one flag per row.  The
    batch ends as soon as any row stops or escapes the guard: a stop returns
    the output times that every row has reached, with ``stopped_early``
    set, and an escape raises :class:`BlowupError`.
    """
    xi = np.asarray(xi0, dtype=float).copy()
    if xi.shape[-1:] != (system.dim,) or xi.ndim > 2 or xi.size == 0:
        raise ValueError(f"initial state must have shape ({system.dim},) "
                         f"or (n, {system.dim})")
    if np.any(xi < 0):
        raise ValueError("initial state must lie in the nonnegative cone")
    if times is None:
        if horizon is None or horizon <= 0:
            raise ValueError("horizon must be positive")
        n_out = max(1, int(round(horizon / dt_out))) if dt_out else 200
        times = np.linspace(0.0, horizon, n_out + 1)
    else:
        times = np.asarray(times, dtype=float)
        if times[0] != 0.0 or np.any(np.diff(times) <= 0):
            raise ValueError("output times must increase from 0")
    if xi.ndim == 2:
        return _integrate_rows(system, xi, times, rtol, atol, clamp, stop_condition)

    guard = GUARD_FACTOR * max(1.0, float(np.max(np.abs(xi))))
    states = [xi.copy()]
    clamped = 0
    t = 0.0
    h = (times[-1] / max(len(times) - 1, 1)) / 4.0

    for target in times[1:]:
        while t < target - 1e-14 * max(1.0, target):
            h_try = min(h, target - t)
            big = _rk4(system, t, xi, h_try)
            half = _rk4(system, t, xi, 0.5 * h_try)
            two = _rk4(system, t + 0.5 * h_try, half, 0.5 * h_try)
            err = float(np.max(np.abs(big - two))) / 15.0
            tol = atol + rtol * max(float(np.max(np.abs(xi))),
                                    float(np.max(np.abs(two))), 1e-300)
            if err <= tol:
                t += h_try
                xi = two
                if clamp and np.any(xi < 0):
                    clamped += int(np.sum(xi < 0))
                    xi = np.maximum(xi, 0.0)
                if not np.all(np.isfinite(xi)) or np.max(np.abs(xi)) > guard:
                    raise BlowupError(
                        f"comparison state escaped the guard at t={t:.6g}",
                        reached_time=t,
                        partial=ComparisonTrajectory(
                            np.asarray(times[:len(states)]), np.asarray(states),
                            clamped))
                if stop_condition is not None and stop_condition(t, xi):
                    states.append(xi.copy())
                    return ComparisonTrajectory(
                        np.append(times[:len(states) - 1], t),
                        np.asarray(states), clamped, stopped_early=True)
                h = h_try * min(5.0, max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2))
            else:
                h = h_try * max(0.1, 0.9 * (tol / err) ** 0.2)
            if h < 1e-13 * max(1.0, t):
                raise BlowupError("step size underflow in adaptive RK4",
                                  reached_time=t)
        states.append(xi.copy())
    return ComparisonTrajectory(times=np.asarray(times),
                                states=np.asarray(states),
                                clamp_events=clamped)


def _integrate_rows(system, xi, times, rtol, atol, clamp, stop_condition):
    """The loop of :func:`integrate`, run for every row of ``xi`` at once.

    Each operation below is the single-state one applied row by row, except
    the step factor: it stays in Python floats, because numpy's vectorized
    power can differ from Python's in the last bit and would change the
    step sequence.
    """
    n, last = xi.shape[0], len(times) - 1
    guard = GUARD_FACTOR * np.maximum(1.0, np.max(np.abs(xi), axis=1))
    states = np.empty((len(times), n, system.dim))
    states[0] = xi
    nxt = np.ones(n, dtype=int)         # index of each row's next output time
    t = np.zeros(n)
    h = np.full(n, (times[-1] / max(last, 1)) / 4.0)
    clamped = 0

    def reached(**kwargs):
        done = int(np.min(nxt))
        return ComparisonTrajectory(times[:done], states[:done], clamped, **kwargs)

    while True:
        live = np.flatnonzero(nxt <= last)
        if live.size == 0:
            return ComparisonTrajectory(times, states, clamped)
        target = times[nxt[live]]
        arrived = t[live] >= target - 1e-14 * np.maximum(1.0, target)
        if np.any(arrived):
            rows = live[arrived]
            states[nxt[rows], rows] = xi[rows]
            nxt[rows] += 1
            continue
        t_live, xi_live = t[live], xi[live]
        h_try = np.minimum(h[live], target - t_live)
        big = _rk4(system, t_live, xi_live, h_try)
        half = _rk4(system, t_live, xi_live, 0.5 * h_try)
        two = _rk4(system, t_live + 0.5 * h_try, half, 0.5 * h_try)
        err = np.max(np.abs(big - two), axis=1) / 15.0
        tol = atol + rtol * np.maximum(np.maximum(np.max(np.abs(xi_live), axis=1),
                                                  np.max(np.abs(two), axis=1)), 1e-300)
        ok = err <= tol
        acc = live[ok]
        t[acc] += h_try[ok]
        xi[acc] = two[ok]
        if clamp:
            neg = xi[acc] < 0
            clamped += int(np.sum(neg))
            hit = acc[np.any(neg, axis=1)]
            xi[hit] = np.maximum(xi[hit], 0.0)
        moved = xi[acc]
        escaped = (~np.all(np.isfinite(moved), axis=1)
                   | (np.max(np.abs(moved), axis=1) > guard[acc]))
        if np.any(escaped):
            at = float(t[acc[np.argmax(escaped)]])
            raise BlowupError(f"comparison state escaped the guard at t={at:.6g}",
                              reached_time=at, partial=reached())
        if stop_condition is not None and acc.size and np.any(stop_condition(t[acc], moved)):
            return reached(stopped_early=True)
        factor = [min(5.0, max(0.2, 0.9 * (a / max(e, 1e-300)) ** 0.2)) if good
                  else max(0.1, 0.9 * (a / e) ** 0.2)
                  for a, e, good in zip(tol.tolist(), err.tolist(), ok.tolist())]
        h[live] = h_try * np.array(factor)
        small = h[live] < 1e-13 * np.maximum(1.0, t[live])
        if np.any(small):
            raise BlowupError("step size underflow in adaptive RK4",
                              reached_time=float(t[live[np.argmax(small)]]))


# -- measures ----------------------------------------------------------------


@dataclass(frozen=True)
class HahnFunction:
    """Strictly increasing wrapper with value 0 at 0: ``c * s ** p``."""

    coefficient: float = 1.0
    exponent: float = 1.0

    def __post_init__(self):
        if self.coefficient <= 0 or self.exponent <= 0:
            raise ValueError("Hahn-class functions need positive coefficient and exponent")

    def __call__(self, s: float) -> float:
        return self.coefficient * float(s) ** self.exponent


IDENTITY = HahnFunction()


# -- verdicts and checks -----------------------------------------------------


@dataclass(frozen=True)
class StabilityVerdict:
    """Outcome of a sampled stability check, with the evidence it rests on."""

    kind: str                   # stable | asymptotically_stable |
                                # practically_stable | unstable | inconclusive
    witness: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"kind": self.kind, **_plain(self.witness)}


def _plain(obj):
    """Plain JSON data; a dataclass report becomes the dict of its fields,
    leaving out any field whose metadata sets ``report`` to False."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)
                if f.metadata.get("report", True)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


@dataclass(frozen=True)
class WazewskiReport:
    passed: bool
    samples: int
    violation: dict | None = None
    note: str = SAMPLED_EVIDENCE_NOTE


def check_wazewski(system: ComparisonSystem, sample_box, n_samples: int = 256,
                   seed: int = 0, tol: float = 1e-9) -> WazewskiReport:
    """Sampled quasimonotonicity check.

    Draws pairs ``xi <= eta`` agreeing in one coordinate and requires the
    corresponding component of the right-hand side not to decrease:
    ``g_i(xi) <= g_i(eta) + tol``.  Reports the first violation found.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    lo, hi = _box_bounds(sample_box, system.dim)
    rng = np.random.default_rng(seed)
    for _ in range(n_samples):
        xi = rng.uniform(lo, hi)
        eta = xi + rng.uniform(0.0, 1.0, system.dim) * (hi - xi)
        for i in range(system.dim):
            eta_i = eta.copy()
            eta_i[i] = xi[i]
            gx = system(0.0, xi)[i]
            ge = system(0.0, eta_i)[i]
            if gx > ge + tol:
                return WazewskiReport(
                    passed=False, samples=n_samples,
                    violation={"component": i, "xi": xi, "eta": eta_i,
                               "g_xi": gx, "g_eta": ge})
    return WazewskiReport(passed=True, samples=n_samples)


def _box_bounds(sample_box, dim):
    box = np.asarray(sample_box, dtype=float)
    if box.shape == (2,):
        lo = np.full(dim, box[0])
        hi = np.full(dim, box[1])
    elif box.shape == (dim, 2):
        lo, hi = box[:, 0], box[:, 1]
    else:
        raise ValueError("sample box must be (lo, hi) or per-dimension rows")
    if not np.all(np.isfinite(box)) or np.any(lo < 0) or np.any(hi <= lo):
        raise ValueError("sample box must be a finite, nondegenerate box in the cone")
    return lo, hi


def check_xi0_stability(system: ComparisonSystem, eps_grid=(0.1, 1.0),
                        T_check: float = 50.0, n_directions: int = 64,
                        bisect_iters: int = 40, seed: int = 0,
                        rtol: float = 1e-6,
                        decay_factor: float = 1e-3) -> StabilityVerdict:
    """Sampled first-component stability of the zero solution on the cone.

    For each epsilon a bisection searches for delta such that all sampled
    initial states with sup-norm below delta keep ``xi_0(t) < eps`` on
    [0, T_check].  The asymptotic variant additionally requires the sampled
    ``xi_0(T_check)`` to fall below ``decay_factor * xi_0(0)``.  The
    verdict is evidence, not proof, and says so.
    """
    eps_grid = tuple(eps_grid)
    if not eps_grid or any(e <= 0 for e in eps_grid):
        raise ValueError("eps_grid must hold positive thresholds")
    if n_directions < 1:
        raise ValueError("n_directions must be >= 1")
    if bisect_iters < 0:
        raise ValueError("bisect_iters must be >= 0")
    if T_check <= 0:
        raise ValueError("T_check must be positive")
    g0 = system(0.0, np.zeros(system.dim))
    if np.max(np.abs(g0)) > 1e-10:
        raise ValueError("the comparison system must have a trivial solution at 0")

    rng = np.random.default_rng(seed)
    dirs = rng.uniform(0.0, 1.0, size=(n_directions, system.dim))
    dirs[n_directions // 2:] /= np.maximum(
        np.max(dirs[n_directions // 2:], axis=1, keepdims=True), 1e-30)

    def run(delta, eps):
        """(xi_0 at 0, xi_0 at T_check) of each direction, or None if any fails.

        All directions step as one batch, which ends at the first one that
        crosses ``eps`` or blows up, since that already decides the answer.
        """
        xi0 = delta * dirs * (1 - 1e-12)
        try:
            traj = integrate(system, xi0, horizon=T_check, dt_out=T_check / 32,
                             rtol=rtol, stop_condition=lambda t, xi: xi[:, 0] >= eps)
        except BlowupError:
            return None
        if traj.stopped_early or np.max(traj.states[:, :, 0]) >= eps:
            return None
        return list(zip(xi0[:, 0], traj.states[-1, :, 0]))

    def survives(delta, eps):
        return run(delta, eps) is not None

    table = []
    floor = 1e-12
    for eps in sorted(eps_grid):
        hi = float(eps)
        if survives(hi, eps):
            table.append((eps, hi))
            continue
        lo = 0.0
        for _ in range(bisect_iters):
            mid = 0.5 * (lo + hi)
            if mid <= floor:
                break
            if survives(mid, eps):
                lo = mid
            else:
                hi = mid
        if lo <= floor:
            return StabilityVerdict(
                kind="unstable",
                witness={"failed_eps": eps, "delta_floor": floor,
                         "samples": n_directions, "T_check": T_check,
                         "delta_table": table, "note": SAMPLED_EVIDENCE_NOTE})
        table.append((eps, lo))

    # decay of the first component from well inside the smallest found delta;
    # a direction that fails there leaves no decay evidence at all
    finals = run(0.5 * min(d for _, d in table), min(e for e, _ in table))
    decays = [f < decay_factor * x0 for x0, f in finals or () if x0 > 0]
    kind = "asymptotically_stable" if decays and all(decays) else "stable"
    witness = {"delta_table": table, "samples": n_directions, "T_check": T_check,
               "decay_checked": len(decays), "note": SAMPLED_EVIDENCE_NOTE}
    if finals is None:
        witness["decay_run_failed"] = True
    return StabilityVerdict(kind=kind, witness=witness)


def check_practical(system: ComparisonSystem, lam: float, bound: float,
                    horizon: float, a: HahnFunction = IDENTITY,
                    b: HahnFunction = IDENTITY,
                    rtol: float = 1e-10) -> StabilityVerdict:
    """Practical stability via the comparison state started at ``b(lam) * e``.

    Integrates from the all-ones profile scaled by ``b(lam)`` and compares
    the first component at the horizon against ``a(bound)``; the flow is
    practically (lam, bound, horizon)-stable when the inequality is strict.
    The Hahn-class wrappers ``a`` and ``b`` carry the two measures of the
    stability notion into comparison coordinates:
    ``W_i[u] <= b(h0[u])`` and ``W_0[u] >= a(h[u])``.
    """
    if not 0 < lam < bound:
        raise ValueError("requires 0 < lam < bound")
    start = float(b(lam)) * np.ones(system.dim)
    threshold = float(a(bound))
    if horizon == 0:
        margin = threshold - start[0]
        kind = "practically_stable" if margin > 0 else "inconclusive"
        return StabilityVerdict(kind=kind, witness={
            "xi0_final": start[0], "threshold": threshold, "margin": margin,
            "lambda": lam, "bound": bound, "horizon": 0.0})
    try:
        traj = integrate(system, start, horizon=horizon, dt_out=horizon / 256,
                         rtol=rtol)
    except BlowupError as exc:
        return StabilityVerdict(kind="unstable", witness={
            "diagnostic": f"comparison system blew up at t={exc.reached_time:.6g}",
            "lambda": lam, "bound": bound, "horizon": horizon,
            "threshold": threshold})
    xi0_final = float(traj.states[-1, 0])
    margin = threshold - xi0_final
    kind = "practically_stable" if margin > 0 else "inconclusive"
    return StabilityVerdict(kind=kind, witness={
        "xi0_final": xi0_final, "xi0_max": float(np.max(traj.states[:, 0])),
        "threshold": threshold, "margin": margin,
        "lambda": lam, "bound": bound, "horizon": horizon,
        "initial_state": start})


@dataclass(frozen=True)
class DominanceReport:
    """Comparison of tracked functionals against the dominating ODE solution."""

    passed: bool
    max_violation: float
    tolerance: float
    margins: dict


def bound_check(trajectory, system: ComparisonSystem, functional_names,
                tol_scale: float = 1e-4, rtol: float = 1e-10) -> DominanceReport:
    """Verify tracked functionals never exceed the comparison solution.

    The comparison system starts from the functional values at the first
    stored frame and is sampled at exactly the stored times; the check is
    ``W_i(t) <= xi_i(t) + tol`` with a tolerance relative to the overall
    scale of the compared quantities.
    """
    names = list(functional_names)
    if len(names) != system.dim:
        raise ValueError("one functional per comparison component is required")
    series = np.column_stack([trajectory.tracked[n] for n in names])
    xi0 = np.maximum(series[0], 0.0)
    comp = integrate(system, xi0, horizon=float(trajectory.times[-1]),
                     times=trajectory.times, rtol=rtol)
    scale = max(1.0, float(np.max(np.abs(comp.states))),
                float(np.max(np.abs(series))))
    tol = tol_scale * scale
    diff = series - comp.states
    margins = {n: float(np.max(diff[:, i])) for i, n in enumerate(names)}
    worst = max(margins.values())
    return DominanceReport(passed=worst <= tol, max_violation=worst,
                           tolerance=tol, margins=margins)


@dataclass(frozen=True)
class QuadraticDecayReport:
    """Sampled negative-definiteness of a quadratic form's orbital derivative."""

    passed: bool
    worst_ratio: float
    worst_point: np.ndarray
    samples: int


def lyapunov_quadratic_check(system: ComparisonSystem, weights=None,
                             sample_box=(1e-3, 10.0), n_samples: int = 4096,
                             seed: int = 0) -> QuadraticDecayReport:
    """Sample ``d/dt [ (1/2) sum_i beta_i xi_i^2 ]`` on the punctured cone.

    The reported ratio normalizes the derivative by the weighted square
    norm, so homogeneous systems give scale-free numbers; the check passes
    when every sampled ratio is negative.
    """
    beta = (np.ones(system.dim) if weights is None
            else np.asarray(weights, dtype=float))
    if beta.shape != (system.dim,) or np.any(beta <= 0):
        raise ValueError("weights must be positive, one per component")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    lo, hi = _box_bounds(sample_box, system.dim)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, system.dim))
    worst = -np.inf
    worst_pt = pts[0]
    for xi in pts:
        dv = float(np.dot(beta * xi, system(0.0, xi)))
        ratio = dv / float(np.dot(beta, xi * xi))
        if ratio > worst:
            worst, worst_pt = ratio, xi
    return QuadraticDecayReport(passed=worst < 0.0, worst_ratio=worst,
                                worst_point=worst_pt, samples=n_samples)
