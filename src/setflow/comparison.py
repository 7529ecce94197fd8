"""Comparison ODE systems on the nonnegative cone and stability verdicts.

The scalar functionals tracked along an orbit (area, mixed areas, norms)
satisfy differential inequalities whose right-hand sides form a
finite-dimensional comparison system.  When that system is quasimonotone
(Wazewski condition: off-diagonal monotonicity), its solutions dominate
the functionals, so stability questions about the flow reduce to the ODE.
A Metzler matrix decides the checks on the whole cone, and two bracket a
clocked chain (:func:`_bracket`); the sampled checks are evidence, not proof.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, is_dataclass

import numpy as np

from .errors import BlowupError
from .flow import ScalarFunction, constant

GUARD_FACTOR = 1e12
RK4_ATOL = 1e-12            # absolute part of the step tolerance of integrate
EXACT_SUBSTEPS = 64         # most grid intervals per output interval of the exact xi0 search
# The longest run of the exact path, as times[-1] * ||M||_inf: it errs by
# about that many ulps, and the unit corner of [[-1, 1], [1, -1]], a fixed
# point, drifts by more than 1e-8 from a span of 1.7e7 on equal output grids
EXACT_MAX_SPAN = 1e7
XI0_OUTPUTS = 32            # output intervals on [0, T_check] of the xi0 search
DECAY_FACTOR = 1e-3         # asymptotic: xi_0(T_check) < DECAY_FACTOR * xi_0(0) at the corner
DELTA_FLOOR = 1e-12         # the xi0 search ends unstable at a level whose delta is at most this
CHECK_RTOL = 1e-10          # integrate's rtol in check_practical and bound_check
WAZEWSKI_TOL = 1e-9         # slack of the sampled quasimonotonicity inequality
WAZEWSKI_BLOCK = 2 ** 18    # doubles in the lowered points of one check_wazewski block
SAMPLED_EVIDENCE_NOTE = ("sampled evidence only: quasimonotonicity and cone "
                         "behavior checked on the supplied box, not globally")
MATRIX_EVIDENCE_NOTE = "decided in closed form from the Metzler matrix on the whole cone"
BRACKET_EVIDENCE_NOTE = ("decided in closed form from the two Metzler matrices that "
                         "bracket the clocked chain while xi_0 stays in [0, level]")
NO_BOUND_NOTE = "no Metzler matrix or bracket bounds the box: the check is not decided"


@dataclass(frozen=True)
class ComparisonSystem:
    """An ODE ``xi' = g(t, xi)`` on the nonnegative cone.

    ``rhs(t, xi)`` maps states at the one time ``t``, a number, to their
    derivatives in the shape of the states (any other is a ValueError).
    The states lie along the last axis of ``xi``: :func:`integrate` passes
    its one state, shape ``(dim,)``, and the sampled checks a batch of
    rows, shape ``(n, dim)``, at time 0, each row to be mapped
    independently of the others.  A right-hand side that does not depend on
    time ignores ``t``.

    ``matrix`` is set only by the factories below, when ``rhs(t, xi) = M xi``
    for a Metzler matrix ``M`` (off-diagonal entries >= 0, the Wazewski
    condition); :func:`integrate` then solves the system exactly instead of
    stepping RK4, and the checks answer from the matrix.  The factories
    keep their own ``rhs``, which the systems' matrix-free twins call.
    ``chain = (a, phi, psi, N)`` is set by the factories of clocked chains,
    ``rhs(t, xi) = 2 a phi(xi_0) xi + psi(xi_0) N xi`` with ``N >= 0``.
    """

    dim: int
    rhs: object
    name: str = ""
    matrix: np.ndarray | None = field(default=None, compare=False, repr=False)
    chain: tuple | None = field(default=None, compare=False, repr=False)

    def __call__(self, t, xi: np.ndarray) -> np.ndarray:
        # a result broadcast against the states would pass the arithmetic
        # and give wrong dense outputs
        out = np.asarray(self.rhs(t, xi), dtype=float)
        if out.shape != np.shape(xi):
            raise ValueError(f"rhs gave shape {out.shape} for states of shape {np.shape(xi)}")
        return out


# -- standard families -------------------------------------------------------
#
# Each right-hand side indexes the states along their last axis, so one
# state ``(dim,)`` and a batch of rows ``(n, dim)`` take the same arithmetic,
# one product per coefficient, and each row is computed by its own.  None of
# them depends on time.


def _column(value):
    # a per-state coefficient against the states; a number broadcasts
    return np.asarray(value)[..., None]


def _inf_norm(mat):
    with np.errstate(over="ignore"):
        return float(np.max(np.sum(np.abs(mat), axis=1)))


def _metzler(mat):
    """``mat`` as a read-only copy when it is a Metzler matrix, else None; a ValueError
    if its norm doubled (the norm of its shift in :func:`_metzler_expm`) is not finite."""
    mat = np.array(mat, dtype=float)
    if np.any(mat[~np.eye(len(mat), dtype=bool)] < 0):
        return None
    if not math.isfinite(2.0 * _inf_norm(mat)):
        raise ValueError("the Metzler matrix's norm doubled, 2 ||M||_inf, is not finite")
    mat.setflags(write=False)
    return mat


def _bracket(chain, level):
    """Metzler ``(M_lo, M_up)`` with ``M_lo xi <= rhs(xi) <= M_up xi`` on the cone
    where ``xi_0 <= level``: ``M_up = 2 a phi_ext I + psi_max N``, ``phi_ext`` the end
    of the clock's range that maximizes ``2 a phi``; ``M_lo`` takes the other ends."""
    a, phi, psi, coupling = chain
    (p_lo, p_hi), psis = phi.range(0.0, level), psi.range(0.0, level)
    if a < 0:
        p_lo, p_hi = p_hi, p_lo
    # an entry that overflows is _metzler's error
    with np.errstate(over="ignore", invalid="ignore"):
        return tuple(_metzler(2 * a * p * np.eye(len(coupling)) + q * coupling)
                     for p, q in ((p_lo, psis[0]), (p_hi, psis[1])))


def _chain_system(dim, rhs, name, a, phi, psi, coupling):
    """The chain of the ``coupling`` ``N >= 0``, with its matrix under constant clocks."""
    if not math.isfinite(2 * a):    # Python floats overflow with no warning
        raise ValueError("the rate 2 a phi is not finite")
    chain = (a, phi, psi, coupling)
    matrix = _bracket(chain, 0.0)[1] if phi.kind == psi.kind == "constant" else None
    return ComparisonSystem(dim=dim, rhs=rhs, name=name, matrix=matrix, chain=chain)


def nilpotent_source_system(phi, psi, a: float = -1.0) -> ComparisonSystem:
    """Area/mixed-area pair for a linear-body source with B^2 = 0.

    ``xi0' = 2 a phi(xi0) xi0 + 2 psi(xi0) xi1``,
    ``xi1' = 2 a phi(xi0) xi1``  (a = the scalar part of A, usually -1).
    """
    def rhs(t, xi):
        x0 = xi[..., 0]
        out = _column(2 * a * phi(x0)) * xi
        # only xi0 has a coupling term; adding a zero to xi1 could flip its sign of zero
        out[..., 0] += 2 * psi(x0) * xi[..., 1]
        return out
    return _chain_system(2, rhs, "nilpotent_source", a, phi, psi, np.diag([2.0], 1))


def cyclic_mixed_system(phi, psi, k: int, a: float = -1.0) -> ComparisonSystem:
    """Coupled mixed-area chain for a linear-body source with B^k = identity.

    The chain closes cyclically: each W_i = V[u, B^i u] feeds its
    neighbors, and the last feeds back into W_0.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    # W_i couples to W_left[i] + W_right[i]; W_0 takes twice W_1 (W_0 itself
    # when k = 1), and ``psi (x + x)`` has the bits of ``2 psi x``
    right = (np.arange(k) + 1) % k
    left = (np.arange(k) - 1) % k
    left[0] = right[0]

    def rhs(t, xi):
        x0 = xi[..., 0]
        p, q = phi(x0), psi(x0)
        return _column(2 * a * p) * xi + _column(q) * (xi[..., left] + xi[..., right])
    coupling = np.zeros((k, k))
    np.add.at(coupling, (np.arange(k), left), 1.0)
    np.add.at(coupling, (np.arange(k), right), 1.0)
    return _chain_system(k, rhs, f"cyclic_mixed_k{k}", a, phi, psi, coupling)


def volume_system(phi, a: float = -1.0) -> ComparisonSystem:
    """The volume equation ``V' = 2 a phi(V) V`` of a flow with no source."""
    return _chain_system(1, lambda t, xi: _column(2 * a * phi(xi[..., 0])) * xi,
                         "volume_only", a, phi, constant(0.0), np.zeros((1, 1)))


def _matrix_rhs(mat):
    # the stacked product reproduces ``mat @ xi`` row by row; ``xi @ mat.T``
    # takes another kernel and can differ in the last bit
    return lambda t, xi: (mat @ xi[..., None])[..., 0]


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
    return ComparisonSystem(dim=2, rhs=_matrix_rhs(m), name="sde_growth", matrix=_metzler(m))


def linear_system(matrix, name: str = "linear") -> ComparisonSystem:
    """``xi' = M xi``; solved exactly when ``M`` is Metzler (one whose norm doubled
    overflows is a ValueError), else stepped by RK4, which clamps states to the cone."""
    mat = np.asarray(matrix, dtype=float)
    if not (mat.ndim == 2 and mat.shape[0] == mat.shape[1] > 0 and np.all(np.isfinite(mat))):
        raise ValueError("matrix must be square, nonempty and finite")
    return ComparisonSystem(dim=mat.shape[0], rhs=_matrix_rhs(mat), name=name,
                            matrix=_metzler(mat))


def scalar_system(f, name: str = "scalar") -> ComparisonSystem:
    """One-dimensional system ``xi' = f(t, xi)``.

    ``f(t, x)`` is called at one time ``t``, a number, on the states'
    values ``x``: a number from :func:`integrate`, a column of shape
    ``(n,)`` from a sampled check.  A constant result is broadcast.
    """
    def rhs(t, xi):
        return np.broadcast_to(f(t, xi[..., 0]), xi.shape[:-1])[..., None]
    return ComparisonSystem(dim=1, rhs=rhs, name=name)


# -- integration -------------------------------------------------------------


@dataclass
class ComparisonTrajectory:
    times: np.ndarray           # the output times reached
    states: np.ndarray          # shape (len(times), dim)
    clamp_events: int = 0
    steps: int = 0              # accepted RK4 steps, or exact output intervals
    rejected: int = 0           # rejected RK4 steps; 0 when exact
    solver: str = "rk4"         # "exact" for a Metzler system.matrix, else "rk4"


def _rk4(system, t, xi, h, k1):
    """One classical RK4 step of the state ``xi`` of length ``h`` from its given ``k1``."""
    k2 = system(t + 0.5 * h, xi + 0.5 * h * k1)
    k3 = system(t + 0.5 * h, xi + 0.5 * h * k2)
    k4 = system(t + h, xi + h * k3)
    return xi + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _double_step(system, t, xi, h):
    """Step doubling from ``(t, xi)``: one step of ``h`` and two of ``h/2``.

    Returns ``(k1, half, k_half, big, two)``: the slope at the start, the
    state after the first half step and the slope there (the first stage of
    the second half step), the full step and the two half steps.  The full
    step and the first half step share ``k1``: 11 right-hand sides in all.
    """
    k1 = system(t, xi)
    big = _rk4(system, t, xi, h, k1)
    half = _rk4(system, t, xi, 0.5 * h, k1)
    k_half = system(t + 0.5 * h, half)
    return k1, half, k_half, big, _rk4(system, t + 0.5 * h, half, 0.5 * h, k_half)


def _dense(theta, h, x0, f0, xm, fm, x1):
    """Dense output of an accepted step at ``theta = (t - t0) / h``, clamped at 0.

    The quartic in ``theta`` through the step's start ``x0`` with slope
    ``f0``, its midpoint ``xm`` with slope ``fm`` and its end ``x1``.  All
    arrays broadcast elementwise, so each output gets its own arithmetic.
    """
    hf0 = h * f0
    d1 = x1 - x0 - hf0
    dm = xm - x0 - 0.5 * hf0
    df = h * fm - hf0
    c2 = 16.0 * dm + d1 - 4.0 * df
    c3 = 12.0 * df - 4.0 * d1 - 32.0 * dm
    c4 = 16.0 * dm - 8.0 * df + 4.0 * d1
    return np.maximum(x0 + theta * (hf0 + theta * (c2 + theta * (c3 + theta * c4))), 0.0)


def _step_factor(tol, err, ok):
    """The factor of the next step size: ``0.9 (tol / err) ** 0.2``, within
    [0.2, 5] after an accepted step and at least 0.1 after a rejected one,
    which a NaN error estimate gets (``max(0.1, nan)`` is 0.1)."""
    if ok:
        return min(5.0, max(0.2, 0.9 * (tol / max(err, 1e-300)) ** 0.2))
    return max(0.1, 0.9 * (tol / err) ** 0.2)


def integrate(system: ComparisonSystem, xi0, times, rtol: float = 1e-8,
              ceiling=None) -> ComparisonTrajectory:
    """The trajectory from the state ``xi0``, shape ``(dim,)``, read off at
    ``times``, finite and increasing from 0; ``states`` has shape
    ``(len(times), dim)``.

    A system with a Metzler ``matrix`` ``M`` is solved exactly (``solver``
    "exact"): each output interval, of length ``h``, multiplies the state
    by ``exp(M h)``, a matrix with no negative entry, so the state stays in
    the cone with no clamping, errs by some ``||M|| h`` ulps per interval
    and ignores ``rtol``.  ``steps`` counts the output intervals.  It
    refuses, with a ValueError, a run whose ``times[-1] * ||M||_inf``
    exceeds ``EXACT_MAX_SPAN``, past which that rounding, not the system,
    would decide a verdict.

    Any other system steps adaptive RK4 (``solver`` "rk4").  Step doubling
    holds the local error of each step below ``RK4_ATOL + rtol * max|xi|``.
    Steps are cut only at the final time; an output time inside a step is
    read from the step's dense output, a quartic through the step's start,
    midpoint and end values and its slopes at the start and midpoint, which
    costs no right-hand side and errs by about a fifth of the step's own
    error estimate.  The outputs thus carry the global error of the step
    sequence, some tens of ``rtol`` relative over a few dozen steps,
    whatever their number.  Negative undershoots are clamped to zero (the
    cone is the domain of the theory) and counted, as are accepted and
    rejected steps.

    A run ends early only by an escape, which raises :class:`BlowupError`:
    the state at an accepted RK4 step or an exact output leaves the
    overflow guard, or its ``xi_0`` reaches (``>=``) ``ceiling`` (one
    number; none by default), which escapes the same way, or an RK4 step
    size underflows.  The error's ``partial`` holds the outputs reached
    before the escaping step or output.
    """
    xi = np.asarray(xi0, dtype=float)
    if xi.shape != (system.dim,):
        raise ValueError(f"initial state must have shape ({system.dim},)")
    if not np.all(np.isfinite(xi)) or np.any(xi < 0):
        raise ValueError("initial state must be finite and lie in the nonnegative cone")
    times = np.asarray(times, dtype=float)
    if (times.ndim != 1 or times.size == 0 or times[0] != 0.0
            or not np.all(np.isfinite(times)) or np.any(np.diff(times) <= 0)):
        raise ValueError("output times must be finite and increase from 0")
    ceiling = math.inf if ceiling is None else ceiling
    if not isinstance(ceiling, numbers.Real) or math.isnan(ceiling):
        raise ValueError("ceiling must be one number, not NaN")
    states = np.empty((len(times), system.dim))
    states[0] = xi
    if system.matrix is not None:
        span = float(times[-1]) * _inf_norm(system.matrix)
        if span > EXACT_MAX_SPAN:
            raise ValueError(f"the exact path runs to times[-1] * ||M||_inf <= "
                             f"{EXACT_MAX_SPAN:.0e}, got {span:.3g}")
        return _exact(system.matrix, states, times, ceiling)
    return _adaptive(system, states, times, rtol, ceiling)


def _metzler_expm(mat, h):
    """``exp(h mat)`` of a Metzler ``mat``: no entry negative, none from a cancellation.

    The shifted Taylor series ``e^{-s h} exp(h N)``, ``N = mat + s I`` with
    ``s = max(0, -min diag mat)``, sums only terms >= 0.  Scaling by
    ``2^-k`` keeps ``||h N / 2^k||_inf < 1``, and the factor
    ``e^{-s h / 2^k}`` is applied before the ``k`` squarings, so each one
    squares an exponential at a shorter time and a finite result never
    overflows (Moler and Van Loan, SIAM Review 45, 2003; Higham, SIAM J.
    Matrix Anal. Appl. 26, 2005).  The series runs to at least the order of
    ``mat``, by which every entry it ever fills is filled, and on until a
    term changes no entry.
    """
    dim = len(mat)
    shift = max(0.0, -float(np.min(np.diagonal(mat))))
    shifted = mat + shift * np.eye(dim)
    k = max(0, math.frexp(h)[1] + math.frexp(_inf_norm(shifted))[1])
    tau = math.ldexp(h, -k)
    step = tau * shifted
    total = term = np.eye(dim)
    order = 0
    while True:
        order += 1
        term = (term @ step) / order
        summed = total + term
        if order >= dim and np.array_equal(summed, total):
            break
        total = summed
    out = math.exp(-shift * tau) * total
    for _ in range(k):
        out = out @ out
    return out


def _exact(mat, states, times, ceiling):
    """The exact path of :func:`integrate` for the Metzler matrix ``mat``:
    output interval ``j`` multiplies the state by ``exp(M h_j)``, one
    exponential per distinct length ``h_j``.  The guard and the ceiling see
    all the outputs at once, after the last product."""
    with np.errstate(over="ignore", invalid="ignore"):
        lengths, kind = np.unique(np.diff(times), return_inverse=True)
        props = [_metzler_expm(mat, h) for h in lengths.tolist()]
        for j, k in enumerate(kind.tolist()):
            np.matmul(props[k], states[j], out=states[j + 1])
    # the states are in the cone, so a state past the guard (or NaN) fails
    # ``max <= guard``; the maximum of each state is only taken when the
    # overall maximum fails that test
    guard = GUARD_FACTOR * max(1.0, float(np.max(states[0])))
    ends = states[1:]
    escaped = ends[:, 0] >= ceiling
    if not np.max(ends, initial=0.0) <= guard:
        escaped |= ~(np.max(ends, axis=1) <= guard)
    hits = np.flatnonzero(escaped)
    if hits.size:
        done = int(hits[0]) + 1         # the escaping output, and the intervals taken
        reached = float(times[done])
        raise BlowupError(
            f"comparison state escaped the guard at t={reached:.6g}", reached_time=reached,
            partial=ComparisonTrajectory(times[:done], states[:done], steps=done,
                                         solver="exact"))
    return ComparisonTrajectory(times, states, steps=len(times) - 1, solver="exact")


def _adaptive(system, states, times, rtol, ceiling):
    """The RK4 path of :func:`integrate`, from ``states[0]``; the outputs go
    into ``states``, and the trajectories returned hold slices of it."""
    xi = states[0]
    last, end = len(times) - 1, float(times[-1])
    # a step ending at t reaches output j once t >= reach[j]; the output is
    # the accepted state itself unless it lies inside the step, before inside[j]
    margin = 1e-14 * end
    reach, inside = times - margin, times + margin
    guard = GUARD_FACTOR * max(1.0, float(np.max(np.abs(xi))))
    nxt = 1                             # index of the next output time
    t, h = 0.0, (end / max(last, 1)) / 4.0
    clamped = steps = rejected = 0

    def result():
        return ComparisonTrajectory(times[:nxt], states[:nxt], clamp_events=clamped,
                                    steps=steps, rejected=rejected)

    while nxt <= last:
        h_try = min(h, end - t)
        k1, half, k_half, big, two = _double_step(system, t, xi, h_try)
        err = float(np.max(np.abs(big - two))) / 15.0
        tol = RK4_ATOL + rtol * max(float(np.max(np.abs(xi))), float(np.max(np.abs(two))),
                                    1e-300)
        ok = err <= tol
        if ok:
            t0, x0 = t, xi
            t += h_try
            steps += 1
            clamped += int(np.sum(two < 0))
            xi = np.maximum(two, 0.0)
            if not np.all(np.isfinite(xi)) or np.max(np.abs(xi)) > guard or xi[0] >= ceiling:
                raise BlowupError(f"comparison state escaped the guard at t={t:.6g}",
                                  reached_time=t, partial=result())
            k = int(np.searchsorted(inside, t))
            if k > nxt:
                theta = (times[nxt:k] - t0) / h_try
                states[nxt:k] = _dense(theta[:, None], h_try, x0, k1, half, k_half, xi)
                nxt = k
            k = int(np.searchsorted(reach, t, side="right"))
            if k > nxt:
                states[nxt:k] = xi
                nxt = k
        else:
            rejected += 1
        h = h_try * _step_factor(tol, err, ok)
        if nxt <= last and h < 1e-13 * end:
            raise BlowupError("step size underflow in adaptive RK4", reached_time=t,
                              partial=result())
    return result()


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
    leaving out any field whose metadata sets ``report`` to False, and a
    float that is not finite becomes None, which strict JSON can hold."""
    if is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in fields(obj)
                if f.metadata.get("report", True)}
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        obj = obj.item()
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


@dataclass(frozen=True)
class WazewskiReport:
    passed: bool
    samples: int
    violation: dict | None = None
    note: str = SAMPLED_EVIDENCE_NOTE


def check_wazewski(system: ComparisonSystem, sample_box, n_samples: int = 256,
                   seed: int = 0) -> WazewskiReport:
    """Sampled quasimonotonicity check.

    Draws pairs ``xi <= eta`` agreeing in one coordinate and requires the
    corresponding component of the right-hand side not to decrease:
    ``g_i(xi) <= g_i(eta) + WAZEWSKI_TOL``.  The samples are evaluated in
    batches; the report names the first violation in sample order, then
    component order.  A Metzler ``matrix`` passes by construction, unsampled.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    dim = system.dim
    lo, hi = _box_bounds(sample_box, dim)
    if system.matrix is not None:
        return WazewskiReport(passed=True, samples=0, note=MATRIX_EVIDENCE_NOTE)
    # per sample, the doubles of ``xi`` and then of ``eta``, the order in
    # which sample-by-sample ``uniform`` calls would draw them
    draws = np.random.default_rng(seed).random((n_samples, 2, dim))
    xi = lo + (hi - lo) * draws[:, 0]
    eta = xi + draws[:, 1] * (hi - xi)
    # blocks of samples bound the memory of the lowered points, dim per sample
    block = max(1, WAZEWSKI_BLOCK // dim ** 2)
    component = np.arange(dim)
    # a right-hand side that overflows at a sample gives inf or NaN, whose
    # comparison decides the verdict; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_samples, block):
            x, e = xi[start:start + block], eta[start:start + block]
            # row (s, i): eta of sample s with coordinate i lowered back to xi's
            lowered = np.repeat(e[:, None, :], dim, axis=1)
            lowered[:, component, component] = x
            lowered = lowered.reshape(-1, dim)
            g_xi = system(0.0, x).ravel()
            g_eta = system(0.0, lowered)[np.arange(len(lowered)), np.tile(component, len(x))]
            bad = np.flatnonzero(g_xi > g_eta + WAZEWSKI_TOL)
            if bad.size:                    # the first in sample-then-component order
                at = int(bad[0])
                return WazewskiReport(
                    passed=False, samples=n_samples,
                    violation={"component": at % dim, "xi": x[at // dim], "eta": lowered[at],
                               "g_xi": g_xi[at], "g_eta": g_eta[at]})
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
                        T_check: float = 50.0) -> StabilityVerdict:
    """First-component stability of the zero solution on the cone, decided at the corner.

    For each epsilon, a delta such that every start in the box ``{x >= 0 :
    |x|_inf < delta}`` keeps ``xi_0(t) < eps`` on [0, T_check]; for a Metzler
    system the run from the corner ``delta (1, ..., 1)`` bounds the box (W.
    Walter, *Ordinary Differential Equations*, 1998, section 10).  Decided by
    :func:`_exact_xi0` of a ``matrix`` or :func:`_bracket_xi0` of a ``chain``;
    any other system is ``inconclusive``.
    """
    eps_grid = tuple(eps_grid)
    if not eps_grid or any(e <= 0 for e in eps_grid):
        raise ValueError("eps_grid must hold positive thresholds")
    if T_check <= 0:
        raise ValueError("T_check must be positive")
    g0 = system(0.0, np.zeros(system.dim))
    if np.max(np.abs(g0)) > 1e-10:
        raise ValueError("the comparison system must have a trivial solution at 0")
    levels = sorted(eps_grid)
    if system.matrix is not None:
        return _exact_xi0(system, levels, T_check)
    if system.chain is not None:
        return _bracket_xi0(system.chain, levels, T_check)
    return StabilityVerdict(kind="inconclusive",
                            witness={"T_check": T_check, "note": NO_BOUND_NOTE})


def _exact_xi0(system, levels, T_check):
    """:func:`check_xi0_stability` of a Metzler ``matrix``: each level's delta is ``eps
    / peak``, ``peak`` the largest ``xi_0`` of one exact run from the unit corner, at
    its outputs and at a bracket of each crossing of the slope ``(M xi)_0`` through 0.
    The run takes ``XI0_OUTPUTS`` output intervals of the fewest equal pieces with
    ``h ||M||_inf <= 1/2``, at most ``EXACT_SUBSTEPS``; an escape is unstable."""
    mat = system.matrix
    per = max(1, math.ceil(min(2.0 * T_check / XI0_OUTPUTS * _inf_norm(mat), EXACT_SUBSTEPS)))
    times = np.linspace(0.0, T_check, XI0_OUTPUTS * per + 1)
    failed = {"failed_eps": levels[0], "delta_floor": DELTA_FLOOR, "delta_table": []}
    witness = {"T_check": T_check, "solver": "exact", "note": MATRIX_EVIDENCE_NOTE}
    try:
        states = integrate(system, np.ones(system.dim), times).states
    except BlowupError as exc:
        return StabilityVerdict(kind="unstable", witness={**failed, **witness, "diagnostic":
                                f"comparison system blew up at t={exc.reached_time:.6g}"})
    x0, slope = states[:, 0], states @ mat[0]
    peak, peak_time = float(np.max(x0)), float(times[np.argmax(x0)])
    for i in np.flatnonzero((slope[:-1] > 0) & (slope[1:] <= 0)).tolist():
        lo, hi, value, rate = 0.0, times[i + 1] - times[i], float(x0[i]), float(slope[i])
        while hi - lo > 1e-9 * (times[i + 1] - times[i]):
            mid = 0.5 * (lo + hi)
            x = _metzler_expm(mat, mid) @ states[i]
            if mat[0] @ x > 0:
                lo, value, rate = mid, float(x[0]), float(mat[0] @ x)
            else:
                hi = mid
        peak, peak_time = max((peak, peak_time), (value + rate * (hi - lo), float(times[i]) + lo))
    witness.update(peak=peak, peak_time=peak_time, decay_ratio=float(x0[-1]))
    if levels[0] / peak <= DELTA_FLOOR:
        return StabilityVerdict(kind="unstable", witness={**failed, **witness})
    return StabilityVerdict(kind="asymptotically_stable" if x0[-1] < DECAY_FACTOR else "stable",
                            witness={"delta_table": [(e, e / peak) for e in levels], **witness})


def _bracket_xi0(chain, levels, T_check):
    """:func:`check_xi0_stability` of a clocked chain, between the Metzler systems of
    :func:`_bracket` while ``xi_0 <= eps``: by the comparison theorem :func:`_exact_xi0`
    of ``M_up`` gives a delta for the box and that of ``M_lo`` an upper bound,
    per distinct level in increasing order.  An unstable ``M_lo`` run is
    ``unstable``, an unstable ``M_up`` run alone ``inconclusive``."""
    table, upper, runs = [], [], {}
    bracket = {"T_check": T_check, "solver": "bracket", "note": BRACKET_EVIDENCE_NOTE}
    for eps in levels:
        if eps not in runs:
            runs[eps] = [_exact_xi0(linear_system(m), [eps], T_check)
                         for m in _bracket(chain, eps)]
        lower, higher = runs[eps]
        failed = lower if lower.kind == "unstable" else higher
        if failed.kind == "unstable":
            return StabilityVerdict(kind=lower.kind if failed is lower else "inconclusive",
                                    witness={**failed.witness, **bracket, "delta_table": table,
                                             "delta_upper": upper})
        table += higher.witness["delta_table"]
        upper += lower.witness["delta_table"]
    smallest = runs[levels[0]][1]
    return StabilityVerdict(kind=smallest.kind, witness={
        "delta_table": table, "delta_upper": upper,
        "decay_ratio": smallest.witness["decay_ratio"], **bracket})


def _counters(traj: ComparisonTrajectory) -> dict:
    return {"clamp_events": traj.clamp_events, "steps": traj.steps,
            "rejected": traj.rejected, "solver": traj.solver}


def check_practical(system: ComparisonSystem, lam: float, bound: float,
                    horizon: float) -> StabilityVerdict:
    """Practical stability via the comparison state started at ``lam * e``.

    Integrates (at ``rtol = CHECK_RTOL`` on the RK4 path) from the all-ones
    profile scaled by ``lam`` and compares the first component at the
    horizon against ``bound``; the flow is practically (lam, bound,
    horizon)-stable when the inequality is strict.  The witness carries the counters of the
    integration and its ``solver`` (see :func:`integrate`), up to the
    blow-up when the comparison state escapes.  A clocked ``chain`` is
    ``practically_stable`` when ``lam`` is below the delta of :func:`_exact_xi0`
    of ``M_up`` at the level ``bound`` (``bound`` at horizon 0), else ``inconclusive``.
    """
    if not 0 < lam < bound:
        raise ValueError("requires 0 < lam < bound")
    threshold = float(bound)
    window = {"lambda": lam, "bound": bound, "horizon": horizon, "threshold": threshold}
    if system.matrix is None and system.chain is not None:
        witness = (_exact_xi0(linear_system(_bracket(system.chain, bound)[1]), [bound],
                              horizon).witness if horizon else {"delta_table": [(bound, bound)]})
        delta = dict(witness["delta_table"]).get(bound, 0.0)
        return StabilityVerdict(kind="practically_stable" if delta > lam else "inconclusive",
                                witness={**witness, **window, "solver": "bracket",
                                         "note": BRACKET_EVIDENCE_NOTE})
    start = float(lam) * np.ones(system.dim)
    try:
        traj = integrate(system, start, np.linspace(0.0, horizon, 257 if horizon else 1),
                         rtol=CHECK_RTOL)
    except BlowupError as exc:
        return StabilityVerdict(kind="unstable", witness={
            "diagnostic": f"comparison system blew up at t={exc.reached_time:.6g}",
            **window, **_counters(exc.partial)})
    xi0_final = float(traj.states[-1, 0])
    margin = threshold - xi0_final
    kind = "practically_stable" if margin > 0 else "inconclusive"
    return StabilityVerdict(kind=kind, witness={
        "xi0_final": xi0_final, "xi0_max": float(np.max(traj.states[:, 0])),
        "margin": margin, **window, "initial_state": start, **_counters(traj)})


@dataclass(frozen=True)
class DominanceReport:
    """Comparison of tracked functionals against the dominating ODE solution."""

    passed: bool
    max_violation: float
    tolerance: float
    margins: dict
    clamp_events: int           # the counters of the comparison solution
    steps: int
    rejected: int
    solver: str                 # "exact" (``steps`` counts output intervals) or "rk4"


def bound_check(trajectory, system: ComparisonSystem, functional_names,
                tol_scale: float = 1e-4) -> DominanceReport:
    """Verify tracked functionals never exceed the comparison solution.

    The comparison system starts from the functional values at the first
    stored frame and is sampled at exactly the stored times, at ``rtol =
    CHECK_RTOL`` on the RK4 path; the check is ``W_i(t) <= xi_i(t) + tol`` with a tolerance
    relative to the overall scale of the compared quantities.  The report
    carries the counters of that integration and its ``solver`` (see
    :func:`integrate`).
    """
    names = list(functional_names)
    if len(names) != system.dim:
        raise ValueError("one functional per comparison component is required")
    series = np.column_stack([trajectory.tracked[n] for n in names])
    xi0 = np.maximum(series[0], 0.0)
    comp = integrate(system, xi0, trajectory.times, rtol=CHECK_RTOL)
    scale = max(1.0, float(np.max(np.abs(comp.states))),
                float(np.max(np.abs(series))))
    tol = tol_scale * scale
    diff = series - comp.states
    margins = {n: float(np.max(diff[:, i])) for i, n in enumerate(names)}
    worst = max(margins.values())
    return DominanceReport(passed=worst <= tol, max_violation=worst,
                           tolerance=tol, margins=margins, **_counters(comp))


@dataclass(frozen=True)
class QuadraticDecayReport:
    """Negative-definiteness of a quadratic form's orbital derivative on the cone."""

    passed: bool
    worst_ratio: float
    worst_point: np.ndarray
    samples: int                # 0 when decided from the matrix
    note: str = SAMPLED_EVIDENCE_NOTE


def _row_dots(a, b):
    # the stacked product gives each row the bits of ``np.dot`` on that row;
    # an elementwise product summed along the rows can differ in the last bit
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def lyapunov_quadratic_check(system: ComparisonSystem, weights=None,
                             sample_box=(1e-3, 10.0), n_samples: int = 4096,
                             seed: int = 0) -> QuadraticDecayReport:
    """Sample ``d/dt [ (1/2) sum_i beta_i xi_i^2 ]`` on the punctured cone.

    The reported ratio normalizes the derivative by the weighted square
    norm, so homogeneous systems give scale-free numbers; the check passes
    when every sampled ratio is negative.  The samples are evaluated as one
    batch; the first of equal worst ratios is reported, and a ratio that is
    not a number is the worst and fails the check.

    A Metzler ``matrix`` ``M`` draws no sample: the worst ratio on the cone is
    the top eigenvalue of ``D^{-1/2} sym(D M) D^{-1/2}``, ``D = diag(beta)``,
    and its Perron vector, mapped back by ``D^{-1/2}``, the worst point.
    """
    beta = (np.ones(system.dim) if weights is None
            else np.asarray(weights, dtype=float))
    if beta.shape != (system.dim,) or np.any(beta <= 0):
        raise ValueError("weights must be positive, one per component")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    lo, hi = _box_bounds(sample_box, system.dim)
    if system.matrix is not None:
        root = np.sqrt(beta)
        with np.errstate(over="ignore", invalid="ignore"):
            form = (root[:, None] / root) * system.matrix
            values, vectors = np.linalg.eigh(0.5 * (form + form.T))
        # a top eigenvector of either sign, or mixed in a tied eigenspace:
        # its absolute value has a Rayleigh quotient no lower, so it is one too
        return QuadraticDecayReport(passed=bool(values[-1] < 0.0), worst_ratio=float(values[-1]),
                                    worst_point=np.abs(vectors[:, -1]) / root, samples=0,
                                    note=MATRIX_EVIDENCE_NOTE)
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(n_samples, system.dim))
    with np.errstate(over="ignore", invalid="ignore"):    # a NaN ratio fails the check
        dv = _row_dots(beta * pts, system(0.0, pts))
        ratio = dv / _row_dots(np.broadcast_to(beta, pts.shape), pts * pts)
    at = int(np.argmax(ratio))          # the first of equal maxima, or the first NaN
    worst, worst_pt = float(ratio[at]), pts[at]
    return QuadraticDecayReport(passed=worst < 0.0, worst_ratio=worst,
                                worst_point=worst_pt, samples=n_samples)
