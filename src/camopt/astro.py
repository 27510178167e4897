"""Equations of motion, adaptive RKF7(8) propagation of states and of
stacked jets, batched segment linearization with an analytic upper bound on
its nonlinearity ratios, node grids and closest-approach refinement by a
Newton iteration on the range rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import CamoptError
from . import dajet
from .dajet import DomainError, jet_space

GM_EARTH = 398600.4418  # km^3/s^2
R_EARTH = 6378.137  # km
J2_EARTH = 1.08262668e-3
# local error tolerance per RKF7(8) step, max-norm over the components
INTEG_TOL = 1e-12
MERGE_TOL = 1e-6  # a TCA this close to a grid node takes the node
TCA_TOL = 1e-6  # Newton step at which refine_tca stops
TCA_MAX_ITER = 12


class PropagationError(CamoptError):
    pass


class StiffnessError(PropagationError):
    pass


class ScenarioError(CamoptError):
    pass


class DegenerateEncounterError(CamoptError):
    pass


# ---------------------------------------------------------------------
# dynamics


@dataclass(frozen=True)
class Dynamics:
    """Point-mass gravity, optionally with the second zonal harmonic.

    ``mu`` and ``r_ref`` are in whatever consistent unit system the caller
    works in (km/s or scaled units).
    """

    mu: float
    j2: float = 0.0
    r_ref: float = 0.0

    def __post_init__(self):
        # Python floats: numpy scalars would slow every eom call
        for name in ("mu", "j2", "r_ref"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @staticmethod
    def two_body(mu: float = GM_EARTH) -> "Dynamics":
        return Dynamics(mu=mu)

    @staticmethod
    def two_body_j2(mu: float = GM_EARTH, j2: float = J2_EARTH,
                    r_ref: float = R_EARTH) -> "Dynamics":
        return Dynamics(mu=mu, j2=j2, r_ref=r_ref)


def eom(y, u, dyn: Dynamics):
    """State derivative [v; g(r) + u] of one float state, as 6 floats."""
    rx, ry, rz, vx, vy, vz = y
    r2 = rx * rx + ry * ry + rz * rz
    if r2 <= 0.0:
        raise DomainError("zero radius in equations of motion")
    rn = math.sqrt(r2)
    r3 = r2 * rn
    ir3 = 1.0 / r3 if r3 else math.inf  # r^3 underflows to 0 below |r| = 1.4e-108
    k = -dyn.mu * ir3
    ax, ay, az = k * rx, k * ry, k * rz
    if dyn.j2:
        # -(3/2) J2 mu R^2 / r^5 * [x(1-5z^2/r^2); y(1-5z^2/r^2); z(3-5z^2/r^2)]
        ir2 = 1.0 / r2
        z2r2 = rz * rz * ir2
        kj = -1.5 * dyn.j2 * dyn.mu * dyn.r_ref ** 2 * ir3 * ir2
        f1 = kj * (1.0 - 5.0 * z2r2)
        ax = ax + f1 * rx
        ay = ay + f1 * ry
        az = az + kj * (3.0 - 5.0 * z2r2) * rz
    return vx, vy, vz, ax + u[0], ay + u[1], az + u[2]


def _eom_jets(space, y, u, dyn: Dynamics):
    """:func:`eom` on stacked jets: ``y`` (M, 6, size), ``u`` (M, 3, size)
    jets or (M, 3) floats.  The formula of :func:`eom`, term by term in the
    same order."""
    r = y[:, :3]
    sq = dajet.mul(space, r, r)
    r2 = sq[:, 0] + sq[:, 1] + sq[:, 2]
    if (r2[:, 0] <= 0.0).any():
        raise DomainError("zero radius in equations of motion")
    rn = dajet.sqrt(space, r2)
    ir3 = dajet.reciprocal(space, dajet.mul(space, r2, rn))
    k = ir3 * -dyn.mu
    acc = dajet.mul(space, k[:, None], r)
    if dyn.j2:
        ir2 = dajet.reciprocal(space, r2)
        z2r2 = dajet.mul(space, sq[:, 2], ir2)
        kj = dajet.mul(space, ir3 * (-1.5 * dyn.j2 * dyn.mu * dyn.r_ref ** 2), ir2)
        # 1 - 5 z^2/r^2 and 3 - 5 z^2/r^2
        w = np.repeat(-(z2r2 * 5.0)[:, None], 2, axis=1)
        w[:, 0, 0] += 1.0
        w[:, 1, 0] += 3.0
        f = dajet.mul(space, kj[:, None], w)
        acc = acc + dajet.mul(space, f[:, [0, 0, 1]], r)
    out = np.empty_like(y)
    out[:, :3] = y[:, 3:]
    if u.ndim == 3:
        out[:, 3:] = acc + u
    else:
        out[:, 3:] = acc
        out[:, 3:, 0] += u
    return out


# ---------------------------------------------------------------------
# RKF7(8) tableau (Fehlberg): the nonzero a_kj of stages 1..12 as (j, a_kj)
# and the nonzero weights c_k of the eighth-order update as (k, c_k)

_A = (((0, 2 / 27),),
      ((0, 1 / 36), (1, 1 / 12)),
      ((0, 1 / 24), (2, 1 / 8)),
      ((0, 5 / 12), (2, -25 / 16), (3, 25 / 16)),
      ((0, 0.05), (3, 0.25), (4, 0.2)),
      ((0, -25 / 108), (3, 125 / 108), (4, -65 / 27), (5, 125 / 54)),
      ((0, 31 / 300), (4, 61 / 225), (5, -2 / 9), (6, 13 / 900)),
      ((0, 2.0), (3, -53 / 6), (4, 704 / 45), (5, -107 / 9), (6, 67 / 90),
       (7, 3.0)),
      ((0, -91 / 108), (3, 23 / 108), (4, -976 / 135), (5, 311 / 54),
       (6, -19 / 60), (7, 17 / 6), (8, -1 / 12)),
      ((0, 2383 / 4100), (3, -341 / 164), (4, 4496 / 1025), (5, -301 / 82),
       (6, 2133 / 4100), (7, 45 / 82), (8, 45 / 164), (9, 18 / 41)),
      ((0, 3 / 205), (5, -6 / 41), (6, -3 / 205), (7, -3 / 41), (8, 3 / 41),
       (9, 6 / 41)),
      ((0, -1777 / 4100), (3, -341 / 164), (4, 4496 / 1025), (5, -289 / 82),
       (6, 2193 / 4100), (7, 51 / 82), (8, 33 / 164), (9, 12 / 41),
       (11, 1.0)))
_C8 = ((5, 34.0 / 105), (6, 9.0 / 35), (7, 9.0 / 35), (8, 9.0 / 280),
       (9, 9.0 / 280), (11, 41.0 / 840), (12, 41.0 / 840))
_ERR_W = 41.0 / 840  # on f0 + f10 - f11 - f12
_MAX_STEPS = 100000  # accepted steps per propagation


def _combine(y, h, terms, f):
    """y + (h w_0) f[j_0] + (h w_1) f[j_1] + ... over the (j, w) of
    ``terms``, summed left to right in each of the 6 components."""
    y0, y1, y2, y3, y4, y5 = y
    for j, w in terms:
        hw = h * w
        g0, g1, g2, g3, g4, g5 = f[j]
        y0 = y0 + hw * g0
        y1 = y1 + hw * g1
        y2 = y2 + hw * g2
        y3 = y3 + hw * g3
        y4 = y4 + hw * g4
        y5 = y5 + hw * g5
    return y0, y1, y2, y3, y4, y5


def _rkf78(y, t, t_end, u, dyn: Dynamics, tol: float):
    """Adaptive RKF7(8) of 6 float states from t to t_end >= t.

    Every value is a Python float and every sum runs in the order of
    :func:`_rkf78_jets`: stage k is y + (h a_k0) f_0 + (h a_k1) f_1 + ...
    over ascending j, the error max|f0 + f10 - f11 - f12| |h 41/840|, the
    update y + (h c_5) f_5 + ...  The local error per step is kept below
    ``tol`` (max-norm over components).  The first trial step spans the
    whole interval.
    """
    if t_end < t:
        raise PropagationError("backward integration not supported; flip the velocity")
    if tol <= 0:
        raise PropagationError("tolerance must be positive")
    span = t_end - t
    if span == 0.0:
        return y
    h = span
    f = [None] * 13
    for _ in range(_MAX_STEPS):
        if t >= t_end:
            return y
        h = min(h, t_end - t)
        f[0] = eom(y, u, dyn)
        while True:
            for k, row in enumerate(_A, 1):
                f[k] = eom(_combine(y, h, row, f), u, dyn)
            e = [abs(p + q - r - s)
                 for p, q, r, s in zip(f[0], f[10], f[11], f[12])]
            # a NaN or inf comes from the state, not the step size: fail at
            # once rather than crawl at the step-size floor
            if not math.isfinite(sum(e)):
                raise StiffnessError(f"non-finite step error at t={t}")
            err = max(e) * abs(_ERR_W * h)
            if err <= tol or h <= 1e-14 * max(abs(t), 1.0):
                break
            h *= max(0.2, 0.8 * (tol / err) ** 0.125)
            if h < 1e-13 * max(span, 1.0):
                raise StiffnessError(f"step size underflow at t={t}")
        y = _combine(y, h, _C8, f)
        t += h
        if err > 0:
            h *= min(5.0, 0.8 * (tol / err) ** 0.125)
    raise StiffnessError("maximum number of steps exceeded")


def flow(y0, t0, t1, u, dyn: Dynamics, tol: float = INTEG_TOL):
    """Propagate under constant control ``u`` over [t0, t1].

    The state is flown as Python floats by :func:`_rkf78`; the result is
    bit for bit the one of the same RKF7(8) steps taken on float64 arrays.
    Backward spans are handled by integrating the time-reversed system
    (velocity flipped, which flips the sign of every acceleration term).
    """
    y = [float(v) for v in y0]
    u = [float(v) for v in u]
    if t1 < t0:
        # gravity is reversible: flipping the velocity and integrating the
        # plain equations forward retraces the trajectory
        y[3:] = [-v for v in y[3:]]
        y = list(_rkf78(y, 0.0, float(t0 - t1), u, dyn, tol))
        y[3:] = [-v for v in y[3:]]
        return np.array(y)
    return np.array(_rkf78(y, float(t0), float(t1), u, dyn, tol))


# ---------------------------------------------------------------------
# stacked jet propagation


def flow_jets(space, y, t0, t1, dyn: Dynamics, u=None, tol: float = INTEG_TOL):
    """:func:`flow` of stacked jets, every row over its own span [t0, t1].

    ``y`` holds (N, 6, space.size) state coefficients, ``t0`` and ``t1``
    are one epoch (or one for all rows) each, and ``u`` is (N, 3, size)
    control jets or (N, 3) constant controls, zero when omitted.  Each row
    keeps its own clock, step size and accept/reject decision, all taken
    from its constant part: it takes the steps :func:`flow` takes for its
    state, its constant part is :func:`flow`'s answer bit for bit, and its
    derivatives are those of that discrete flow (internal numerical
    differentiation, Bock 1981).  Backward spans are flown with the
    velocity flipped, as in :func:`flow`.
    """
    if tol <= 0:
        raise PropagationError("tolerance must be positive")
    y = np.array(y, dtype=float)
    n = len(y)
    t0 = np.broadcast_to(np.asarray(t0, dtype=float), (n,))
    t1 = np.broadcast_to(np.asarray(t1, dtype=float), (n,))
    u = np.zeros((n, 3)) if u is None else np.asarray(u, dtype=float)
    back = t1 < t0
    y[back, 3:] = -y[back, 3:]
    t = np.where(back, 0.0, t0)
    t_end = np.where(back, t0 - t1, t1)
    live = t_end - t != 0.0
    if live.any():
        y[live] = _rkf78_jets(space, y[live], t[live], t_end[live], u[live],
                              dyn, tol)
    y[back, 3:] = -y[back, 3:]
    return y


def _rkf78_jets(space, y, t, t_end, u, dyn: Dynamics, tol: float):
    """The step loop of :func:`_rkf78`, run for every row at once.

    A row's error estimate is :func:`_rkf78`'s, taken on the constant parts
    only, so it accepts, rejects and sizes its steps as the float loop does
    on its state, and the derivative coefficients ride along.  A non-finite
    coefficient anywhere, derivatives included, still ends the flight at
    once.  Rows that reject a step retry it alongside rows that take their
    next one; a row leaves the batch when it reaches its end epoch.
    Step-size factors are computed per row in Python floats, like the
    float loop.
    """
    out = np.empty_like(y)
    rows = np.arange(len(y))
    span = t_end - t
    h = span.copy()
    steps = np.zeros(len(y), dtype=np.int64)
    fresh = np.ones(len(y), dtype=bool)  # rows starting a new step
    f0 = np.empty_like(y)
    while len(rows):
        if fresh.all():
            h = np.minimum(h, t_end - t)
            f0 = _eom_jets(space, y, u, dyn)
        elif fresh.any():
            h[fresh] = np.minimum(h[fresh], t_end[fresh] - t[fresh])
            f0[fresh] = _eom_jets(space, y[fresh], u[fresh], dyn)
        f = [f0]
        for row in _A:
            acc = y
            for j, a in row:
                acc = acc + (h * a)[:, None, None] * f[j]
            f.append(_eom_jets(space, acc, u, dyn))
        ecomb = f[0] + f[10] - f[11] - f[12]
        # a NaN or inf in any coefficient, derivatives included, fails at once
        if not np.isfinite(ecomb).all():
            raise StiffnessError(f"non-finite step error at t={t.min()}")
        # the step is controlled by the state alone, as in _rkf78
        err = np.abs(ecomb[..., 0]).max(axis=1) * np.abs(_ERR_W * h)
        ok = (err <= tol) | (h <= 1e-14 * np.maximum(np.abs(t), 1.0))

        rej = ~ok
        if rej.any():
            h[rej] *= [max(0.2, 0.8 * (tol / e) ** 0.125) for e in err[rej].tolist()]
            if np.any(h[rej] < 1e-13 * np.maximum(span[rej], 1.0)):
                raise StiffnessError(f"step size underflow at t={t[rej].min()}")
        if ok.any():
            ha = h[ok]
            ynew = y[ok]
            for k, c in _C8:
                ynew = ynew + (ha * c)[:, None, None] * f[k][ok]
            y[ok] = ynew
            t[ok] += ha
            h[ok] = ha * [min(5.0, 0.8 * (tol / e) ** 0.125) if e > 0 else 1.0
                          for e in err[ok].tolist()]
            steps[ok] += 1
            if np.any(steps >= _MAX_STEPS):
                raise StiffnessError("maximum number of steps exceeded")
        fresh = ok
        done = t >= t_end
        if done.any():
            out[rows[done]] = y[done]
            keep = ~done
            rows, y, t, t_end, span, h, steps, fresh, f0, u = (
                a[keep] for a in (rows, y, t, t_end, span, h, steps, fresh, f0, u))
    return out


# ---------------------------------------------------------------------
# segment linearization


@dataclass
class SegmentMaps:
    """First-order transition maps of N discretization segments, stacked.

    ``A`` (N, 6, 6) and ``B`` (N, 6, 3) map state and control perturbations
    at each segment's start node to state perturbations at its end node;
    ``c`` (N, 6) is the linearization residual so that A x + B u + c
    reproduces the reference endpoint, :func:`flow`'s, up to the roundoff
    of the products.  ``xi`` (N, 9) holds the per-variable nonlinearity
    ratios (6 state + 3 control entries) used to size trust regions:
    measured by an order-2 flight, bounded from above by :func:`xi_bound`,
    or carried over from an earlier flight.
    """

    A: np.ndarray
    B: np.ndarray
    c: np.ndarray
    xi: np.ndarray


def linearize_segment(x: np.ndarray, u: np.ndarray, dt: np.ndarray,
                      dyn: Dynamics, tol: float = INTEG_TOL,
                      order: int = 2) -> SegmentMaps:
    """Jet propagation of (x + dx, u + du) over N segments.

    ``x`` (N, 6) start states, ``u`` (N, 3) controls and ``dt`` (N,)
    durations are flown in one batch; returns the stacked
    :class:`SegmentMaps` (``A`` (N, 6, 6), ``B`` (N, 6, 3), ``c`` (N, 6),
    ``xi`` (N, 9)), each row the same bit for bit as that row linearized
    on its own.  Every row takes the steps :func:`flow` takes, so the
    endpoint that ``c`` closes on is :func:`flow`'s bit for bit, and A and
    B are the derivatives of that discrete flow.  The jets are of
    ``order`` 2 or 1.  Order 2 measures ``xi`` from their second
    derivatives; order 1, which is all A, B and c need, takes
    :func:`xi_bound` of the maps.
    """
    x = np.asarray(x, dtype=float)
    u = np.asarray(u, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if dt.ndim != 1 or x.shape != (len(dt), 6) or u.shape != (len(dt), 3):
        raise PropagationError("need x (N, 6), u (N, 3) and dt (N,)")
    if order not in (1, 2):
        raise PropagationError("need order 1 or 2")
    if np.any(dt <= 0):
        raise PropagationError("segment duration must be positive")
    sp = jet_space(9, order)
    xu = dajet.identity(sp, np.concatenate([x, u], axis=1))
    yend = flow_jets(sp, xu[:, :6], 0.0, dt, dyn, u=xu[:, 6:], tol=tol)

    G = dajet.gradient(sp, yend)  # N x 6 x 9
    A, B = G[..., :6], G[..., 6:9]
    c = yend[..., 0] - (A @ x[..., None])[..., 0] - (B @ u[..., None])[..., 0]
    if order == 2:
        # one norm per row: a batched norm rounds differently
        xi = np.array([dajet.second_order_ratio(sp, ye) for ye in yend])
    else:
        xi = xi_bound(x, u, dt, dyn, G)
    return SegmentMaps(A=A, B=B, c=c, xi=xi)


# sup over unit directions of |a_J2|, ||grad a_J2||_F and ||D^2 a_J2||_F
# on the sphere of radius r, in units of k / r^4, k / r^5 and k / r^6 with
# k = 3/2 J2 mu r_ref^2.  By axial symmetry each square is a polynomial in
# s = z/r (5 s^4 - 2 s^2 + 1, 90 s^4 - 20 s^2 + 26 and
# 3150 s^4 - 300 s^2 + 1150), largest at the poles.
_J2_ACC, _J2_GRAD, _J2_HESS = 2.0, math.sqrt(96.0), math.sqrt(4000.0)


def xi_bound(x: np.ndarray, u: np.ndarray, dt: np.ndarray, dyn: Dynamics,
             G: np.ndarray) -> np.ndarray:
    """Upper bounds (N, 9) on the nonlinearity ratios that an order-2
    flight of the same segments would measure, from the segments' start
    states ``x`` (N, 6), controls ``u`` (N, 3), durations ``dt`` (N,) and
    first-order maps ``G`` = [A B] (N, 6, 9).

    With F(y) = (v, g(r) + u), the first variations Y = dy/d(x, u) obey
    Y' = F_y Y + [0 E] and the second ones Z obey Z' = F_y Z + D^2g[Y_r, Y_r]
    from Z(0) = 0 (u enters linearly).  On the flown arc ||F_y|| <= L =
    sqrt(1 + gamma^2) with gamma >= ||grad g|| and ||D^2g|| <= kappa, so by
    Gronwall's lemma (Hairer, Norsett & Wanner, Solving ODEs I, I.10) a
    state column has |Y_v(s)| <= e^{Ls}, a control column
    |Y_w(s)| <= (e^{Ls} - 1)/L <= s e^{Ls}, so ||Y(s)||_F <=
    sqrt(6 + 3 dt^2) e^{Ls}, and |Z_vw(dt)| <= int_0^dt e^{L(dt-s)} kappa
    |Y_v(s)| |Y_w(s)| ds.  The Frobenius norm of the second derivatives in
    one state variable v, over every output and every other variable w,
    is therefore at most

        sqrt(6 + 3 dt^2) kappa int_0^dt e^{L(dt-s)} e^{2Ls} ds
            = sqrt(6 + 3 dt^2) kappa e^{L dt} (e^{L dt} - 1) / L,

    and dt times that in one control variable.  Divided by ||[A B]||_F
    these are the returned bounds; the measured ratio of
    :func:`dajet.second_order_ratio` is at most them.

    gamma and kappa are the two-body values 2 mu / r^3 and 6 mu / r^4 plus
    the J2 terms, all taken at a lower bound r_lb on the radius along the
    arc: the straight line r0 + v0 t comes no closer than its minimum over
    [0, dt], and the flown arc strays from it by at most a_max dt^2 / 2.
    a_max bounds |g + u| for radii above rho = |r0| / 2; once r_lb > rho
    the arc can never have reached rho, so the assumption holds.
    Otherwise the bound is inf.
    """
    r0, v0 = x[:, :3], x[:, 3:]
    mu, k = dyn.mu, 1.5 * dyn.j2 * dyn.mu * dyn.r_ref ** 2
    rho = np.linalg.norm(r0, axis=1) / 2.0
    vv = np.einsum("ij,ij->i", v0, v0)
    rv = np.einsum("ij,ij->i", r0, v0)
    t_min = np.clip(-rv / np.where(vv > 0.0, vv, 1.0), 0.0, dt)
    r_line = np.linalg.norm(r0 + v0 * t_min[:, None], axis=1)
    a_max = mu / rho ** 2 + _J2_ACC * k / rho ** 4 + np.linalg.norm(u, axis=1)
    r_lb = r_line - 0.5 * a_max * dt ** 2
    ok = r_lb > rho
    r_lb = np.where(ok, r_lb, rho)
    gamma = 2.0 * mu / r_lb ** 3 + _J2_GRAD * k / r_lb ** 5
    kappa = 6.0 * mu / r_lb ** 4 + _J2_HESS * k / r_lb ** 6
    L = np.sqrt(1.0 + gamma ** 2)
    with np.errstate(divide="ignore"):
        xi = np.sqrt(6.0 + 3.0 * dt ** 2) * kappa * np.exp(L * dt) \
            * np.expm1(L * dt) / (L * np.linalg.norm(G, axis=(1, 2)))
    xi = np.where(ok, xi, np.inf)
    return np.repeat(np.column_stack([xi, dt * xi]), [6, 3], axis=1)


# ---------------------------------------------------------------------
# node grid


@dataclass
class NodeGrid:
    """Discretization epochs with conjunction/mixand anchors.

    ``conjunction_nodes`` maps (conjunction index, mixand index) to the
    node whose epoch is that pair's refined closest approach.
    """

    times: np.ndarray
    conjunction_nodes: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def n_segments(self) -> int:
        return len(self.times) - 1

    @property
    def dt(self) -> np.ndarray:
        return np.diff(self.times)


def build_grid(t0: float, tf: float, period: float, nodes_per_orbit: int,
               tca_epochs: dict[tuple[int, int], float] | None = None
               ) -> NodeGrid:
    """Uniform grid at period/nodes_per_orbit with nodes inserted at TCAs."""
    if nodes_per_orbit < 8:
        raise ScenarioError("nodes_per_orbit must be >= 8")
    if tf <= t0:
        raise ScenarioError("empty horizon")
    tca_epochs = tca_epochs or {}
    for key, tca in tca_epochs.items():
        if not (t0 <= tca <= tf):
            raise ScenarioError(f"TCA of {key} at {tca} outside horizon [{t0}, {tf}]")
    step = period / nodes_per_orbit
    n = int(math.ceil((tf - t0) / step - 1e-9))
    times = list(t0 + np.arange(n + 1) * (tf - t0) / n)
    for tca in sorted(set(tca_epochs.values())):
        k = int(np.argmin(np.abs(np.asarray(times) - tca)))
        if abs(times[k] - tca) > MERGE_TOL:
            times.append(tca)
    times = np.array(sorted(times))
    grid = NodeGrid(times=times)
    for key, tca in tca_epochs.items():
        k = int(np.argmin(np.abs(times - tca)))
        grid.conjunction_nodes[key] = k
    return grid


# ---------------------------------------------------------------------
# closest-approach refinement


def refine_tca(xp: np.ndarray, xs: np.ndarray, dyn: Dynamics,
               bracket: tuple[float, float] = (-math.inf, math.inf)) -> float:
    """Time offset from the nominal epoch to the true closest approach.

    Newton iteration on g(t) = dr . dv, whose derivative is
    g'(t) = |dv|^2 + dr . da with the accelerations taken from the
    ballistic equations of motion.  Both states are flown by each step, and
    the iteration stops once a step is no larger than ``TCA_TOL``.  It also
    stops, unflown, at the first offset outside ``bracket`` (lo, hi) and
    returns that offset, so every flight stays inside the bracket.
    """
    xp = np.asarray(xp, float)
    xs = np.asarray(xs, float)
    if np.linalg.norm(xp[3:] - xs[3:]) == 0.0:
        raise DegenerateEncounterError("zero relative velocity at nominal epoch")

    zero = np.zeros(3)
    dt_total = 0.0
    for _ in range(TCA_MAX_ITER):
        dr, dv = xp[:3] - xs[:3], xp[3:] - xs[3:]
        da = np.subtract(eom(xp, zero, dyn)[3:], eom(xs, zero, dyn)[3:])
        gdot = dv @ dv + dr @ da
        if gdot == 0.0:
            raise DegenerateEncounterError("stationary miss-distance equation")
        step = -(dr @ dv) / gdot
        dt_total += step
        if abs(step) <= TCA_TOL or not bracket[0] <= dt_total <= bracket[1]:
            return dt_total
        xp = flow(xp, 0.0, step, zero, dyn)
        xs = flow(xs, 0.0, step, zero, dyn)
    return dt_total
