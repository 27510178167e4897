"""Collision risk metrics: the B-plane basis, the short-term probability
of collision via Chan's series and its numerical inversion, the
instantaneous probability for long-term encounters and its inversion, and
the equivalent B-plane used to plot keep-out ellipses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import CamoptError


class RiskError(CamoptError):
    pass


# ---------------------------------------------------------------------
# B-plane


def bplane_basis(vp: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Rows are the xi, zeta axes of the encounter plane.

    eta is along the relative velocity of the primary w.r.t. the secondary;
    xi follows the cross product of the two velocities; when the velocities
    are parallel any direction orthogonal to eta is taken.
    """
    dv = np.asarray(vp, float) - np.asarray(vs, float)
    ndv = np.linalg.norm(dv)
    if ndv == 0.0:
        raise RiskError("zero relative velocity, B-plane undefined")
    eta = dv / ndv
    xi = np.cross(vs, vp)
    nxi = np.linalg.norm(xi)
    if nxi <= 1e-12 * np.linalg.norm(vp) * np.linalg.norm(vs):
        # parallel velocities: pick any axis orthogonal to eta
        seed = np.eye(3)[int(np.argmin(np.abs(eta)))]
        xi = np.cross(eta, seed)
        nxi = np.linalg.norm(xi)
    xi = xi / nxi
    zeta = np.cross(eta, xi)
    return np.vstack([xi, zeta])


# ---------------------------------------------------------------------
# Chan's probability of collision


def chan_uv(dr2: np.ndarray, P2: np.ndarray, hbr: float) -> tuple[float, float]:
    """Reduce a planar encounter to Chan's two scalars.

    u compares the hard-body area with the covariance ellipse area, v is
    the squared Mahalanobis distance of the miss vector. In whitened
    coordinates the miss is P2^-1/2 dr2 with unit covariance, and the
    hard-body disk becomes an ellipse of area pi hbr^2 / sqrt(det P2);
    u is the squared radius of the disk of equal area and v the squared
    whitened miss. The ellipse and the disk coincide only for isotropic
    P2; otherwise the reduction is an approximation.
    """
    P2 = np.asarray(P2, float)
    det = np.linalg.det(P2)
    if det <= 0.0:
        raise RiskError("projected covariance is singular")
    u = hbr * hbr / math.sqrt(det)
    dr2 = np.asarray(dr2, float)
    v = float(dr2 @ np.linalg.solve(P2, dr2))
    return u, v


def _log(x: np.ndarray) -> np.ndarray:
    """Elementwise ``math.log``.  numpy's vectorized log can differ from the
    C library's in the last bit, and the risk values keep the C library's
    rounding, which they had as scalar formulas."""
    return np.fromiter(map(math.log, x), float, count=len(x))


def chan_series(u: float, v, order: int = 2) -> list:
    """Chan's series for the 2D collision probability and its first
    ``order`` derivatives in v, for a scalar v (a list of floats) or an
    array of v (a list of arrays of its shape).

    The sum is the exact probability that a unit Gaussian centred at
    squared distance v from the origin falls in the disk of squared radius
    u (the noncentral chi-square CDF with two degrees of freedom). Fed by
    chan_uv, that is the true collision probability for an isotropic
    covariance and an approximation for an anisotropic one.

    The inner truncated exponential sums are regularized incomplete gamma
    functions, which keeps every term accurate without cancellation; the
    Poisson weights in v are evaluated in log space so extreme miss
    distances underflow gracefully instead of corrupting the sum. A Poisson
    weight differentiates to half the difference of its neighbours, so the
    k-th derivative is the same sum over the k-th forward differences of the
    inner factors, times 2^-k.  Every element of an array is summed over
    its own window, exactly as a scalar call would sum it.
    """
    v_arr = np.asarray(v, float)
    if u < 0 or not np.all(v_arr >= 0.0):
        raise RiskError("need non-negative u and v")
    half_v = 0.5 * v_arr.ravel()
    if u == 0.0:
        out = [np.zeros(half_v.shape)] * (order + 1)
    else:
        out = _chan_sums(0.5 * u, half_v, order)
        out[0] = np.minimum(np.maximum(out[0], 0.0), 1.0)
    if v_arr.ndim == 0:
        return [float(o[0]) for o in out]
    return [o.reshape(v_arr.shape) for o in out]


def _chan_sums(half_u: float, half_v: np.ndarray, order: int) -> list:
    """The windowed sums of :func:`chan_series`, one per element of half_v,
    each before its clip to [0, 1]."""
    # The term m is Poisson(m; v/2) times the probability that Poisson(u/2)
    # exceeds m.  Their product peaks near m = sqrt(uv)/2 when v > u and at
    # the Poisson mode v/2 otherwise, and carries all its mass within a few
    # Poisson standard deviations of that peak; the inner factors are
    # bounded by one, which bounds the neglected tails.  For v below about
    # 404 the window starts at m = 0 either way.
    spread = 12.0 * np.sqrt(half_v) + 30.0
    peak = np.minimum(half_v, np.sqrt(half_u * half_v))
    lo = np.maximum(0, (peak - spread).astype(np.int64))
    # a head-on element holds the single term m = 0 with unit weight
    hi = np.where(half_v > 0.0, (half_v + spread).astype(np.int64), 0)
    log_hv = _log(np.where(half_v > 0.0, half_v, 1.0))
    # all windows end to end, each behind one zero slot: np.sum adds a
    # window pairwise onto a zero start, reduceat onto the first slot of a
    # segment, so the zero makes every sum equal np.sum over its window
    count = hi - lo + 2
    first = np.cumsum(count) - count
    m = np.arange(int(count.sum())) + np.repeat(lo - 1 - first, count)
    m_lo = int(lo.min())
    j = m - m_lo  # -1 only in zero slots, whose terms are overwritten
    log_pois = np.repeat(-half_v, count) + m * np.repeat(log_hv, count) \
        - special.gammaln(np.arange(m_lo, int(hi.max()) + 1) + 1.0)[j]
    inner = special.gammainc(
        np.arange(m_lo, int(hi.max()) + order + 1) + 1.0, half_u)
    out = []
    with np.errstate(under="ignore"):
        pois = np.exp(log_pois)
        for k in range(order + 1):
            if k:
                inner = inner[1:] - inner[:-1]
            terms = pois * inner[j]
            terms[first] = 0.0
            out.append(np.add.reduceat(terms, first) / 2.0 ** k)
    return out


def chan_poc(u: float, v):
    """Value of Chan's series (see :func:`chan_series`)."""
    return chan_series(u, v, order=0)[0]


def invert_chan(p_target, u: float, v_max: float = 1e6):
    """Squared Mahalanobis distance at which Chan's series equals p_target,
    for a scalar target (a float) or an array of targets.

    A safeguarded Newton iteration on log P(v) solves all targets at once.
    The m = 0 term of the series alone gives P(v) >= P(0) e^{-v/2}, so
    v = 2 log(P(0)/p) starts every target at or below its root; for small u
    that term dominates and the start is nearly exact.  Each evaluation
    narrows a bracket [lo, hi] around the root.  Until a point beyond the
    root is found, a step that fails is replaced by quadrupling v; after
    that, by bisection of the bracket.  Each target stops on its own once
    its step is below 1e-14 + 1e-13 v, so it ends with the same bits alone
    or in an array.
    """
    p = np.asarray(p_target, float)
    if not np.all((0.0 < p) & (p < 1.0)):
        raise RiskError("target probability must be in (0, 1)")
    target = p.ravel()
    v_out = np.zeros(target.shape)
    p0 = chan_poc(u, 0.0)
    # targets at or above the head-on probability need no miss at all
    idx = np.flatnonzero(target < p0)
    t = target[idx]
    x = 2.0 * np.log(p0 / t)
    lo, hi = np.zeros(len(t)), np.full(len(t), np.inf)
    for _ in range(200):
        if not len(idx):
            break
        P, dP = chan_series(u, x, order=1)
        above = P > t
        lo = np.where(above, x, lo)
        hi = np.where(above, hi, x)
        if np.any(lo > v_max):
            raise RiskError("could not bracket the miss-distance limit")
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            x_new = x - (np.log(P) - np.log(t)) * P / dP
        ok = np.isfinite(x_new) & (lo <= x_new) & (x_new <= hi)
        fallback = np.where(np.isinf(hi), 4.0 * np.maximum(x, 0.25),
                            0.5 * (lo + hi))
        x_new = np.where(ok, x_new, fallback)
        done = np.abs(x_new - x) <= 1e-14 + 1e-13 * x_new
        v_out[idx[done]] = x_new[done]
        keep = ~done
        idx, t, x = idx[keep], t[keep], x_new[keep]
        lo, hi = lo[keep], hi[keep]
    if len(idx):
        raise RiskError("Chan inversion did not converge")
    return float(v_out[0]) if p.ndim == 0 else v_out.reshape(p.shape)


# ---------------------------------------------------------------------
# instantaneous probability for long-term encounters


def ipoc_peak(P3: np.ndarray, hbr: float) -> float:
    """Instantaneous PoC at zero miss: the relative position density at its
    mean times the volume of the hard-body sphere."""
    det = np.linalg.det(np.asarray(P3, float))
    if det <= 0.0:
        raise RiskError("relative position covariance is singular")
    return math.sqrt(2.0 / (math.pi * det)) * hbr ** 3 / 3.0


def ipoc(dr3: np.ndarray, P3: np.ndarray, hbr: float) -> float:
    """Constant-density estimate of the instantaneous collision probability."""
    val = ipoc_peak(P3, hbr) * math.exp(-0.5 * smd_3d(dr3, P3))
    return min(max(val, 0.0), 1.0)


def smd_3d(dr3: np.ndarray, P3: np.ndarray) -> float:
    dr3 = np.asarray(dr3, float)
    return float(dr3 @ np.linalg.solve(np.asarray(P3, float), dr3))


def invert_ipoc(p_target, P3: np.ndarray, hbr: float):
    """Squared Mahalanobis distance at which the instantaneous PoC equals
    the target; zero if the target is unreachable even at zero miss.  For a
    scalar target (a float) or an array of targets."""
    p = np.asarray(p_target, float)
    if not np.all((0.0 < p) & (p < 1.0)):
        raise RiskError("target probability must be in (0, 1)")
    ratio = np.minimum(p.ravel() / ipoc_peak(P3, hbr), 1.0)
    d2 = np.where(ratio < 1.0, -2.0 * _log(ratio), 0.0)
    return float(d2[0]) if p.ndim == 0 else d2.reshape(p.shape)


# ---------------------------------------------------------------------
# equivalent B-plane


def equivalent_bplane(points: np.ndarray, P2: np.ndarray,
                      d2_limit: float) -> tuple[np.ndarray, float]:
    """Normalize B-plane points so the keep-out ellipse becomes a unit circle.

    Rotates by the eigenvectors of the covariance and stretches by the
    semiaxes of the ellipse at the given miss-distance limit.  Returns the
    transformed points and the circle radius (1 by construction).
    """
    evals, V = np.linalg.eigh(np.asarray(P2, float))
    if np.any(evals <= 0.0) or d2_limit <= 0.0:
        raise RiskError("degenerate keep-out ellipse")
    semiaxes = np.sqrt(evals * d2_limit)
    pts = np.atleast_2d(np.asarray(points, float))
    out = (pts @ V) / semiaxes
    return out, 1.0
