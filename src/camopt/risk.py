"""Collision risk metrics: B-plane projection, the short-term probability
of collision via Chan's series and its numerical inversion, the
instantaneous probability for long-term encounters and its inversion, and
the equivalent B-plane used to plot keep-out ellipses.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special
from scipy.optimize import brentq

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


def bplane_project(dr: np.ndarray, P: np.ndarray, vp: np.ndarray,
                   vs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Project a relative position and 3x3 covariance onto the B-plane."""
    M = bplane_basis(vp, vs)
    return M @ np.asarray(dr, float), M @ np.asarray(P, float) @ M.T


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


def chan_series(u: float, v: float, order: int = 2) -> list[float]:
    """Chan's series for the 2D collision probability and its first
    ``order`` derivatives in v.

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
    inner factors, times 2^-k.
    """
    if u < 0 or v < 0:
        raise RiskError("need non-negative u and v")
    if u == 0.0:
        return [0.0] * (order + 1)
    half_u, half_v = 0.5 * u, 0.5 * v
    if half_v == 0.0:
        m = np.zeros(1, dtype=np.int64)
        log_pois = np.zeros(1)
    else:
        # the Poisson weights in v carry all their mass within a few
        # standard deviations of the mode, so the sum runs over that window
        # only; the inner factors are bounded by one, which bounds the
        # neglected tails
        spread = 12.0 * math.sqrt(half_v) + 30.0
        n_lo = max(0, int(half_v - spread))
        m = np.arange(n_lo, int(half_v + spread) + 1)
        log_pois = -half_v + m * math.log(half_v) - special.gammaln(m + 1.0)
    inner = special.gammainc(np.arange(m[0], m[-1] + order + 1) + 1.0, half_u)
    out = []
    with np.errstate(under="ignore"):
        pois = np.exp(log_pois)
        for k in range(order + 1):
            if k:
                inner = np.diff(inner)
            out.append(float(np.sum(pois * inner[:len(m)])) / 2.0 ** k)
    out[0] = min(max(out[0], 0.0), 1.0)
    return out


def chan_poc(u: float, v: float) -> float:
    """Value of Chan's series (see :func:`chan_series`)."""
    return chan_series(u, v, order=0)[0]


def invert_chan(p_target: float, u: float, v_max: float = 1e6) -> float:
    """Squared Mahalanobis distance at which Chan's series equals p_target."""
    if not (0.0 < p_target < 1.0):
        raise RiskError("target probability must be in (0, 1)")
    p0 = chan_poc(u, 0.0)
    if p_target >= p0:
        # even a head-on encounter stays below the limit
        return 0.0
    f = lambda v: chan_poc(u, v) - p_target
    v_hi = 1.0
    while f(v_hi) > 0.0:
        v_hi *= 4.0
        if v_hi > v_max:
            raise RiskError("could not bracket the miss-distance limit")
    return float(brentq(f, 0.0, v_hi, xtol=1e-14, rtol=1e-13))


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


def invert_ipoc(p_target: float, P3: np.ndarray, hbr: float) -> float:
    """Squared Mahalanobis distance at which the instantaneous PoC equals
    the target; zero if the target is unreachable even at zero miss."""
    if not (0.0 < p_target < 1.0):
        raise RiskError("target probability must be in (0, 1)")
    peak = ipoc_peak(P3, hbr)
    if p_target >= peak:
        return 0.0
    return -2.0 * math.log(p_target / peak)


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
