"""Construction of the convex subproblem solved at each SCP iteration.

Contains the projection of a reference point onto the keep-out ellipsoid,
the tangent half-space cut, the closed-form linearization of the total
collision probability (short-term at the conjunction nodes, long-term
node-wise), and
the assembly of the full second-order-cone program: linearized dynamics
with virtual controls, lossless control relaxation, nonlinearity trust
regions and the risk rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq

from . import CamoptError
from .risk import chan_series, ipoc_peak
from .socp import ConeDims, SocpProblem


class AssemblyError(CamoptError):
    pass


# ---------------------------------------------------------------------
# keep-out zone geometry


def project_onto_ellipsoid(p: np.ndarray, P: np.ndarray, d2: float) -> np.ndarray:
    """Closest point to p on the surface z' P^{-1} z = d2.

    Solved in the frame that diagonalizes P by one-dimensional root-finding
    on the Lagrange multiplier.  Interior points are projected outward onto
    the boundary as well, so a violated reference still yields a cut.
    """
    p = np.asarray(p, float)
    evals, V = np.linalg.eigh(np.asarray(P, float))
    if np.any(evals <= 0) or d2 <= 0:
        raise AssemblyError("keep-out ellipsoid is degenerate")
    q = evals * d2  # squared semiaxes
    pc = V.T @ p

    if np.allclose(pc, 0.0):
        # center: nearest boundary point along the shortest semiaxis
        k = int(np.argmin(q))
        z = np.zeros(len(p))
        z[k] = math.sqrt(q[k])
        return V @ z

    def g(nu):
        return float(np.sum(pc ** 2 * q / (q + nu) ** 2)) - 1.0

    # g decreases from +inf (at the pole -min active q) to -1; bracket it
    active = np.abs(pc) > 1e-14 * np.linalg.norm(pc)
    q_min = np.min(q[active])
    lo, t = -q_min, 1e-8
    while t > 1e-17:
        lo = -q_min * (1.0 - t)
        if g(lo) > 0.0:
            break
        t *= 1e-2
    else:
        raise AssemblyError("projection root-finding failed to bracket the pole")
    hi = max(1.0, float(np.max(q)))
    while g(hi) > 0.0:
        hi *= 4.0
        if hi > 1e300:
            raise AssemblyError("projection root-finding failed to bracket")
    nu = brentq(g, lo, hi, xtol=1e-15, rtol=1e-14)
    zc = pc * q / (q + nu)
    return V @ zc


def cut_normal(z: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Outward normal 2 P^{-1} z of the keep-out surface z' P^{-1} z = d2 at
    the boundary point z; the tangent cut keeps normal . (r - z) >= 0."""
    return 2.0 * np.linalg.solve(P, z)


# ---------------------------------------------------------------------
# linearized total-risk constraints


@dataclass
class ShortTermItem:
    """One conjunction (or mixand) entering the total PoC at its TCA node."""

    node: int
    dr_ref: np.ndarray  # relative position at TCA, 3-vector
    basis: np.ndarray  # 2x3 B-plane projector
    P2: np.ndarray  # projected covariance
    hbr: float
    weight: float = 1.0


@dataclass
class LongTermItem:
    """One secondary (or mixand) entering the total IPoC at one node."""

    dr_ref: np.ndarray
    P3: np.ndarray
    hbr: float
    weight: float = 1.0


@dataclass
class RiskLinearization:
    """First-order model of the total probability over stacked node
    positions, with per-variable trust-region factors xi."""

    nodes: list
    grads: np.ndarray  # (n_items_nodes, 3)
    value: float  # total probability at the reference
    xi: np.ndarray  # (n_items_nodes, 3)


def _factor(weight: float, p, grad_v: np.ndarray, hess_v: np.ndarray):
    """Value, gradient and Hessian of the survival factor 1 - w p(v(x)),
    from p and its first two derivatives in v and v's own derivatives."""
    p0, dp, d2p = p
    return (1.0 - weight * p0, -weight * dp * grad_v,
            -weight * (d2p * np.outer(grad_v, grad_v) + dp * hess_v))


def _expand_total(factors, nodes: list) -> RiskLinearization:
    """Second-order expansion of the total 1 - prod_k f_k, where factor k
    depends only on the 3 variables of item k.

    The gradient block of item k is -(prod_{j != k} f_j) grad f_k; the
    Hessian's diagonal blocks are -(prod_{j != k} f_j) hess f_k and its
    off-diagonal blocks -(prod_{j != k, l} f_j) grad f_k grad f_l^T.
    """
    f = [fk for fk, _, _ in factors]
    n = len(f)
    grads = np.zeros((n, 3))
    H = np.zeros((n, 3, n, 3))
    for k, (_, gk, hk) in enumerate(factors):
        rest = math.prod(f[:k] + f[k + 1:])
        grads[k] = -rest * gk
        H[k, :, k] = -rest * hk
        for l in range(k + 1, n):
            rest = math.prod(f[:k] + f[k + 1:l] + f[l + 1:])
            H[k, :, l] = -rest * np.outer(gk, factors[l][1])
            H[l, :, k] = H[k, :, l].T
    gnorm = np.linalg.norm(grads)
    H = H.reshape(3 * n, 3 * n)
    xi = np.sqrt((H ** 2).sum(axis=0)) / gnorm if gnorm > 0 else np.zeros(3 * n)
    return RiskLinearization(nodes=nodes, grads=grads,
                             value=1.0 - math.prod(f), xi=xi.reshape(n, 3))


def linearize_tpoc(items: list[ShortTermItem]) -> RiskLinearization:
    """Second-order expansion of the product-form total PoC w.r.t. the
    primary position at each conjunction node."""
    if not items:
        raise AssemblyError("no conjunctions to linearize")
    factors = []
    for it in items:
        det = np.linalg.det(it.P2)
        if det <= 0:
            raise AssemblyError("projected covariance is singular")
        Q = np.linalg.inv(np.asarray(it.P2, float))
        y = it.basis @ it.dr_ref
        v = (Q[0, 0] * y[0] * y[0] + Q[1, 1] * y[1] * y[1]
             + 2.0 * Q[0, 1] * y[0] * y[1])
        u = it.hbr ** 2 / math.sqrt(det)
        BQ = 2.0 * it.basis.T @ Q
        factors.append(_factor(it.weight, chan_series(u, v), BQ @ y,
                               BQ @ it.basis))
    return _expand_total(factors, [it.node for it in items])


def linearize_tipoc(items: list[LongTermItem]) -> RiskLinearization:
    """Same expansion for the node-wise total instantaneous PoC."""
    if not items:
        raise AssemblyError("no secondaries to linearize")
    factors = []
    for it in items:
        peak = ipoc_peak(it.P3, it.hbr)
        Q = np.linalg.inv(np.asarray(it.P3, float))
        y = np.asarray(it.dr_ref, float)
        p = peak * math.exp(-0.5 * float(y @ Q @ y))
        factors.append(_factor(it.weight, (p, -0.5 * p, 0.25 * p),
                               2.0 * Q @ y, 2.0 * Q))
    return _expand_total(factors, list(range(len(items))))


# ---------------------------------------------------------------------
# problem assembly


@dataclass
class ConicProblem:
    """Named-slice view over a standard-form cone program.

    ``var_map`` gives the slice of every named variable group; lowering to
    the solver's standard form is direct since the data is already stored
    that way.
    """

    objective: np.ndarray
    eq_matrix: sp.spmatrix
    eq_rhs: np.ndarray
    ineq_matrix: sp.spmatrix  # G of G x + s = h
    ineq_rhs: np.ndarray
    dims: ConeDims
    var_map: dict = field(default_factory=dict)

    def to_socp(self) -> SocpProblem:
        return SocpProblem(c=self.objective, A=sp.csc_matrix(self.eq_matrix),
                           b=self.eq_rhs, G=sp.csc_matrix(self.ineq_matrix),
                           h=self.ineq_rhs, dims=self.dims)


@dataclass
class RiskRows:
    """Linear risk constraints expressed on absolute node positions.

    ``halfspaces``: list of (node, a, rhs) meaning a . r_node >= rhs.
    ``totals``: list of (nodes, grads, rhs, ref, xi, nu_bar) meaning
    sum_k grads[k] . r_{nodes[k]} <= rhs with an optional risk trust region
    |r - ref| <= nu_bar / xi per component.
    """

    halfspaces: list = field(default_factory=list)
    totals: list = field(default_factory=list)


def assemble(segments, grid, x_ref: np.ndarray, x_init: np.ndarray,
             risk: RiskRows, kappa_vc: float = 1e4, nu_bar: float = 1e-2,
             u_scale: float = 1.0, u_prev: np.ndarray | None = None,
             prox: float = 0.0) -> ConicProblem:
    """Build the conic subproblem over one major iteration's linearization.

    Variables per segment i: state x_i (6), control u_i (3, fraction of the
    maximum acceleration), control slack sig_i, virtual control vc_i (6) and
    its slack vnorm_i; plus the terminal state x_N.  With ``prox`` > 0 a
    small penalty on the control change from ``u_prev`` removes the profile
    degeneracy of the fuel objective.
    """
    N = grid.n_segments
    if len(segments) != N:
        raise AssemblyError("one segment map needed per grid interval")
    dts = grid.dt

    with_prox = u_prev is not None and prox > 0.0
    nx, nu = 6 * (N + 1), 3 * N
    off_x, off_u = 0, nx
    off_sig = off_u + nu
    off_vc = off_sig + N
    off_vn = off_vc + 6 * N
    off_pn = off_vn + N
    n_var = off_pn + (N if with_prox else 0)

    var_map = {
        "x": slice(off_x, off_x + nx),
        "u": slice(off_u, off_u + nu),
        "sigma": slice(off_sig, off_sig + N),
        "vc": slice(off_vc, off_vc + 6 * N),
        "vnorm": slice(off_vn, off_vn + N),
    }

    c = np.zeros(n_var)
    c[off_sig:off_sig + N] = dts * u_scale
    c[off_vn:off_vn + N] = kappa_vc
    if with_prox:
        c[off_pn:off_pn + N] = prox * dts * u_scale

    # equalities: initial state, then x_{i+1} = A x_i + B u_i + c_i + vc_i
    rows, cols, vals, rhs = [], [], [], []

    def add(r, cidx, v):
        rows.append(r)
        cols.append(cidx)
        vals.append(v)

    r = 0
    for j in range(6):
        add(r, off_x + j, 1.0)
        rhs.append(x_init[j])
        r += 1
    for i, seg in enumerate(segments):
        for j in range(6):
            add(r, off_x + 6 * (i + 1) + j, 1.0)
            for k in range(6):
                if seg.A[j, k] != 0.0:
                    add(r, off_x + 6 * i + k, -seg.A[j, k])
            for k in range(3):
                if seg.B[j, k] != 0.0:
                    add(r, off_u + 3 * i + k, -seg.B[j, k] * u_scale)
            add(r, off_vc + 6 * i + j, -1.0)
            rhs.append(seg.c[j])
            r += 1
    A = sp.csc_matrix((vals, (rows, cols)), shape=(r, n_var))
    b = np.array(rhs)

    # inequality rows, nonnegative orthant first
    g_rows, g_cols, g_vals, h = [], [], [], []
    gr = 0

    def gadd(cidx, v):
        g_rows.append(gr)
        g_cols.append(cidx)
        g_vals.append(v)

    # control magnitude bound sig_i <= 1
    for i in range(N):
        gadd(off_sig + i, 1.0)
        h.append(1.0)
        gr += 1
    # nonlinearity trust region on the states feeding each segment
    for i, seg in enumerate(segments):
        for k in range(6):
            xi = seg.xi[k]
            if xi <= 1e-14:
                continue
            bound = nu_bar / xi
            ref = x_ref[i, k]
            gadd(off_x + 6 * i + k, 1.0)
            h.append(ref + bound)
            gr += 1
            gadd(off_x + 6 * i + k, -1.0)
            h.append(bound - ref)
            gr += 1
    # keep-out half-spaces: a . r_node >= rhs
    for node, a, ar in risk.halfspaces:
        for k in range(3):
            if a[k] != 0.0:
                gadd(off_x + 6 * node + k, -a[k])
        h.append(-ar)
        gr += 1
    # linearized total-probability rows with their trust regions
    for nodes, grads, bound, ref, xi, nu_risk in risk.totals:
        for nd, gvec in zip(nodes, grads):
            for k in range(3):
                if gvec[k] != 0.0:
                    gadd(off_x + 6 * nd + k, gvec[k])
        h.append(bound)
        gr += 1
        if xi is not None:
            for nd, rvec, xvec in zip(nodes, ref, xi):
                for k in range(3):
                    if xvec[k] <= 1e-14:
                        continue
                    w = nu_risk / xvec[k]
                    gadd(off_x + 6 * nd + k, 1.0)
                    h.append(rvec[k] + w)
                    gr += 1
                    gadd(off_x + 6 * nd + k, -1.0)
                    h.append(w - rvec[k])
                    gr += 1
    n_nonneg = gr

    # second-order cones: ||u_i|| <= sig_i, ||vc_i|| <= vnorm_i
    socs = []
    for i in range(N):
        gadd(off_sig + i, -1.0)
        h.append(0.0)
        gr += 1
        for k in range(3):
            gadd(off_u + 3 * i + k, -1.0)
            h.append(0.0)
            gr += 1
        socs.append(4)
    for i in range(N):
        gadd(off_vn + i, -1.0)
        h.append(0.0)
        gr += 1
        for k in range(6):
            gadd(off_vc + 6 * i + k, -1.0)
            h.append(0.0)
            gr += 1
        socs.append(7)
    if with_prox:
        # ||u_i - u_prev_i|| <= pn_i
        for i in range(N):
            gadd(off_pn + i, -1.0)
            h.append(0.0)
            gr += 1
            for k in range(3):
                gadd(off_u + 3 * i + k, -1.0)
                h.append(-u_prev[i, k])
                gr += 1
            socs.append(4)

    G = sp.csc_matrix((g_vals, (g_rows, g_cols)), shape=(gr, n_var))
    return ConicProblem(objective=c, eq_matrix=A, eq_rhs=b, ineq_matrix=G,
                        ineq_rhs=np.array(h),
                        dims=ConeDims(nonneg=n_nonneg, soc=tuple(socs)),
                        var_map=var_map)
