"""Construction of the convex subproblem solved at each SCP iteration.

Contains the projection of a reference point onto the keep-out ellipsoid,
the tangent half-space cut, the closed-form linearization of the total
collision probability (short-term at the conjunction nodes, long-term
node-wise), and
the assembly of the full second-order-cone program: linearized dynamics,
lossless control relaxation, nonlinearity trust regions and the risk rows.
The states move only as far as the controls can push them, so the state
and risk trust rows wider than that reach are left out, and a subproblem
whose constraints the linearization cannot reach is infeasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import CamoptError
from .risk import chan_series, ipoc_peak
from .socp import ConeDims, SocpProblem


# ---------------------------------------------------------------------
# keep-out zone geometry


def project_onto_ellipsoid(p: np.ndarray, P: np.ndarray, d2: float) -> np.ndarray:
    """Closest point to p on the surface z' P^{-1} z = d2.

    In the frame that diagonalizes P, with squared semiaxes q and
    components pc of p, the point is pc q / (q + nu): the multiplier nu is
    the root, right of the last pole, of the secular equation
    S(nu) = sum pc^2 q / (q + nu)^2 = 1.  Newton on h = 1/sqrt(S) - 1,
    concave and increasing there (More & Sorensen 1983), rises
    monotonically to it from any start on its left: nu = 0 for a reference
    on or outside the surface, where S(0) = p' P^{-1} p / d2 >= 1, and for
    one inside, the largest single-term root |pc_i| sqrt(q_i) - q_i over
    the components that are not negligible.  Interior points are projected
    outward onto the boundary as well, so a violated reference still yields
    a cut; one lying on the principal plane of the shortest axis (the hard
    case) gets a stationary point of the distance, not the closest one.
    """
    p = np.asarray(p, float)
    evals, V = np.linalg.eigh(np.asarray(P, float))
    if np.any(evals <= 0) or d2 <= 0:
        raise CamoptError("keep-out ellipsoid is degenerate")
    q = evals * d2  # squared semiaxes
    pc = V.T @ p

    if np.all(np.abs(pc) <= 1e-12 * np.sqrt(q)):
        # center, to roundoff of the semiaxes: nearest boundary point along
        # the shortest semiaxis
        k = int(np.argmin(q))
        z = np.zeros(len(p))
        z[k] = math.sqrt(q[k])
        return V @ z

    w = pc ** 2 * q
    nu = 0.0
    if np.sum(w / q ** 2) < 1.0:  # S(0) < 1: the reference is inside
        active = np.abs(pc) > 1e-14 * np.linalg.norm(pc)
        nu = float(np.max((np.abs(pc) * np.sqrt(q) - q)[active]))
    for _ in range(100):
        r = 1.0 / (q + nu)
        S = float(np.sum(w * r ** 2))
        if S <= 1.0:
            break
        step = (S ** 1.5 - S) / float(np.sum(w * r ** 3))
        nu += step
        if step <= 1e-15 + 4e-16 * abs(nu):
            break
    else:
        raise CamoptError("projection multiplier failed to converge")
    return V @ (pc * q / (q + nu))


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
        raise CamoptError("no conjunctions to linearize")
    factors = []
    for it in items:
        det = np.linalg.det(it.P2)
        if det <= 0:
            raise CamoptError("projected covariance is singular")
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
        raise CamoptError("no secondaries to linearize")
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
    |r - ref| <= nu_bar / xi per component.  ``a`` is a 3-array; ``grads``,
    ``ref`` and ``xi`` are (len(nodes), 3) arrays.
    """

    halfspaces: list = field(default_factory=list)
    totals: list = field(default_factory=list)


def state_reach(segments, x_init: np.ndarray, x_ref: np.ndarray,
                u_scale: float) -> np.ndarray:
    """Upper bound, per node 0..N and state component k, on
    |x_i,k - x_ref_i,k| over every state sequence of the linear model
    x_{j+1} = A_j x_j + u_scale B_j u_j + c_j from x_0 = x_init with
    ||u_j|| <= 1.

    The bound is |x~_i,k - x_ref_i,k| + u_scale sum_{j<i} ||row k of
    Phi(i, j+1) B_j||, with x~ the free response and Phi(i, j+1) =
    A_{i-1}...A_{j+1}; the maximizing controls run along those rows, so it
    is attained.  The products Phi(i, j+1) B_j are carried forward, block j
    of ``S`` holding segment j's, without inverting any cumulative map.
    """
    N = len(segments.A)
    reach = np.empty((N + 1, 6))
    x = np.asarray(x_init, float)
    reach[0] = np.abs(x - x_ref[0])
    S = np.empty((6, 3 * N))
    for i in range(N):
        A = segments.A[i]
        x = A @ x + segments.c[i]
        S[:, :3 * i] = A @ S[:, :3 * i]
        S[:, 3 * i:3 * i + 3] = segments.B[i]
        norms = np.sqrt((S[:, :3 * i + 3] ** 2).reshape(6, i + 1, 3).sum(2))
        reach[i + 1] = np.abs(x - x_ref[i + 1]) + u_scale * norms.sum(1)
    return reach


def assemble(segments, grid, x_ref: np.ndarray, x_init: np.ndarray,
             risk: RiskRows, nu_bar: float = 1e-2, u_scale: float = 1.0,
             u_prev: np.ndarray | None = None, prox: float = 0.0,
             reach: np.ndarray | None = None) -> ConicProblem:
    """Build the conic subproblem over one major iteration's linearization.

    Variables per segment i: state x_i (6), control u_i (3, fraction of the
    maximum acceleration) and control slack sig_i; plus the terminal state
    x_N, and after them the running sums of the totals over several nodes.
    A state trust-region row pair is emitted only where its half-width
    ``nu_bar`` / xi does not exceed the node's :func:`state_reach` (passed
    as ``reach``, or computed here): a wider row cannot bind, so the
    feasible set is the same.  At node 0 the reach is |x_init - x_ref_0|,
    zero when the reference starts at x_init, and its rows all go.  So is
    a risk total's position trust row pair about ``ref``, where its
    half-width ``nu_risk`` / xi exceeds that reach plus |ref - x_ref|.
    With ``prox`` > 0 a small penalty on the control change from ``u_prev``
    removes the profile degeneracy of the fuel objective.
    """
    N = grid.n_segments
    if len(segments.A) != N:
        raise CamoptError("one segment map needed per grid interval")
    dts = grid.dt

    with_prox = u_prev is not None and prox > 0.0
    nx, nu = 6 * (N + 1), 3 * N
    off_x, off_u = 0, nx
    off_sig = off_u + nu
    off_pn = off_sig + N
    off_w = off_pn + (N if with_prox else 0)
    # running sums w_lo..w_{hi-1} of every total over nodes lo < hi
    n_w = sum(max(nodes) - min(nodes) for nodes, *_ in risk.totals)
    n_var = off_w + n_w

    var_map = {
        "x": slice(off_x, off_x + nx),
        "u": slice(off_u, off_u + nu),
        "sigma": slice(off_sig, off_sig + N),
    }

    c = np.zeros(n_var)
    c[off_sig:off_sig + N] = dts * u_scale
    if with_prox:
        c[off_pn:off_pn + N] = prox * dts * u_scale

    # column of every variable, one row per node or segment
    col_x = off_x + np.arange(nx).reshape(N + 1, 6)
    col_u = off_u + np.arange(nu).reshape(N, 3)
    col_sig = off_sig + np.arange(N)

    # equalities: initial state, then x_{i+1} = A x_i + B u_i + c_i; entry
    # (i, j, :) of the (N, 6, 10) stack is row j of segment i over
    # [x_{i+1,j}, x_i, u_i], zero map entries left out
    vals = np.concatenate([np.ones((N, 6, 1)), -segments.A, -segments.B],
                          axis=2)
    keep = vals != 0.0
    vals[..., 7:10] *= u_scale
    cols = np.concatenate([col_x[1:, :, None],
                           np.broadcast_to(col_x[:-1, None], (N, 6, 6)),
                           np.broadcast_to(col_u[:, None], (N, 6, 3))],
                          axis=2)
    rows = np.broadcast_to(6 + np.arange(6 * N).reshape(N, 6, 1), vals.shape)
    a_rows, a_cols = [np.arange(6), rows[keep]], [col_x[0], cols[keep]]
    a_vals = [np.ones(6), vals[keep]]
    b = np.concatenate([x_init, segments.c.ravel(), np.zeros(n_w)])

    # inequality rows, nonnegative orthant first
    g_rows, g_cols, g_vals, h = [], [], [], []
    gr = 0

    def put(rows, cols, vals, rhs):
        """Entries at rows gr + ``rows``, then len(rhs) rows appended."""
        nonlocal gr
        g_rows.append(gr + rows)
        g_cols.append(cols)
        g_vals.append(np.broadcast_to(vals, len(cols)))
        h.append(rhs)
        gr += len(rhs)

    def single(cols, vals, rhs):
        """Rows of one entry each."""
        put(np.arange(len(cols)), cols, vals, rhs)

    def trust(cols, ref, xi, nu, reach):
        """Row pairs +-(x - ref) <= nu / xi for every variable with a
        nonzero nonlinearity ratio whose half-width nu / xi does not exceed
        ``reach``."""
        on = xi > 1e-14
        w = nu / np.where(on, xi, 1.0)
        on &= w <= reach
        w, ref = w[on], ref[on]
        single(np.repeat(cols[on], 2), np.tile([1.0, -1.0], len(w)),
               np.column_stack([ref + w, w - ref]).ravel())

    # control magnitude bound sig_i <= 1
    single(col_sig, 1.0, np.ones(N))
    # nonlinearity trust region on the states feeding each segment, only
    # the rows the controls can reach
    if reach is None:
        reach = state_reach(segments, x_init, x_ref, u_scale)
    reach = np.broadcast_to(reach, (N + 1, 6))
    trust(col_x[:-1], x_ref[:N], segments.xi[:, :6], nu_bar, reach[:N])
    # keep-out half-spaces: a . r_node >= rhs
    for node, a, ar in risk.halfspaces:
        on = a != 0.0
        put(np.zeros(on.sum(), int), col_x[node, :3][on], -a[on], [-ar])
    # linearized total-probability rows with their trust regions.  A total
    # over nodes lo..hi runs along them as a running sum (Rao, Wright &
    # Rawlings, JOTA 99(3), 1998), so every row is local to a node and the
    # KKT system banded: w_j = w_{j-1} + (its terms at node j) for j < hi,
    # w_{lo-1} = 0, then w_{hi-1} + (its terms at hi) <= bound.  w_j's
    # equality row is its column shifted by eq_shift
    eq_shift = 6 * (N + 1) - off_w
    for nodes, grads, bound, ref, xi, nu_risk in risk.totals:
        cols = col_x[nodes, :3]
        lo, hi = min(nodes), max(nodes)
        w = off_w + np.arange(hi - lo)  # none for a total on one node
        off_w += hi - lo
        j = np.broadcast_to(np.asarray(nodes)[:, None], grads.shape)
        inner, on = (grads != 0.0) & (j < hi), (grads != 0.0) & (j == hi)
        a_rows += [w + eq_shift, w[1:] + eq_shift, w[j[inner] - lo] + eq_shift]
        a_cols += [w, w[:-1], cols[inner]]
        a_vals += [np.ones(len(w)), -np.ones(len(w[1:])), -grads[inner]]
        put(np.zeros(len(w[-1:]) + on.sum(), int), np.r_[w[-1:], cols[on]],
            np.r_[np.ones(len(w[-1:])), grads[on]], [bound])
        if xi is not None:
            trust(cols, ref, xi, nu_risk,
                  reach[nodes, :3] + np.abs(ref - x_ref[nodes, :3]))
    n_nonneg = gr

    # second-order cones: ||u_i|| <= sig_i, and with the proximal term
    # ||u_i - u_prev_i|| <= pn_i; cone i's rows are its bound, then its
    # vector
    single(np.column_stack([col_sig, col_u]).ravel(), -1.0, np.zeros(4 * N))
    socs = (4,) * N
    if with_prox:
        single(np.column_stack([off_pn + np.arange(N), col_u]).ravel(), -1.0,
               np.column_stack([np.zeros(N), -u_prev]).ravel())
        socs += (4,) * N

    A = sp.csc_matrix((np.concatenate(a_vals),
                       (np.concatenate(a_rows), np.concatenate(a_cols))),
                      shape=(len(b), n_var))
    G = sp.csc_matrix((np.concatenate(g_vals),
                       (np.concatenate(g_rows), np.concatenate(g_cols))),
                      shape=(gr, n_var))
    return ConicProblem(objective=c, eq_matrix=A, eq_rhs=b, ineq_matrix=G,
                        ineq_rhs=np.concatenate(h),
                        dims=ConeDims(nonneg=n_nonneg, soc=socs),
                        var_map=var_map)
