"""Second-order cone programming by a primal-dual interior-point method.

Standard form:

    min  c'x   s.t.  A x = b,   G x + s = h,   s in K,

where K is a product of a nonnegative orthant and second-order cones.  The
algorithm runs Mehrotra predictor-corrector steps on the homogeneous
self-dual embedding with Nesterov-Todd scaling (Vandenberghe, "The CVXOPT
linear and quadratic cone program solvers", 2010), so infeasible and
unbounded problems are detected through certificates instead of divergence.

Every cone operation runs on one flat layout of the cone rows, in which an
orthant row is a second-order cone of size one; an iteration therefore makes
the same number of array calls whatever the cone sizes.  The step to the
cone boundary is taken in closed form (Domahidi, Chu & Boyd, ECC 2013).  The
KKT system is factored with a small static regularization and polished by
one step of iterative refinement.  One KKT pattern, laid out once per solve,
serves the initial point (W = I) and the NT iterations and gives the
residuals; each LU refills only the scaling block's values of its one K, in
place.  The constant and predictor right-hand sides are solved together as
one two-column system.  In a Cuthill-McKee order (ACM 1969) the KKT matrix
of a staged control problem is banded (Domahidi et al., CDC 2012), and
LAPACK's banded ``dgbtrf`` factors it in that order.  Every KKT matrix goes
this one way, whatever its band (see ``_Kkt``).

The solve ends ``optimal`` when the residuals, divided by max(1, ||c||),
max(1, ||b||) and max(1, ||h||), are at most ``FEASTOL`` and the gap s'z of
the normalized iterate is at most ``RELTOL`` |c'x|: a gap test that does
not depend on the units of c (the dual residual's max(1, ||c||) still
does).  An objective at or near zero never meets it, so the gap also stops
at a floor, KKT_REG^2 times the objective's unit max(1, ||c||)
max(1, ||b||, ||h||), the unit in which those residual norms measure c'x.
Every KKT solve carries ``KKT_REG`` on the diagonal, and its one refinement
step leaves a relative error of order KKT_REG^2 in a direction measured in
those units; so a direction resolves the gap no finer than KKT_REG^2 units,
and a smaller gap is below what the iteration can tell from zero.  On the
SCP subproblems only zero objectives come down to the floor: the others
lose primal feasibility as the gap falls below about 1e-14 of their
objective's unit, which is why ``RELTOL`` stays at 1e-7.  Some lose it
before their gap meets ``RELTOL``.  The embedding's residual
r = M (x, y, z) - tau (-c, b, h) + (0, 0, s) is linear in the iterate, and
an exact direction scales it by 1 - a (1 - sigma), so ||r|| never rises;
when it rises and takes an iterate within ``FEASTOL`` out of it, the KKT
solves' error now sets the residuals, and the solve stops at the iterate
before.  That iterate is ``optimal`` if its gap is at most 100 ``RELTOL``
|c'x|, an objective resolved to 1e-5, and ``numerical`` otherwise.  (A step
that cuts tau can raise ||r|| / tau, the residuals tested against
``FEASTOL``, in exact arithmetic; it does not raise ||r||.)

Infeasibility is certified by a ray of the embedding (kappa > 0), either
from its residual ratio, as in CVXOPT, or from the collapse of tau against
kappa.  kappa/tau is the amount by which the normalized iterate's dual
objective exceeds its primal one; once tau times the objective's unit is at
most FEASTOL kappa, tau is zero against kappa to the feasibility tolerance,
and the iterate is that close to the kappa > 0 limit, whose (y, z) is a
certificate of primal infeasibility when b'y + h'z < 0 (and whose x one of
dual infeasibility when c'x < 0).  The residual ratio alone cannot show this
when b'y + h'z is a small difference of large terms: the rounding of
A'y + G'z then exceeds FEASTOL |b'y + h'z|, and tau falls until the
arithmetic fails.

A solve given the optimal result of an earlier problem with the same sizes
starts warm (Skajaa, Andersen & Ye, Math. Prog. Comp. 5, 2013): from that
solution pulled slightly toward the central ray, with no least-squares
initial point and no factorization for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dgbtrf, dgbtrs

from . import CamoptError


class SolverError(CamoptError):
    """A failed factorization or NT scaling; ``solve`` ends ``numerical``."""


@dataclass(frozen=True)
class ConeDims:
    """Sizes of the cone blocks, nonnegative orthant first."""

    nonneg: int = 0
    soc: tuple = ()

    @property
    def total(self) -> int:
        return self.nonneg + sum(self.soc)

    @property
    def degree(self) -> int:
        return self.nonneg + len(self.soc)


@dataclass
class SocpProblem:
    c: np.ndarray
    A: sp.spmatrix
    b: np.ndarray
    G: sp.spmatrix
    h: np.ndarray
    dims: ConeDims

    def validate(self):
        n = len(self.c)
        if self.A.shape != (len(self.b), n):
            raise CamoptError("equality block dimensions inconsistent")
        if self.G.shape != (len(self.h), n):
            raise CamoptError("cone block dimensions inconsistent")
        if self.dims.total != self.G.shape[0]:
            raise CamoptError("cone sizes do not cover the inequality rows")


# stopping tolerances: the duality gap relative to the objective (above the
# floor of the module docstring), and the feasibility residuals, also used
# by the infeasibility certificates
RELTOL = 1e-7
FEASTOL = 1e-9
MAX_ITER = 200
KKT_REG = 1e-9  # static regularization of the KKT diagonal
STEP_FRAC = 0.99  # fraction of the step to the cone boundary taken
# weight of the earlier solution in a warm start, the rest on the central
# ray (Skajaa, Andersen & Ye, Math. Prog. Comp. 5, 2013); on the SCP
# subproblems 0.9 saved about half as many iterations
WARM_WEIGHT = 0.99


@dataclass
class SolveResult:
    status: str
    x: np.ndarray | None
    obj: float
    iterations: int
    pres: float
    dres: float
    gap: float
    y: np.ndarray | None = None
    z: np.ndarray | None = None
    s: np.ndarray | None = None
    kkt_band: int = 0  # half-bandwidth of the KKT matrix as factored
    dims: ConeDims | None = None  # the cone sizes of the problem solved
    start: str = "cold"  # "warm" when the iterates began at an earlier result


# ---------------------------------------------------------------------
# cone algebra on concatenated vectors


class _Cone:
    """Jordan algebra of the product cone on one flat layout.

    Each orthant row is a second-order cone of size one, whose algebra is
    the orthant's.  ``starts`` indexes the block heads and ``blk`` gives the
    block of every row: a per-block sum is one ``np.add.reduceat`` over
    ``starts``, and a per-block scalar ``g`` reaches its rows as ``g[blk]``.
    """

    def __init__(self, dims: ConeDims):
        self.dims = dims
        sizes = np.concatenate([np.ones(dims.nonneg, int),
                                np.asarray(dims.soc, int)])
        self.starts = np.cumsum(sizes) - sizes
        self.blk = np.repeat(np.arange(len(sizes)), sizes)
        # pattern of the block-diagonal NT scaling W^2, built once: every
        # row spans its block's columns; w2_blk is an entry's block and
        # w2_j its entry of J = diag(-1, I)
        width = sizes[self.blk]
        self.w2_rows = np.repeat(np.arange(dims.total), width)
        first = np.repeat(np.cumsum(width) - width, width)
        self.w2_cols = (self.starts[self.blk][self.w2_rows]
                        + np.arange(len(self.w2_rows)) - first)
        self.w2_blk = self.blk[self.w2_rows]
        j = np.ones(dims.total)
        j[self.starts] = -1.0
        self.w2_j = np.where(self.w2_rows == self.w2_cols, j[self.w2_rows],
                             0.0)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dims.total)
        e[self.starts] = 1.0
        return e

    def tail_dot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-block a1'b1, the heads left out."""
        t = a * b
        t[self.starts] = 0.0
        return np.add.reduceat(t, self.starts)

    def jdot(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Per-block a'J b = a0 b0 - a1'b1."""
        return a[self.starts] * b[self.starts] - self.tail_dot(a, b)

    def margin(self, v: np.ndarray) -> float:
        """Smallest slack to the cone boundary (negative if outside)."""
        return float(np.min(v[self.starts]
                            - np.sqrt(self.tail_dot(v, v))))

    def circ(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Jordan product of two cone vectors."""
        h, k = self.starts, self.blk
        out = a[h][k] * b + b[h][k] * a
        out[h] = np.add.reduceat(a * b, h)
        return out

    def divider(self, lam: np.ndarray):
        """``v -> u`` solving lam o u = v, with the terms of lam that every
        right-hand side shares computed once."""
        h, k = self.starts, self.blk
        lam_jj, lam_head = self.jdot(lam, lam), lam[h][k]

        def div(v):
            u0 = self.jdot(lam, v) / lam_jj
            out = (v - u0[k] * lam) / lam_head
            out[h] = u0
            return out

        return div

    def unit(self, v: np.ndarray):
        """Per-block norms sqrt(v'J v) and v scaled by them onto the unit
        hyperboloid."""
        nv = np.sqrt(self.jdot(v, v))
        return nv, v / nv[self.blk]

    def max_step(self, v: np.ndarray, dv: np.ndarray, unit=None) -> float:
        """Largest t with v + t dv in the cone (v strictly inside); ``unit``
        is ``self.unit(v)`` when the caller has it.

        With v scaled to vbar on the hyperboloid vbar'J vbar = 1, a block
        reaches its boundary at t = 1 / max(0, |rho1| - rho0) for
        rho0 = vbar'J dv and rho1 = dv1 - (rho0 + dv0) / (vbar0 + 1) vbar1
        (the step length of Domahidi, Chu & Boyd, ECC 2013).  The scale
        divides the rate |rho1| - rho0, and the fastest block sets t.
        """
        h, k = self.starts, self.blk
        nv, vbar = self.unit(v) if unit is None else unit
        rho0 = self.jdot(vbar, dv)
        rho1 = dv - ((rho0 + dv[h]) / (vbar[h] + 1.0))[k] * vbar
        rate = float(np.max((np.sqrt(self.tail_dot(rho1, rho1)) - rho0) / nv))
        return 1.0 / rate if rate > 0.0 else np.inf


class _Scaling:
    """Nesterov-Todd scaling point for the product cone.

    Each block is W = eta H(wbar) with the unit-hyperbolic point wbar; only
    eta (per block) and wbar (per row, also split into its heads w0 and its
    tails w1) are stored, every product is expressed through them.
    """

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        self.cone = cone
        h, k = cone.starts, cone.blk
        sres, zres = cone.jdot(s, s), cone.jdot(z, z)
        if np.any(sres <= 0) or np.any(zres <= 0):
            raise SolverError("iterate left the cone interior")
        s_norm, z_norm = np.sqrt(sres), np.sqrt(zres)
        sbar = s / s_norm[k]
        zbar = z / z_norm[k]
        # what _Cone.unit gives for s and z, reused by the step limits
        self.s_unit, self.z_unit = (s_norm, sbar), (z_norm, zbar)
        gamma2 = 2.0 * np.sqrt((1.0 + np.add.reduceat(sbar * zbar, h)) / 2.0)
        self.wbar = (sbar - zbar) / gamma2[k]
        self.wbar[h] = (sbar[h] + zbar[h]) / gamma2
        self.w0 = self.wbar[h]
        self.w1 = self.wbar.copy()
        self.w1[h] = 0.0
        with np.errstate(over="ignore"):
            self.eta = (sres / zres) ** 0.25
        if not (np.isfinite(self.eta).all() and np.isfinite(self.wbar).all()):
            raise SolverError("NT scaling is not finite")

    def apply(self, v: np.ndarray) -> np.ndarray:
        """W v, per block eta H(wbar) v."""
        h, k = self.cone.starts, self.cone.blk
        w1v = np.add.reduceat(self.w1 * v, h)
        out = v + self.w1 * ((v[h] + w1v / (1.0 + self.w0))[k])
        out[h] = self.w0 * v[h] + w1v
        return self.eta[k] * out

    def w2_values(self) -> np.ndarray:
        """W^2 as values in the order of ``_Cone.w2_rows``/``w2_cols``."""
        # H^2 = 2 wbar wbar' + J for a unit hyperbolic wbar
        c = self.cone
        return (self.eta ** 2)[c.w2_blk] * (
            2.0 * self.wbar[c.w2_rows] * self.wbar[c.w2_cols] + c.w2_j)


# ---------------------------------------------------------------------
# solver


class _Kkt:
    """The KKT matrix of the embedding on one sparsity pattern per solve.

        [ reg I    A'       G'            ]
        [ A       -reg I                  ]
        [ G               -(W2 + reg I)   ]

    The CSC structure, in the canonical order ``sp.bmat`` emits, is laid
    out once from A, G and the NT scaling's (3,3) pattern (rows, cols), on
    which the initial point's W = I is the identity.  K is kept, and each
    factorization refills that block's values in place: ``K @ sol`` plus
    reg (x, -y, -z) is the product with the unregularized matrix, the
    residual of the refinement step.  ``M``, K without its diagonal, is
    [0 A' G'; A 0 0; G 0 0]: its product with (x, y, z) gives every residual
    of the embedding.

    The layout also orders the (structurally symmetric) pattern for a narrow
    band, of half-bandwidth ``band``.  Each LU is LAPACK's banded ``dgbtrf``
    in that order, and a solve runs ``dgbtrs``; a zero pivot raises
    ``SolverError``.  The SCP subproblems keep every row local to a node, a
    total risk over several nodes included (see ``convexify.assemble``), so
    their band stays narrow.
    """

    def __init__(self, A, G, reg, rows, cols):
        (p, n), m = A.shape, G.shape[0]
        a, g = A.tocoo(), G.tocoo()
        dn, dp = np.arange(n), np.arange(p)
        kr = np.concatenate([dn, a.col, g.col, n + a.row, n + dp,
                             n + p + g.row, n + p + rows])
        kc = np.concatenate([dn, n + a.row, n + p + g.row, a.col, n + dp,
                             g.col, n + p + cols])
        vals = np.concatenate([np.full(n, reg), a.data, g.data, a.data,
                               np.full(p, -reg), g.data, np.zeros(len(rows))])
        # canonical CSC order: by column, rows sorted within
        order = np.lexsort((kr, kc))
        self.indptr = np.zeros(n + p + m + 1, np.int32)
        np.cumsum(np.bincount(kc, minlength=n + p + m), out=self.indptr[1:])
        self.indices = kr[order].astype(np.int32)
        self.base = vals[order]
        pos = np.empty(len(order), np.intp)
        pos[order] = np.arange(len(order))
        self.slots = pos[len(order) - len(rows):]
        self.reg_diag = np.where(rows == cols, reg, 0.0)
        self.unreg = np.concatenate([np.full(n, reg),
                                     np.full(p + m, -reg)])[:, None]
        self.shape = (n + p + m, n + p + m)
        self.K, self.lu = self.matrix(np.zeros(len(rows))), None
        kc = kc[order]
        self.M = sp.csc_matrix((np.where(self.indices == kc, 0.0, self.base),
                                self.indices, self.indptr), shape=self.shape)
        # the narrower of two Cuthill-McKee orders: scipy's reverse one starts
        # at a lowest-degree node, which can sit mid-horizon and double the
        # band; a breadth-first one restarts from the node it reached last.
        # Both read only K's pattern, its explicit zeros included
        from scipy.sparse.csgraph import (breadth_first_order,
                                          reverse_cuthill_mckee)
        rcm = reverse_cuthill_mckee(self.K, symmetric_mode=True)
        bfs = breadth_first_order(self.K, rcm[0], return_predecessors=False)
        found = []
        for perm in (rcm, bfs)[:1 + (len(bfs) == len(rcm))]:
            rank = np.empty(len(perm), np.intp)  # position in perm
            rank[perm] = np.arange(len(perm))
            r, c = rank[self.indices], rank[kc]
            found.append((int(np.max(np.abs(r - c))), perm, rank, r, c))
        band, self.perm, self.rank, r, c = min(found, key=lambda f: f[0])
        self.band = band
        # entry (r, c) sits in row 2 band + r - c, column c of the
        # (3 band + 1, n + p + m) Fortran array dgbtrf factors in place
        self.slots_band = 2 * band + r - c + (3 * band + 1) * c

    def matrix(self, w2: np.ndarray) -> sp.csc_matrix:
        """K for the (3,3) block values ``w2`` given in pattern order."""
        data = self.base.copy()
        data[self.slots] = -(w2 + self.reg_diag)
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def factor(self, w2: np.ndarray):
        self.lu = None  # released before the next factors are built
        self.K.data[self.slots] = -(w2 + self.reg_diag)
        ab = np.bincount(self.slots_band, self.K.data,
                         len(self.perm) * (3 * self.band + 1))
        *self.lu, info = dgbtrf(ab.reshape(len(self.perm), -1).T,
                                self.band, self.band, overwrite_ab=True)
        if info > 0:
            raise SolverError("KKT matrix is exactly singular")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solutions of the unregularized system for the columns of
        ``rhs`` (shape (n + p + m, k)), stacked as (x, y, z), after one
        step of iterative refinement."""
        rhs = rhs.reshape(len(rhs), -1)
        sol = self._lu_solve(rhs)
        res = rhs - self.K @ sol + self.unreg * sol
        return sol + self._lu_solve(res)

    def _lu_solve(self, rhs):
        lu, piv = self.lu
        sol, _ = dgbtrs(lu, self.band, self.band, rhs.take(self.perm, axis=0),
                        piv, overwrite_b=True)
        return sol.take(self.rank, axis=0)


def _canonical(M) -> sp.csc_matrix:
    """``M`` as a CSC matrix with sorted indices and no duplicate entries;
    a copy when ``M`` has either.  The KKT layout stores every entry of A
    and G as given: a duplicate pair would enter the products with K and M
    as two terms, and the answer would differ in its last bits from the
    same matrix's canonical form.  The caller's matrix is never changed."""
    M = sp.csc_matrix(M)
    if not M.has_canonical_format:
        M = M.copy()
        M.sum_duplicates()
    return M


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a vector, as ``np.linalg.norm`` computes it."""
    return math.sqrt(v.dot(v))


def solve(prob: SocpProblem, start: SolveResult | None = None) -> SolveResult:
    """Solve ``prob``.  ``start``, the optimal result of an earlier solve
    with the same variable, equality and cone sizes, gives the initial point
    (a warm start); any other ``start`` is ignored, and the solve starts
    from the least-squares point (a cold start)."""
    prob.validate()
    c, b, h = (np.asarray(v, float) for v in (prob.c, prob.b, prob.h))
    A, G = _canonical(prob.A), _canonical(prob.G)
    n, p, m = len(c), len(b), len(h)
    if m == 0:
        raise CamoptError("need at least one cone row")
    cone = _Cone(prob.dims)
    e = cone.identity()
    deg = prob.dims.degree
    iz = slice(n + p, None)  # the z (and s) part of a stacked (x, y, z)
    cbh = np.concatenate([c, b, h])
    const = np.concatenate([-c, b, h])

    kkt = _Kkt(A, G, KKT_REG, cone.w2_rows, cone.w2_cols)
    warm = start is not None and start.status == "optimal" and \
        start.dims == prob.dims and len(start.x) == n and len(start.y) == p
    result = partial(SolveResult, kkt_band=kkt.band, dims=prob.dims,
                     start="warm" if warm else "cold")
    if warm:
        # -- the earlier solution pulled toward the central ray
        xyz = WARM_WEIGHT * np.concatenate([start.x, start.y, start.z])
        xyz[iz] += (1.0 - WARM_WEIGHT) * e
        s = WARM_WEIGHT * start.s + (1.0 - WARM_WEIGHT) * e
        tau, kappa = 1.0, 1.0 - WARM_WEIGHT
    else:
        # -- initial point from two least-squares KKT solves with W = I
        try:
            kkt.factor((cone.w2_rows == cone.w2_cols) * 1.0)
        except SolverError:
            return result("numerical", None, np.nan, 0, np.inf, np.inf,
                          np.inf)
        init = kkt.solve(np.column_stack([
            np.concatenate([np.zeros(n), b, h]),
            np.concatenate([-c, np.zeros(p + m)])]))
        xyz = init[:, 1].copy()
        xyz[:n] = init[:n, 0]
        s = -init[iz, 0]
        alpha = -cone.margin(s)
        if alpha >= 0:
            s = s + (1.0 + alpha) * e
        alpha = -cone.margin(xyz[iz])
        if alpha >= 0:
            xyz[iz] += (1.0 + alpha) * e
        tau, kappa = 1.0, 1.0
    x, y, z = xyz[:n], xyz[n:n + p], xyz[iz]  # views, updated in place

    resx0 = max(1.0, _norm(c))
    resy0 = max(1.0, _norm(b))
    resz0 = max(1.0, _norm(h))
    unit = resx0 * max(resy0, resz0)  # the objective's, in those norms
    floor = KKT_REG ** 2 * unit  # the gap the KKT solves resolve

    # "numerical" marks a stop before the limit: the iterate left the cone,
    # a factorization failed, the step or tau/kappa degenerated
    status = "numerical"
    kept = None  # the last iterate, while it is within FEASTOL
    for it in range(MAX_ITER + 1):  # MAX_ITER steps, each iterate tested
        # residuals of the embedding, stacked as (rx, ry, rz)
        r = kkt.M @ xyz - tau * const
        r[iz] += s
        rx, ry, rz = r[:n], r[n:n + p], r[iz]
        rt = kappa + cbh @ xyz

        gap = s @ z
        mu = (gap + tau * kappa) / (deg + 1)
        cx, hz_by = c @ x, b @ y + h @ z
        pcost = cx / tau
        pres = max(_norm(ry) / resy0, _norm(rz) / resz0) / tau
        dres = _norm(rx) / resx0 / tau
        rnorm = _norm(r)
        feasible = pres <= FEASTOL and dres <= FEASTOL
        if feasible and gap / tau ** 2 <= max(RELTOL * abs(pcost), floor):
            status = "optimal"
            break
        if not feasible and kept is not None and rnorm > kept[0]:
            # ||r|| rose out of FEASTOL: the KKT solves' error sets the
            # residuals now (see the module docstring)
            _, close, xyz[:], s, tau, kappa, pres, dres, gap = kept
            if close:
                status = "optimal"
            break
        kept = None if not feasible else (
            rnorm, gap / tau ** 2 <= 100.0 * RELTOL * abs(pcost),
            xyz.copy(), s, tau, kappa, pres, dres, gap)
        # infeasibility certificates: A'y + G'z = rx - c tau,
        # A x = ry + b tau, G x + s = rz + h tau, or tau collapsed against
        # kappa (see the module docstring)
        collapse = tau * unit <= FEASTOL * kappa
        if hz_by < -1e-12:
            if collapse or _norm(rx - c * tau) / resx0 <= -FEASTOL * hz_by:
                return result(status="infeasible", x=None, obj=np.nan,
                              iterations=it, pres=pres, dres=dres, gap=gap)
        if cx < -1e-12:
            unb = max(_norm(ry + b * tau) / resy0,
                      _norm(rz + h * tau) / resz0)
            if collapse or unb <= -FEASTOL * cx:
                return result(status="unbounded", x=None, obj=-np.inf,
                              iterations=it, pres=pres, dres=dres, gap=gap)
        if it == MAX_ITER:
            status = "max_iter"
            break

        try:
            Wsc = _Scaling(cone, s, z)
            kkt.factor(Wsc.w2_values())
        except SolverError:
            break
        lam = Wsc.apply(z)
        lam2 = cone.circ(lam, lam)
        lam_div = cone.divider(lam)

        def rhs(sigma, ds_corr):
            """Scaled ds target ws and the KKT right-hand side column."""
            ws = lam_div(sigma * mu * e - lam2 + ds_corr)
            col = -(1.0 - sigma) * r
            col[iz] -= Wsc.apply(ws)
            return ws, col[:, None]

        def step(sigma, ws, sol, dk_corr):
            """Full direction from the solved column, and its step limit."""
            dk_rhs = -tau * kappa + sigma * mu + dk_corr
            dtau = (-(1.0 - sigma) * rt - dk_rhs / tau - cbh @ sol) / dg
            d = sol + dtau * sol_c
            wdz = Wsc.apply(d[iz])
            ds = Wsc.apply(ws - wdz)
            dkappa = (dk_rhs - kappa * dtau) / tau
            a = min(cone.max_step(s, ds, Wsc.s_unit),
                    cone.max_step(z, d[iz], Wsc.z_unit))
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return d, ds, dtau, dkappa, a, wdz

        # the constant right-hand side (-c, b, h) and the predictor's
        ws_a, col_a = rhs(0.0, 0.0)
        sols = kkt.solve(np.hstack([const[:, None], col_a]))
        sol_c = sols[:, 0]
        dg = cbh @ sol_c - kappa / tau
        if dg == 0.0:
            break
        _, _, dta, dka, a_aff, wdz_a = step(0.0, ws_a, sols[:, 1], 0.0)
        sigma = (1.0 - min(1.0, a_aff)) ** 3
        # corrector with Mehrotra second-order term (W^-1 ds) o (W dz),
        # where W^-1 ds = ws - W dz
        ws, col = rhs(sigma, -cone.circ(ws_a - wdz_a, wdz_a))
        d, ds, dtau, dkappa, a, _ = step(sigma, ws, kkt.solve(col)[:, 0],
                                         -dta * dka)

        a = min(1.0, STEP_FRAC * a)
        if not np.isfinite(a) or a <= 0 or tau + a * dtau <= 0 or \
                kappa + a * dkappa <= 0:
            break
        xyz += a * d
        s = s + a * ds
        tau += a * dtau
        kappa += a * dkappa

    xs = x / tau
    return result(status=status, x=xs, obj=float(c @ xs),
                  iterations=it + (status != "max_iter"),
                  pres=pres, dres=dres, gap=gap / tau ** 2, y=y / tau,
                  z=z / tau, s=s / tau)
