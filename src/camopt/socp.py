"""Second-order cone programming by a primal-dual interior-point method.

Standard form:

    min  c'x   s.t.  A x = b,   G x + s = h,   s in K,

where K is a product of a nonnegative orthant and second-order cones.  The
algorithm runs Mehrotra predictor-corrector steps on the homogeneous
self-dual embedding with Nesterov-Todd scaling, so infeasible and unbounded
problems are detected through certificates instead of divergence.  The KKT
system is factored sparse with a small static regularization and polished
by iterative refinement; its CSC pattern is built once per solve, and each
iteration only refills the values of the scaling block before the LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import CamoptError


class SolverError(CamoptError):
    pass


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
            raise SolverError("equality block dimensions inconsistent")
        if self.G.shape != (len(self.h), n):
            raise SolverError("cone block dimensions inconsistent")
        if self.dims.total != self.G.shape[0]:
            raise SolverError("cone sizes do not cover the inequality rows")


@dataclass(frozen=True)
class SolverSettings:
    abstol: float = 1e-9
    reltol: float = 1e-9
    feastol: float = 1e-9
    max_iter: int = 200
    kkt_reg: float = 1e-9
    step_frac: float = 0.99


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


# ---------------------------------------------------------------------
# cone algebra on concatenated vectors


class _Cone:
    """Jordan algebra of the product cone, vectorized over blocks.

    Second-order cones of equal size are gathered into index matrices of
    shape (count, size) so every operation runs as a handful of array
    expressions instead of a Python loop over blocks.
    """

    def __init__(self, dims: ConeDims):
        self.dims = dims
        by_size: dict[int, list[int]] = {}
        off = dims.nonneg
        for q in dims.soc:
            by_size.setdefault(q, []).append(off)
            off += q
        self.groups = [np.asarray(starts)[:, None] + np.arange(q)[None, :]
                       for q, starts in sorted(by_size.items())]
        # sparsity pattern of the block-diagonal NT scaling, built once
        # in the same order as the scaling emits its values
        rows, cols = [], []
        if dims.nonneg:
            idx = np.arange(dims.nonneg)
            rows.append(idx)
            cols.append(idx)
        for idx in self.groups:
            q = idx.shape[1]
            rows.append(np.repeat(idx, q, axis=1).ravel())
            cols.append(np.tile(idx, (1, q)).ravel())
        self.w2_rows = np.concatenate(rows) if rows else np.zeros(0, int)
        self.w2_cols = np.concatenate(cols) if cols else np.zeros(0, int)

    def identity(self) -> np.ndarray:
        e = np.zeros(self.dims.total)
        e[:self.dims.nonneg] = 1.0
        for idx in self.groups:
            e[idx[:, 0]] = 1.0
        return e

    def margin(self, v: np.ndarray) -> float:
        """Smallest slack to the cone boundary (negative if outside)."""
        l = self.dims.nonneg
        out = float(np.min(v[:l])) if l else np.inf
        for idx in self.groups:
            blk = v[idx]
            m = blk[:, 0] - np.linalg.norm(blk[:, 1:], axis=1)
            out = min(out, float(np.min(m)))
        return out

    def circ(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Jordan product of two cone vectors."""
        out = np.empty_like(a)
        l = self.dims.nonneg
        out[:l] = a[:l] * b[:l]
        for idx in self.groups:
            ab, bb = a[idx], b[idx]
            out[idx[:, 0]] = np.einsum("ij,ij->i", ab, bb)
            out[idx[:, 1:]] = ab[:, :1] * bb[:, 1:] + bb[:, :1] * ab[:, 1:]
        return out

    def circ_div(self, lam: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Solve lam o u = v for u."""
        out = np.empty_like(v)
        l = self.dims.nonneg
        out[:l] = v[:l] / lam[:l]
        for idx in self.groups:
            lb, vb = lam[idx], v[idx]
            l0, v0 = lb[:, 0], vb[:, 0]
            l1, v1 = lb[:, 1:], vb[:, 1:]
            den = l0 * l0 - np.einsum("ij,ij->i", l1, l1)
            u0 = (l0 * v0 - np.einsum("ij,ij->i", l1, v1)) / den
            out[idx[:, 0]] = u0
            out[idx[:, 1:]] = (v1 - u0[:, None] * l1) / l0[:, None]
        return out

    def max_step(self, v: np.ndarray, dv: np.ndarray) -> float:
        """Largest t with v + t dv in the cone (v strictly inside)."""
        t = np.inf
        l = self.dims.nonneg
        neg = dv[:l] < 0
        if np.any(neg):
            t = float(np.min(-v[:l][neg] / dv[:l][neg]))
        for idx in self.groups:
            vb, db = v[idx], dv[idx]
            v0, d0 = vb[:, 0], db[:, 0]
            v1, d1 = vb[:, 1:], db[:, 1:]
            # roots of (v0+t d0)^2 - |v1+t d1|^2 = 0, taken with a
            # numerically stable quadratic formula
            a = d0 * d0 - np.einsum("ij,ij->i", d1, d1)
            bq = 2.0 * (v0 * d0 - np.einsum("ij,ij->i", v1, d1))
            cq = v0 * v0 - np.einsum("ij,ij->i", v1, v1)
            disc = bq * bq - 4.0 * a * cq
            with np.errstate(divide="ignore", invalid="ignore"):
                qf = -0.5 * (bq + np.copysign(np.sqrt(np.maximum(disc, 0.0)),
                                              bq))
                quad = (np.abs(a) > 1e-300) & (disc >= 0.0)
                lin = (np.abs(a) <= 1e-300) & (bq != 0.0)
                cand = np.stack([
                    np.where(quad, qf / a, np.inf),
                    np.where(quad, cq / qf, np.inf),
                    np.where(lin, -cq / bq, np.inf),
                ], axis=1)
                ok = (cand > 0) & (v0[:, None] + cand * d0[:, None] >= -1e-14)
                best = np.min(np.where(ok, cand, np.inf), axis=1)
                best = np.minimum(best, np.where(d0 < 0, -v0 / d0, np.inf))
            t = min(t, float(np.min(best)))
        return t


class _Scaling:
    """Nesterov-Todd scaling point for the product cone.

    Each SOC block is W = eta H(wbar) with the unit-hyperbolic point wbar;
    only eta and wbar are stored per group, every product is expressed
    through them.
    """

    def __init__(self, cone: _Cone, s: np.ndarray, z: np.ndarray):
        self.cone = cone
        l = cone.dims.nonneg
        self.w_lp = np.sqrt(s[:l] / z[:l])
        self.gblocks = []
        for idx in cone.groups:
            sb, zb = s[idx], z[idx]
            sres = sb[:, 0] ** 2 - np.einsum("ij,ij->i", sb[:, 1:], sb[:, 1:])
            zres = zb[:, 0] ** 2 - np.einsum("ij,ij->i", zb[:, 1:], zb[:, 1:])
            if np.any(sres <= 0) or np.any(zres <= 0):
                raise SolverError("iterate left the cone interior")
            sbar = sb / np.sqrt(sres)[:, None]
            zbar = zb / np.sqrt(zres)[:, None]
            gamma = np.sqrt((1.0 + np.einsum("ij,ij->i", sbar, zbar)) / 2.0)
            wbar = np.empty_like(sb)
            wbar[:, 0] = (sbar[:, 0] + zbar[:, 0]) / (2 * gamma)
            wbar[:, 1:] = (sbar[:, 1:] - zbar[:, 1:]) / (2 * gamma[:, None])
            eta = (sres / zres) ** 0.25
            self.gblocks.append((idx, eta, wbar))

    def _hyp_apply(self, v: np.ndarray, sign: float) -> np.ndarray:
        """H(wbar) v per block, with sign=-1 flipping w1 for the inverse."""
        out = np.empty_like(v)
        l = self.cone.dims.nonneg
        out[:l] = self.w_lp * v[:l] if sign > 0 else v[:l] / self.w_lp
        for idx, eta, wbar in self.gblocks:
            vb = v[idx]
            w0, w1 = wbar[:, 0], sign * wbar[:, 1:]
            w1v = np.einsum("ij,ij->i", w1, vb[:, 1:])
            o0 = w0 * vb[:, 0] + w1v
            o1 = vb[:, 1:] + w1 * ((vb[:, 0] + w1v / (1.0 + w0))[:, None])
            fac = eta if sign > 0 else 1.0 / eta
            out[idx[:, 0]] = fac * o0
            out[idx[:, 1:]] = fac[:, None] * o1
        return out

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self._hyp_apply(v, 1.0)

    def apply_inv(self, v: np.ndarray) -> np.ndarray:
        return self._hyp_apply(v, -1.0)

    def w2_values(self) -> np.ndarray:
        """W^2 as values in the order of ``_Cone.w2_rows``/``w2_cols``."""
        # H^2 = 2 wbar wbar' + diag(-1, I) for a unit hyperbolic wbar
        l = self.cone.dims.nonneg
        parts = [self.w_lp ** 2] if l else []
        for idx, eta, wbar in self.gblocks:
            q = idx.shape[1]
            B = 2.0 * np.einsum("gi,gj->gij", wbar, wbar)
            B[:, 0, 0] -= 1.0
            B[:, np.arange(1, q), np.arange(1, q)] += 1.0
            parts.append(((eta ** 2)[:, None, None] * B).ravel())
        return np.concatenate(parts) if parts else np.zeros(0)


# ---------------------------------------------------------------------
# solver


def _csc_layout(rows, cols, ncols):
    """Canonical CSC order of (rows, cols): by column, rows sorted within.

    Returns the permutation into that order and the column pointer.
    """
    order = np.lexsort((rows, cols))
    indptr = np.zeros(ncols + 1, np.int32)
    np.cumsum(np.bincount(cols, minlength=ncols), out=indptr[1:])
    return order, indptr


class _Kkt:
    """The KKT matrix of the embedding on a sparsity pattern fixed per solve.

        [ reg I    A'       G'            ]
        [ A       -reg I                  ]
        [ G               -(W2 + reg I)   ]

    The CSC structure, in the canonical order ``sp.bmat`` emits, is laid
    out once from A, G and the (3,3) block's pattern (rows, cols); each
    factorization writes only that block's values into their slots.  A' and
    G' are kept as CSR views for the residuals and the refinement.
    """

    def __init__(self, A, G, reg, rows, cols):
        self.A, self.G = A, G
        self.AT, self.GT = A.T, G.T
        p, n = A.shape
        m = G.shape[0]
        a, g = A.tocoo(), G.tocoo()
        dn, dp = np.arange(n), np.arange(p)
        kr = np.concatenate([dn, a.col, g.col, n + a.row, n + dp,
                             n + p + g.row, n + p + rows])
        kc = np.concatenate([dn, n + a.row, n + p + g.row, a.col, n + dp,
                             g.col, n + p + cols])
        vals = np.concatenate([np.full(n, reg), a.data, g.data, a.data,
                               np.full(p, -reg), g.data, np.zeros(len(rows))])
        order, self.indptr = _csc_layout(kr, kc, n + p + m)
        self.indices = kr[order].astype(np.int32)
        self.base = vals[order]
        pos = np.empty(len(order), np.intp)
        pos[order] = np.arange(len(order))
        self.slots = pos[len(order) - len(rows):]
        self.reg_diag = np.where(rows == cols, reg, 0.0)
        self.w2_order, self.w2_indptr = _csc_layout(rows, cols, m)
        self.w2_indices = rows[self.w2_order].astype(np.int32)
        self.shape = (n + p + m, n + p + m)
        self.m = m
        self.lu = self.W2 = None

    def matrix(self, w2: np.ndarray) -> sp.csc_matrix:
        """K for the (3,3) block values ``w2`` given in pattern order."""
        data = self.base.copy()
        data[self.slots] = -(w2 + self.reg_diag)
        return sp.csc_matrix((data, self.indices, self.indptr),
                             shape=self.shape)

    def factor(self, w2: np.ndarray):
        self.lu = splu(self.matrix(w2))
        self.W2 = sp.csc_matrix((w2[self.w2_order], self.w2_indices,
                                 self.w2_indptr), shape=(self.m, self.m))

    def solve(self, rx, ry, rz, refine=1):
        rhs = np.concatenate([rx, ry, rz])
        sol = self.lu.solve(rhs)
        n, p = len(rx), len(ry)
        for _ in range(refine):
            x, y, z = sol[:n], sol[n:n + p], sol[n + p:]
            res = rhs - np.concatenate([
                self.AT @ y + self.GT @ z,
                self.A @ x,
                self.G @ x - self.W2 @ z,
            ])
            sol = sol + self.lu.solve(res)
        return sol[:n], sol[n:n + p], sol[n + p:]


def solve(prob: SocpProblem, settings: SolverSettings = SolverSettings()) -> SolveResult:
    prob.validate()
    if settings.max_iter < 1:
        raise SolverError("max_iter must be at least 1")
    c = np.asarray(prob.c, float)
    b = np.asarray(prob.b, float)
    h = np.asarray(prob.h, float)
    A = sp.csc_matrix(prob.A)
    G = sp.csc_matrix(prob.G)
    n, p, m = len(c), len(b), len(h)
    if m == 0:
        raise SolverError("need at least one cone row")
    cone = _Cone(prob.dims)
    e = cone.identity()
    deg = prob.dims.degree

    # -- initial point from two least-squares KKT solves with W = I
    diag = np.arange(m)
    kkt = _Kkt(A, G, settings.kkt_reg, diag, diag)
    kkt.factor(np.ones(m))
    x, y0, zhat = kkt.solve(np.zeros(n), b, h)
    s = -zhat
    alpha = -cone.margin(s)
    if alpha >= 0:
        s = s + (1.0 + alpha) * e
    _, y, z = kkt.solve(-c, np.zeros(p), np.zeros(m))
    alpha = -cone.margin(z)
    if alpha >= 0:
        z = z + (1.0 + alpha) * e
    tau, kappa = 1.0, 1.0

    resx0 = max(1.0, np.linalg.norm(c))
    resy0 = max(1.0, np.linalg.norm(b))
    resz0 = max(1.0, np.linalg.norm(h))

    kkt = _Kkt(A, G, settings.kkt_reg, cone.w2_rows, cone.w2_cols)
    AT, GT = kkt.AT, kkt.GT
    # "numerical" marks a stop before the limit: the iterate left the cone,
    # the step or tau/kappa degenerated
    status = "numerical"
    pres = dres = gap = np.inf
    for it in range(settings.max_iter):
        # residuals of the embedding
        rx = AT @ y + GT @ z + c * tau
        ry = A @ x - b * tau
        rz = s + G @ x - h * tau
        rt = kappa + c @ x + b @ y + h @ z

        gap = s @ z
        mu = (gap + tau * kappa) / (deg + 1)
        pcost = c @ x / tau
        dcost = -(b @ y + h @ z) / tau
        pres = max(np.linalg.norm(ry) / resy0, np.linalg.norm(rz) / resz0) / tau
        dres = np.linalg.norm(rx) / resx0 / tau
        relgap = gap / tau ** 2 / max(1.0, abs(pcost))

        if pres <= settings.feastol and dres <= settings.feastol and (
                gap / tau ** 2 <= settings.abstol or relgap <= settings.reltol):
            status = "optimal"
            break
        # infeasibility certificates
        hz_by = h @ z + b @ y
        if hz_by < -1e-12:
            if np.linalg.norm(AT @ y + GT @ z) / resx0 <= -settings.feastol * hz_by:
                return SolveResult(status="infeasible", x=None, obj=np.nan,
                                   iterations=it, pres=pres, dres=dres, gap=gap)
        cx = c @ x
        if cx < -1e-12:
            unb = max(np.linalg.norm(A @ x) / resy0,
                      np.linalg.norm(G @ x + s) / resz0)
            if unb <= -settings.feastol * cx:
                return SolveResult(status="unbounded", x=None, obj=-np.inf,
                                   iterations=it, pres=pres, dres=dres, gap=gap)

        try:
            Wsc = _Scaling(cone, s, z)
        except SolverError:
            break
        lam = Wsc.apply(z)
        kkt.factor(Wsc.w2_values())

        # constant right-hand side (-c, b, h)
        x1, y1, z1 = kkt.solve(-c, b, h)
        dg = c @ x1 + b @ y1 + h @ z1 - kappa / tau
        if dg == 0.0:
            break

        def direction(sigma, ds_corr, dk_corr):
            fac = 1.0 - sigma
            ds_rhs = -cone.circ(lam, lam) + sigma * mu * e + ds_corr
            dk_rhs = -tau * kappa + sigma * mu + dk_corr
            ws = cone.circ_div(lam, ds_rhs)
            bz = -fac * rz - Wsc.apply(ws)
            x2, y2, z2 = kkt.solve(-fac * rx, -fac * ry, bz)
            dtau = (-fac * rt - dk_rhs / tau - (c @ x2 + b @ y2 + h @ z2)) / dg
            dx = x2 + dtau * x1
            dy = y2 + dtau * y1
            dz = z2 + dtau * z1
            dss = Wsc.apply(ws - Wsc.apply(dz))
            dkappa = (dk_rhs - kappa * dtau) / tau
            return dx, dy, dz, dss, dtau, dkappa

        def max_alpha(dz, ds, dtau, dkappa):
            a = min(cone.max_step(s, ds), cone.max_step(z, dz))
            if dtau < 0:
                a = min(a, -tau / dtau)
            if dkappa < 0:
                a = min(a, -kappa / dkappa)
            return a

        # predictor
        dxa, dya, dza, dsa, dta, dka = direction(0.0, 0.0, 0.0)
        a_aff = min(1.0, max_alpha(dza, dsa, dta, dka))
        sigma = (1.0 - a_aff) ** 3
        # corrector with Mehrotra second-order term
        ds_corr = -cone.circ(Wsc.apply_inv(dsa), Wsc.apply(dza))
        dk_corr = -dta * dka
        dx, dy, dz, ds, dtau, dkappa = direction(sigma, ds_corr, dk_corr)

        a = settings.step_frac * max_alpha(dz, ds, dtau, dkappa)
        a = min(1.0, a)
        if not np.isfinite(a) or a <= 0:
            break
        x = x + a * dx
        y = y + a * dy
        z = z + a * dz
        s = s + a * ds
        tau += a * dtau
        kappa += a * dkappa
        if tau <= 0 or kappa <= 0:
            break
    else:
        status = "max_iter"

    xs = x / tau
    return SolveResult(status=status, x=xs, obj=float(c @ xs),
                       iterations=it + 1, pres=pres, dres=dres,
                       gap=gap / tau ** 2, y=y / tau, z=z / tau, s=s / tau)
