import functools
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from camopt import convexify
from camopt.astro import NodeGrid, SegmentMaps
from camopt.convexify import (
    AssemblyError,
    LongTermItem,
    RiskRows,
    ShortTermItem,
    assemble,
    cut_normal,
    linearize_tipoc,
    linearize_tpoc,
    project_onto_ellipsoid,
)
from camopt.dajet import (compose_series, gradient, hessian, identity,
                          jet_space, mul)
from camopt.risk import bplane_basis, chan_poc, chan_series, chan_uv, ipoc
from camopt.socp import solve


class TestProjection:
    def test_sphere(self):
        z = project_onto_ellipsoid(np.array([2.0, 0.0]), np.eye(2), 1.0)
        assert np.allclose(z, [1.0, 0.0], atol=1e-10)

    def test_fixed_point_on_surface(self):
        P = np.diag([4.0, 1.0])
        p = np.array([2.0 * math.cos(0.7), math.sin(0.7)])
        z = project_onto_ellipsoid(p, P, 1.0)
        assert np.allclose(z, p, atol=1e-9)

    def test_matches_boundary_scan(self):
        P = np.diag([4.0, 1.0])
        p = np.array([3.0, 3.0])
        z = project_onto_ellipsoid(p, P, 1.0)
        th = np.linspace(0, 2 * math.pi, 100000, endpoint=False)
        pts = np.vstack([2 * np.cos(th), np.sin(th)]).T
        best = pts[np.argmin(np.linalg.norm(pts - p, axis=1))]
        assert np.linalg.norm(z - best) < 1e-4

    def test_interior_point_lands_on_boundary(self):
        P = np.diag([4.0, 1.0])
        z = project_onto_ellipsoid(np.array([0.3, 0.2]), P, 1.0)
        assert z @ np.linalg.solve(P, z) == pytest.approx(1.0, abs=1e-9)

    def test_center_handled(self):
        P = np.diag([4.0, 1.0])
        z = project_onto_ellipsoid(np.zeros(2), P, 1.0)
        assert z @ np.linalg.solve(P, z) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(z) == pytest.approx(1.0)  # short semiaxis

    def test_small_ellipsoid_is_not_its_center(self):
        # semiaxes 1e-9 and 2e-9: a reference 5e-9 out on the long axis is
        # far outside, so the nearest point is that axis's vertex
        P = np.diag([1e-18, 4e-18])
        z = project_onto_ellipsoid(np.array([0.0, 5e-9]), P, 1.0)
        assert np.allclose(z, [0.0, 2e-9], rtol=0.0, atol=1e-20)

    def test_3d_scan(self):
        rng = np.random.default_rng(4)
        M = rng.standard_normal((3, 3))
        P = M @ M.T + np.eye(3)
        p = rng.standard_normal(3) * 3
        d2 = 2.0
        z = project_onto_ellipsoid(p, P, d2)
        assert z @ np.linalg.solve(P, z) == pytest.approx(d2, rel=1e-10)
        # random boundary sampling cannot beat the projection
        L = np.linalg.cholesky(P)
        w = rng.standard_normal((20000, 3))
        w /= np.linalg.norm(w, axis=1)[:, None]
        pts = (L @ (math.sqrt(d2) * w.T)).T
        assert np.min(np.linalg.norm(pts - p, axis=1)) >= np.linalg.norm(z - p) - 1e-6

    def test_degenerate_rejected(self):
        with pytest.raises(AssemblyError):
            project_onto_ellipsoid(np.ones(2), np.zeros((2, 2)), 1.0)

    def test_vanishing_component_on_short_axis(self):
        # the single-term root of the third component rounds onto its pole
        P = np.diag([1.0, 1.0, 0.1])
        z = project_onto_ellipsoid(np.array([0.75, 0.75, 1e-20]), P, 1.0)
        assert np.all(np.isfinite(z))
        assert z @ np.linalg.solve(P, z) == pytest.approx(1.0, abs=1e-12)

    def test_matches_high_precision_root(self):
        rng = np.random.default_rng(31)
        worst = 0.0
        for k in range(1200):
            n = 2 + k % 2
            Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            # squared semiaxes spread over 12 decades
            P = Q @ np.diag(10.0 ** rng.uniform(-6.0, 6.0, n)) @ Q.T
            p = rng.standard_normal(n) * 10.0 ** rng.uniform(-4.0, 4.0)
            d2 = rng.uniform(0.5, 30.0)
            z = project_onto_ellipsoid(p, P, d2)
            # the secular equation of the same float eigenframe, solved by
            # bisection in 40 digits right of its last pole
            evals, V = np.linalg.eigh(P)
            q = [Decimal(float(x)) for x in evals * d2]
            pc = [Decimal(float(x)) for x in V.T @ p]
            with localcontext() as ctx:
                ctx.prec = 40
                w = [c * c * qi for c, qi in zip(pc, q)]
                lo = max(abs(c) * qi.sqrt() - qi for c, qi in zip(pc, q))
                hi = max(lo, sum(w).sqrt() - min(q))
                for _ in range(150):
                    mid = (lo + hi) / 2
                    if sum(wi / (qi + mid) ** 2 for wi, qi in zip(w, q)) > 1:
                        lo = mid
                    else:
                        hi = mid
                zc = [float(c * qi / (qi + lo)) for c, qi in zip(pc, q)]
            ref = V @ np.array(zc)
            worst = max(worst, np.linalg.norm(z - ref) / np.linalg.norm(ref))
        assert worst < 2e-10


class TestCutNormal:
    def test_unit_circle_sides(self):
        z = np.array([1.0, 0.0])
        n = cut_normal(z, np.eye(2))
        sat = n @ (np.array([2.0, 0.0]) - z)
        vio = n @ (np.array([0.5, 0.0]) - z)
        assert sat > 0 > vio

    def test_normal_orthogonal_to_tangent(self):
        P = np.diag([4.0, 1.0])
        th = 0.9
        z = np.array([2 * math.cos(th), math.sin(th)])
        tangent = np.array([-2 * math.sin(th), math.cos(th)])
        n = cut_normal(z, P)
        assert abs(n @ tangent) < 1e-9 * np.linalg.norm(n)

    def test_excludes_interior_neighbor(self):
        P = np.diag([4.0, 1.0])
        p = np.array([3.0, 3.0])
        z = project_onto_ellipsoid(p, P, 1.0)
        n = cut_normal(z, P)
        inner = 0.9 * z
        assert n @ (inner - z) < 0


class TestRiskLinearization:
    def setup_method(self):
        self.vp = np.array([0.0, 7.5, 0.0])
        self.vs = np.array([0.0, -7.4, 0.3])
        self.basis = bplane_basis(self.vp, self.vs)
        self.P2 = np.array([[0.04, 0.01], [0.01, 0.09]])
        self.hbr = 0.003
        self.dr = np.array([0.12, 0.0, 0.35])

    def poc(self, dr):
        u, v = chan_uv(self.basis @ dr, self.P2, self.hbr)
        return chan_poc(u, v)

    def test_gradient_matches_finite_differences(self):
        lin = linearize_tpoc([ShortTermItem(node=0, dr_ref=self.dr,
                                            basis=self.basis, P2=self.P2,
                                            hbr=self.hbr)])
        eps = 1e-6
        for k in range(3):
            dp = self.dr.copy()
            dm = self.dr.copy()
            dp[k] += eps
            dm[k] -= eps
            fd = (self.poc(dp) - self.poc(dm)) / (2 * eps)
            if abs(fd) > 1e-14:
                assert lin.grads[0, k] == pytest.approx(fd, rel=1e-5)

    def test_residual_reproduces_reference(self):
        lin = linearize_tpoc([ShortTermItem(node=0, dr_ref=self.dr,
                                            basis=self.basis, P2=self.P2,
                                            hbr=self.hbr)])
        assert lin.value == pytest.approx(self.poc(self.dr), rel=1e-12)

    def test_small_probability_decoupling(self):
        items = [
            ShortTermItem(node=0, dr_ref=self.dr, basis=self.basis,
                          P2=self.P2, hbr=self.hbr),
            ShortTermItem(node=3, dr_ref=self.dr * 1.4, basis=self.basis,
                          P2=self.P2 * 1.3, hbr=self.hbr),
        ]
        joint = linearize_tpoc(items)
        singles = [linearize_tpoc([it]) for it in items]
        for k in range(2):
            # product form: joint gradient is the single one damped by the
            # survival factor of the other conjunction
            scale = 1.0 - singles[1 - k].value
            assert np.allclose(joint.grads[k], scale * singles[k].grads[0],
                               atol=1e-12 * np.linalg.norm(singles[k].grads[0]))
            # and for small probabilities the raw gradients nearly agree
            assert np.allclose(joint.grads[k], singles[k].grads[0],
                               rtol=1e-4)

    def test_total_value_matches_product_form(self):
        items = [
            ShortTermItem(node=0, dr_ref=self.dr, basis=self.basis,
                          P2=self.P2, hbr=self.hbr, weight=0.4),
            ShortTermItem(node=1, dr_ref=self.dr * 1.2, basis=self.basis,
                          P2=self.P2, hbr=self.hbr, weight=0.6),
        ]
        lin = linearize_tpoc(items)
        probs = [0.4 * self.poc(self.dr), 0.6 * self.poc(self.dr * 1.2)]
        assert lin.value == pytest.approx(1.0 - np.prod(1.0 - np.array(probs)),
                                          rel=1e-12)

    def test_tipoc_gradient_matches_finite_differences(self):
        P3 = np.diag([0.04, 0.09, 0.01])
        dr = np.array([0.2, -0.1, 0.15])
        lin = linearize_tipoc([LongTermItem(dr_ref=dr, P3=P3, hbr=0.01)])
        eps = 1e-7
        for k in range(3):
            dp, dm = dr.copy(), dr.copy()
            dp[k] += eps
            dm[k] -= eps
            fd = (ipoc(dp, P3, 0.01) - ipoc(dm, P3, 0.01)) / (2 * eps)
            assert lin.grads[0, k] == pytest.approx(fd, rel=1e-5)

    def test_empty_rejected(self):
        with pytest.raises(AssemblyError):
            linearize_tpoc([])


def quadratic_form(sp, Q, y):
    """y' Q y for a vector of jets y, shape (len(Q), size)."""
    return sum(Q[i, j] * mul(sp, y[i], y[j])
               for i in range(len(Q)) for j in range(len(Q)))


def chan_factor(sp, dr, it):
    v = quadratic_form(sp, np.linalg.inv(it.P2), it.basis @ dr)
    u = it.hbr ** 2 / math.sqrt(np.linalg.det(it.P2))
    return compose_series(sp, v, chan_series(u, v[0]))


def ipoc_factor(sp, dr, it):
    d2 = quadratic_form(sp, np.linalg.inv(it.P3), dr)
    p = ipoc(dr[:, 0], it.P3, it.hbr)
    return compose_series(sp, d2, [p, -0.5 * p, 0.25 * p])


def kernel_total(items, factor):
    """Value, gradient and trust-region factors of 1 - prod_k (1 - w_k p_k)
    expanded to second order on the jet kernels."""
    n = len(items)
    sp = jet_space(3 * n, 2)
    x = identity(sp, np.zeros(3 * n))
    total = np.zeros(sp.size)
    total[0] = 1.0
    for k, it in enumerate(items):
        dr = x[3 * k:3 * k + 3].copy()
        dr[:, 0] += it.dr_ref
        f = -it.weight * factor(sp, dr, it)
        f[0] += 1.0
        total = mul(sp, total, f)
    g = -gradient(sp, total)
    H = hessian(sp, total)
    xi = np.sqrt((H ** 2).sum(axis=0)) / np.linalg.norm(g)
    return 1.0 - total[0], g.reshape(n, 3), xi.reshape(n, 3)


class TestRiskOracle:
    """The closed-form linearizations against the jet-kernel expansion of
    the same product-form total."""

    def items(self, long_term):
        rng = np.random.default_rng(21 if long_term else 22)
        out = []
        for k in range(4):
            M = rng.standard_normal((3, 3)) * 0.2
            P3 = M @ M.T + 0.01 * np.eye(3)
            dr = rng.standard_normal(3) * 0.2
            hbr, w = rng.uniform(0.01, 0.05), rng.uniform(0.2, 1.0)
            if long_term:
                out.append(LongTermItem(dr_ref=dr, P3=P3, hbr=hbr, weight=w))
            else:
                B = bplane_basis(rng.standard_normal(3), rng.standard_normal(3))
                out.append(ShortTermItem(node=2 * k, dr_ref=dr, basis=B,
                                         P2=B @ P3 @ B.T, hbr=hbr, weight=w))
        return out

    @pytest.mark.parametrize("long_term", [False, True], ids=["tpoc", "tipoc"])
    def test_matches_kernel_expansion(self, long_term):
        items = self.items(long_term)
        lin = (linearize_tipoc if long_term else linearize_tpoc)(items)
        value, grads, xi = kernel_total(
            items, ipoc_factor if long_term else chan_factor)
        assert value > 1e-5
        assert lin.value == pytest.approx(value, rel=1e-12)
        for got, ref in ((lin.grads, grads), (lin.xi, xi)):
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def double_integrator_segment(dt, n=1):
    """Maps of n double-integrator segments of duration dt, stacked."""
    A = np.eye(6)
    A[:3, 3:] = dt * np.eye(3)
    B = np.vstack([0.5 * dt ** 2 * np.eye(3), dt * np.eye(3)])
    return SegmentMaps(A=np.tile(A, (n, 1, 1)), B=np.tile(B, (n, 1, 1)),
                       c=np.zeros((n, 6)), xi=np.zeros((n, 9)))


def phi_b(seg, i, j):
    """A_{i-1}...A_{j+1} B_j, by explicit products."""
    M = seg.B[j]
    for m in range(j + 1, i):
        M = seg.A[m] @ M
    return M


def dense_reach(seg, x_init, x_ref, u_scale):
    """The reach bound of nodes 0..N from explicit products of the maps:
    free response distance plus u_scale times the row norms of
    A_{i-1}...A_{j+1} B_j summed over j < i."""
    N = len(seg.A)
    reach, x = np.empty((N + 1, 6)), np.asarray(x_init, float)
    for i in range(N + 1):
        reach[i] = np.abs(x - x_ref[i])
        for j in range(i):
            reach[i] += u_scale * np.linalg.norm(phi_b(seg, i, j), axis=1)
        if i < N:
            x = seg.A[i] @ x + seg.c[i]
    return reach


class TestAssembly:
    def test_zero_conjunction_gives_zero_control(self):
        dt = 10.0
        grid = NodeGrid(times=np.array([0.0, dt, 2 * dt]))
        segs = double_integrator_segment(dt, 2)
        prob = assemble(segs, grid, x_ref=np.zeros((3, 6)), x_init=np.zeros(6),
                        risk=RiskRows())
        res = solve(prob.to_socp())
        assert res.status == "optimal"
        assert np.max(np.abs(res.x[prob.var_map["u"]])) < 1e-9

    def test_bookkeeping_counts(self):
        # n_var = 10 N + 6; equalities = 6(N+1); cones: N Q4
        for N in (1, 3, 7):
            grid = NodeGrid(times=np.linspace(0, 10 * N, N + 1))
            segs = double_integrator_segment(10.0, N)
            prob = assemble(segs, grid, x_ref=np.zeros((N + 1, 6)),
                            x_init=np.zeros(6), risk=RiskRows())
            assert len(prob.objective) == 10 * N + 6
            assert prob.eq_matrix.shape[0] == 6 * (N + 1)
            assert prob.dims.soc == (4,) * N
            assert prob.dims.nonneg == N  # only the sigma <= 1 rows here

    def test_analytic_single_impulse_deflection(self):
        # one segment, double integrator, one half-space a.r_1 >= rho:
        # cheapest control is along a with |u| = rho / (a_hat . a_hat dt^2/2)
        dt = 10.0
        a = np.array([0.0, 1.0, 0.0])
        rho = 0.5
        grid = NodeGrid(times=np.array([0.0, dt]))
        segs = double_integrator_segment(dt)
        risk = RiskRows(halfspaces=[(1, a, rho)])
        prob = assemble(segs, grid, x_ref=np.zeros((2, 6)),
                        x_init=np.zeros(6), risk=risk)
        res = solve(prob.to_socp())
        assert res.status == "optimal"
        u = res.x[prob.var_map["u"]]
        u_req = rho / (0.5 * dt ** 2)
        assert np.allclose(u, u_req * a, atol=1e-6)
        assert res.obj == pytest.approx(u_req * dt, rel=1e-6)

    def test_halfspace_constraint_enforced(self):
        dt = 10.0
        grid = NodeGrid(times=np.array([0.0, dt]))
        segs = double_integrator_segment(dt)
        risk = RiskRows(halfspaces=[(1, np.array([1.0, 1.0, 0.0]), 0.3)])
        prob = assemble(segs, grid, x_ref=np.zeros((2, 6)),
                        x_init=np.zeros(6), risk=risk)
        res = solve(prob.to_socp())
        xN = res.x[prob.var_map["x"]][6:12]
        assert xN[0] + xN[1] >= 0.3 - 1e-9

    def test_trust_region_rows_bound_states(self):
        dt = 10.0
        grid = NodeGrid(times=np.array([0.0, dt]))
        seg = double_integrator_segment(dt)
        seg.xi[0] = np.concatenate([np.full(6, 0.1), np.zeros(3)])
        x_ref = np.zeros((2, 6))
        risk = RiskRows(halfspaces=[(1, np.array([0.0, 1.0, 0.0]), 100.0)])
        prob = assemble(seg, grid, x_ref=x_ref, x_init=np.zeros(6),
                        risk=risk, nu_bar=1e-2, reach=np.inf)
        # the half-space wants a huge displacement; trust region on node 0
        # does not stop node 1, but the count of nonneg rows must grow
        # (with no reach given, node 0 starts at its reference and its rows
        # all go)
        assert prob.dims.nonneg == 1 + 12 + 1

    def test_rows_match_dense_oracle(self):
        # N = 2 with every row family: proximal cones, a short-term total
        # over nodes 1 and 2 (a running sum and its equality row) with its
        # risk trust region, a long-term total with 3 items at one node
        # (one row), and a half-space with a zero component
        N, dt, u_scale, nu_bar, prox = 2, 3.0, 0.5, 1e-2, 0.05
        rng = np.random.default_rng(11)
        grid = NodeGrid(times=dt * np.arange(N + 1.0))
        seg = double_integrator_segment(dt, N)
        seg.c = rng.normal(size=(N, 6))
        seg.xi[:, :6] = rng.uniform(0.1, 1.0, (N, 6))
        seg.xi[0, 2] = seg.xi[1, 4] = 0.0
        x_ref = rng.normal(size=(N + 1, 6))
        x_init = rng.normal(size=6)
        u_prev = rng.normal(size=(N, 3))
        st_grads, st_ref = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        st_xi = rng.uniform(0.1, 1.0, (2, 3))
        st_xi[1, 0] = 0.0
        lt_grads = rng.normal(size=(3, 3))
        risk = RiskRows(
            halfspaces=[(2, np.array([1.5, 0.0, -2.0]), 0.3)],
            totals=[([1, 2], st_grads, 1e-6, st_ref, st_xi, 0.02),
                    ([2, 2, 2], lt_grads, 2e-6, None, None, 0.0)])
        prob = assemble(seg, grid, x_ref, x_init, risk, nu_bar=nu_bar,
                        u_scale=u_scale, u_prev=u_prev, prox=prox,
                        reach=np.inf)

        # variables: x 0-17, u 18-23, sigma 24-25, pn 26-27, and w_1 28,
        # the short-term total's running sum over node 1
        def x(i, k):
            return 6 * i + k

        def u(i, k):
            return 18 + 3 * i + k

        n_var = 29
        c = np.zeros(n_var)
        c[24:26] = dt * u_scale
        c[26:28] = prox * dt * u_scale
        A = np.zeros((19, n_var))
        A[np.arange(6), np.arange(6)] = 1.0
        b = np.concatenate([x_init, seg.c.ravel(), [0.0]])
        for i in range(N):
            for j in range(6):
                r = 6 + 6 * i + j
                A[r, x(i + 1, j)] = 1.0
                A[r, x(i, 0):x(i, 6)] = -seg.A[i, j]
                A[r, u(i, 0):u(i, 3)] = -seg.B[i, j] * u_scale
        # w_1 - g_0 . r_1 = 0
        A[18, 28] = 1.0
        A[18, x(1, 0):x(1, 3)] = -st_grads[0]
        G, h = [], []

        def row(entries, rhs):
            g = np.zeros(n_var)
            for col, v in entries:
                g[col] += v
            G.append(g)
            h.append(rhs)

        def trust(col, ref, xi, nu):
            if xi > 1e-14:
                row([(col, 1.0)], ref + nu / xi)
                row([(col, -1.0)], nu / xi - ref)

        for i in range(N):
            row([(24 + i, 1.0)], 1.0)
        for i in range(N):
            for k in range(6):
                trust(x(i, k), x_ref[i, k], seg.xi[i, k], nu_bar)
        row([(x(2, 0), -1.5), (x(2, 2), 2.0)], -0.3)
        row([(28, 1.0)] + [(x(2, k), st_grads[1, k]) for k in range(3)], 1e-6)
        for m, nd in enumerate([1, 2]):
            for k in range(3):
                trust(x(nd, k), st_ref[m, k], st_xi[m, k], 0.02)
        row([(x(2, k), lt_grads[m, k]) for m in range(3) for k in range(3)],
            2e-6)
        n_nonneg = len(h)
        for i in range(N):
            row([(24 + i, -1.0)], 0.0)
            for k in range(3):
                row([(u(i, k), -1.0)], 0.0)
        for i in range(N):
            row([(26 + i, -1.0)], 0.0)
            for k in range(3):
                row([(u(i, k), -1.0)], -u_prev[i, k])

        assert np.array_equal(prob.objective, c)
        assert np.array_equal(prob.eq_matrix.toarray(), A)
        assert np.array_equal(prob.eq_rhs, b)
        assert np.array_equal(prob.ineq_matrix.toarray(), np.array(G))
        assert np.array_equal(prob.ineq_rhs, np.array(h))
        assert prob.dims.nonneg == n_nonneg == 2 + 2 * 10 + 1 + 1 + 2 * 5 + 1
        assert prob.dims.soc == (4, 4, 4, 4)
        # zero map and half-space entries are left out, not stored
        assert np.all(prob.eq_matrix.data != 0.0)
        assert np.all(prob.ineq_matrix.data != 0.0)

    def test_lean_form_drops_only_unreachable_trust_rows(self):
        # every row family, with the state reach and without a bound on it:
        # the lean form is the full one less the state trust-region row
        # pairs wider than the reach, node 0's included (the reference
        # starts at x_init)
        N, dt, nu_bar, u_scale = 3, 2.0, 1e-2, 0.5
        rng = np.random.default_rng(12)
        grid = NodeGrid(times=dt * np.arange(N + 1.0))
        seg = double_integrator_segment(dt, N)
        seg.c = rng.normal(size=(N, 6))
        seg.xi[:, :6] = rng.uniform(0.1, 1.0, (N, 6))
        seg.xi[1, 3] = seg.xi[2, 0] = 1e-6
        risk = RiskRows(
            halfspaces=[(3, np.array([1.5, 0.0, -2.0]), 0.3)],
            totals=[([1, 3], rng.normal(size=(2, 3)), 1e-6,
                     rng.normal(size=(2, 3)), rng.uniform(0.1, 1.0, (2, 3)),
                     0.02)])
        x_ref = rng.normal(size=(N + 1, 6))
        args = (seg, grid, x_ref, x_ref[0].copy(), risk)
        kwargs = dict(u_scale=u_scale, u_prev=rng.normal(size=(N, 3)),
                      prox=0.05, nu_bar=nu_bar)
        full = assemble(*args, reach=np.inf, **kwargs)
        lean = assemble(*args, **kwargs)

        # the state trust rows follow the N sigma rows, one pair per entry
        # with a nonzero ratio, node by node
        on = seg.xi[:, :6] > 1e-14
        binds = nu_bar / seg.xi[:, :6] <= dense_reach(seg, x_ref[0], x_ref,
                                                      u_scale)[:N]
        dropped = np.zeros(full.dims.nonneg, bool)
        dropped[N:N + 2 * on.sum()] = np.repeat(~binds[on], 2)
        assert dropped[N:N + 12].all()  # node 0's 12 rows
        assert dropped[N + 12:].sum() == 4  # (1, 3) and (2, 0)
        assert binds[1:].sum() == 10  # wider than the ratio, kept

        rows = np.ones(len(full.ineq_rhs), bool)
        rows[:full.dims.nonneg] = ~dropped
        assert lean.var_map == full.var_map
        assert np.array_equal(lean.objective, full.objective)
        assert np.array_equal(lean.eq_matrix.toarray(),
                              full.eq_matrix.toarray())
        assert np.array_equal(lean.eq_rhs, full.eq_rhs)
        assert np.array_equal(lean.ineq_matrix.toarray(),
                              full.ineq_matrix.toarray()[rows])
        assert np.array_equal(lean.ineq_rhs, full.ineq_rhs[rows])
        assert lean.dims.nonneg == full.dims.nonneg - dropped.sum()
        assert lean.dims.soc == full.dims.soc == (4,) * N + (4,) * N

    def test_segment_count_mismatch_rejected(self):
        grid = NodeGrid(times=np.array([0.0, 1.0, 2.0]))
        with pytest.raises(AssemblyError):
            assemble(double_integrator_segment(1.0), grid,
                     x_ref=np.zeros((3, 6)), x_init=np.zeros(6), risk=RiskRows())


def fly(seg, x_init, u, u_scale):
    """Node states 0..N of the linear model under controls ``u``."""
    x = [np.asarray(x_init, float)]
    for A, B, c, uj in zip(seg.A, seg.B, seg.c, u):
        x.append(A @ x[-1] + u_scale * B @ uj + c)
    return np.array(x)


class TestStateReach:
    N, u_scale = 6, 0.7

    def model(self, seed):
        rng = np.random.default_rng(seed)
        N = self.N
        seg = SegmentMaps(A=np.eye(6) + 0.2 * rng.normal(size=(N, 6, 6)),
                          B=rng.normal(size=(N, 6, 3)),
                          c=rng.normal(size=(N, 6)), xi=np.zeros((N, 9)))
        return seg, rng.normal(size=6), rng.normal(size=(N + 1, 6)), rng

    def test_matches_explicit_products(self):
        seg, x_init, x_ref, _ = self.model(1)
        got = convexify.state_reach(seg, x_init, x_ref, self.u_scale)
        ref = dense_reach(seg, x_init, x_ref, self.u_scale)
        assert got.shape == (self.N + 1, 6)
        assert np.max(np.abs(got - ref) / ref) <= 1e-13
        assert np.array_equal(got[0], np.abs(x_init - x_ref[0]))
        at_ref = convexify.state_reach(seg, x_ref[0], x_ref, self.u_scale)
        assert np.array_equal(at_ref[0], np.zeros(6))

    def test_bounds_every_flight_and_is_attained(self):
        seg, x_init, x_ref, rng = self.model(2)
        N, us = self.N, self.u_scale
        reach = convexify.state_reach(seg, x_init, x_ref, us)
        for vertex in (False, True):
            for _ in range(200):
                u = rng.normal(size=(N, 3))
                u /= np.linalg.norm(u, axis=1)[:, None]
                if not vertex:
                    u *= rng.uniform(0.0, 1.0, (N, 1))
                dev = np.abs(fly(seg, x_init, u, us) - x_ref)
                assert np.all(dev <= reach * (1.0 + 1e-12))
        # the controls along row k of each Phi(i, j+1) B_j, signed as the
        # free response's offset, reach the bound
        i, k = N, 2
        free = fly(seg, x_init, np.zeros((N, 3)), us)
        u = np.zeros((N, 3))
        for j in range(i):
            row = phi_b(seg, i, j)[k]
            u[j] = np.sign(free[i, k] - x_ref[i, k]) * row \
                / np.linalg.norm(row)
        dev = abs(fly(seg, x_init, u, us)[i, k] - x_ref[i, k])
        assert dev == pytest.approx(reach[i, k], rel=1e-12)

    def test_dropped_rows_leave_the_optimum(self):
        # four double-integrator segments of unit length from rest and a
        # half-space 2 along y at the last node: the reach of node 1 is
        # 0.5 in position and 1 in velocity, of node 2 1.5 and 2.  The
        # y rows of nodes 1 and 2 are tighter than that and bind; every
        # other row is at least ten times wider and is left out
        N = 4
        grid = NodeGrid(times=np.arange(N + 1.0))
        seg = double_integrator_segment(1.0, N)
        reach = dense_reach(seg, np.zeros(6), np.zeros((N + 1, 6)), 1.0)
        seg.xi[:, :6] = 1e-2 / (10.0 * np.maximum(reach[:N], 1.0))
        seg.xi[1, 1], seg.xi[2, 4] = 1e-2 / 0.1, 1e-2 / 0.5
        risk = RiskRows(halfspaces=[(N, np.array([0.0, 1.0, 0.0]), 2.0)])
        build = functools.partial(assemble, seg, grid, np.zeros((N + 1, 6)),
                                  np.zeros(6), risk, nu_bar=1e-2)
        lean = build()
        every = build(reach=np.full((N + 1, 6), np.inf))
        loose = build(nu_bar=1e9)
        # sigma rows, the half-space, and 2 of the 24 state pairs
        assert lean.dims.nonneg == N + 1 + 4
        assert every.dims.nonneg == N + 1 + 2 * 24
        assert loose.dims.nonneg == N + 1
        got, ref, free = (solve(p.to_socp()) for p in (lean, every, loose))
        assert got.status == ref.status == free.status == "optimal"
        assert got.obj == pytest.approx(ref.obj, rel=1e-8)
        # the kept rows are the ones that bind
        assert got.obj > free.obj * (1.0 + 1e-3)

    def test_risk_trust_rows_beyond_the_reach_go(self):
        # the same four segments and a total at the last node that demands
        # y >= 2 there, whose trust rows are about ref = (2, 0, 0): the x
        # pair is wider than the position reach r of that node but not
        # than r + |ref - x_ref| = r + 2 and stays, the y pair is wider
        # than r and goes, the z pair is r / 2 wide and stays
        N = 4
        grid = NodeGrid(times=np.arange(N + 1.0))
        seg = double_integrator_segment(1.0, N)
        r = dense_reach(seg, np.zeros(6), np.zeros((N + 1, 6)), 1.0)[N, 0]
        xi = 1.0 / np.array([[r + 1.0, r + 1.0, r / 2]])
        risk = RiskRows(totals=[([N], np.array([[0.0, -1.0, 0.0]]), -2.0,
                                 np.array([[2.0, 0.0, 0.0]]), xi, 1.0)])
        build = functools.partial(assemble, seg, grid, np.zeros((N + 1, 6)),
                                  np.zeros(6), risk)
        lean, every = build(), build(reach=np.inf)
        # sigma rows, the total, and its trust pairs
        assert lean.dims.nonneg == N + 1 + 2 * 2
        assert every.dims.nonneg == N + 1 + 2 * 3
        got, ref = (solve(p.to_socp()) for p in (lean, every))
        assert got.status == ref.status == "optimal"
        assert got.obj == pytest.approx(ref.obj, rel=1e-8)
