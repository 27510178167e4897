import math

import numpy as np
import pytest

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


def double_integrator_segment(dt):
    A = np.eye(6)
    A[:3, 3:] = dt * np.eye(3)
    B = np.vstack([0.5 * dt ** 2 * np.eye(3), dt * np.eye(3)])
    return SegmentMaps(A=A, B=B, c=np.zeros(6), xbar=np.zeros(6),
                       xi=np.zeros(9))


class TestAssembly:
    def test_zero_conjunction_gives_zero_control(self):
        dt = 10.0
        grid = NodeGrid(times=np.array([0.0, dt, 2 * dt]))
        segs = [double_integrator_segment(dt)] * 2
        prob = assemble(segs, grid, x_ref=np.zeros((3, 6)), x_init=np.zeros(6),
                        risk=RiskRows())
        res = solve(prob.to_socp())
        assert res.status == "optimal"
        assert np.max(np.abs(res.x[prob.var_map["u"]])) < 1e-9
        assert np.max(np.abs(res.x[prob.var_map["vnorm"]])) < 1e-9

    def test_bookkeeping_counts(self):
        # n_var = 17 N + 6; equalities = 6(N+1); cones: N Q4 + N Q7
        for N in (1, 3, 7):
            grid = NodeGrid(times=np.linspace(0, 10 * N, N + 1))
            segs = [double_integrator_segment(10.0)] * N
            prob = assemble(segs, grid, x_ref=np.zeros((N + 1, 6)),
                            x_init=np.zeros(6), risk=RiskRows())
            assert len(prob.objective) == 17 * N + 6
            assert prob.eq_matrix.shape[0] == 6 * (N + 1)
            assert prob.dims.soc == tuple([4] * N + [7] * N)
            assert prob.dims.nonneg == N  # only the sigma <= 1 rows here

    def test_analytic_single_impulse_deflection(self):
        # one segment, double integrator, one half-space a.r_1 >= rho:
        # cheapest control is along a with |u| = rho / (a_hat . a_hat dt^2/2)
        dt = 10.0
        a = np.array([0.0, 1.0, 0.0])
        rho = 0.5
        grid = NodeGrid(times=np.array([0.0, dt]))
        segs = [double_integrator_segment(dt)]
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
        segs = [double_integrator_segment(dt)]
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
        seg.xi = np.concatenate([np.full(6, 0.1), np.zeros(3)])
        x_ref = np.zeros((2, 6))
        risk = RiskRows(halfspaces=[(1, np.array([0.0, 1.0, 0.0]), 100.0)])
        prob = assemble([seg], grid, x_ref=x_ref, x_init=np.zeros(6),
                        risk=risk, nu_bar=1e-2)
        # the half-space wants a huge displacement; trust region on node 0
        # does not stop node 1, but the count of nonneg rows must grow
        assert prob.dims.nonneg == 1 + 12 + 1

    def test_segment_count_mismatch_rejected(self):
        grid = NodeGrid(times=np.array([0.0, 1.0, 2.0]))
        with pytest.raises(AssemblyError):
            assemble([double_integrator_segment(1.0)], grid,
                     x_ref=np.zeros((3, 6)), x_init=np.zeros(6), risk=RiskRows())
