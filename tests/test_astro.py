import math

import numpy as np
import pytest

from camopt import astro
from camopt.astro import (
    GM_EARTH,
    J2_EARTH,
    R_EARTH,
    DegenerateEncounterError,
    Dynamics,
    PropagationError,
    ScenarioError,
    build_grid,
    eom,
    flow,
    linearize_segment,
    propagate,
    refine_tca,
)


def circular_state(r, incl=0.0):
    v = math.sqrt(GM_EARTH / r)
    return np.array([r, 0.0, 0.0, 0.0, v * math.cos(incl), v * math.sin(incl)])


def period(a):
    return 2.0 * math.pi * math.sqrt(a ** 3 / GM_EARTH)


def energy(x):
    return 0.5 * np.dot(x[3:], x[3:]) - GM_EARTH / np.linalg.norm(x[:3])


class TestPropagation:
    def test_circular_orbit_returns(self):
        dyn = Dynamics.two_body()
        x0 = circular_state(6928.0)
        T = period(6928.0)
        xT = flow(x0, 0.0, T, (0, 0, 0), dyn, tol=1e-11)
        scale = np.array([6928.0] * 3 + [math.sqrt(GM_EARTH / 6928.0)] * 3)
        assert np.max(np.abs((xT - x0) / scale)) < 1e-8

    def test_energy_conservation(self):
        dyn = Dynamics.two_body()
        x0 = circular_state(7000.0, incl=0.6)
        x0[3] += 0.3  # make it eccentric
        xT = flow(x0, 0.0, 3 * period(7000.0), (0, 0, 0), dyn, tol=1e-12)
        assert abs(energy(xT) - energy(x0)) / abs(energy(x0)) < 1e-10

    def test_backward_flow_round_trip(self):
        dyn = Dynamics.two_body_j2()
        x0 = circular_state(6928.0, incl=0.8)
        u = np.array([1e-7, -2e-7, 5e-8])
        x1 = flow(x0, 0.0, 300.0, u, dyn)
        back = flow(x1, 300.0, 0.0, u, dyn)
        assert np.max(np.abs(back - x0)) < 1e-9

    def test_j2_secular_raan_rate(self):
        # closed-form secular drift: dRAAN/dt = -1.5 n J2 (Re/p)^2 cos i
        dyn = Dynamics.two_body_j2()
        a, incl = 6928.0, math.radians(53.0)
        v = math.sqrt(GM_EARTH / a)
        x0 = np.array([a, 0.0, 0.0, 0.0, v * math.cos(incl), v * math.sin(incl)])
        T = period(a)
        n_orbits = 10
        xT = flow(x0, 0.0, n_orbits * T, (0, 0, 0), dyn, tol=1e-11)
        h = np.cross(xT[:3], xT[3:])
        raan = math.atan2(h[0], -h[1])
        rate_num = raan / (n_orbits * T)
        n = math.sqrt(GM_EARTH / a ** 3)
        rate_ref = -1.5 * n * J2_EARTH * (R_EARTH / a) ** 2 * math.cos(incl)
        assert abs(rate_num - rate_ref) / abs(rate_ref) < 0.01

    def test_constant_thrust_rectilinear(self):
        # huge radius makes gravity negligible against the control term
        dyn = Dynamics(mu=1e-12)
        x0 = np.array([1e6, 0, 0, 0, 0, 0.0])
        u = np.array([0.0, 1e-6, 0.0])
        xT = flow(x0, 0.0, 100.0, u, dyn, tol=1e-13)
        assert abs(xT[1] - 0.5 * 1e-6 * 100.0 ** 2) < 1e-9
        assert abs(xT[4] - 1e-6 * 100.0) < 1e-12

    def test_backward_raises(self):
        with pytest.raises(PropagationError):
            propagate(np.zeros(6) + 1.0, 0.0, -1.0, lambda t, y: y)

    def test_zero_radius_raises(self):
        from camopt.dajet import DomainError

        with pytest.raises(DomainError):
            eom(np.zeros(6), np.zeros(3), Dynamics.two_body())


class TestLinearization:
    def setup_method(self):
        self.dyn = Dynamics.two_body()
        self.x0 = circular_state(6928.0, incl=0.3)
        self.u0 = np.zeros(3)
        self.dt = 300.0

    def test_stm_matches_finite_differences(self):
        maps = linearize_segment(self.x0[None], self.u0[None], [self.dt], self.dyn,
                                tol=1e-13)
        eps = 1e-4
        Afd = np.zeros((6, 6))
        for j in range(6):
            xp, xm = self.x0.copy(), self.x0.copy()
            xp[j] += eps
            xm[j] -= eps
            Afd[:, j] = (
                flow(xp, 0, self.dt, self.u0, self.dyn, 1e-13)
                - flow(xm, 0, self.dt, self.u0, self.dyn, 1e-13)
            ) / (2 * eps)
        assert np.linalg.norm(maps.A[0] - Afd) / np.linalg.norm(Afd) < 1e-5

    def test_control_map_impulse_pattern(self):
        # for a short segment B ~ [dt^2/2 I; dt I]
        maps = linearize_segment(self.x0[None], self.u0[None], [self.dt], self.dyn,
                                tol=1e-13)
        assert np.allclose(np.diag(maps.B[0][:3]), 0.5 * self.dt ** 2, rtol=0.05)
        assert np.allclose(np.diag(maps.B[0][3:]), self.dt, rtol=0.05)

    def test_residual_closes_reference(self):
        maps = linearize_segment(self.x0[None], self.u0[None], [self.dt], self.dyn,
                                tol=1e-13)
        xref = flow(self.x0, 0, self.dt, self.u0, self.dyn, 1e-13)
        recon = maps.A[0] @ self.x0 + maps.B[0] @ self.u0 + maps.c[0]
        assert np.max(np.abs(recon - xref)) < 1e-7

    def test_endpoint_prediction_second_order(self):
        # the linear maps should predict a perturbed endpoint to first order
        maps = linearize_segment(self.x0[None], self.u0[None], [self.dt], self.dyn,
                                tol=1e-13)
        dx = np.array([0.5, -0.3, 0.2, 1e-4, -2e-4, 1e-4])
        xpert = flow(self.x0 + dx, 0, self.dt, self.u0, self.dyn, 1e-13)
        pred = maps.A[0] @ (self.x0 + dx) + maps.c[0]
        assert np.linalg.norm(xpert - pred) < 1e-3 * np.linalg.norm(dx)

    def test_nonlinearity_index_shape_and_sign(self):
        maps = linearize_segment(self.x0[None], self.u0[None], [self.dt], self.dyn,
                                tol=1e-12)
        assert maps.xi[0].shape == (9,)
        assert np.all(maps.xi[0] >= 0)
        # position perturbations excite nonlinearity more weakly per km
        # than control per unit acceleration over a short arc
        assert maps.xi[0][0] < maps.xi[0][6]


SCALED_DYNAMICS = pytest.mark.parametrize(
    "dyn", [Dynamics.two_body(1.0),
            Dynamics.two_body_j2(1.0, J2_EARTH, R_EARTH / 6928.0)],
    ids=["two_body", "j2"])


def segment_batch():
    """Start states, controls and durations of 7 segments in scaled units
    (radius 1, one orbit is 2 pi): grid segments of 0.12, one split by a
    TCA node into 0.0046 + 0.1154, and a row of 1.9."""
    rng = np.random.default_rng(4)
    r = 1.0 + 0.006 * np.arange(7)
    incl = 0.15 * np.arange(7)
    x = np.column_stack([r, 0 * r, 0 * r, 0 * r, np.cos(incl) / np.sqrt(r),
                         np.sin(incl) / np.sqrt(r)])
    x[:, 3:] += rng.uniform(-1e-3, 1e-3, (7, 3))
    u = rng.uniform(-1e-3, 1e-3, (7, 3))
    dt = np.array([0.12, 0.12, 0.0046, 0.1154, 0.12, 1.9, 0.12])
    return x, u, dt


class TestBatchedLinearization:
    @SCALED_DYNAMICS
    def test_rows_match_single_row_calls(self, dyn, monkeypatch):
        x, u, dt = segment_batch()
        batch = linearize_segment(x, u, dt, dyn)

        calls = []
        counted = astro._eom_jets
        monkeypatch.setattr(astro, "_eom_jets",
                            lambda *a: calls.append(1) or counted(*a))
        evals = []
        for i in range(7):
            calls.clear()
            one = linearize_segment(x[i:i + 1], u[i:i + 1], dt[i:i + 1], dyn)
            evals.append(len(calls))
            for name in ("A", "B", "c", "xi"):
                assert np.array_equal(getattr(batch, name)[i], getattr(one, name)[0]), \
                    (i, name)
        # the first trial step spans the whole segment and takes 13
        # evaluations: the short TCA segment is done in it, the long row
        # rejects it while the batch moves the other rows on
        assert evals[2] == 13
        assert evals[5] > 13

    def test_second_order_ratio_matches_differenced_maps(self):
        # xi is built from the second-order coefficients of the end state;
        # central differences of the first-order maps give the same Hessian
        dyn = Dynamics.two_body_j2(1.0, J2_EARTH, R_EARTH / 6928.0)
        z0 = np.array([1.02, 0.01, 0.03, -0.02, 0.98, 0.12, 1e-3, -2e-3, 5e-4])
        h = 1e-4
        z = np.array([z0] + [z0 + s * h * e for e in np.eye(9) for s in (1.0, -1.0)])
        segs = linearize_segment(z[:, :6], z[:, 6:], np.full(len(z), 0.4), dyn,
                                 tol=1e-13)
        G = [np.hstack([A, B]) for A, B in zip(segs.A, segs.B)]
        H = np.stack([(G[1 + 2 * b] - G[2 + 2 * b]) / (2.0 * h) for b in range(9)],
                     axis=2)
        xi = np.sqrt((H ** 2).sum(axis=(0, 1))) / np.linalg.norm(G[0])
        assert np.allclose(segs.xi[0], xi, rtol=1e-5, atol=0.0)

    def test_bad_shapes_rejected(self):
        x = circular_state(6928.0)
        with pytest.raises(PropagationError):
            linearize_segment(x, np.zeros(3), 60.0, Dynamics.two_body())
        with pytest.raises(PropagationError):
            linearize_segment(x[None], np.zeros((1, 3)), [0.0], Dynamics.two_body())


class TestOrderOneMaps:
    """With the nonlinearity ratios handed in, the segments fly order-1
    jets, which carry everything A, B and c need."""

    @SCALED_DYNAMICS
    def test_maps_match_the_order_two_flight(self, dyn):
        x, u, dt = segment_batch()
        two = linearize_segment(x, u, dt, dyn)
        xi = np.random.default_rng(5).uniform(0.0, 3.0, (len(dt), 9))
        one = linearize_segment(x, u, dt, dyn, xi=xi)
        for name in ("A", "B", "c"):
            got, ref = getattr(one, name), getattr(two, name)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name
        assert np.array_equal(one.xi, xi)

    @SCALED_DYNAMICS
    def test_rows_match_single_row_calls(self, dyn):
        x, u, dt = segment_batch()
        xi = linearize_segment(x, u, dt, dyn).xi
        batch = linearize_segment(x, u, dt, dyn, xi=xi)
        for i in range(len(dt)):
            one = linearize_segment(x[i:i + 1], u[i:i + 1], dt[i:i + 1], dyn,
                                    xi=xi[i:i + 1])
            for name in ("A", "B", "c", "xi"):
                assert np.array_equal(getattr(batch, name)[i],
                                      getattr(one, name)[0]), (i, name)

    def test_bad_xi_shape_rejected(self):
        x, u, dt = segment_batch()
        with pytest.raises(PropagationError):
            linearize_segment(x, u, dt, Dynamics.two_body(1.0),
                              xi=np.zeros((len(dt), 6)))


class TestGrid:
    def test_uniform_spacing(self):
        grid = build_grid(0.0, 5760.0, 5760.0, 60)
        assert len(grid.times) == 61
        assert np.allclose(np.diff(grid.times), 96.0)

    def test_tca_node_inserted(self):
        grid = build_grid(0.0, 5760.0, 5760.0, 60, {(0, 0): 130.0})
        k = grid.conjunction_nodes[(0, 0)]
        assert grid.times[k] == pytest.approx(130.0, abs=1e-12)

    def test_tca_near_node_merged(self):
        grid = build_grid(0.0, 5760.0, 5760.0, 60, {(0, 0): 96.0 + 1e-9})
        assert len(grid.times) == 61
        k = grid.conjunction_nodes[(0, 0)]
        assert grid.times[k] == pytest.approx(96.0)

    def test_duplicate_tcas_merge(self):
        grid = build_grid(0.0, 5760.0, 5760.0, 60, {(0, 0): 130.0, (1, 0): 130.0})
        assert grid.conjunction_nodes[(0, 0)] == grid.conjunction_nodes[(1, 0)]
        assert np.all(np.diff(grid.times) > 0)

    def test_out_of_horizon_tca_rejected(self):
        with pytest.raises(ScenarioError):
            build_grid(0.0, 100.0, 5760.0, 60, {(0, 0): 200.0})

    def test_too_coarse_rejected(self):
        with pytest.raises(ScenarioError):
            build_grid(0.0, 100.0, 5760.0, 4)


class TestClosestApproach:
    def test_matches_brute_force_scan(self):
        import scipy.optimize as so

        dyn = Dynamics.two_body()
        r = 6928.0
        v = math.sqrt(GM_EARTH / r)
        xp = np.array([r, 0, 0, 0, v, 0.0])
        xs = np.array([r * math.cos(1e-3), r * math.sin(1e-3), 0, 0, -v, 0.0])

        def dist(t):
            return np.linalg.norm(
                flow(xp, 0, t, (0, 0, 0), dyn, 1e-12)[:3]
                - flow(xs, 0, t, (0, 0, 0), dyn, 1e-12)[:3]
            )

        ts = np.linspace(0.0, 5.0, 101)
        k = int(np.argmin([dist(t) for t in ts]))
        ref = so.minimize_scalar(dist, bracket=(ts[k - 1], ts[k], ts[k + 1])).x
        assert abs(refine_tca(xp, xs, dyn) - ref) < 0.05

    def test_negative_offset(self):
        dyn = Dynamics.two_body()
        r = 6928.0
        v = math.sqrt(GM_EARTH / r)
        xp = np.array([r, 0, 0, 0, v, 0.0])
        xs = np.array([r * math.cos(-1e-3), r * math.sin(-1e-3), 0, 0, -v, 0.0])
        dt = refine_tca(xp, xs, dyn)
        assert -5.0 < dt < 0.0

    def test_degenerate_rejected(self):
        dyn = Dynamics.two_body()
        x = circular_state(7000.0)
        with pytest.raises(DegenerateEncounterError):
            refine_tca(x, x.copy(), dyn)


def head_on(phase):
    """Primary on a circular equatorial orbit, secondary on the retrograde
    orbit ``phase`` radians ahead."""
    r = 6928.0
    v = math.sqrt(GM_EARTH / r)
    xp = np.array([r, 0, 0, 0, v, 0.0])
    xs = np.array([r * math.cos(phase), r * math.sin(phase), 0, 0, -v, 0.0])
    return xp, xs


def inclined_crossing():
    """Secondary on a circular orbit inclined by 1.2 rad, 100 m higher and
    2 mrad behind the node where it crosses the primary's orbit."""
    r, incl, th = 6928.0, 1.2, -2e-3
    xp = circular_state(r)
    rs = r + 0.1
    vs = math.sqrt(GM_EARTH / rs)
    ci, si = math.cos(incl), math.sin(incl)
    xs = np.array([rs * math.cos(th), rs * math.sin(th) * ci,
                   rs * math.sin(th) * si, -vs * math.sin(th),
                   vs * math.cos(th) * ci, vs * math.cos(th) * si])
    return xp, xs


class TestClosestApproachPrecision:
    """The offset is the root of g(t) = dr . dv, checked against brentq."""

    @pytest.mark.parametrize("dyn", [Dynamics.two_body(),
                                     Dynamics.two_body_j2()],
                             ids=["two_body", "j2"])
    @pytest.mark.parametrize("xp, xs", [head_on(1e-3), head_on(-1e-3),
                                        inclined_crossing()],
                             ids=["forward", "backward", "inclined"])
    def test_root_of_range_rate(self, dyn, xp, xs):
        from scipy.optimize import brentq

        def g(t):
            a = flow(xp, 0.0, t, (0, 0, 0), dyn)
            b = flow(xs, 0.0, t, (0, 0, 0), dyn)
            return (a[:3] - b[:3]) @ (a[3:] - b[3:])

        ref = brentq(g, -20.0, 20.0, xtol=1e-13, rtol=1e-15)
        dt = refine_tca(xp, xs, dyn)
        assert abs(dt - ref) < 1e-9
