import math
import time

import numpy as np
import pytest

from camopt import astro
from camopt.dajet import gradient, hessian, identity, jet_space
from camopt.astro import (
    GM_EARTH,
    J2_EARTH,
    R_EARTH,
    DegenerateEncounterError,
    Dynamics,
    PropagationError,
    ScenarioError,
    StiffnessError,
    build_grid,
    eom,
    flow,
    flow_jets,
    linearize_segment,
    refine_tca,
    xi_bound,
)
from camopt.scenario import elements_to_state


def circular_state(r, incl=0.0):
    v = math.sqrt(GM_EARTH / r)
    return np.array([r, 0.0, 0.0, 0.0, v * math.cos(incl), v * math.sin(incl)])


def period(a):
    return 2.0 * math.pi * math.sqrt(a ** 3 / GM_EARTH)


def energy(x):
    return 0.5 * np.dot(x[3:], x[3:]) - GM_EARTH / np.linalg.norm(x[:3])


# The RKF7(8) step loop on float64 arrays, as it was before the float
# kernel: the oracle that astro.flow must reproduce bit for bit.
_A = np.zeros((13, 12))
_C8 = np.zeros(13)
_C8[5] = 34.0 / 105
_C8[6] = _C8[7] = 9.0 / 35
_C8[8] = _C8[9] = 9.0 / 280
_C8[11] = _C8[12] = 41.0 / 840
_A[1, 0] = 2 / 27
_A[2, :2] = [1 / 36, 1 / 12]
_A[3, :3] = [1 / 24, 0, 1 / 8]
_A[4, :4] = [5 / 12, 0, -25 / 16, 25 / 16]
_A[5, :5] = [0.05, 0, 0, 0.25, 0.2]
_A[6, :6] = [-25 / 108, 0, 0, 125 / 108, -65 / 27, 125 / 54]
_A[7, :7] = [31 / 300, 0, 0, 0, 61 / 225, -2 / 9, 13 / 900]
_A[8, :8] = [2.0, 0, 0, -53 / 6, 704 / 45, -107 / 9, 67 / 90, 3.0]
_A[9, :9] = [-91 / 108, 0, 0, 23 / 108, -976 / 135, 311 / 54, -19 / 60,
             17 / 6, -1 / 12]
_A[10, :10] = [2383 / 4100, 0, 0, -341 / 164, 4496 / 1025, -301 / 82,
               2133 / 4100, 45 / 82, 45 / 164, 18 / 41]
_A[11, :11] = [3 / 205, 0, 0, 0, 0, -6 / 41, -3 / 205, -3 / 41, 3 / 41,
               6 / 41, 0]
_A[12, :12] = [-1777 / 4100, 0, 0, -341 / 164, 4496 / 1025, -289 / 82,
               2193 / 4100, 51 / 82, 33 / 164, 12 / 41, 0, 1.0]


def array_propagate(y0, t0, t1, u, dyn, tol):
    y = np.array(y0, dtype=float)
    t = t0
    span = t1 - t0
    if span == 0.0:
        return y
    h = span
    f = [None] * 13
    for _ in range(100000):
        if t >= t1:
            return y
        h = min(h, t1 - t)
        f[0] = np.array(astro.eom(y, u, dyn))
        while True:
            for k in range(1, 13):
                acc = y.copy()
                for j in range(k):
                    if _A[k, j] != 0.0:
                        acc = acc + (h * _A[k, j]) * f[j]
                f[k] = np.array(astro.eom(acc, u, dyn))
            ecomb = f[0] + f[10] - f[11] - f[12]
            err = float(np.max(np.abs(ecomb))) * abs(41.0 / 840 * h)
            if err <= tol or h <= 1e-14 * max(abs(t), 1.0):
                break
            h *= max(0.2, 0.8 * (tol / err) ** 0.125)
            assert h >= 1e-13 * max(span, 1.0)
        ynew = y.copy()
        for k in range(13):
            if _C8[k] != 0.0:
                ynew = ynew + (h * _C8[k]) * f[k]
        y = ynew
        t += h
        if err > 0:
            h *= min(5.0, 0.8 * (tol / err) ** 0.125)
    raise AssertionError("maximum number of steps exceeded")


def array_flow(y0, t0, t1, u, dyn, tol):
    if t1 < t0:
        yr = np.concatenate([y0[:3], -np.asarray(y0[3:])])
        out = array_propagate(yr, 0.0, t0 - t1, u, dyn, tol)
        return np.concatenate([out[:3], -out[3:]])
    return array_propagate(y0, t0, t1, u, dyn, tol)


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
            astro._rkf78([1.0] * 6, 0.0, -1.0, (0.0, 0.0, 0.0),
                         Dynamics.two_body(), 1e-12)

    def test_kernel_matches_array_loop(self):
        rng = np.random.default_rng(7)
        scaled_j2 = Dynamics(mu=1.0, j2=J2_EARTH,
                             r_ref=np.float64(R_EARTH) / np.float64(6928.0))
        for i in range(240):
            scaled = i % 4 >= 2
            if scaled:
                dyn = scaled_j2 if i % 2 else Dynamics(mu=1.0)
                r, t_unit = rng.uniform(0.95, 1.1), 1.0
            else:
                dyn = Dynamics.two_body_j2() if i % 2 else Dynamics.two_body()
                r, t_unit = rng.uniform(6600.0, 7600.0), 806.8
            x = circular_state(r, incl=rng.uniform(0.0, math.pi))
            x[:3] = x[:3] @ np.linalg.qr(rng.normal(size=(3, 3)))[0]
            x[3:] *= rng.uniform(0.97, 1.03)
            u = rng.normal(size=3) * (1e-3 / t_unit) ** 2 * (i % 3 != 0)
            t0 = rng.uniform(-2.0, 2.0) * t_unit * (i % 5 != 0)
            span = rng.uniform(-0.8, 0.8) * t_unit * (i % 6 != 0)
            times = np.array([t0, t0 + span])  # float64 epochs of a grid
            tol = 10.0 ** rng.uniform(-13.0, -10.0)
            got = flow(x, times[0], times[1], u, dyn, tol)
            want = array_flow(x, times[0], times[1], u, dyn, tol)
            assert np.array_equal(got, want), (i, got - want)

    def test_zero_radius_raises(self):
        from camopt.dajet import DomainError

        with pytest.raises(DomainError):
            eom(np.zeros(6), np.zeros(3), Dynamics.two_body())

    @pytest.mark.parametrize("dyn", [Dynamics.two_body(), Dynamics.two_body_j2(),
                                     Dynamics(mu=1e25)])
    @pytest.mark.parametrize("t1", [100.0, -100.0])
    def test_degenerate_state_raises_stiffness(self, dyn, t1):
        # r^3 underflows to 0 at |r| = 1e-110, and a NaN or inf in any
        # component makes the error estimate non-finite: every step is
        # rejected until the step size underflows
        states = [np.array([1e-110, 0.0, 0.0, 0.0, 1.0, 0.0])]
        for bad in (math.nan, math.inf, -math.inf):
            for i in range(6):
                x = circular_state(6928.0, incl=0.4)
                x[i] = bad
                states.append(x)
        for x in states:
            with pytest.raises(StiffnessError):
                flow(x, 0.0, t1, np.zeros(3), dyn)

    def test_nan_in_a_later_error_component_raises(self, monkeypatch):
        # Python's max skips a NaN that is not first; the NaN must still
        # end the flight
        calls = []

        def last_stage_nan(y, u, dyn):
            calls.append(None)
            out = eom(y, u, dyn)
            return out[:5] + (math.nan,) if len(calls) == 13 else out

        monkeypatch.setattr(astro, "eom", last_stage_nan)
        dyn, x = Dynamics.two_body(), circular_state(6928.0, incl=0.4)
        with pytest.raises(StiffnessError, match="non-finite step error"):
            flow(x, 0.0, 10.0, np.zeros(3), dyn)
        assert len(calls) == 13

    def test_nan_state_far_from_epoch_zero_fails_fast(self):
        # the step floor 1e-14 |t| lies above the underflow check here, so a
        # flight that only rejected NaN steps crawled through _MAX_STEPS
        dyn, x = Dynamics.two_body(), circular_state(6928.0, incl=0.4)
        x[3] = math.nan
        space = jet_space(6, 1)
        for fly in (lambda: flow(x, 1000.0, 1000.001, np.zeros(3), dyn),
                    lambda: flow_jets(space, identity(space, x)[None, :],
                                      1000.0, 1000.001, dyn)):
            tic = time.perf_counter()
            with pytest.raises(StiffnessError, match="non-finite step error"):
                fly()
            assert time.perf_counter() - tic < 1.0

    def test_heavy_central_body_raises_stiffness(self):
        with pytest.raises(StiffnessError):
            flow(circular_state(6928.0), 0.0, 100.0, np.zeros(3),
                 Dynamics(mu=1e25))


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


def j2_arc(n=113, u_max=1e-3):
    """Start states, controls and durations of ``n`` grid segments of
    2 pi / 60 along one scaled J2 orbit inclined by 53 degrees."""
    dyn = Dynamics.two_body_j2(1.0, J2_EARTH, R_EARTH / 6928.0)
    incl = math.radians(53.0)
    t = np.arange(n + 1) * 2.0 * math.pi / 60.0
    x = [np.array([1.0, 0.0, 0.0, 0.0, math.cos(incl), math.sin(incl)])]
    for ta, tb in zip(t[:-2], t[1:-1]):
        x.append(flow(x[-1], ta, tb, np.zeros(3), dyn))
    u = np.random.default_rng(1).uniform(-u_max, u_max, (n, 3))
    return dyn, np.array(x), u, np.diff(t)


class TestJetsFlyTheStateSteps:
    """Every jet row takes the steps :func:`flow` takes for its state
    (internal numerical differentiation), so its constant part is that
    flow's answer and its derivatives are those of the same discrete map."""

    @SCALED_DYNAMICS
    @pytest.mark.parametrize("order", [1, 2])
    def test_constant_part_is_the_float_flow(self, dyn, order):
        rng = np.random.default_rng(17 + order)
        n = 24
        incl = rng.uniform(0.0, math.pi, n)
        r = rng.uniform(0.95, 1.2, n)
        x = np.column_stack([r, 0 * r, 0 * r, 0 * r, np.cos(incl) / np.sqrt(r),
                             np.sin(incl) / np.sqrt(r)])
        x[:, 3:] *= rng.uniform(0.97, 1.03, (n, 1))
        # rows 0-7 keep exactly-zero components (every other one equatorial),
        # the others are turned to a random orientation
        x[:8:2, [2, 5]] = 0.0
        rot = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        x[8:, :3] = x[8:, :3] @ rot
        x[8:, 3:] = x[8:, 3:] @ rot
        u = rng.normal(size=(n, 3)) * 1e-3
        u[::3] = 0.0
        t0 = rng.uniform(-2.0, 2.0, n)
        t1 = t0 + rng.uniform(-1.5, 1.5, n)  # forward and backward spans
        t1[::5] = t0[::5]  # zero spans
        space = jet_space(9, order)
        for tol in (1e-13, 1e-12, 1e-11, 1e-10, 1e-9):
            xu = identity(space, np.concatenate([x, u], axis=1))
            jets = flow_jets(space, xu[:, :6], t0, t1, dyn, u=xu[:, 6:],
                             tol=tol)
            consts = flow_jets(space, xu[:, :6], t0, t1, dyn, u=u, tol=tol)
            for i in range(n):
                want = flow(x[i], t0[i], t1[i], u[i], dyn, tol)
                assert np.array_equal(jets[i, :, 0], want), (tol, i)
                assert np.array_equal(consts[i, :, 0], want), (tol, i)

    def test_maps_match_a_tight_flight(self):
        # the derivatives of the discrete flow stay close to those of the
        # exact flow: a grid of 113 J2 segments against tolerance 1e-15
        dyn, x, u, dt = j2_arc()
        got = linearize_segment(x, u, dt, dyn, order=1)
        ref = linearize_segment(x, u, dt, dyn, tol=1e-15, order=1)
        for name in ("A", "B", "c"):
            assert np.max(np.abs(getattr(got, name) - getattr(ref, name))) \
                <= 1e-11, name

    def test_residual_reproduces_the_float_flow(self):
        # A x + B u + c gives back the float flow of the reference exactly,
        # up to the roundoff of the products
        dyn, x, u, dt = j2_arc(20)
        maps = linearize_segment(x, u, dt, dyn, order=1)
        recon = (maps.A @ x[..., None])[..., 0] + (maps.B @ u[..., None])[..., 0] \
            + maps.c
        want = np.array([flow(x[i], 0.0, dt[i], u[i], dyn) for i in range(len(dt))])
        assert np.max(np.abs(recon - want)) <= 1e-14

    def test_nan_in_a_derivative_fails_in_the_first_trial_step(self,
                                                               monkeypatch):
        # the state's error estimate stays finite, but a NaN in any
        # coefficient must still end the flight at once
        calls = []
        real = astro._eom_jets

        def nan_derivative(space, y, u, dyn):
            calls.append(None)
            out = real(space, y, u, dyn)
            if len(calls) == 13:
                out[:, 4, 1] = math.nan
            return out

        monkeypatch.setattr(astro, "_eom_jets", nan_derivative)
        dyn, x, u, dt = j2_arc(3)
        with pytest.raises(StiffnessError, match="non-finite step error"):
            linearize_segment(x, u, dt, dyn, order=1)
        assert len(calls) == 13


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
    """At order 1 the segments fly order-1 jets, which carry everything A,
    B and c need."""

    @SCALED_DYNAMICS
    def test_maps_match_the_order_two_flight(self, dyn):
        x, u, dt = segment_batch()
        two = linearize_segment(x, u, dt, dyn)
        one = linearize_segment(x, u, dt, dyn, order=1)
        for name in ("A", "B", "c"):
            got, ref = getattr(one, name), getattr(two, name)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), name

    @SCALED_DYNAMICS
    def test_rows_match_single_row_calls(self, dyn):
        x, u, dt = segment_batch()
        batch = linearize_segment(x, u, dt, dyn, order=1)
        for i in range(len(dt)):
            one = linearize_segment(x[i:i + 1], u[i:i + 1], dt[i:i + 1], dyn,
                                    order=1)
            for name in ("A", "B", "c", "xi"):
                assert np.array_equal(getattr(batch, name)[i],
                                      getattr(one, name)[0]), (i, name)

    def test_bad_order_rejected(self):
        x, u, dt = segment_batch()
        with pytest.raises(PropagationError):
            linearize_segment(x, u, dt, Dynamics.two_body(1.0), order=3)


def random_segments(rng, n):
    """n segments in scaled units (mu = 1): start states on orbits with
    a in [1, 1.5] and e in [0, 0.3] at random orientation and anomaly,
    controls |u| <= 1e-2 and durations up to 1/16 of the orbit."""
    a = rng.uniform(1.0, 1.5, n)
    x = np.array([elements_to_state(ak, rng.uniform(0.0, 0.3),
                                    *rng.uniform(0.0, 2.0 * math.pi, 4),
                                    mu=1.0) for ak in a])
    u = rng.normal(size=(n, 3))
    u *= (rng.uniform(0.0, 1e-2, n) / np.linalg.norm(u, axis=1))[:, None]
    dt = rng.uniform(1e-3, 1.0, n) * 2.0 * math.pi * a ** 1.5 / 16.0
    return x, u, dt


class TestXiBound:
    """The analytic bound of the nonlinearity ratios from order-1 maps."""

    @SCALED_DYNAMICS
    def test_bounds_the_measured_ratios(self, dyn):
        # 500 segments per model, every one of the 9 entries; the radius
        # bound fails (inf) only on a few of the longest segments
        x, u, dt = random_segments(np.random.default_rng(11), 500)
        measured = linearize_segment(x, u, dt, dyn).xi
        bounded = linearize_segment(x, u, dt, dyn, order=1).xi
        assert np.all(bounded >= measured)
        finite = np.isfinite(bounded[:, 0])
        assert finite.mean() > 0.95 and np.all(dt[~finite] > 0.3)
        # about twice the measured ratio where it is tightest
        assert np.min(bounded[finite, :6] / measured[finite, :6]) < 4.0

    @SCALED_DYNAMICS
    def test_order_one_flight_takes_the_bound(self, dyn):
        x, u, dt = segment_batch()
        got = linearize_segment(x, u, dt, dyn, order=1)
        G = np.concatenate([got.A, got.B], axis=2)
        assert np.array_equal(got.xi, xi_bound(x, u, dt, dyn, G))
        assert np.array_equal(got.xi[:, 6:], got.xi[:, :3] * dt[:, None])

    def test_failed_radius_bound_is_inf(self):
        # a segment aimed through the centre, and one so long that gravity
        # could pull it in, get no finite bound; the others keep theirs
        dyn = Dynamics.two_body(1.0)
        x, u, dt = segment_batch()
        x[1, 3:] = [-20.0, 0.0, 0.0]
        dt[5] = 2.0
        G = np.concatenate([np.eye(6), np.zeros((6, 3))], axis=1)
        xi = xi_bound(x, u, dt, dyn, np.repeat(G[None], len(dt), axis=0))
        assert np.all(np.isinf(xi[[1, 5]]))
        assert np.all(np.isfinite(np.delete(xi, [1, 5], axis=0)))

    def test_j2_constants_are_the_polar_maxima(self):
        # |a|, ||grad a||_F and ||D^2 a||_F of the J2 acceleration, from
        # order-2 jets of the equations of motion, stay below the bound's
        # constants everywhere on a sphere and reach them at the poles
        two, j2 = Dynamics.two_body(1.0), Dynamics.two_body_j2(1.0, 0.1, 1.0)
        k = 1.5 * j2.j2 * j2.mu * j2.r_ref ** 2
        rng = np.random.default_rng(2)
        r = 1.3
        dirs = rng.normal(size=(400, 3))
        dirs = np.vstack([dirs / np.linalg.norm(dirs, axis=1)[:, None],
                          [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]])
        sp = jet_space(3, 2)
        pos = identity(sp, r * dirs)
        y = np.concatenate([pos, np.zeros_like(pos)], axis=1)
        acc = (astro._eom_jets(sp, y, np.zeros((len(dirs), 3)), j2)
               - astro._eom_jets(sp, y, np.zeros((len(dirs), 3)), two))[:, 3:]
        a = np.linalg.norm(acc[..., 0], axis=1) * r ** 4 / k
        grad = np.linalg.norm(gradient(sp, acc), axis=(1, 2)) * r ** 5 / k
        hess = np.sqrt((hessian(sp, acc) ** 2).sum(axis=(1, 2, 3))) \
            * r ** 6 / k
        for got, const in ((a, astro._J2_ACC), (grad, astro._J2_GRAD),
                           (hess, astro._J2_HESS)):
            assert np.all(got <= const * (1.0 + 1e-12))
            assert np.allclose(got[-2:], const, rtol=1e-12)


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
