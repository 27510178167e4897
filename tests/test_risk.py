import math
import time

import numpy as np
import pytest
from scipy import integrate, special
from scipy.optimize import brentq

from camopt import risk
from camopt.risk import (
    RiskError,
    bplane_basis,
    chan_poc,
    chan_series,
    chan_uv,
    equivalent_bplane,
    invert_chan,
    invert_ipoc,
    ipoc,
)


def series_from_zero(u, v, m_hi):
    """Chan's series summed plainly over m = 0..m_hi."""
    m = np.arange(m_hi + 1)
    log_pois = -0.5 * v + m * math.log(0.5 * v) - special.gammaln(m + 1.0)
    return float(np.sum(np.exp(log_pois) * special.gammainc(m + 1.0, 0.5 * u)))


def bracketed_root(p, u):
    """Reference inversion: quadrupling bracket, then Brent's method at the
    tightest tolerance it accepts."""
    f = lambda v: chan_poc(u, v) - p
    hi = 1.0
    while f(hi) > 0.0:
        hi *= 4.0
    return brentq(f, 0.0, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


def quad_poc(dr2, P2, R, epsrel=1e-12):
    """Adaptive 2D quadrature of the planar Gaussian over the hard-body disk."""
    Pinv = np.linalg.inv(P2)
    c = 1.0 / (2 * math.pi * math.sqrt(np.linalg.det(P2)))

    def f(y, x):
        d = np.array([dr2[0] + x, dr2[1] + y])
        return c * math.exp(-0.5 * d @ Pinv @ d)

    val, _ = integrate.dblquad(
        f, -R, R,
        lambda x: -math.sqrt(max(R * R - x * x, 0.0)),
        lambda x: math.sqrt(max(R * R - x * x, 0.0)),
        epsabs=1e-300, epsrel=epsrel)
    return val


class TestBPlane:
    def test_inplane_vector_preserved(self):
        vp = np.array([0, 7.5, 0.0])
        vs = np.array([0, -7.5, 0.0])
        dr = np.array([0.02, 0.0, 0.01])  # orthogonal to relative velocity
        dr2 = bplane_basis(vp, vs) @ dr
        assert np.linalg.norm(dr2) == pytest.approx(np.linalg.norm(dr), rel=1e-12)

    def test_isotropic_covariance_invariant(self):
        rng = np.random.default_rng(0)
        vp, vs = rng.standard_normal(3), rng.standard_normal(3)
        M = bplane_basis(vp, vs)
        P2 = M @ (4.0 * np.eye(3)) @ M.T
        assert np.allclose(P2, 4.0 * np.eye(2), atol=1e-12)

    def test_basis_orthonormal_and_normal_to_relvel(self):
        rng = np.random.default_rng(1)
        vp, vs = rng.standard_normal(3), rng.standard_normal(3)
        M = bplane_basis(vp, vs)
        assert np.allclose(M @ M.T, np.eye(2), atol=1e-12)
        assert np.allclose(M @ (vp - vs), 0.0, atol=1e-9)

    def test_parallel_velocities_fallback(self):
        vp = np.array([0.0, 7.5, 0.0])
        vs = np.array([0.0, 7.4, 0.0])
        M = bplane_basis(vp, vs)
        assert np.allclose(M @ M.T, np.eye(2), atol=1e-12)
        assert np.allclose(M @ (vp - vs), 0.0, atol=1e-12)

    def test_zero_relative_velocity_rejected(self):
        v = np.array([1.0, 2.0, 3.0])
        with pytest.raises(RiskError):
            bplane_basis(v, v)


class TestChanPoc:
    def test_zero_radius(self):
        assert chan_poc(0.0, 3.0) == 0.0

    def test_isotropic_head_on_closed_form(self):
        # isotropic P = sigma^2 I, zero miss: P = 1 - exp(-hbr^2/(2 sigma^2))
        sigma, hbr = 1.0, 0.1
        u, v = chan_uv(np.zeros(2), sigma ** 2 * np.eye(2), hbr)
        ref = 1.0 - math.exp(-hbr ** 2 / (2 * sigma ** 2))
        assert chan_poc(u, v) == pytest.approx(ref, abs=1e-10)

    def test_isotropic_quadrature_suite(self):
        # the series is the exact value of the isotropic-equivalent integral,
        # so against isotropic covariances the oracle checks the series sum
        rng = np.random.default_rng(7)
        for _ in range(20):
            sigma = rng.uniform(0.05, 1.0)
            hbr = rng.uniform(0.001, 0.05)
            dr2 = rng.uniform(-3, 3, 2) * sigma
            P2 = sigma ** 2 * np.eye(2)
            u, v = chan_uv(dr2, P2, hbr)
            ref = quad_poc(dr2, P2, hbr)
            assert chan_poc(u, v) == pytest.approx(ref, rel=1e-6)

    def test_spec_anisotropic_quadrature_case(self):
        # Chan's series is exact for the equal-area disk in whitened
        # coordinates: N(P2^-1/2 dr2, I) over a disk of radius
        # hbr * det(P2)^-1/4. An isotropic case with the same (u, v) has a
        # different true probability, so no function of (u, v) can return
        # the true anisotropic value; its method error is pinned below.
        dr2 = np.array([10.0, 0.0])
        P2 = np.diag([100.0, 400.0])
        u, v = chan_uv(dr2, P2, 5.0)
        w, V = np.linalg.eigh(P2)
        whitened_miss = V @ np.diag(w ** -0.5) @ V.T @ dr2
        radius = 5.0 * np.linalg.det(P2) ** -0.25
        ref = quad_poc(whitened_miss, np.eye(2), radius)
        p = chan_poc(u, v)
        assert p == pytest.approx(ref, rel=1e-6)
        # the known method error: the series under-reports the true risk
        true_poc = quad_poc(dr2, P2, 5.0)
        assert p < true_poc
        assert (true_poc - p) / true_poc == pytest.approx(7.2e-3, abs=5e-5)

    def test_anisotropic_method_error_bounded(self):
        # honest characterization: for small u the reduction error is small
        rng = np.random.default_rng(3)
        for _ in range(10):
            sx = rng.uniform(0.1, 1.0)
            sy = sx * rng.uniform(0.5, 2.0)
            rho = rng.uniform(-0.6, 0.6)
            P2 = np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])
            hbr = rng.uniform(0.001, 0.01)
            dr2 = rng.uniform(-2, 2, 2) * np.array([sx, sy])
            u, v = chan_uv(dr2, P2, hbr)
            assert u < 0.01
            ref = quad_poc(dr2, P2, hbr)
            assert chan_poc(u, v) == pytest.approx(ref, rel=2e-2)

    def test_monotone_decreasing_in_miss(self):
        vals = [chan_poc(1e-3, v) for v in np.linspace(0, 30, 25)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_large_miss_underflow_safe(self):
        # deep in the Poisson tail the plain series underflows; the value
        # must come back finite, non-negative and vanishing
        p = chan_poc(1e-4, 3000.0)
        assert 0.0 <= p < 1e-100

    def test_negative_inputs_rejected(self):
        with pytest.raises(RiskError):
            chan_poc(-1.0, 1.0)

    @pytest.mark.parametrize("u", [1e-4, 0.05, 2.0])
    def test_series_derivatives_match_central_differences(self, u):
        h = 1e-3
        for v in (0.5, 3.0, 40.0, 300.0):
            p, dp, d2p = chan_series(u, v)
            assert p == chan_poc(u, v)
            lo, hi = chan_poc(u, v - h), chan_poc(u, v + h)
            assert dp == pytest.approx((hi - lo) / (2 * h), rel=1e-6)
            assert d2p == pytest.approx((hi - 2 * p + lo) / h ** 2, rel=1e-6)

    def test_series_continuous_at_head_on(self):
        for u in (1e-4, 0.05, 2.0):
            assert chan_series(u, 0.0) == pytest.approx(
                chan_series(u, 1e-9), rel=1e-6)

    def test_singular_covariance_rejected(self):
        with pytest.raises(RiskError):
            chan_uv(np.zeros(2), np.zeros((2, 2)), 1.0)

    @pytest.mark.parametrize("u", [1e-4, 0.05, 2.0])
    def test_window_below_404_sums_from_zero(self, u):
        # below v = 404 the window runs from m = 0 to v/2 + 12 sqrt(v/2) + 30,
        # and the value is the plain sum over that range, bit for bit
        for v in (0.3, 7.0, 60.0, 250.0, 403.0):
            m_hi = int(0.5 * v + 12.0 * math.sqrt(0.5 * v) + 30.0)
            assert chan_poc(u, v) == series_from_zero(u, v, m_hi)

    @pytest.mark.parametrize("u", [1e-4, 0.05, 2.0, 45.0])
    @pytest.mark.parametrize("v", [404.0, 500.0, 1000.0])
    def test_window_keeps_the_peak_terms_far_out(self, u, v):
        # for small u the terms peak near m = sqrt(uv)/2, far below the
        # Poisson mode v/2, so a window around the mode would drop them
        ref = series_from_zero(u, v, int(0.5 * v + 12.0 * math.sqrt(0.5 * v)
                                         + 30.0))
        assert ref > 0.0
        assert chan_poc(u, v) == pytest.approx(ref, rel=1e-12)

    def test_far_miss_sums_a_short_window(self):
        # case2's first mixand at its eighth encounter: u/2 = 0.2032 and
        # v/2 = 8.34e9, where a window up to v/2 would take 62 GiB
        tic = time.perf_counter()
        out = chan_series(2.0 * 0.2032, 2.0 * 8.34e9)
        assert time.perf_counter() - tic < 1.0
        assert out == [0.0, 0.0, 0.0]

    def test_array_matches_scalar_calls(self):
        rng = np.random.default_rng(3)
        for u in (1e-6, 3e-3, 0.5, 20.0):
            v = np.concatenate([[0.0], 10.0 ** rng.uniform(-4.0, 3.3, 40)])
            got = chan_series(u, v.reshape(1, -1, 1), order=2)
            for k in range(3):
                assert got[k].shape == (1, len(v), 1)
                want = [chan_series(u, float(x), order=2)[k] for x in v]
                assert np.array_equal(got[k].ravel(), want)


class TestInvertChan:
    def test_round_trip(self):
        for u in (1e-5, 1e-3, 0.05):
            for p in (1e-8, 1e-6, 1e-4):
                if p >= chan_poc(u, 0.0):
                    continue  # unattainable even head-on, clamped elsewhere
                v = invert_chan(p, u)
                assert chan_poc(u, v) == pytest.approx(p, rel=1e-8)

    def test_isotropic_closed_form(self):
        # P(v) = exp(-v/2)(1-exp(-u/2)) holds only approximately for finite
        # u; use small u where the m=0 term dominates
        u, p = 1e-8, 1e-10
        v = invert_chan(p, u)
        ref = -2.0 * math.log(p / (1.0 - math.exp(-0.5 * u)))
        assert v == pytest.approx(ref, rel=1e-6)

    def test_monotone(self):
        u = 1e-3
        assert invert_chan(1e-8, u) > invert_chan(1e-6, u) > invert_chan(1e-4, u)
        v = invert_chan(np.geomspace(1e-12, 0.9 * chan_poc(u, 0.0), 200), u)
        assert np.all(np.diff(v) < 0.0)

    @pytest.mark.parametrize("u", [1e-8, 1e-4, 0.05, 2.0, 45.0])
    def test_matches_bracketing_root(self, u):
        p = np.geomspace(1e-12, 0.9 * chan_poc(u, 0.0), 25)
        got = invert_chan(p, u)
        ref = np.array([bracketed_root(pi, u) for pi in p])
        assert np.max(np.abs(got - ref) / ref) <= 1e-12

    def test_array_matches_scalar_calls(self):
        # every target stops on its own, so a batch changes no bit
        rng = np.random.default_rng(9)
        for u in (1e-7, 2e-3, 0.3, 30.0):
            p0 = chan_poc(u, 0.0)
            p = p0 * 10.0 ** rng.uniform(-9.0, 0.2, 30)
            p = np.minimum(p, 0.999)
            got = invert_chan(p.reshape(5, 6), u)
            assert got.shape == (5, 6)
            want = [invert_chan(float(x), u) for x in p]
            assert np.array_equal(got.ravel(), want)
            # targets at or above the head-on value need no miss
            assert np.all(got.ravel()[p >= p0] == 0.0)

    def test_scalar_target_returns_float(self):
        assert type(invert_chan(1e-6, 1e-3)) is float

    def test_failed_bracket_raises(self, monkeypatch):
        monkeypatch.setattr(risk, "V_MAX", 10.0)
        with pytest.raises(RiskError, match="bracket"):
            invert_chan(1e-12, 2.0)

    def test_unattainable_limit_clamps_to_zero(self):
        u = 1e-6
        p_head_on = chan_poc(u, 0.0)
        assert invert_chan(min(p_head_on * 2, 0.9), u) == 0.0

    def test_bad_target_rejected(self):
        with pytest.raises(RiskError):
            invert_chan(0.0, 1e-3)

    def test_matches_quadrature_bisection_small_u(self):
        # realistic conjunction scale: the inversion damps the reduction
        # error by 2/v, so agreement with the quadrature-based inversion is
        # much tighter than the forward probabilities
        from scipy.optimize import brentq

        P2 = np.array([[0.04, 0.01], [0.01, 0.09]])  # km^2
        hbr = 0.003  # km
        u, _ = chan_uv(np.zeros(2), P2, hbr)
        p_bar = 1e-6
        v_chan = invert_chan(p_bar, u)
        # quadrature inversion along the minor axis of the covariance
        evals, V = np.linalg.eigh(P2)
        axis = V[:, 0]

        def f(v):
            dr = axis * math.sqrt(v * evals[0])
            return quad_poc(dr, P2, hbr, epsrel=1e-11) - p_bar

        v_quad = brentq(f, 1.0, 100.0, rtol=1e-12)
        assert v_chan == pytest.approx(v_quad, rel=1e-4)


class TestIpoc:
    def test_zero_radius(self):
        assert ipoc(np.zeros(3), np.eye(3), 0.0) == 0.0

    def test_direct_substitution(self):
        assert ipoc(np.zeros(3), np.eye(3), 1.0) == pytest.approx(
            math.sqrt(2.0 / math.pi) / 3.0, rel=1e-12)

    def test_clamped_to_one(self):
        assert ipoc(np.zeros(3), 1e-12 * np.eye(3), 1.0) == 1.0

    def test_monte_carlo_suite(self):
        rng = np.random.default_rng(11)
        cases = [
            (np.diag([25.0, 100.0, 4.0]), np.array([5.0, 0, 0]), 2.0),
            (np.diag([9.0, 9.0, 9.0]), np.array([2.0, 2.0, 0]), 1.0),
            (np.diag([50.0, 20.0, 10.0]), np.array([0.0, 4.0, 1.0]), 1.5),
            (np.diag([16.0, 36.0, 25.0]), np.array([3.0, -2.0, 2.0]), 2.0),
            (np.diag([100.0, 10.0, 40.0]), np.array([-6.0, 1.0, 0.0]), 2.5),
        ]
        for P, dr, R in cases:
            val = ipoc(dr, P, R)
            # the formula assumes the density constant over the hard-body
            # sphere, so the oracle estimates the local density from the MC
            # fraction in a half-radius ball and rescales by the volume
            # ratio (density-ratio correction of the raw fraction)
            samples = rng.multivariate_normal(np.zeros(3), P, size=4_000_000)
            eps = R / 2.0
            inside = np.sum(np.sum((samples - dr) ** 2, axis=1) < eps * eps)
            ref = inside / len(samples) * (R / eps) ** 3
            assert val == pytest.approx(ref, rel=0.05)

    def test_invert_round_trip(self):
        P = np.diag([25.0, 100.0, 4.0])
        d2 = invert_ipoc(1e-6, P, 2.0)
        dr = np.array([math.sqrt(d2 * 25.0), 0, 0])
        assert ipoc(dr, P, 2.0) == pytest.approx(1e-6, rel=1e-10)

    def test_invert_unreachable_clamps(self):
        assert invert_ipoc(0.9, np.eye(3), 1.0) == 0.0

    def test_invert_array_matches_scalar_calls(self):
        P = np.diag([25.0, 100.0, 4.0])
        p = np.array([1e-9, 1e-6, 1e-3, 0.5])
        want = [invert_ipoc(float(x), P, 2.0) for x in p]
        assert np.array_equal(invert_ipoc(p, P, 2.0), want)


class TestEquivalentBPlane:
    def test_boundary_maps_to_unit_circle(self):
        rng = np.random.default_rng(5)
        M = rng.standard_normal((2, 2))
        P2 = M @ M.T + 0.5 * np.eye(2)
        d2 = 8.3
        # points on the d2 ellipse
        th = np.linspace(0, 2 * math.pi, 17)
        L = np.linalg.cholesky(P2)
        pts = (L @ (math.sqrt(d2) * np.vstack([np.cos(th), np.sin(th)]))).T
        out = equivalent_bplane(pts, P2, d2)
        assert np.allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-10)

    def test_interior_maps_inside(self):
        P2 = np.diag([4.0, 1.0])
        out = equivalent_bplane(np.array([[0.1, 0.1]]), P2, 9.0)
        assert np.linalg.norm(out[0]) < 1.0


class TestFullPipeline:
    def test_head_on_closed_form(self):
        # perpendicular geometry, isotropic covariance: closed form
        xp = np.array([0, 0, 0, 0, 7.5, 0.0])
        xs = np.array([0.01, 0, 0, 0, -7.5, 0.0])
        sigma2 = 0.01 ** 2
        P3 = sigma2 * np.eye(3)
        hbr = 0.003
        M = bplane_basis(xp[3:], xs[3:])
        dr2, P2 = M @ (xp[:3] - xs[:3]), M @ P3 @ M.T
        p = chan_poc(*chan_uv(dr2, P2, hbr))
        u = hbr ** 2 / sigma2
        v = 0.01 ** 2 / sigma2
        assert p == pytest.approx(chan_poc(u, v), rel=1e-12)
