import math

import numpy as np
import pytest

from camopt import CamoptError
from camopt.astro import (
    GM_EARTH,
    J2_EARTH,
    R_EARTH,
    Dynamics,
    flow,
    linearize_segment,
)
from camopt.uncert import (
    GaussianMixture,
    load_split_library,
    nonlinearity_index,
    split_direction,
    split_gaussian,
)


def random_spd(rng, scale=1.0):
    M = rng.standard_normal((6, 6))
    return scale * (M @ M.T + 6 * np.eye(6))


class TestSplitLibraries:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_moments_exact(self, n):
        lib = load_split_library(n)
        assert lib.n_mix == n
        assert abs(lib.weights.sum() - 1.0) < 1e-12
        assert abs(np.sum(lib.weights * lib.means)) < 1e-12
        var = np.sum(lib.weights * (lib.means ** 2 + lib.sigma ** 2))
        assert abs(var - 1.0) < 1e-12

    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_symmetric_and_contracting(self, n):
        lib = load_split_library(n)
        assert np.allclose(lib.means, -lib.means[::-1])
        assert np.allclose(lib.weights, lib.weights[::-1])
        assert 0.0 < lib.sigma < 1.0

    def test_sigma_decreases_with_components(self):
        sig = [load_split_library(n).sigma for n in (3, 5, 7)]
        assert sig[0] > sig[1] > sig[2]

    def test_trivial_library(self):
        lib = load_split_library(1)
        assert lib.sigma == 1.0 and lib.weights[0] == 1.0

    def test_unknown_size_rejected(self):
        with pytest.raises(CamoptError, match="no split library for n_mix=4"):
            load_split_library(4)


class TestMultivariateSplit:
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_mixture_moments_match_original(self, n):
        rng = np.random.default_rng(2)
        P = random_spd(rng)
        mu = rng.standard_normal(6)
        a = rng.standard_normal(6)
        gmm = split_gaussian(mu, P, a / np.linalg.norm(a), n)
        assert np.max(np.abs(gmm.mean() - mu)) < 1e-10
        assert np.max(np.abs(gmm.covariance() - P)) < 1e-10 * np.max(np.abs(P))

    def test_components_share_contracted_covariance(self):
        rng = np.random.default_rng(5)
        P = random_spd(rng)
        gmm = split_gaussian(np.zeros(6), P, np.eye(6)[0], 5)
        assert np.allclose(gmm.covs[0], gmm.covs[-1])
        # contraction: the component covariance is dominated by the original
        evals = np.linalg.eigvalsh(P - gmm.covs[0])
        assert evals.min() > -1e-9

    def test_means_lie_on_a_line(self):
        rng = np.random.default_rng(8)
        P = random_spd(rng)
        gmm = split_gaussian(np.zeros(6), P, np.eye(6)[2], 7)
        d = gmm.means[-1] - gmm.means[0]
        for m in gmm.means[1:-1]:
            c = np.cross(d[:3], m[:3])
            assert np.linalg.norm(c) < 1e-9 * np.linalg.norm(d[:3])

    def test_n1_identity(self):
        P = np.eye(6)
        gmm = split_gaussian(np.arange(6.0), P, np.eye(6)[0], 1)
        assert gmm.n_mix == 1
        assert np.allclose(gmm.covs[0], P)

    def test_non_spd_rejected(self):
        with pytest.raises(CamoptError, match="not positive definite"):
            split_gaussian(np.zeros(6), -np.eye(6), np.eye(6)[0], 3)


class TestDirection:
    def test_hadamard_formula(self):
        rng = np.random.default_rng(11)
        P = random_spd(rng)
        nli = np.abs(rng.standard_normal(6))
        a = split_direction(nli, P)
        raw = nli * np.linalg.norm(P, axis=0)
        assert np.allclose(a, raw / np.linalg.norm(raw))
        assert abs(np.linalg.norm(a) - 1.0) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(CamoptError, match="degenerate splitting dir"):
            split_direction(np.zeros(6), np.eye(6))


class TestNonlinearity:
    def test_grows_with_horizon(self):
        dyn = Dynamics.two_body()
        r = 6928.0
        x = np.array([r, 0, 0, 0, math.sqrt(GM_EARTH / r), 0.0])
        n_short = nonlinearity_index(x, 60.0, dyn)
        n_long = nonlinearity_index(x, 600.0, dyn)
        assert np.all(n_short >= 0)
        assert np.linalg.norm(n_long) > np.linalg.norm(n_short)

    def test_consistent_with_segment_maps(self):
        dyn = Dynamics.two_body()
        r = 6928.0
        x = np.array([r, 0, 0, 0, math.sqrt(GM_EARTH / r), 0.0])
        maps = linearize_segment(x[None], np.zeros((1, 3)), [300.0], dyn)
        nli = nonlinearity_index(x, 300.0, dyn)
        # the 9-variable segment index adds control cross terms and a larger
        # first-order norm, but the state ranking must agree and the two
        # vectors must stay roughly proportional
        assert np.argmax(nli) == np.argmax(maps.xi[0, :6])
        ratio = nli / maps.xi[0, :6]
        assert ratio.max() / ratio.min() < 1.5

    def test_matches_a_tight_flight(self):
        # the jets take the steps of the state's own flight, at the split's
        # tolerance, over one scaled J2 orbit
        dyn = Dynamics.two_body_j2(1.0, J2_EARTH, R_EARTH / 6928.0)
        incl = math.radians(53.0)
        x = np.array([1.0, 0.0, 0.0, 0.0, math.cos(incl), math.sin(incl)])
        got = nonlinearity_index(x, 2.0 * math.pi, dyn, tol=1e-9)
        ref = nonlinearity_index(x, 2.0 * math.pi, dyn, tol=1e-14)
        assert np.max(np.abs(got - ref) / ref) <= 1e-7


class TestCovariancePropagation:
    def test_matches_monte_carlo(self):
        dyn = Dynamics.two_body()
        r = 6928.0
        x = np.array([r, 0, 0, 0, math.sqrt(GM_EARTH / r), 0.0])
        dt = 600.0
        P0 = np.diag([1e-4, 1e-4, 1e-4, 1e-10, 1e-10, 1e-10])
        maps = linearize_segment(x[None], np.zeros((1, 3)), [dt], dyn)
        P1 = maps.A[0] @ P0 @ maps.A[0].T

        rng = np.random.default_rng(0)
        samples = rng.multivariate_normal(x, P0, size=400)
        ends = np.array([flow(s, 0, dt, (0, 0, 0), dyn, 1e-10) for s in samples])
        Pmc = np.cov(ends.T)
        scale = np.sqrt(np.outer(np.diag(P1), np.diag(P1)))
        assert np.max(np.abs(P1 - Pmc) / scale) < 0.25


class TestMixtureContainer:
    def test_moments_of_hand_built_mixture(self):
        w = np.array([0.25, 0.75])
        m = np.array([[1.0] + [0] * 5, [-1.0 / 3.0] + [0] * 5])
        C = np.repeat(np.eye(6)[None], 2, axis=0)
        gmm = GaussianMixture(weights=w, means=m, covs=C)
        assert abs(gmm.mean()[0]) < 1e-15
        # var = sum w (C + m m^T): 1 + 0.25*1 + 0.75/9
        assert gmm.covariance()[0, 0] == pytest.approx(1.0 + 0.25 + 0.75 / 9.0)
