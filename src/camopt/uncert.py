"""Covariance handling: Gaussian mixture splitting and the
nonlinearity-driven choice of the splitting direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import CamoptError
from .astro import Dynamics, PropagationError, flow_jets
from .dajet import identity, jet_space, second_order_ratio


class UncertaintyError(CamoptError):
    pass


@dataclass(frozen=True)
class SplitLibrary:
    """Univariate replacement of the standard normal by a mixture.

    All components share one standard deviation; weights sum to one and the
    mixture has exactly zero mean and unit variance.
    """

    weights: np.ndarray
    means: np.ndarray
    sigma: float

    @property
    def n_mix(self) -> int:
        return len(self.weights)


def load_split_library(n_mix: int) -> SplitLibrary:
    if n_mix == 1:
        return SplitLibrary(weights=np.ones(1), means=np.zeros(1), sigma=1.0)
    try:
        raw = resources.files("camopt").joinpath(f"data/split_n{n_mix}.txt").read_text()
    except FileNotFoundError:
        raise UncertaintyError(f"no split library for n_mix={n_mix}") from None
    rows = np.array([[float(v) for v in line.split()]
                     for line in raw.splitlines() if line and not line.startswith("#")])
    return SplitLibrary(weights=rows[:, 0], means=rows[:, 1], sigma=float(rows[0, 2]))


@dataclass
class GaussianMixture:
    """Weighted Gaussian components over a six-dimensional state."""

    weights: np.ndarray  # (n,)
    means: np.ndarray  # (n, 6)
    covs: np.ndarray  # (n, 6, 6)

    @property
    def n_mix(self) -> int:
        return len(self.weights)

    def mean(self) -> np.ndarray:
        return self.weights @ self.means

    def covariance(self) -> np.ndarray:
        mu = self.mean()
        P = np.zeros((6, 6))
        for w, m, C in zip(self.weights, self.means, self.covs):
            d = m - mu
            P += w * (C + np.outer(d, d))
        return P


def nonlinearity_index(x: np.ndarray, dt: float, dyn: Dynamics,
                       tol: float = 1e-11) -> np.ndarray:
    """Per-variable nonlinearity of the flow over [0, dt].

    For each input variable, the 2-norm of all second-order coefficients of
    the propagated state over the norm of the first-order map.
    """
    if dt < 0:
        raise PropagationError("nonlinearity index needs a forward span")
    sp = jet_space(6, 2)
    yend = flow_jets(sp, identity(sp, np.asarray(x, float)[None]), 0.0, dt,
                     dyn, tol=tol)
    return second_order_ratio(sp, yend[0])


def split_direction(nli: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Direction mixing the nonlinearity indices with the covariance size.

    Hadamard product of the nonlinearity vector with the per-column norms
    of the covariance, renormalized to a unit vector.
    """
    a = np.asarray(nli, float) * np.linalg.norm(P, axis=0)
    na = np.linalg.norm(a)
    if na == 0.0:
        raise UncertaintyError("degenerate splitting direction")
    return a / na


def split_gaussian(mean: np.ndarray, P: np.ndarray, direction: np.ndarray,
                   n_mix: int) -> GaussianMixture:
    """Split one Gaussian into a mixture along ``direction``.

    The direction is whitened by the Cholesky factor of the covariance, the
    univariate library is applied along it, and each component inherits the
    original covariance contracted along that axis.
    """
    mean = np.asarray(mean, float)
    P = np.asarray(P, float)
    lib = load_split_library(n_mix)
    if n_mix == 1:
        return GaussianMixture(weights=np.ones(1), means=mean[None, :],
                               covs=P[None, :, :])
    try:
        S = np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        raise UncertaintyError("covariance is not positive definite") from None
    a = np.asarray(direction, float)
    astar = np.linalg.solve(S, a)
    na = np.linalg.norm(astar)
    if na == 0.0:
        raise UncertaintyError("splitting direction collapses under whitening")
    astar /= na
    Sa = S @ astar
    Pc = S @ (np.eye(len(mean)) + (lib.sigma ** 2 - 1.0) * np.outer(astar, astar)) @ S.T
    Pc = 0.5 * (Pc + Pc.T)
    means = mean[None, :] + lib.means[:, None] * Sa[None, :]
    covs = np.repeat(Pc[None, :, :], n_mix, axis=0)
    return GaussianMixture(weights=lib.weights.copy(), means=means, covs=covs)


def split_along_flow(mean: np.ndarray, P: np.ndarray, span: float,
                     dyn: Dynamics, n_mix: int) -> GaussianMixture:
    """Split one Gaussian into ``n_mix`` components along the direction in
    which the flow over ``span`` is most nonlinear, weighted by the
    covariance size; one component is the Gaussian itself."""
    if n_mix > 1:
        nli = nonlinearity_index(mean, span, dyn, tol=1e-9)
        direction = split_direction(nli, P)
    else:
        direction = np.eye(len(P))[0]
    return split_gaussian(mean, P, direction, n_mix)
