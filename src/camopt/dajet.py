"""Truncated multivariate Taylor polynomial (jet) arithmetic.

Jets carry all partial derivatives of a quantity up to a truncation order
with respect to a set of perturbation variables.  They are the substrate
for the linearization of the dynamics and for the nonlinearity indices
behind its trust regions and the mixture splitting.

The arithmetic is a set of kernels on coefficient arrays of shape
``(..., size)``, one jet per leading index, so that many jets (every state
component of every segment) go through one call; a single jet is an array
of shape ``(size,)``.

Everything here is unit-agnostic: callers are expected to work in scaled
variables.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from . import CamoptError


@lru_cache(maxsize=None)
def _space(n_vars: int, order: int) -> "JetSpace":
    return JetSpace(n_vars, order)


class JetSpace:
    """Monomial bookkeeping for jets with ``n_vars`` variables at ``order``.

    Instances are cached; use :func:`jet_space` to obtain one.  Holds the
    graded list of exponent vectors, the index lookup and the truncated
    multiplication table (triples i, j -> k with deg_i + deg_j <= order).
    """

    def __init__(self, n_vars: int, order: int):
        if n_vars < 1 or order < 0:
            raise CamoptError("need n_vars >= 1 and order >= 0")
        self.n_vars = n_vars
        self.order = order

        exps = [(0,) * n_vars]
        for deg in range(1, order + 1):
            for combo in combinations_with_replacement(range(n_vars), deg):
                e = [0] * n_vars
                for v in combo:
                    e[v] += 1
                exps.append(tuple(e))
        self.exponents = np.array(exps, dtype=np.int64)
        self.size = len(exps)
        self.index = {e: i for i, e in enumerate(exps)}
        self.degrees = self.exponents.sum(axis=1)
        # degree-1 monomial index for each variable
        self.lin_index = np.array(
            [self.index[tuple(np.eye(1, n_vars, v, dtype=int)[0])] for v in range(n_vars)]
        ) if order >= 1 else np.zeros(0, dtype=np.int64)

        ii, jj, kk = [], [], []
        for i in range(self.size):
            for j in range(self.size):
                if self.degrees[i] + self.degrees[j] > order:
                    continue
                k = self.index[tuple(self.exponents[i] + self.exponents[j])]
                ii.append(i)
                jj.append(j)
                kk.append(k)
        self.mul_i = np.array(ii, dtype=np.int64)
        self.mul_j = np.array(jj, dtype=np.int64)
        self.mul_k = np.array(kk, dtype=np.int64)
        # degree-2 monomials: squares (slot, variable) and mixed terms
        # (slot, first variable, second variable)
        sq, mixed = [], []
        for idx in np.nonzero(self.degrees == 2)[0]:
            vars_ = np.nonzero(self.exponents[idx])[0]
            if len(vars_) == 1:
                sq.append((idx, vars_[0]))
            else:
                mixed.append((idx, vars_[0], vars_[1]))
        self.square_terms = np.array(sq, dtype=np.int64).reshape(-1, 2)
        self.mixed_terms = np.array(mixed, dtype=np.int64).reshape(-1, 3)
        self._bins = np.zeros(0, dtype=np.int64)

    def product_bins(self, rows: int) -> np.ndarray:
        """Output slot ``row * size + mul_k`` of every product term of
        ``rows`` stacked jets; grown on demand and shared by prefix."""
        n = rows * len(self.mul_k)
        if len(self._bins) < n:
            rows = max(rows, 2 * len(self._bins) // len(self.mul_k))
            self._bins = (np.arange(rows)[:, None] * self.size + self.mul_k).ravel()
        return self._bins[:n]


def jet_space(n_vars: int, order: int) -> JetSpace:
    return _space(n_vars, order)


# ---------------------------------------------------------------------
# kernels on coefficient arrays of shape (..., space.size)


def mul(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Truncated product of stacked jets; leading dimensions broadcast.

    One ``bincount`` over all product terms of all jets: each output
    coefficient sums its terms in multiplication-table order, so a row's
    result does not depend on the rows stacked with it.
    """
    prod = a.take(space.mul_i, axis=-1) * b.take(space.mul_j, axis=-1)
    shape = prod.shape[:-1] + (space.size,)
    rows = prod.size // len(space.mul_k)
    out = np.bincount(space.product_bins(rows), weights=prod.ravel(),
                      minlength=rows * space.size)
    return out.reshape(shape)


def compose_series(space: JetSpace, x: np.ndarray, derivs) -> np.ndarray:
    """Apply a scalar function given its derivatives at the constant parts.

    ``derivs[k]`` is the k-th derivative of f at ``x[..., 0]`` for
    k = 0..order, a scalar or an array of shape ``x.shape[:-1]``.
    """
    d = x.copy()  # nilpotent part
    d[..., 0] += -x[..., 0]
    out = np.zeros(d.shape)
    out[..., 0] = derivs[space.order] / math.factorial(space.order)
    for k in range(space.order - 1, -1, -1):
        out = mul(space, out, d)
        out[..., 0] += derivs[k] / math.factorial(k)
    return out


# The derivative series of reciprocal and sqrt are evaluated per jet in
# Python floats: numpy's vectorized power can differ from libm's pow in the
# last bit, and a jet must not depend on the jets stacked with it.


def reciprocal(space: JetSpace, x: np.ndarray) -> np.ndarray:
    a = x[..., 0]
    if (a == 0.0).any():
        raise CamoptError("reciprocal of jet with zero constant part")
    consts = a.ravel().tolist()
    derivs = []
    for k in range(space.order + 1):
        num = ((-1) ** k) * math.factorial(k)
        derivs.append(np.array([num / c ** (k + 1) for c in consts]).reshape(a.shape))
    return compose_series(space, x, derivs)


def sqrt(space: JetSpace, x: np.ndarray) -> np.ndarray:
    a = x[..., 0]
    if (a <= 0.0).any():
        raise CamoptError("sqrt of jet with non-positive constant part")
    consts = a.ravel().tolist()
    # the value by math.sqrt, correctly rounded like the float equations of
    # motion; pow(c, 0.5) is off by an ulp for about 1 in 1,000 arguments
    derivs = [np.array([math.sqrt(c) for c in consts]).reshape(a.shape)]
    coef = 0.5
    for k in range(1, space.order + 1):
        derivs.append(np.array([coef * c ** (0.5 - k) for c in consts]).reshape(a.shape))
        coef *= 0.5 - k
    return compose_series(space, x, derivs)


def gradient(space: JetSpace, x: np.ndarray) -> np.ndarray:
    """First-order coefficients, shape ``x.shape[:-1] + (n_vars,)``."""
    return x.take(space.lin_index, axis=-1)


def hessian(space: JetSpace, x: np.ndarray) -> np.ndarray:
    """Second-derivative matrices from the degree-2 coefficients."""
    n = space.n_vars
    H = np.zeros(x.shape[:-1] + (n, n))
    sq, v = space.square_terms.T
    H[..., v, v] = 2.0 * x[..., sq]
    mixed, a, b = space.mixed_terms.T
    H[..., a, b] = x[..., mixed]
    H[..., b, a] = x[..., mixed]
    return H


def identity(space: JetSpace, points) -> np.ndarray:
    """The variables themselves, expanded around each row of ``points``:
    coefficients of shape ``points.shape + (size,)``."""
    points = np.asarray(points, dtype=float)
    if points.shape[-1:] != (space.n_vars,):
        raise CamoptError("need one expansion point per variable")
    if space.order < 1:
        raise CamoptError("order-0 space has no variables")
    out = np.zeros(points.shape + (space.size,))
    out[..., 0] = points
    out[..., np.arange(space.n_vars), space.lin_index] = 1.0
    return out


def second_order_ratio(space: JetSpace, x: np.ndarray) -> np.ndarray:
    """Nonlinearity per variable of one expansion ``x`` (outputs, size).

    The 2-norm of every second derivative involving the variable, over the
    norm of the whole first-order map; zero when that map vanishes.
    """
    G = gradient(space, x)
    g1 = np.linalg.norm(G)
    if g1 == 0.0:
        return np.zeros(space.n_vars)
    H = hessian(space, x)
    return np.sqrt((H ** 2).sum(axis=(0, 1))) / g1
