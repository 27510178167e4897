"""Truncated multivariate Taylor polynomial (jet) arithmetic.

Jets carry all partial derivatives of a quantity up to a truncation order
with respect to a set of perturbation variables.  They are the substrate
for automatic linearization of the dynamics and of the risk maps.

Everything here is unit-agnostic: callers are expected to work in scaled
variables.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from . import CamoptError


class JetError(CamoptError):
    pass


class DimensionError(JetError):
    pass


class DomainError(JetError):
    pass


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
            raise DimensionError("need n_vars >= 1 and order >= 0")
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

    def __repr__(self):
        return f"JetSpace(n_vars={self.n_vars}, order={self.order})"


def jet_space(n_vars: int, order: int) -> JetSpace:
    return _space(n_vars, order)


class Jet:
    """One truncated Taylor polynomial over a :class:`JetSpace`."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.coeffs = np.asarray(coeffs, dtype=float)
        if self.coeffs.shape != (space.size,):
            raise DimensionError(
                f"coefficient vector has shape {self.coeffs.shape}, expected ({space.size},)"
            )

    # -- constructors -------------------------------------------------
    @staticmethod
    def constant(space: JetSpace, value: float) -> "Jet":
        c = np.zeros(space.size)
        c[0] = value
        return Jet(space, c)

    @staticmethod
    def variable(space: JetSpace, var: int, const: float = 0.0) -> "Jet":
        if space.order < 1:
            raise DimensionError("order-0 space has no variables")
        c = np.zeros(space.size)
        c[0] = const
        c[space.lin_index[var]] = 1.0
        return Jet(space, c)

    # -- queries ------------------------------------------------------
    @property
    def const(self) -> float:
        return float(self.coeffs[0])

    def gradient(self) -> np.ndarray:
        """First-order coefficients, one per variable."""
        return self.coeffs[self.space.lin_index].copy()

    def hessian(self) -> np.ndarray:
        """Second-derivative matrix assembled from degree-2 coefficients."""
        sp = self.space
        if sp.order < 2:
            return np.zeros((sp.n_vars, sp.n_vars))
        H = np.zeros((sp.n_vars, sp.n_vars))
        for idx in np.nonzero(sp.degrees == 2)[0]:
            e = sp.exponents[idx]
            vars_ = np.nonzero(e)[0]
            if len(vars_) == 1:
                v = vars_[0]
                H[v, v] = 2.0 * self.coeffs[idx]
            else:
                a, b = vars_
                H[a, b] = H[b, a] = self.coeffs[idx]
        return H

    # -- arithmetic ---------------------------------------------------
    def _check(self, other: "Jet"):
        if other.space is not self.space:
            if (other.space.n_vars, other.space.order) != (self.space.n_vars, self.space.order):
                raise DimensionError("jets live in different spaces")

    def __add__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return Jet(self.space, self.coeffs + other.coeffs)
        c = self.coeffs.copy()
        c[0] += other
        return Jet(self.space, c)

    __radd__ = __add__

    def __neg__(self):
        return Jet(self.space, -self.coeffs)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            sp = self.space
            prod = self.coeffs[sp.mul_i] * other.coeffs[sp.mul_j]
            return Jet(sp, np.bincount(sp.mul_k, weights=prod, minlength=sp.size))
        return Jet(self.space, self.coeffs * float(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other.reciprocal()
        return Jet(self.space, self.coeffs / float(other))

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    def __pow__(self, p):
        if isinstance(p, int) and p >= 0:
            out = Jet.constant(self.space, 1.0)
            for _ in range(p):
                out = out * self
            return out
        return NotImplemented

    # -- elementary functions ------------------------------------------
    def compose_series(self, derivs) -> "Jet":
        """Apply a scalar function given its derivatives at the constant part.

        ``derivs[k]`` must be the k-th derivative of f evaluated at
        ``self.const``, for k = 0..order.
        """
        sp = self.space
        d = self - self.const  # nilpotent part
        out = Jet.constant(sp, derivs[sp.order] / math.factorial(sp.order))
        for k in range(sp.order - 1, -1, -1):
            out = out * d + derivs[k] / math.factorial(k)
        return out

    def reciprocal(self) -> "Jet":
        a = self.const
        if a == 0.0:
            raise DomainError("reciprocal of jet with zero constant part")
        derivs = [((-1) ** k) * math.factorial(k) / a ** (k + 1) for k in range(self.space.order + 1)]
        return self.compose_series(derivs)

    def sqrt(self) -> "Jet":
        a = self.const
        if a <= 0.0:
            raise DomainError("sqrt of jet with non-positive constant part")
        derivs, coef = [], 1.0
        for k in range(self.space.order + 1):
            derivs.append(coef * a ** (0.5 - k))
            coef *= 0.5 - k
        return self.compose_series(derivs)

    def exp(self) -> "Jet":
        e = math.exp(self.const)
        return self.compose_series([e] * (self.space.order + 1))

    def sin(self) -> "Jet":
        a = self.const
        cyc = [math.sin(a), math.cos(a), -math.sin(a), -math.cos(a)]
        return self.compose_series([cyc[k % 4] for k in range(self.space.order + 1)])

    def cos(self) -> "Jet":
        a = self.const
        cyc = [math.cos(a), -math.sin(a), -math.cos(a), math.sin(a)]
        return self.compose_series([cyc[k % 4] for k in range(self.space.order + 1)])

    def __repr__(self):
        return f"Jet({self.space!r}, const={self.const:g})"


# ---------------------------------------------------------------------
# module-level helpers


def variables(space: JetSpace, consts) -> list[Jet]:
    """One jet per variable, expanded around the given constants."""
    consts = np.asarray(consts, dtype=float)
    if consts.shape != (space.n_vars,):
        raise DimensionError("need one expansion point per variable")
    return [Jet.variable(space, v, consts[v]) for v in range(space.n_vars)]
