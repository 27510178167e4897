import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from camopt import CamoptError
from camopt.dajet import (
    gradient,
    hessian,
    identity,
    jet_space,
    mul,
    reciprocal,
    sqrt,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
nonzero = st.floats(min_value=0.2, max_value=3.0).flatmap(
    lambda a: st.sampled_from([a, -a])
)


def constant(space, value):
    c = np.zeros(space.size)
    c[0] = value
    return c


class TestSpaces:
    def test_size_matches_binomial(self):
        for n, q in [(1, 2), (3, 2), (9, 2), (6, 3)]:
            sp = jet_space(n, q)
            assert sp.size == math.comb(n + q, q)

    def test_cache_identity(self):
        assert jet_space(4, 2) is jet_space(4, 2)

    def test_bad_dims(self):
        with pytest.raises(CamoptError, match="need n_vars >= 1"):
            jet_space(0, 2)

    def test_identity_needs_one_point_per_variable(self):
        with pytest.raises(CamoptError, match="one expansion point per"):
            identity(jet_space(2, 2), [1.0, 2.0, 3.0])


class TestArithmetic:
    def test_square_of_affine(self):
        sp = jet_space(1, 2)
        (x,) = identity(sp, [1.0])
        assert np.allclose(mul(sp, x, x), [1.0, 2.0, 1.0])

    def test_truncation(self):
        sp = jet_space(1, 2)
        (x,) = identity(sp, [1.0])
        y = mul(sp, mul(sp, x, x), x)  # (1+d)^3 truncated at order 2
        assert np.allclose(y, [1.0, 3.0, 3.0])

    @given(a=finite, b=finite, c=finite)
    def test_mul_commutes(self, a, b, c):
        sp = jet_space(2, 2)
        x, y = identity(sp, [a, c])
        x = x + constant(sp, b)
        assert np.allclose(mul(sp, x, y), mul(sp, y, x))

    @given(st.integers(0, 6))
    def test_mul_associative(self, seed):
        sp = jet_space(3, 2)
        rng = np.random.default_rng(seed)
        x, y, z = rng.standard_normal((3, sp.size))
        lhs = mul(sp, mul(sp, x, y), z)
        rhs = mul(sp, x, mul(sp, y, z))
        assert np.allclose(lhs, rhs, atol=1e-12)

    @given(a=nonzero)
    def test_reciprocal_roundtrip(self, a):
        sp = jet_space(2, 2)
        rng = np.random.default_rng(7)
        x = rng.standard_normal(sp.size)
        x[0] = a
        y = mul(sp, x, reciprocal(sp, x))
        assert abs(y[0] - 1.0) < 1e-12
        assert np.max(np.abs(y[1:])) < 1e-10

    @given(a=st.floats(min_value=0.1, max_value=9.0))
    def test_sqrt_squares_back(self, a):
        sp = jet_space(1, 3)
        (x,) = identity(sp, [a])
        s = sqrt(sp, x)
        assert np.allclose(mul(sp, s, s), x, atol=1e-12)

    def test_sqrt_value_is_correctly_rounded(self):
        # pow(c, 0.5) is off by an ulp for some c; the jet's value is math.sqrt
        c = np.random.default_rng(3).uniform(0.5, 2.0, 20000)
        for order in (1, 2):
            sp = jet_space(1, order)
            got = sqrt(sp, identity(sp, c[:, None])[:, 0])[:, 0]
            assert np.array_equal(got, [math.sqrt(v) for v in c.tolist()])

    def test_domain_errors(self):
        sp = jet_space(1, 2)
        with pytest.raises(CamoptError, match="sqrt of jet with non-pos"):
            sqrt(sp, constant(sp, -1.0))
        with pytest.raises(CamoptError, match="reciprocal of jet with zero"):
            reciprocal(sp, constant(sp, 0.0))


class TestQueries:
    def test_gradient_and_hessian(self):
        # f = x^2 y + 3x at (0,0)
        sp = jet_space(2, 3)
        x, y = identity(sp, [0.0, 0.0])
        f = mul(sp, mul(sp, x, x), y) + 3.0 * x
        assert np.allclose(gradient(sp, f), [3.0, 0.0])
        H = hessian(sp, f)
        assert H[0, 1] == H[1, 0] == 0.0  # cubic term truncated from hessian at 0

    def test_hessian_from_expansion_point(self):
        sp = jet_space(2, 2)
        x, y = identity(sp, [1.0, 2.0])
        H = hessian(sp, mul(sp, mul(sp, x, x), y))
        assert H[0, 0] == pytest.approx(2 * 2.0)  # d2f/dx2 = 2y
        assert H[0, 1] == pytest.approx(2 * 1.0)  # d2f/dxdy = 2x

    @given(d0=finite, d1=finite)
    def test_eval_matches_polynomial(self, d0, d1):
        sp = jet_space(2, 2)
        x, y = identity(sp, [0.5, -0.25])
        f = mul(sp, x, y) + x
        # the order-2 Taylor polynomial of a quadratic is the quadratic itself
        mono = np.prod(np.array([d0, d1]) ** sp.exponents, axis=1)
        val = f @ mono
        ref = (0.5 + d0) * (-0.25 + d1) + (0.5 + d0)
        assert val == pytest.approx(ref, abs=1e-12)
