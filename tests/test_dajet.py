import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from camopt.dajet import (
    DimensionError,
    DomainError,
    Jet,
    jet_space,
    variables,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
nonzero = st.floats(min_value=0.2, max_value=3.0).flatmap(
    lambda a: st.sampled_from([a, -a])
)


def random_jet(space, rng):
    return Jet(space, rng.standard_normal(space.size))


class TestSpaces:
    def test_size_matches_binomial(self):
        for n, q in [(1, 2), (3, 2), (9, 2), (6, 3)]:
            sp = jet_space(n, q)
            assert sp.size == math.comb(n + q, q)

    def test_cache_identity(self):
        assert jet_space(4, 2) is jet_space(4, 2)

    def test_bad_dims(self):
        with pytest.raises(DimensionError):
            jet_space(0, 2)


class TestArithmetic:
    def test_square_of_affine(self):
        sp = jet_space(1, 2)
        x = Jet.variable(sp, 0, const=1.0)
        y = x * x
        assert np.allclose(y.coeffs, [1.0, 2.0, 1.0])

    def test_truncation(self):
        sp = jet_space(1, 2)
        x = Jet.variable(sp, 0, const=1.0)
        y = x * x * x  # (1+d)^3 truncated at order 2
        assert np.allclose(y.coeffs, [1.0, 3.0, 3.0])

    @given(a=finite, b=finite, c=finite)
    def test_mul_commutes(self, a, b, c):
        sp = jet_space(2, 2)
        x = Jet.variable(sp, 0, const=a) + b
        y = Jet.variable(sp, 1, const=c)
        assert np.allclose((x * y).coeffs, (y * x).coeffs)

    @given(st.integers(0, 6))
    def test_mul_associative(self, seed):
        sp = jet_space(3, 2)
        rng = np.random.default_rng(seed)
        x, y, z = (random_jet(sp, rng) for _ in range(3))
        lhs = (x * y) * z
        rhs = x * (y * z)
        assert np.allclose(lhs.coeffs, rhs.coeffs, atol=1e-12)

    @given(a=nonzero)
    def test_reciprocal_roundtrip(self, a):
        sp = jet_space(2, 2)
        rng = np.random.default_rng(7)
        x = Jet(sp, rng.standard_normal(sp.size))
        x.coeffs[0] = a
        y = x * x.reciprocal()
        assert abs(y.const - 1.0) < 1e-12
        assert np.max(np.abs(y.coeffs[1:])) < 1e-10

    @given(a=st.floats(min_value=0.1, max_value=9.0))
    def test_sqrt_squares_back(self, a):
        sp = jet_space(1, 3)
        x = Jet.variable(sp, 0, const=a)
        s = x.sqrt()
        assert np.allclose((s * s).coeffs, x.coeffs, atol=1e-12)

    def test_exp_series(self):
        sp = jet_space(1, 3)
        x = Jet.variable(sp, 0, const=0.0)
        e = x.exp()
        assert np.allclose(e.coeffs, [1.0, 1.0, 0.5, 1.0 / 6.0])

    def test_sin_cos_identity(self):
        sp = jet_space(2, 2)
        rng = np.random.default_rng(3)
        x = random_jet(sp, rng)
        one = x.sin() * x.sin() + x.cos() * x.cos()
        assert abs(one.const - 1.0) < 1e-12
        assert np.max(np.abs(one.coeffs[1:])) < 1e-12

    def test_domain_errors(self):
        sp = jet_space(1, 2)
        with pytest.raises(DomainError):
            Jet.constant(sp, -1.0).sqrt()
        with pytest.raises(DomainError):
            Jet.constant(sp, 0.0).reciprocal()

    def test_mixed_space_rejected(self):
        x = Jet.constant(jet_space(1, 2), 1.0)
        y = Jet.constant(jet_space(2, 2), 1.0)
        with pytest.raises(DimensionError):
            x + y


class TestQueries:
    def test_gradient_and_hessian(self):
        # f = x^2 y + 3x at (0,0)
        sp = jet_space(2, 3)
        x, y = variables(sp, [0.0, 0.0])
        f = x * x * y + 3.0 * x
        assert np.allclose(f.gradient(), [3.0, 0.0])
        H = f.hessian()
        assert H[0, 1] == H[1, 0] == 0.0  # cubic term truncated from hessian at 0

    def test_hessian_from_expansion_point(self):
        sp = jet_space(2, 2)
        x, y = variables(sp, [1.0, 2.0])
        f = x * x * y
        H = f.hessian()
        assert H[0, 0] == pytest.approx(2 * 2.0)  # d2f/dx2 = 2y
        assert H[0, 1] == pytest.approx(2 * 1.0)  # d2f/dxdy = 2x

    @given(d0=finite, d1=finite)
    def test_eval_matches_polynomial(self, d0, d1):
        sp = jet_space(2, 2)
        x, y = variables(sp, [0.5, -0.25])
        f = x * y + x
        # the order-2 Taylor polynomial of a quadratic is the quadratic itself
        mono = np.prod(np.array([d0, d1]) ** sp.exponents, axis=1)
        val = f.coeffs @ mono
        ref = (0.5 + d0) * (-0.25 + d1) + (0.5 + d0)
        assert val == pytest.approx(ref, abs=1e-12)
