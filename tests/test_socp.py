import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import linprog
from scipy.sparse.linalg import splu

from camopt import socp
from camopt.socp import (
    ConeDims,
    SocpProblem,
    SolverError,
    SolverSettings,
    solve,
)


def lp_ge(c, lhs, rhs):
    """min c'x s.t. lhs x >= rhs as a standard-form problem."""
    c = np.atleast_1d(np.asarray(c, float))
    lhs = np.atleast_2d(np.asarray(lhs, float))
    rhs = np.atleast_1d(np.asarray(rhs, float))
    return SocpProblem(c=c, A=sp.csc_matrix((0, len(c))), b=np.zeros(0),
                       G=sp.csc_matrix(-lhs), h=-rhs,
                       dims=ConeDims(nonneg=len(rhs)))


def random_feasible(rng, n, p, l, socs, density=1.0):
    m = l + sum(socs)
    A = rng.standard_normal((p, n))
    G = rng.standard_normal((m, n))
    if density < 1.0:
        G[rng.random(G.shape) > density] = 0.0

    def interior(v):
        v = v.copy()
        v[:l] = np.abs(v[:l]) + 0.1
        off = l
        for q in socs:
            v[off] = np.linalg.norm(v[off + 1:off + q]) + 0.1
            off += q
        return v

    x0 = rng.standard_normal(n)
    s0 = interior(rng.standard_normal(m))
    z0 = interior(rng.standard_normal(m))
    b = A @ x0
    h = G @ x0 + s0
    c = -(G.T @ z0 + A.T @ rng.standard_normal(p))
    return SocpProblem(c=c, A=sp.csc_matrix(A), b=b, G=sp.csc_matrix(G), h=h,
                       dims=ConeDims(nonneg=l, soc=tuple(socs)))


def cvxpy_value(cvxpy, prob: SocpProblem) -> float:
    n = prob.G.shape[1]
    l = prob.dims.nonneg
    G, h = np.asarray(prob.G.todense()), prob.h
    x = cvxpy.Variable(n)
    cons = []
    if l:
        cons.append(G[:l] @ x <= h[:l])
    if prob.A.shape[0]:
        cons.append(np.asarray(prob.A.todense()) @ x == prob.b)
    off = l
    for q in prob.dims.soc:
        cons.append(cvxpy.SOC(h[off] - G[off] @ x,
                              G[off + 1:off + q] @ x - h[off + 1:off + q]))
        off += q
    ref = cvxpy.Problem(cvxpy.Minimize(prob.c @ x), cons)
    ref.solve()
    return ref.value


def cone_margin(v, dims):
    out = np.inf
    if dims.nonneg:
        out = float(np.min(v[:dims.nonneg]))
    off = dims.nonneg
    for q in dims.soc:
        out = min(out, v[off] - np.linalg.norm(v[off + 1:off + q]))
        off += q
    return out


class TestToyProblems:
    def test_scalar_bound(self):
        r = solve(lp_ge([1.0], [[1.0]], [1.0]))
        assert r.status == "optimal"
        assert r.x[0] == pytest.approx(1.0, abs=1e-8)

    def test_fixed_cone_member(self):
        # min t s.t. ||(3,4)|| <= t
        G = sp.csc_matrix(np.array([[-1.0], [0.0], [0.0]]))
        prob = SocpProblem(c=np.array([1.0]), A=sp.csc_matrix((0, 1)),
                           b=np.zeros(0), G=G, h=np.array([0.0, 3.0, 4.0]),
                           dims=ConeDims(nonneg=0, soc=(3,)))
        r = solve(prob)
        assert r.status == "optimal"
        assert r.obj == pytest.approx(5.0, abs=1e-7)

    def test_infeasible_reported(self):
        # x >= 1 and x <= 0
        r = solve(lp_ge([1.0], [[1.0], [-1.0]], [1.0, 0.0]))
        assert r.status == "infeasible"
        assert r.x is None

    def test_unbounded_reported(self):
        # min -x s.t. x >= 0
        r = solve(lp_ge([-1.0], [[1.0]], [0.0]))
        assert r.status == "unbounded"

    def test_equality_lp(self):
        # min x+y s.t. x+y = 1... plus x,y >= 0: any split, obj 1
        prob = SocpProblem(c=np.array([1.0, 2.0]),
                           A=sp.csc_matrix(np.array([[1.0, 1.0]])),
                           b=np.array([1.0]),
                           G=sp.csc_matrix(-np.eye(2)), h=np.zeros(2),
                           dims=ConeDims(nonneg=2))
        r = solve(prob)
        assert r.status == "optimal"
        assert r.x[0] == pytest.approx(1.0, abs=1e-7)
        assert r.obj == pytest.approx(1.0, abs=1e-7)


class TestCrossValidation:
    def test_fifty_random_socps(self):
        cvxpy = pytest.importorskip("cvxpy")
        rng = np.random.default_rng(42)
        for _ in range(50):
            n = int(rng.integers(3, 30))
            p = int(rng.integers(0, max(1, n // 3)))
            l = int(rng.integers(1, 8))
            socs = [int(rng.integers(2, 5)) for _ in range(rng.integers(0, 4))]
            prob = random_feasible(rng, n, p, l, socs)
            r = solve(prob)
            ref = cvxpy_value(cvxpy, prob)
            assert r.status == "optimal"
            assert abs(r.obj - ref) / max(1.0, abs(ref)) < 1e-5

    def test_random_lps_match_highs(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(2, 25))
            p = int(rng.integers(0, max(1, n // 3)))
            l = int(rng.integers(n, 2 * n + 4))
            prob = random_feasible(rng, n, p, l, [])
            r = solve(prob)
            G, A = prob.G.toarray(), prob.A.toarray()
            ref = linprog(prob.c, A_ub=G, b_ub=prob.h,
                          A_eq=A if p else None, b_eq=prob.b if p else None,
                          bounds=(None, None), method="highs")
            assert ref.status == 0
            assert r.status == "optimal"
            assert abs(r.obj - ref.fun) / max(1.0, abs(ref.fun)) < 1e-6


class TestInvariants:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.prob = random_feasible(rng, 12, 3, 4, [3, 4])
        self.result = solve(self.prob)

    def test_solution_feasible_outside_solver(self):
        r = self.result
        assert r.status == "optimal"
        assert np.max(np.abs(self.prob.A @ r.x - self.prob.b)) < 1e-8
        s = self.prob.h - self.prob.G @ r.x
        assert cone_margin(s, self.prob.dims) > -1e-8

    def test_duality_gap_reported_small(self):
        assert self.result.gap < 1e-8

    def test_objective_scaling_invariance(self):
        scaled = SocpProblem(c=10.0 * self.prob.c, A=self.prob.A, b=self.prob.b,
                             G=self.prob.G, h=self.prob.h, dims=self.prob.dims)
        r10 = solve(scaled)
        assert np.max(np.abs(r10.x - self.result.x)) < 1e-7

    def test_deterministic(self):
        r2 = solve(self.prob)
        assert np.array_equal(r2.x, self.result.x) or np.max(
            np.abs(r2.x - self.result.x)) == 0.0


class TestValidation:
    def test_dimension_mismatch(self):
        prob = lp_ge([1.0], [[1.0]], [1.0])
        prob.h = np.zeros(3)
        with pytest.raises(SolverError):
            solve(prob)

    def test_no_cone_rows_rejected(self):
        prob = SocpProblem(c=np.ones(1), A=sp.csc_matrix((0, 1)), b=np.zeros(0),
                           G=sp.csc_matrix((0, 1)), h=np.zeros(0),
                           dims=ConeDims())
        with pytest.raises(SolverError):
            solve(prob)

    def test_never_crashes_on_hard_problem(self):
        # nearly-degenerate rows: must return a status, not raise
        rng = np.random.default_rng(1)
        G = rng.standard_normal((6, 4))
        G[5] = G[4] + 1e-13
        prob = SocpProblem(c=rng.standard_normal(4),
                           A=sp.csc_matrix((0, 4)), b=np.zeros(0),
                           G=sp.csc_matrix(G), h=np.abs(rng.standard_normal(6)),
                           dims=ConeDims(nonneg=6))
        r = solve(prob, SolverSettings(max_iter=30))
        assert r.status in {"optimal", "infeasible", "unbounded", "max_iter",
                            "numerical"}

    def test_zero_iteration_limit_rejected(self):
        with pytest.raises(SolverError):
            solve(lp_ge([1.0], [[1.0]], [1.0]), SolverSettings(max_iter=0))


class TestEarlyStop:
    def test_scaling_failure_reports_numerical(self, monkeypatch):
        class Broken:
            def __init__(self, cone, s, z):
                raise SolverError("iterate left the cone interior")

        monkeypatch.setattr(socp, "_Scaling", Broken)
        r = solve(lp_ge([1.0], [[1.0]], [1.0]))
        assert r.status == "numerical"
        assert r.iterations == 1

    def test_iteration_limit_reports_max_iter(self):
        rng = np.random.default_rng(3)
        r = solve(random_feasible(rng, 12, 3, 4, [3, 4]),
                  SolverSettings(max_iter=2))
        assert r.status == "max_iter"
        assert r.iterations == 2


# ---------------------------------------------------------------------
# the cached KKT pattern against the matrix sp.bmat assembles


MIXED_SOCS = [3, 4, 7, 3, 7]


def reference_kkt(A, G, w2, rows, cols, reg):
    """Reference K and W2, assembled by `sp.bmat` and from COO triplets."""
    p, n = A.shape
    m = G.shape[0]
    W2 = sp.csc_matrix((w2, (rows, cols)), shape=(m, m))
    K = sp.bmat([
        [sp.diags(np.full(n, reg)), A.T, G.T],
        [A, -sp.diags(np.full(p, reg)) if p else None, None],
        [G, None, -(W2 + sp.diags(np.full(m, reg)))],
    ], format="csc")
    return K, W2


class ReferenceKkt(socp._Kkt):
    """Factors the K that ``sp.bmat`` assembles from the same inputs."""

    def __init__(self, A, G, reg, rows, cols):
        super().__init__(A, G, reg, rows, cols)
        self.inputs = (A, G, rows, cols, reg)

    def factor(self, w2):
        A, G, rows, cols, reg = self.inputs
        K, self.W2 = reference_kkt(A, G, w2, rows, cols, reg)
        self.lu = splu(K)


def interior_point(rng, dims):
    v = rng.standard_normal(dims.total)
    v[:dims.nonneg] = np.abs(v[:dims.nonneg]) + 0.1
    off = dims.nonneg
    for q in dims.soc:
        v[off] = np.linalg.norm(v[off + 1:off + q]) + 0.1
        off += q
    return v


def block_pattern(rng, prob, kind):
    """(rows, cols, values) of the (3,3) block for W = I or an NT point."""
    cone = socp._Cone(prob.dims)
    m = prob.dims.total
    if kind == "identity":
        return np.arange(m), np.arange(m), np.ones(m)
    s, z = interior_point(rng, prob.dims), interior_point(rng, prob.dims)
    w2 = socp._Scaling(cone, s, z).w2_values()
    return cone.w2_rows, cone.w2_cols, w2


def assert_same_csc(a, b):
    assert np.array_equal(a.indptr, b.indptr)
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.data, b.data)


class TestCachedKkt:
    @pytest.mark.parametrize("kind", ["identity", "nt"])
    @pytest.mark.parametrize("p", [0, 4])
    def test_matches_bmat_assembly(self, p, kind):
        rng = np.random.default_rng(11 + p)
        reg = SolverSettings().kkt_reg
        for density in (1.0, 0.4):
            prob = random_feasible(rng, 15, p, 5, MIXED_SOCS, density)
            A, G = sp.csc_matrix(prob.A), sp.csc_matrix(prob.G)
            rows, cols, w2 = block_pattern(rng, prob, kind)
            kkt = socp._Kkt(A, G, reg, rows, cols)
            K_ref, W2_ref = reference_kkt(A, G, w2, rows, cols, reg)
            assert_same_csc(kkt.matrix(w2), K_ref)
            kkt.factor(w2)
            assert_same_csc(kkt.W2, W2_ref)
            # refilled: a second set of values lands in the same slots
            rows, cols, w2 = block_pattern(rng, prob, kind)
            assert_same_csc(kkt.matrix(w2),
                            reference_kkt(A, G, w2, rows, cols, reg)[0])

    @pytest.mark.parametrize("p", [0, 3])
    def test_solve_bit_identical_to_bmat_assembly(self, p, monkeypatch):
        rng = np.random.default_rng(23 + p)
        probs = [random_feasible(rng, 14, p, 4, MIXED_SOCS, density)
                 for density in (1.0, 0.5, 0.5)]
        fast = [solve(prob) for prob in probs]
        monkeypatch.setattr(socp, "_Kkt", ReferenceKkt)
        for prob, r in zip(probs, fast):
            ref = solve(prob)
            assert r.status == ref.status == "optimal"
            assert r.iterations == ref.iterations
            for a, b in ((r.x, ref.x), (r.y, ref.y), (r.z, ref.z)):
                assert np.array_equal(a, b)
