"""Built-in oracle suites of ``camopt selftest``.

Each suite checks one numerical building block against an independent
reference (finite differences, adaptive quadrature, a bracketing root
finder, Monte Carlo, bisection) and returns ``(ok, detail)``.  The
references use ``scipy.stats`` and ``scipy.integrate``, which nothing else
in camopt needs, and ``scipy.optimize``, which a solve loads only to adapt
the limits of two or more channels; the command line imports this module
only when the self test runs.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.sparse as sparse
from scipy import integrate, optimize, stats

from . import dajet
from .astro import Dynamics, flow, linearize_segment
from .risk import chan_poc, chan_uv, equivalent_bplane, invert_chan, ipoc
from .scp import _stm_track
from .socp import ConeDims, SocpProblem, _Cone, solve as socp_solve


def _suite_jet_gradients():
    """First-order jet coefficients against central finite differences."""
    rng = np.random.default_rng(11)
    sp = dajet.jet_space(3, 2)

    def f(x):
        v0, v1, v2 = dajet.identity(sp, x)
        s, c, e = math.sin(x[0]), math.cos(x[0]), math.exp(0.3 * x[1])
        den = dajet.mul(sp, v0, v0)
        den[0] += 1.0
        return (dajet.mul(sp, dajet.compose_series(sp, v0, [s, c, -s]),
                          dajet.compose_series(sp, 0.3 * v1, [e, e, e]))
                + dajet.mul(sp, dajet.mul(sp, v2, v2),
                            dajet.reciprocal(sp, den)))

    def f_num(v):
        return (math.sin(v[0]) * math.exp(0.3 * v[1])
                + v[2] ** 2 / (v[0] ** 2 + 1.0))

    worst = 0.0
    for _ in range(10):
        x = rng.uniform(-1.5, 1.5, 3)
        grad = dajet.gradient(sp, f(x))
        h = 1e-6
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (f_num(x + e) - f_num(x - e)) / (2.0 * h)
            worst = max(worst, abs(grad[k] - fd) / max(abs(fd), 1e-12))
    return worst <= 1e-6, f"max rel err {worst:.2e} (tol 1e-6)"


def _suite_stm():
    """State-transition matrices against central differences of the flow:
    batched segment maps, and an STM track from a TCA back to t0 and on
    through four grid steps."""
    dyn = Dynamics.two_body(1.0)
    rng = np.random.default_rng(3)
    xs, dts = [], []
    for _ in range(3):
        x = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        x[:3] += rng.uniform(-0.05, 0.05, 3)
        x[3:] += rng.uniform(-0.05, 0.05, 3)
        xs.append(x)
        dts.append(rng.uniform(0.3, 1.5))
    segs = linearize_segment(np.array(xs), np.zeros((3, 3)), np.array(dts), dyn)
    times = [1.3, 0.0, 0.35, 0.7, 1.05, 1.4]
    _, track = _stm_track(xs[0], times, dyn)

    def fly(x):
        out = [x]
        for ta, tb in zip(times[:-1], times[1:]):
            out.append(flow(out[-1], ta, tb, np.zeros(3), dyn))
        return np.array(out)

    worst = 0.0
    h = 3e-6
    for k in range(6):
        e = np.zeros(6)
        e[k] = h
        for x, dt, A in zip(xs, dts, segs.A):
            fd = (flow(x + e, 0.0, dt, np.zeros(3), dyn)
                  - flow(x - e, 0.0, dt, np.zeros(3), dyn)) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(A[:, k] - fd))) /
                        max(float(np.max(np.abs(fd))), 1e-12))
        fds = (fly(xs[0] + e) - fly(xs[0] - e)) / (2.0 * h)
        for Phi, fd in zip(track[1:], fds[1:]):
            worst = max(worst, float(np.max(np.abs(Phi[:, k] - fd))) /
                        max(float(np.max(np.abs(fd))), 1e-12))
    return worst <= 1e-5, f"max rel err {worst:.2e} (tol 1e-5)"


def _suite_chan_poc():
    """Chan's series against adaptive 2D quadrature, isotropic covariances."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        sigma = rng.uniform(0.05, 1.0)
        hbr = rng.uniform(0.001, 0.05)
        dr2 = rng.uniform(-3.0, 3.0, 2) * sigma
        P2 = sigma ** 2 * np.eye(2)
        pdf = stats.multivariate_normal(mean=dr2, cov=P2).pdf
        ref, _ = integrate.dblquad(
            lambda y, x: pdf([x, y]), -hbr, hbr,
            lambda x: -math.sqrt(max(hbr ** 2 - x ** 2, 0.0)),
            lambda x: math.sqrt(max(hbr ** 2 - x ** 2, 0.0)),
            epsrel=1e-12, epsabs=0.0)
        got = chan_poc(*chan_uv(dr2, P2, hbr))
        worst = max(worst, abs(got - ref) / ref)
    return worst <= 1e-6, f"max rel err {worst:.2e} (tol 1e-6)"


def _suite_chan_inversion():
    """Newton inversion of Chan's series against a bracketing root finder,
    random (u, p) with p below the head-on probability."""
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(20):
        u = 10.0 ** rng.uniform(-8.0, 1.5)
        p = chan_poc(u, 0.0) * 10.0 ** rng.uniform(-8.0, -0.05)
        f = lambda v: chan_poc(u, v) - p
        hi = 1.0
        while f(hi) > 0.0:
            hi *= 4.0
        ref = optimize.brentq(f, 0.0, hi, xtol=1e-300, rtol=1e-15,
                              maxiter=500)
        worst = max(worst, abs(invert_chan(p, u) - ref) / ref)
    return worst <= 1e-12, f"max rel err {worst:.2e} (tol 1e-12)"


def _suite_ipoc():
    """Instantaneous PoC against Monte Carlo over the hard-body sphere."""
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(5):
        A = rng.standard_normal((3, 3))
        P = A @ A.T + 1.5 * np.eye(3)
        dr = rng.uniform(-1.0, 1.0, 3)
        hbr = 0.08
        # uniform samples inside the sphere average the Gaussian density
        n = 20000
        dirs = rng.standard_normal((n, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = dr + dirs * hbr * rng.uniform(0.0, 1.0, (n, 1)) ** (1.0 / 3.0)
        dens = stats.multivariate_normal(mean=np.zeros(3), cov=P).pdf(pts)
        ref = float(np.mean(dens)) * 4.0 / 3.0 * math.pi * hbr ** 3
        got = ipoc(dr, P, hbr)
        worst = max(worst, abs(got - ref) / ref)
    return worst <= 0.05, f"max rel err {worst:.2e} (tol 5e-2)"


def _suite_projection():
    """Equivalent-B-plane transform against a keep-out boundary scan."""
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(5):
        A = rng.standard_normal((2, 2))
        P2 = A @ A.T + 0.3 * np.eye(2)
        d2 = rng.uniform(5.0, 30.0)
        S = np.linalg.cholesky(P2)
        th = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
        # points with squared Mahalanobis distance exactly d2 must land
        # on the unit circle
        pts = (S @ np.vstack([np.cos(th), np.sin(th)])).T * math.sqrt(d2)
        out = equivalent_bplane(pts, P2, d2)
        worst = max(worst,
                    float(np.max(np.abs(np.linalg.norm(out, axis=1) - 1.0))))
    return worst <= 1e-4, f"max boundary err {worst:.2e} (tol 1e-4)"


def _interior(v, l, socs):
    """v moved into the interior of R+^l x SOC(socs), 0.1 from the edge."""
    v = v.copy()
    v[:l] = np.abs(v[:l]) + 0.1
    off = l
    for q in socs:
        v[off] = np.linalg.norm(v[off + 1:off + q]) + 0.1
        off += q
    return v


def _cone_margin(v, l, socs):
    """Smallest slack of v to the boundary of R+^l x SOC(socs)."""
    margin = float(np.min(v[:l], initial=np.inf))
    off = l
    for q in socs:
        margin = min(margin, v[off] - np.linalg.norm(v[off + 1:off + q]))
        off += q
    return margin


def _suite_socp():
    """Cone solver on random feasible problems: KKT residuals and gap.

    Besides small mixed cones, draws cover problems without equality rows
    and 7-dimensional cones, so the cone algebra is checked beyond the
    4-dimensional control cones of the SCP subproblems.
    """
    rng = np.random.default_rng(17)
    worst = 0.0
    shapes = ([(6, 2, 3, [3, 4])] * 50 + [(8, 0, 3, [3, 7])] * 10
              + [(12, 3, 2, [7, 4, 7])] * 10)
    for n, p, l, socs in shapes:
        m = l + sum(socs)
        A = rng.standard_normal((p, n))
        G = rng.standard_normal((m, n))
        x0 = rng.standard_normal(n)
        s0 = _interior(rng.standard_normal(m), l, socs)
        z0 = _interior(rng.standard_normal(m), l, socs)
        prob = SocpProblem(c=-(G.T @ z0 + A.T @ rng.standard_normal(p)),
                           A=sparse.csc_matrix(A), b=A @ x0,
                           G=sparse.csc_matrix(G), h=G @ x0 + s0,
                           dims=ConeDims(nonneg=l, soc=tuple(socs)))
        res = socp_solve(prob)
        if res.status != "optimal":
            return False, f"status {res.status} on a feasible problem"
        margin = _cone_margin(prob.h - prob.G @ res.x, l, socs)
        eq = float(np.max(np.abs(prob.A @ res.x - prob.b), initial=0.0))
        worst = max(worst, -min(margin, 0.0), eq, res.gap, res.pres, res.dres)
    return worst <= 1e-5, f"max residual {worst:.2e} (tol 1e-5)"


def _suite_cone_step():
    """Closed-form step to the cone boundary against bisection.

    Random interior points of an orthant plus 3-, 4- and 7-dimensional
    cones, moved along random directions.
    """
    rng = np.random.default_rng(19)
    socs = [3, 4, 7]
    worst = 0.0
    for _ in range(200):
        l = int(rng.integers(1, 6))
        cone = _Cone(ConeDims(nonneg=l, soc=tuple(socs)))
        m = l + sum(socs)
        v = _interior(rng.standard_normal(m), l, socs)
        dv = rng.standard_normal(m) * rng.uniform(0.1, 10.0)
        got = cone.max_step(v, dv)
        lo, hi = 0.0, 1e12
        if _cone_margin(v + hi * dv, l, socs) >= 0.0:
            lo = math.inf
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if _cone_margin(v + mid * dv, l, socs) >= 0.0:
                    lo = mid
                else:
                    hi = mid
        if math.isfinite(lo):
            worst = max(worst, abs(got - lo) / lo)
        elif got != lo:
            worst = math.inf
    return worst <= 1e-9, f"max rel err {worst:.2e} (tol 1e-9)"


SUITES = [
    ("jet gradients vs finite differences", _suite_jet_gradients),
    ("state transition matrix vs finite differences", _suite_stm),
    ("short-term PoC vs 2D quadrature", _suite_chan_poc),
    ("Chan inversion vs bracketing root", _suite_chan_inversion),
    ("instantaneous PoC vs Monte Carlo", _suite_ipoc),
    ("equivalent B-plane vs boundary scan", _suite_projection),
    ("cone solver residuals on random problems", _suite_socp),
    ("cone step to boundary vs bisection", _suite_cone_step),
]


def run():
    """Run every suite, print one line each; exit code 0 or 3."""
    failed = 0
    for name, fn in SUITES:
        tic = time.perf_counter()
        ok, detail = fn()
        wall = time.perf_counter() - tic
        tag = "pass" if ok else "FAIL"
        print(f"{tag}  {name}: {detail}  [{wall:.1f} s]")
        failed += not ok
    return 0 if failed == 0 else 3
