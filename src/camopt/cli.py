"""Command line front end.

Subcommands: ``solve`` runs the optimizer on a scenario file and writes
plot-ready CSV artifacts plus a machine-readable summary, ``risk`` prints a
ballistic risk report, ``split`` dumps the Gaussian mixture used for a
scenario, ``validate`` re-propagates an emitted solution with the full
nonlinear model, and ``selftest`` runs the built-in oracle suites.

Exit codes: 0 solved, 2 converged with warnings, 3 failed.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import CamoptError
from .astro import flow, linearize_segment, Dynamics
from . import dajet
from .risk import chan_poc, chan_uv, equivalent_bplane, invert_chan, ipoc
from .scenario import (
    Config,
    load_scenario,
    rtn_matrix,
    scaled_dynamics,
)
from .scp import ScpError, solve
from .socp import SocpProblem, ConeDims, _Cone, solve as socp_solve
from .uncert import split_along_flow

import scipy.sparse as sparse
from scipy import integrate, optimize, stats


# ---------------------------------------------------------------------
# serialization


def _r(v):
    return repr(float(v))


def _num(x):
    """JSON-safe float: NaN and infinities become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def emit(sol, scenario, out_dir):
    """Write maneuver.csv, bplane.csv, tipoc.csv and summary.json."""
    os.makedirs(out_dir, exist_ok=True)
    dts = np.diff(sol.times_s)

    with open(os.path.join(out_dir, "maneuver.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch_s", "dv_r_mm_s", "dv_t_mm_s", "dv_n_mm_s"])
        for i, dt in enumerate(dts):
            dv = rtn_matrix(sol.states_km[i]).T @ sol.controls_km_s2[i] * dt
            w.writerow([_r(sol.times_s[i])] + [_r(v) for v in dv * 1e6])

    with open(os.path.join(out_dir, "bplane.csv"), "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["conj", "mix", "enc", "xi_ballistic", "zeta_ballistic",
                    "xi_final", "zeta_final", "p_limit", "p_final"])
        for ch in sol.channels:
            if ch.kind != "short" or ch.P2 is None or ch.y_final is None:
                continue
            # without an adapted limit the keep-out ellipse degenerates;
            # plain whitening still gives a useful picture
            d2 = ch.d2_limit if math.isfinite(ch.d2_limit) and \
                ch.d2_limit > 0.0 else 1.0
            pts, _ = equivalent_bplane(
                np.vstack([ch.y_ballistic, ch.y_final]), ch.P2, d2)
            w.writerow([ch.conj, ch.mix, ch.enc,
                        _r(pts[0, 0]), _r(pts[0, 1]),
                        _r(pts[1, 0]), _r(pts[1, 1]),
                        _r(ch.p_limit), _r(ch.p_final)])

    if sol.tipoc_nodes is not None:
        lt = [ch for ch in sol.channels if ch.kind == "long"]
        with open(os.path.join(out_dir, "tipoc.csv"), "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["epoch_s"] +
                       [f"conj{ch.conj}_mix{ch.mix}" for ch in lt] + ["total"])
            for j, t in enumerate(sol.times_s):
                w.writerow([_r(t)] +
                           [_r(v) for v in sol.tipoc_mix[j]] +
                           [_r(sol.tipoc_nodes[j])])

    summary = {
        "scenario": scenario.name,
        "status": sol.status,
        "dv_mm_s": sol.dv_mm_s,
        "tpoc_ballistic": sol.tpoc_ballistic,
        "tpoc_final": sol.tpoc_final,
        "total_limit": sol.total_limit,
        "iterations": sol.majors,
        "e_validation_mm": sol.e_validation_mm,
        "vc_max": sol.vc_max,
        "times_s": [_r(t) for t in sol.times_s],
        "controls_km_s2": [[_r(v) for v in row]
                           for row in sol.controls_km_s2],
        "states_km": [[_r(v) for v in row] for row in sol.states_km],
        "channels": [{
            "kind": ch.kind, "conj": ch.conj, "mix": ch.mix, "enc": ch.enc,
            "weight": ch.weight, "epoch_s": ch.epoch_s, "node": ch.node,
            "p_ballistic": _num(ch.p_ballistic),
            "p_limit": _num(ch.p_limit),
            "p_final": _num(ch.p_final),
        } for ch in sol.channels],
        "iteration_log": [{
            "major": rec.major, "minors": rec.minors,
            "e_major": _num(rec.e_major), "e_minor": _num(rec.e_minor),
            "objective": _num(rec.objective),
            "dv_mm_s": _num(rec.dv_mm_s), "vc_max": _num(rec.vc_max),
            "ipm_iters": rec.ipm_iters,
            "cone_solves": [{
                "status": cs["status"], "iterations": cs["iterations"],
                "pres": _num(cs["pres"]), "dres": _num(cs["dres"]),
                "gap": _num(cs["gap"]),
            } for cs in rec.cone_solves],
            "limits": [{"q_limit": _num(q), "d2_limit": _num(d2)}
                       for q, d2 in rec.limits],
        } for rec in sol.log],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------
# subcommands


def _cmd_solve(args):
    scn = load_scenario(args.scenario)
    if args.nmix is not None:
        scn = dataclasses.replace(scn, n_mix=args.nmix)
    cfg = Config(refine_mode=args.mode)
    tic = time.perf_counter()
    sol = solve(scn, cfg)
    wall = time.perf_counter() - tic
    emit(sol, scn, args.out)
    print(f"status          {sol.status}")
    print(f"delta-v         {sol.dv_mm_s:.4f} mm/s")
    print(f"TPoC ballistic  {sol.tpoc_ballistic:.6e}")
    print(f"TPoC final      {sol.tpoc_final:.6e}  (limit {sol.total_limit:.2e})")
    print(f"major iters     {sol.majors}")
    print(f"e_validation    {sol.e_validation_mm:.4f} mm")
    print(f"wall time       {wall:.1f} s")
    print(f"artifacts in    {args.out}")
    if sol.status in ("converged", "ballistic"):
        return 0
    # ran out of iterations but the nonlinear total may still be usable
    if sol.tpoc_final <= sol.total_limit * 1.05:
        print("warning: iteration limit reached, solution within 5% of "
              "the risk budget", file=sys.stderr)
        return 2
    return 3


def _cmd_risk(args):
    scn = load_scenario(args.scenario)
    # a loose budget with the short circuit on returns the ballistic
    # evaluation without entering the optimizer
    sol = solve(scn, Config(total_limit=0.999999, short_circuit=True))
    print(f"scenario {scn.name or args.scenario}: "
          f"{len(scn.conjunctions)} conjunction(s), n_mix {scn.n_mix}")
    per_conj = {}
    for ch in sol.channels:
        per_conj.setdefault(ch.conj, []).append(ch)
        print(f"  {ch.kind:5s} conj {ch.conj} mix {ch.mix} enc {ch.enc} "
              f"weight {ch.weight:.4f}  PoC {ch.p_ballistic:.4e}")
    for ci in sorted(per_conj):
        p = 1.0 - float(np.prod([1.0 - ch.p_ballistic for ch in per_conj[ci]]))
        print(f"conjunction {ci}: combined PoC {p:.4e}")
    print(f"TPoC (ballistic) {sol.tpoc_ballistic:.6e}")
    if sol.tipoc_nodes is not None:
        k = int(np.argmax(sol.tipoc_nodes))
        print(f"max TIPoC {sol.tipoc_nodes[k]:.6e} at epoch "
              f"{sol.times_s[k]:.1f} s")
    return 0


def _cmd_split(args):
    scn = load_scenario(args.scenario)
    K = args.nmix
    scl = scn.scaling()
    dyn = scaled_dynamics(scn)
    L, V, T = scl.length, scl.velocity, scl.time
    D = np.array([L, L, L, V, V, V])
    out = {"scenario": scn.name, "n_mix": K, "conjunctions": []}
    for ci, conj in enumerate(scn.conjunctions):
        if K > 1 and conj.cov.shape != (6, 6):
            raise ScpError(f"conjunction {ci}: mixture splitting needs a "
                           "velocity covariance")
        xp = scn.primary_at(conj.tca)
        xs = np.concatenate([(xp[:3] - conj.dr) / L, (xp[3:] - conj.dv) / V])
        # a position-only covariance scales by the position units alone
        Dc = D[:len(conj.cov)]
        P = conj.cov / np.outer(Dc, Dc)
        gmm = split_along_flow(xs, P, (scn.horizon[1] - conj.tca) / T, dyn, K)
        out["conjunctions"].append({
            "index": ci,
            "tca_s": conj.tca,
            "weights": gmm.weights.tolist(),
            "means": (gmm.means * D).tolist(),
            "covs": (gmm.covs * np.outer(Dc, Dc)).tolist(),
        })
    json.dump(out, sys.stdout, indent=1)
    print()
    return 0


def _cmd_validate(args):
    scn = load_scenario(args.scenario)
    path = args.solution
    if os.path.isdir(path):
        path = os.path.join(path, "summary.json")
    with open(path) as fh:
        doc = json.load(fh)
    times = np.array([float(t) for t in doc["times_s"]])
    controls = np.array([[float(v) for v in row]
                         for row in doc["controls_km_s2"]])
    states = np.array([[float(v) for v in row] for row in doc["states_km"]])
    x = scn.primary_at(times[0])
    err = float(np.linalg.norm(x[:3] - states[0, :3]))
    for i in range(len(times) - 1):
        x = flow(x, times[i], times[i + 1], controls[i], scn.dynamics)
        err = max(err, float(np.linalg.norm(x[:3] - states[i + 1, :3])))
    e_val = err * 1e6
    dts = np.diff(times)
    dv = float(np.sum(np.linalg.norm(controls, axis=1) * dts)) * 1e6
    print(f"e_validation    {e_val:.4f} mm  (emitted "
          f"{doc['e_validation_mm']:.4f} mm)")
    print(f"delta-v         {dv:.4f} mm/s  (emitted {doc['dv_mm_s']:.4f})")
    return 0


# ---------------------------------------------------------------------
# self test suites


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
    """State-transition matrix against finite differences of the flow."""
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
    worst = 0.0
    for x, dt, seg in zip(xs, dts, segs):
        h = 3e-6
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            fp = flow(x + e, 0.0, dt, np.zeros(3), dyn)
            fm = flow(x - e, 0.0, dt, np.zeros(3), dyn)
            fd = (fp - fm) / (2.0 * h)
            worst = max(worst, float(np.max(np.abs(seg.A[:, k] - fd))) /
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
        out, radius = equivalent_bplane(pts, P2, d2)
        worst = max(worst,
                    float(np.max(np.abs(np.linalg.norm(out, axis=1) - radius))))
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
    and the 7-dimensional cones of the virtual controls.
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


_SUITES = [
    ("jet gradients vs finite differences", _suite_jet_gradients),
    ("state transition matrix vs finite differences", _suite_stm),
    ("short-term PoC vs 2D quadrature", _suite_chan_poc),
    ("Chan inversion vs bracketing root", _suite_chan_inversion),
    ("instantaneous PoC vs Monte Carlo", _suite_ipoc),
    ("equivalent B-plane vs boundary scan", _suite_projection),
    ("cone solver residuals on random problems", _suite_socp),
    ("cone step to boundary vs bisection", _suite_cone_step),
]


def _cmd_selftest(args):
    failed = 0
    for name, fn in _SUITES:
        tic = time.perf_counter()
        ok, detail = fn()
        wall = time.perf_counter() - tic
        tag = "pass" if ok else "FAIL"
        print(f"{tag}  {name}: {detail}  [{wall:.1f} s]")
        failed += not ok
    return 0 if failed == 0 else 3


# ---------------------------------------------------------------------
# entry point


def _parser():
    p = argparse.ArgumentParser(prog="camopt",
                                description="low-thrust collision avoidance "
                                            "maneuver optimization")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="optimize a scenario and emit artifacts")
    ps.add_argument("scenario")
    ps.add_argument("--mode", choices=("smd", "tpoc"), default="smd",
                    help="refinement mode of the risk constraints")
    ps.add_argument("--nmix", type=int, default=None,
                    help="override the scenario's mixture size")
    ps.add_argument("--out", default="out", help="output directory")
    ps.set_defaults(func=_cmd_solve)

    pr = sub.add_parser("risk", help="ballistic PoC/TPoC/TIPoC report")
    pr.add_argument("scenario")
    pr.set_defaults(func=_cmd_risk)

    pp = sub.add_parser("split", help="dump the Gaussian mixture")
    pp.add_argument("scenario")
    pp.add_argument("--nmix", type=int, required=True)
    pp.set_defaults(func=_cmd_split)

    pv = sub.add_parser("validate",
                        help="re-propagate an emitted solution nonlinearly")
    pv.add_argument("scenario")
    pv.add_argument("solution", help="summary.json or its directory")
    pv.set_defaults(func=_cmd_validate)

    pt = sub.add_parser("selftest", help="run the built-in oracle suites")
    pt.set_defaults(func=_cmd_selftest)
    return p


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CamoptError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
