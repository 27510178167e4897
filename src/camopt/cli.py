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
from .astro import flow
from .risk import equivalent_bplane
from .scenario import (
    Config,
    load_scenario,
    rtn_matrix,
    scaled_dynamics,
)
from .scp import ScpError, ballistic, solve, tca_states
from .uncert import split_along_flow


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
        # per segment, the RTN frame's transpose times its thrust
        dvs = np.matmul(rtn_matrix(sol.states_km[:-1]).transpose(0, 2, 1),
                        sol.controls_km_s2[:, :, None])[:, :, 0] \
            * dts[:, None]
        for t, dv in zip(sol.times_s, dvs):
            w.writerow([_r(t)] + [_r(v) for v in dv * 1e6])

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
            pts = equivalent_bplane(
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
            "dv_mm_s": _num(rec.dv_mm_s),
            "ipm_iters": rec.ipm_iters,
            "order2_segments": rec.order2_segments,
            "cone_solves": [{
                "status": cs["status"], "start": cs["start"],
                "iterations": cs["iterations"],
                "pres": _num(cs["pres"]), "dres": _num(cs["dres"]),
                "gap": _num(cs["gap"]),
                "kkt_dim": cs["kkt_dim"], "kkt_band": cs["kkt_band"],
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
    sol = ballistic(scn)
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
        _, _, xs, P, _ = tca_states(conj, scl)
        # a position-only covariance scales by the position units alone
        Dc = D[:len(conj.cov)]
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


class SolutionFormatError(CamoptError):
    """An emitted solution document that cannot be re-propagated."""


def _floats(val):
    """A number, a numeric string or nested lists of them, as floats."""
    return [_floats(v) for v in val] if isinstance(val, list) else float(val)


def _solution(doc):
    """Times (T,), states (T, 6) and controls (T - 1, 3) of an emitted
    solution, with T >= 2, and its emitted validation error [mm] and
    delta-v [mm/s], all finite numbers."""
    def numbers(name, shape=None):
        try:
            arr = np.array(_floats(doc[name]))
        except (TypeError, ValueError, OverflowError) as exc:
            raise SolutionFormatError(f"{name}: {exc}") from None
        if shape is not None and arr.shape != shape:
            raise SolutionFormatError(f"{name}: shape {arr.shape}, "
                                      f"need {shape}")
        if not np.all(np.isfinite(arr)):
            raise SolutionFormatError(f"{name}: values must be finite")
        return arr

    times = numbers("times_s")
    if times.ndim != 1 or len(times) < 2:
        raise SolutionFormatError("times_s: need a list of at least 2 epochs")
    n = len(times)
    return (times, numbers("states_km", (n, 6)),
            numbers("controls_km_s2", (n - 1, 3)),
            float(numbers("e_validation_mm", ())),
            float(numbers("dv_mm_s", ())))


def _cmd_validate(args):
    scn = load_scenario(args.scenario)
    path = args.solution
    if os.path.isdir(path):
        path = os.path.join(path, "summary.json")
    with open(path) as fh:
        doc = json.load(fh)
    times, states, controls, e_emitted, dv_emitted = _solution(doc)
    x = scn.primary_at(times[0])
    err = float(np.linalg.norm(x[:3] - states[0, :3]))
    for i in range(len(times) - 1):
        x = flow(x, times[i], times[i + 1], controls[i], scn.dynamics)
        err = max(err, float(np.linalg.norm(x[:3] - states[i + 1, :3])))
    e_val = err * 1e6
    dts = np.diff(times)
    dv = float(np.sum(np.linalg.norm(controls, axis=1) * dts)) * 1e6
    print(f"e_validation    {e_val:.4f} mm  (emitted {e_emitted:.4f} mm)")
    print(f"delta-v         {dv:.4f} mm/s  (emitted {dv_emitted:.4f})")
    return 0


def _cmd_selftest(args):
    # the oracles' scipy.stats, scipy.integrate and scipy.optimize load only
    # when the self test runs, not on every solve
    from .selftest import run
    return run()


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
