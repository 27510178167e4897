"""Workload definitions and the seeded scenario generator.

A workload is a base scenario, the refinement mode it is solved in, the
reference delta-v of its answer, and why it is in the benchmark.  One run
solves up to ``POOL`` variants of the base scenario, each once, cycling
only if time is left after the last.

Seeds change the primary's right ascension of the ascending node, drawn
uniformly for every variant.  Both dynamics models (two-body and J2) are
symmetric about the Earth's polar axis, and relative states and covariances
are given in the primary's RTN frame, so every variant is the same physical
problem in different ECI numbers.  The answer (delta-v, risk) is the same
for every seed up to roundoff, which lets every solve be checked against
one reference.  Seed 0's first variant is the base scenario itself.

Why seeds do not rotate the miss vector within the B-plane or scale the
covariance: on ``tpoc-1cdm``, five draws of a rotation within +-2 degrees
and a covariance scale within +-5% moved the TPoC polish between 2 and 8
minor iterations (1.7 to 3.9 s per solve) and delta-v between 34.6 and
37.3 mm/s.  Solve time and delta-v would then spread across seeds by more
than any bound a regression check can use.

The base scenarios are cut from the bundled ``scenarios/case*.json`` files
and kept here, so that editing a bundled scenario cannot silently change the
benchmark.  The cuts (shorter horizons, one conjunction, one mixand for the
long-term case) keep one solve within a few seconds on a 2-core machine;
the full bundled cases take 13 to 92 s per solve.

Run as a script to write one run's scenario files::

    python3 perfbench/workloads.py --workload tpoc-1cdm --seed 3 --out dir
"""

from __future__ import annotations

import argparse
import copy
import json
import zlib
from pathlib import Path

import numpy as np

# variants one run may solve
POOL = 16

# name -> base scenario, refine mode, (reference delta-v in mm/s at this
# benchmark's first commit, allowed relative deviation), and why the
# workload is in the benchmark.  The delta-v band of mixture-case2 is wider
# because its answer responds to roundoff: over 113 solves of its variants,
# delta-v ranged from 0.615 to 0.654 mm/s.
WORKLOADS = {
    # case2's conjunction split into 3 mixands over one orbit around the
    # TCA; the miss is 14 m instead of 20 m so that the plan needs thrust
    "mixture-case2": {
        "scenario": {
            "schema": 1, "name": "mixture-case2", "dynamics": "two_body",
            "primary": {
                "elements": {"a_km": 6800.0, "e": 0.0, "i_deg": 91.67,
                             "raan_deg": 0.0, "argp_deg": 0.0,
                             "nu_deg": 0.0},
                "state_epoch_s": 0.0,
                "mass_kg": 200.0,
                "u_max_mm_s2": 1.0,
            },
            "horizon_s": [-2790.0, 2790.0],
            "mode": {"short_term": True, "long_term": False, "n_mix": 3},
            "conjunctions": [{
                "tca_s": 0.0,
                "dr_m": [-14.0, 0.0, 0.0],
                "dv_km_s": [0.0, 17.630312116127577, 0.0],
                "cov_rtn_km2": {"P_rr": 2.025e-06, "P_tt": 1.0e-05,
                                "P_nn": 2.5e-06, "P_rt": 0.0, "P_tn": 0.0,
                                "P_nr": 0.0, "P_rdot_rdot": 2.25e-13,
                                "P_tdot_tdot": 4.0e-10,
                                "P_ndot_ndot": 6.25e-13},
                "hbr_m": 10.0}],
        },
        "mode": "smd",
        "dv_ref": (0.619831, 0.10),
        "why": "3-mixand split, per-mixand encounter detection and STM "
               "tracks, three channels for limit adaptation: moves with "
               "channel construction; control for the cone layer",
    },
    # case1's first conjunction with 1500 s of warning and 2.5 times its
    # thrust
    "tpoc-1cdm": {
        "scenario": {
            "schema": 1, "name": "tpoc-1cdm", "dynamics": "j2",
            "primary": {
                "elements": {"a_km": 6928.0, "e": 0.0, "i_deg": 53.0,
                             "raan_deg": 0.0, "argp_deg": 0.0,
                             "nu_deg": 0.0},
                "mass_kg": 230.0,
                "u_max_mm_s2": 0.05,
            },
            "horizon_s": [4143.0, 5643.0],
            "mode": {"short_term": True, "long_term": False, "n_mix": 1},
            "conjunctions": [{
                "tca_s": 5643.0,
                "dr_m": [-11.45, -19.44, 7.44],
                "dv_km_s": [0.37, -2.85, 4.32],
                "cov_rtn_km2": {"P_rr": 0.0078, "P_tt": 0.2887,
                                "P_nn": 0.0145, "P_rt": 0.0466,
                                "P_tn": 0.0103, "P_nr": 0.0644},
                "hbr_m": 6.0}],
        },
        "mode": "tpoc",
        "dv_ref": (36.0731, 0.005),
        "why": "the only TPoC-polish workload (linearize_tpoc rows, "
               "proximal term, final evaluation per major): moves with the "
               "cone solver; control for channel construction",
    },
    # case3's long-term encounter over 10500 s instead of 16742 s, with
    # one mixand instead of three
    "longterm-case3": {
        "scenario": {
            "schema": 1, "name": "longterm-case3", "dynamics": "two_body",
            "primary": {
                "elements": {"a_km": 6800.0, "e": 0.0, "i_deg": 0.0,
                             "raan_deg": 0.0, "argp_deg": 0.0,
                             "nu_deg": 0.0},
                "state_epoch_s": 0.0,
                "mass_kg": 200.0,
                "u_max_mm_s2": 0.2,
            },
            "horizon_s": [0.0, 10500.0],
            "mode": {"short_term": False, "long_term": True, "n_mix": 1},
            "conjunctions": [{
                "tca_s": 2790.257948010823,
                "dr_m": [0.0, 7500.0, 0.0],
                "dv_km_s": [0.015, 1.935077104331384e-05, 0.0],
                "cov_rtn_km2": {"P_rr": 0.0025, "P_tt": 4.0, "P_nn": 0.01,
                                "P_rt": 0.0, "P_tn": 0.0, "P_nr": 0.0,
                                "P_rdot_rdot": 2.5e-09,
                                "P_tdot_tdot": 2.5e-09,
                                "P_ndot_ndot": 1e-10},
                "hbr_m": 32.0}],
        },
        "mode": "smd",
        "dv_ref": (1.90292, 0.005),
        "why": "the only long-term workload (LongChannel, per-node "
               "instantaneous PoC) and the largest KKT system: moves with "
               "relinearization and assembly",
    },
}


def scenario_pool(name: str, seed: int) -> list:
    """The scenario documents one run of workload ``name`` solves for
    ``seed``."""
    rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
    pool = []
    for k in range(POOL):
        doc = copy.deepcopy(WORKLOADS[name]["scenario"])
        raan = float(rng.uniform(0.0, 360.0))
        if seed != 0 or k != 0:
            doc["primary"]["elements"]["raan_deg"] = raan
        pool.append(doc)
    return pool


def write_pool(name: str, seed: int, out_dir) -> list:
    """Write ``scenario-<k>.json`` for every variant; returns the paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, doc in enumerate(scenario_pool(name, seed)):
        path = out_dir / f"scenario-{k}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        paths.append(path)
    return paths


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True,
                   help="directory for the scenario-<k>.json files")
    args = p.parse_args(argv)
    write_pool(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
