"""Acceptance gate.

Every criterion prints exactly one [PASS]/[FAIL] line through the capture
manager so the verdicts stay visible in plain pytest runs.  The assertions
use the stated tolerances; a red line here is an honest misfit, not a
broken test.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from camopt import cli
from camopt.astro import DegenerateEncounterError, flow, refine_tca
from camopt.risk import bplane_basis, chan_poc, chan_uv
from camopt.scenario import Config, load_scenario, scaled_dynamics
from camopt.scp import _detect_encounters, solve
from camopt.uncert import nonlinearity_index, split_direction, split_gaussian

CASE1 = "scenarios/case1.json"
CASE2 = "scenarios/case2.json"
CASE3 = "scenarios/case3.json"

# published ballistic collision probabilities of the ten-CDM case, two
# significant digits
TABLE1_POC = [0.0017, 0.0018, 0.0017, 0.0025, 0.0138,
              0.0023, 0.0022, 0.0020, 0.0050, 0.0012]

DV_REF_2CDM = 21.16  # mm/s
DV_REF_5CDM = 60.05  # mm/s


@pytest.fixture(scope="module")
def emit_line(pytestconfig):
    cap = pytestconfig.pluginmanager.getplugin("capturemanager")

    def _p(num, ok, detail):
        line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
        if cap is not None:
            with cap.global_and_fixture_disabled():
                print(line)
        else:
            print(line)
        return ok

    return _p


def timed_solve(scn, cfg):
    tic = time.perf_counter()
    sol = solve(scn, cfg)
    return sol, time.perf_counter() - tic


@pytest.fixture(scope="module")
def case1():
    return load_scenario(CASE1)


@pytest.fixture(scope="module")
def sol2(case1):
    scn = dataclasses.replace(case1, conjunctions=case1.conjunctions[:2],
                              horizon=(0.0, 7460.0))
    return timed_solve(scn, Config(refine_mode="tpoc"))


@pytest.fixture(scope="module")
def sol5(case1):
    scn = dataclasses.replace(case1, conjunctions=case1.conjunctions[:5],
                              horizon=(0.0, 21234.0))
    return timed_solve(scn, Config(refine_mode="tpoc"))


def test_criterion_1_ballistic_risk(case1, emit_line):
    tic = time.perf_counter()
    order = np.argsort([c.tca for c in case1.conjunctions])
    pocs = np.zeros(len(order))
    x_cur, t_cur = case1.x_primary, case1.state_epoch
    for i in order:
        c = case1.conjunctions[i]
        x_cur = flow(x_cur, t_cur, c.tca, np.zeros(3), case1.dynamics)
        t_cur = c.tca
        vp = x_cur[3:]
        M = bplane_basis(vp, vp - c.dv)
        dr2, P2 = M @ c.dr, M @ c.cov @ M.T
        pocs[i] = chan_poc(*chan_uv(dr2, P2, c.hbr))
    wall = time.perf_counter() - tic
    rel = float(np.max(np.abs(pocs - TABLE1_POC) / TABLE1_POC))
    ok = rel <= 0.15 and wall < 1.0
    assert emit_line(1, ok, f"ten ballistic PoC, worst rel err {rel:.3f} "
                            f"(tol 0.15), {wall:.2f} s (< 1 s)")


def test_criterion_2_two_cdm(sol2, emit_line):
    sol, wall = sol2
    dv_ok = abs(sol.dv_mm_s - DV_REF_2CDM) <= 0.15 * DV_REF_2CDM
    tp_ok = 0.90e-6 <= sol.tpoc_final <= 1.05e-6
    ok = dv_ok and tp_ok and wall <= 60.0
    assert emit_line("2 (2-CDM)", ok,
                     f"dv {sol.dv_mm_s:.2f} mm/s vs {DV_REF_2CDM} +-15% "
                     f"({'ok' if dv_ok else 'out'}), TPoC "
                     f"{sol.tpoc_final:.4e} in [0.90,1.05]e-6 "
                     f"({'ok' if tp_ok else 'out'}), {wall:.1f} s (<= 60 s)")


def test_criterion_2_five_cdm(sol5, emit_line):
    sol, wall = sol5
    dv_ok = abs(sol.dv_mm_s - DV_REF_5CDM) <= 0.15 * DV_REF_5CDM
    tp_ok = 0.90e-6 <= sol.tpoc_final <= 1.05e-6
    ok = dv_ok and tp_ok and wall <= 60.0
    assert emit_line("2 (5-CDM)", ok,
                     f"dv {sol.dv_mm_s:.2f} mm/s vs {DV_REF_5CDM} +-15% "
                     f"({'ok' if dv_ok else 'out'}), TPoC "
                     f"{sol.tpoc_final:.4e} in [0.90,1.05]e-6 "
                     f"({'ok' if tp_ok else 'out'}), {wall:.1f} s (<= 60 s)")


def test_criterion_3_limit_adaptation(case1, emit_line):
    sol, _ = timed_solve(case1, Config())
    q = np.array([ch.p_limit for ch in sol.channels])
    floored = int(np.sum(q <= 1e-9 * (1.0 + 1e-6)))
    ident = abs(float(np.prod(1.0 - q)) - (1.0 - 1e-6))
    ok = floored >= 3 and ident <= 1e-10
    assert emit_line(3, ok, f"ten-CDM case: {floored} limits at the 1e-9 "
                            f"floor (need >= 3), identity residual "
                            f"{ident:.1e} (tol 1e-10)")


def test_criterion_4a_gmm_moments(emit_line):
    rng = np.random.default_rng(21)
    A = rng.standard_normal((6, 6))
    P = A @ A.T + 0.5 * np.eye(6)
    mu = rng.standard_normal(6)
    d = rng.standard_normal(6)
    worst_mean, worst_cov = 0.0, 0.0
    for k in (3, 5, 7):
        gmm = split_gaussian(mu, P, d / np.linalg.norm(d), k)
        worst_mean = max(worst_mean, float(np.max(np.abs(gmm.mean() - mu))))
        worst_cov = max(worst_cov,
                        float(np.max(np.abs(gmm.covariance() - P)))
                        / float(np.max(np.abs(P))))
    ok = worst_mean <= 1e-10 and worst_cov <= 2e-2
    assert emit_line("4a", ok, f"mixture moments for n_mix 3/5/7: mean err "
                               f"{worst_mean:.1e} (tol 1e-10), cov entry err "
                               f"{worst_cov:.1e} (tol 2e-2)")


def test_criterion_4b_mixand_tca_offsets(emit_line):
    scn = load_scenario(CASE2)
    scl = scn.scaling()
    dyn = scaled_dynamics(scn)
    L, V, T = scl.length, scl.velocity, scl.time
    conj = scn.conjunctions[0]
    tca = conj.tca / T
    tf = scn.horizon[1] / T
    xpt = scn.primary_at(conj.tca)
    xp = np.concatenate([xpt[:3] / L, xpt[3:] / V])
    xs = xp - np.concatenate([conj.dr / L, conj.dv / V])
    try:
        dt = refine_tca(xp, xs, dyn)
    except DegenerateEncounterError:
        dt = 0.0
    tca += dt
    xp = flow(xp, 0.0, dt, np.zeros(3), dyn, 1e-12)
    xs = flow(xs, 0.0, dt, np.zeros(3), dyn, 1e-12)
    D = np.array([L, L, L, V, V, V])
    P = conj.cov / np.outer(D, D)
    direction = split_direction(nonlinearity_index(xs, tf - tca, dyn,
                                                   tol=1e-9), P)
    gmm = split_gaussian(xs, P, direction, 3)
    epochs = [_detect_encounters(xp, gmm.means[mi], tca, tf, 0.0, dyn,
                                 2.0 * math.pi, 1e-12) for mi in range(3)]
    assert all(len(e) > 7 for e in epochs)
    # the central component sets the reference encounter times
    first = [abs(epochs[mi][0] - epochs[1][0]) * T for mi in (0, 2)]
    second = [abs(epochs[mi][7] - epochs[1][7]) * T for mi in (0, 2)]
    ok = max(first) <= 0.01 and all(0.5 <= s <= 5.0 for s in second)
    assert emit_line("4b", ok,
                     f"outer-mixand TCA offsets: first encounter "
                     f"{max(first):.2e} s (<= 0.01), second encounter "
                     f"{min(second):.3f}..{max(second):.3f} s (in [0.5, 5])")


def test_criterion_4c_long_term(emit_line):
    scn = load_scenario(CASE3)
    ballistic = solve(scn, Config(total_limit=0.999999, short_circuit=True))
    prof = ballistic.tipoc_nodes
    peaks = [j for j in range(1, len(prof) - 1)
             if prof[j] >= prof[j - 1] and prof[j] >= prof[j + 1]
             and prof[j] >= 0.02 * np.max(prof)]
    gaps = np.diff(peaks)
    periodic = len(peaks) >= 3 and np.all(np.abs(gaps - 60) <= 2)
    sol, _ = timed_solve(scn, Config())
    tip = float(np.max(sol.tipoc_nodes))
    ok = periodic and tip <= 1.05e-6
    assert emit_line("4c", ok,
                     f"ballistic TIPoC peaks at nodes {peaks} (spacing 60 "
                     f"+-2), post-maneuver max TIPoC {tip:.4e} (<= 1.05e-6)")


def test_criterion_5_oracle_suites(emit_line):
    details = []
    ok = True
    for name, fn in cli._SUITES:
        tic = time.perf_counter()
        good, _ = fn()
        wall = time.perf_counter() - tic
        ok = ok and good and wall < 30.0
        details.append(f"{name.split()[0]} "
                       f"{'ok' if good else 'FAIL'} {wall:.1f}s")
    assert emit_line(5, ok, "oracle suites (< 30 s each): "
                            + ", ".join(details))


def test_criterion_6_convergence_bookkeeping(sol2, emit_line):
    sol, _ = sol2
    ok = sol.status == "converged" and sol.majors <= 10 \
        and sol.e_validation_mm <= 50.0
    assert emit_line(6, ok, f"2-CDM run: {sol.majors} major iterations "
                            f"(<= 10), e_validation {sol.e_validation_mm:.3f}"
                            f" mm (<= 50)")
