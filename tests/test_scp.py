import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camopt import scp
from camopt.astro import J2_EARTH, R_EARTH, Dynamics, flow
from camopt.scenario import Config, load_scenario
from camopt.socp import solve as socp_solve
from camopt.scp import (
    ScpError,
    _cheapest_exit,
    _exit_table,
    _revisits,
    _select_anchors,
    _stm_track,
    _table_cost,
    adapt_limits,
    solve,
)

CASE1 = "scenarios/case1.json"


def two_cdm():
    sc = load_scenario(CASE1)
    return dataclasses.replace(sc, conjunctions=sc.conjunctions[:2],
                               horizon=(0.0, 7460.0))


@pytest.fixture(scope="module")
def sol2():
    return solve(two_cdm(), Config())


# ---------------------------------------------------------------------
# state transition tracks


class TestStmTrack:
    def test_backward_span_from_tca(self):
        # long-term channels track from the TCA back to t0, then forward
        # through the grid (scaled units, one orbit is 2 pi)
        dyn = Dynamics.two_body_j2(1.0, J2_EARTH, R_EARTH / 6928.0)
        x_tca = np.array([0.3, 0.95, 0.1, -0.97, 0.28, 0.2])
        times = [2.0, 0.0, 0.7, 1.4, 2.0, 2.6]
        means, stms = _stm_track(x_tca, times, dyn, 1e-12)

        x = x_tca
        for k, (ta, tb) in enumerate(zip(times[:-1], times[1:])):
            x = flow(x, ta, tb, np.zeros(3), dyn)
            assert np.max(np.abs(means[k + 1] - x)) < 1e-10

        _, fwd = _stm_track(means[1], [0.0, 2.0], dyn, 1e-12)
        assert np.max(np.abs(stms[1] @ fwd[1] - np.eye(6))) < 1e-9
        assert np.max(np.abs(fwd[1] @ stms[1] - np.eye(6))) < 1e-9


# ---------------------------------------------------------------------
# probability budget allocation


def log_rho(scale):
    # displacement grows as the limit shrinks, a typical monotone shape
    return lambda q: scale * np.maximum(0.0, -np.log10(q) - 3.0)


class TestAdaptLimits:
    def test_single_channel_gets_whole_budget(self):
        q = adapt_limits(np.array([1e-4]), [log_rho(1.0)], 1e-6)
        assert q == pytest.approx([1e-6])

    def test_two_channel_split_matches_grid_search(self):
        # oracle: eliminate q2 through the identity and scan q1 densely
        fns = [log_rho(1.0), log_rho(3.0)]
        p0 = np.array([1e-4, 2e-4])
        total = 1e-6
        q = adapt_limits(p0, fns, total)
        best = math.inf
        for y in np.linspace(-9.0, math.log10(total), 4001):
            q1 = 10.0 ** y
            q2 = 1.0 - (1.0 - total) / (1.0 - q1)
            if q2 < 1e-9:
                continue
            best = min(best, fns[0](q1) + fns[1](q2))
        got = fns[0](q[0]) + fns[1](q[1])
        assert got <= best * (1.0 + 1e-2) + 1e-12

    def test_cheap_channel_releases_budget(self):
        # a channel that never needs displacement should not hold budget
        # that the expensive one can spend
        fns = [np.zeros_like, log_rho(1.0)]
        q = adapt_limits(np.array([1e-8, 1e-4]), fns, 1e-6)
        assert q[1] > 0.9e-6

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 500), n=st.integers(2, 6))
    def test_product_identity_holds(self, seed, n):
        rng = np.random.default_rng(seed)
        p0 = 10.0 ** rng.uniform(-8.0, -4.0, n)
        fns = [log_rho(s) for s in rng.uniform(0.5, 4.0, n)]
        total = 1e-6
        q = adapt_limits(p0, fns, total)
        assert abs(np.prod(1.0 - q) - (1.0 - total)) <= 1e-10
        assert np.all(q >= 1e-9 * (1.0 - 1e-12))

    def test_floor_too_large_rejected(self):
        fns = [log_rho(1.0)] * 3
        with pytest.raises(ScpError):
            adapt_limits(np.full(3, 1e-5), fns, 1e-9, floor=1e-9)


# ---------------------------------------------------------------------
# exit anchors


def random_geometry(rng, inside=True):
    A = rng.standard_normal((3, 3))
    P = A @ A.T + 0.5 * np.eye(3)
    d2 = 9.0
    g = rng.standard_normal(3)
    # fixed Mahalanobis radius, well inside or well outside the ellipsoid
    f = 0.3 if inside else 2.0
    y0 = np.linalg.cholesky(P) @ (g / np.linalg.norm(g)) * f * math.sqrt(d2)
    M = rng.standard_normal((4, 3, 3))
    return y0, P, d2, M


class TestExitAnchors:
    def setup_method(self):
        self.rng = np.random.default_rng(7)

    def test_table_cost_matches_direct_recompute(self):
        y0, P, d2, M = random_geometry(self.rng)
        Z1, Nn, b, a, s = _exit_table(y0, P, M)
        # direct route: for each tangent plane, the displacement needed
        # along its normal divided by the best single-segment response
        need = np.maximum(math.sqrt(d2) * b - a, 0.0)
        resp = np.array([max(np.linalg.norm(Mi.T @ n) for Mi in M)
                         for n in Nn])
        direct = float(np.min(need / resp))
        assert _table_cost((Z1, Nn, b, a, s), d2) == pytest.approx(direct)

    def test_anchor_lies_on_the_keepout_boundary(self):
        y0, P, d2, M = random_geometry(self.rng)
        z = _cheapest_exit(y0, P, d2, M)
        assert z @ np.linalg.solve(P, z) == pytest.approx(d2, rel=1e-9)

    def test_outside_point_costs_nothing(self):
        y0, P, d2, M = random_geometry(self.rng, inside=False)
        assert y0 @ np.linalg.solve(P, y0) > d2
        table = _exit_table(y0, P, M)
        assert _table_cost(table, d2) <= 1e-6 * math.sqrt(d2)

    def test_side_filter_flips_the_cut(self):
        y0, P, d2, M = random_geometry(self.rng)
        side = np.array([1.0, 0.0, 0.0])
        za = _cheapest_exit(y0, P, d2, M, side=side)
        zb = _cheapest_exit(y0, P, d2, M, side=-side)
        assert np.linalg.norm(za - zb) > 0.0

    def test_joint_selection_of_one_matches_solo(self):
        y0, P, d2, M = random_geometry(self.rng)
        caps = np.full(len(M), 1e9)
        anchors, normals = _select_anchors([(_exit_table(y0, P, M), d2, M)],
                                           caps)
        solo = _cheapest_exit(y0, P, d2, M)
        assert anchors[0] == pytest.approx(solo)
        assert np.linalg.norm(normals[0]) == pytest.approx(1.0)

    def test_identical_channels_share_the_ride(self):
        # the second copy prices its cuts against the planned displacement
        # and must find the shared side free of charge
        y0, P, d2, M = random_geometry(self.rng)
        caps = np.full(len(M), 1e9)
        item = (_exit_table(y0, P, M), d2, M)
        anchors, normals = _select_anchors([item, item], caps)
        assert anchors[0] == pytest.approx(anchors[1])
        assert normals[0] == pytest.approx(normals[1])


# ---------------------------------------------------------------------
# end-to-end solver behavior on the truncated two-conjunction case


class TestSolve:
    def test_no_maneuver_when_budget_is_loose(self):
        res = solve(two_cdm(), Config(total_limit=0.05))
        assert res.status == "converged"
        assert res.dv_mm_s <= 1e-3
        assert res.tpoc_final <= 0.05

    def test_converges_and_respects_budget(self, sol2):
        assert sol2.status == "converged"
        assert sol2.tpoc_final <= 1.05e-6
        assert sol2.tpoc_ballistic > 1e-6

    def test_virtual_control_vanishes(self, sol2):
        assert abs(sol2.vc_max) <= 1e-7

    def test_dv_recomputes_from_controls(self, sol2):
        dts = np.diff(sol2.times_s)
        dv = float(np.sum(np.linalg.norm(sol2.controls_km_s2, axis=1) * dts))
        assert dv * 1e6 == pytest.approx(sol2.dv_mm_s, rel=1e-9)

    def test_channel_limits_multiply_to_budget(self, sol2):
        q = np.array([ch.p_limit for ch in sol2.channels])
        assert abs(np.prod(1.0 - q) - (1.0 - 1e-6)) <= 1e-10

    def test_thrust_respects_the_cap(self, sol2):
        sc = two_cdm()
        acc = np.linalg.norm(sol2.controls_km_s2, axis=1)
        assert np.max(acc) <= sc.u_max * (1.0 + 1e-9)

    def test_deterministic(self, sol2):
        again = solve(two_cdm(), Config())
        assert again.dv_mm_s == sol2.dv_mm_s
        assert np.array_equal(again.u_frac, sol2.u_frac)

    def test_ipm_iters_sum_each_majors_cone_solves(self, monkeypatch):
        calls = []

        def counted(prob, settings):
            res = socp_solve(prob, settings)
            calls.append(res.iterations)
            return res

        monkeypatch.setattr(scp, "socp_solve", counted)
        res = solve(two_cdm(), Config())
        assert sum(rec.ipm_iters for rec in res.log) == sum(calls)
        assert all(rec.ipm_iters >= rec.minors for rec in res.log)

    def test_cone_solves_logged_per_minor(self, sol2):
        for rec in sol2.log:
            assert len(rec.cone_solves) == rec.minors
            assert rec.ipm_iters == sum(cs["iterations"]
                                        for cs in rec.cone_solves)

    def test_final_states_follow_the_nonlinear_flow(self, sol2):
        # validation error is quoted in mm
        assert sol2.e_validation_mm <= 5.0


# ---------------------------------------------------------------------
# limit cycles of the TPoC polish


class TestRevisits:
    def test_period_three_cycle_caught(self):
        # a scripted objective sequence that cycles with period 3: a
        # two-back window never sees the repeat, the whole history does
        seq = [5.0, 4.0, 4.5, 4.2, 4.0 * (1 + 1e-7), 4.5, 4.2]
        hist = []
        for k, obj in enumerate(seq):
            if _revisits(obj, hist):
                break
            assert not _revisits(obj, hist[-2:])
            hist.append(obj)
        assert k == 4
        assert not _revisits(seq[4], hist[-2:])

    def test_monotone_descent_not_a_cycle(self):
        seq = 10.0 * 0.9 ** np.arange(30)
        assert not any(_revisits(obj, list(seq[:k]))
                       for k, obj in enumerate(seq))

    def test_tolerance_is_relative(self):
        assert _revisits(1e6 + 5.0, [1e6])
        assert not _revisits(1.0 + 5e-5, [1.0])
