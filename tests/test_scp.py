import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camopt import scp
from camopt.astro import J2_EARTH, R_EARTH, Dynamics, flow
from camopt.convexify import cut_normal, project_onto_ellipsoid
from camopt.risk import bplane_basis
from camopt.scenario import Config, load_scenario
from camopt.socp import solve as socp_solve
from camopt.scp import (
    LongChannel,
    ScpError,
    ShortChannel,
    _cheapest_exit,
    _exit_table,
    _revisits,
    _risk_rows,
    _select_anchors,
    _stm_track,
    _table_cost,
    adapt_limits,
    solve,
)

CASE1 = "scenarios/case1.json"
CASE3 = "scenarios/case3.json"


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
# miss-distance stage keep-out cuts


def spd(rng, n):
    A = rng.standard_normal((n, n))
    return A @ A.T + 0.5 * np.eye(n)


def on_ellipse(P, d2, f, g):
    """Point at Mahalanobis radius f * sqrt(d2) along the unit-ball
    direction g."""
    return np.linalg.cholesky(P) @ (g / np.linalg.norm(g)) * f * math.sqrt(d2)


def smd_rows(st_channels, lt_channels, ref_pos, resp3=None):
    return _risk_rows("smd", Config(), st_channels, lt_channels, ref_pos,
                      resp3, nu_risk=1.0, total_cap=1e-6).halfspaces


def assert_tangent(a, rhs, centre, z, P):
    """``a . r >= rhs`` is the keep-out plane tangent at centre + z."""
    n = cut_normal(z, P)
    assert a @ (centre + z) == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    assert abs(a @ n) == pytest.approx(np.linalg.norm(a) * np.linalg.norm(n),
                                       rel=1e-12)
    assert a @ n > 0.0


class TestSmdRows:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def short_channel(self, d2):
        rng = self.rng
        basis = bplane_basis(rng.standard_normal(3), rng.standard_normal(3))
        P2 = spd(rng, 2)
        return ShortChannel(conj=0, mix=0, enc=0, weight=1.0, epoch=0.0,
                            xs=rng.standard_normal(6), P3=np.eye(3),
                            basis=basis, P2=P2, u_chan=0.01, hbr=0.1,
                            node=1, d2_limit=d2,
                            M=rng.standard_normal((1, 2, 3)))

    def primary_at(self, ch, y):
        # any offset along the relative velocity leaves the miss unchanged
        eta = np.cross(ch.basis[0], ch.basis[1])
        return ch.xs[:3] + ch.basis.T @ y + 0.7 * eta

    def test_short_outside_reference_cut_at_its_projection(self):
        ch = self.short_channel(9.0)
        y_ref = on_ellipse(ch.P2, 9.0, 1.6, self.rng.standard_normal(2))
        ref_pos = np.zeros((3, 3))
        ref_pos[1] = self.primary_at(ch, y_ref)
        [(node, a, rhs)] = smd_rows([ch], [], ref_pos)
        assert node == 1
        z = project_onto_ellipsoid(y_ref, ch.P2, 9.0)
        assert_tangent(ch.basis @ a, rhs - a @ ch.xs[:3], np.zeros(2), z,
                       ch.P2)
        assert a @ ref_pos[1] >= rhs
        assert a @ ch.xs[:3] < rhs  # the keep-out centre is cut off

    def test_short_inside_reference_cut_at_its_anchor(self):
        ch = self.short_channel(9.0)
        ch.anchor = on_ellipse(ch.P2, 9.0, 1.0, self.rng.standard_normal(2))
        y_ref = on_ellipse(ch.P2, 9.0, 0.3, self.rng.standard_normal(2))
        ref_pos = np.zeros((3, 3))
        ref_pos[1] = self.primary_at(ch, y_ref)
        [(node, a, rhs)] = smd_rows([ch], [], ref_pos)
        assert node == 1
        assert_tangent(ch.basis @ a, rhs - a @ ch.xs[:3], np.zeros(2),
                       ch.anchor, ch.P2)
        assert a @ ref_pos[1] < rhs  # the cut pushes the reference out

    def test_long_rows_per_active_node(self):
        rng = self.rng
        d2 = 4.0
        P3 = np.array([spd(rng, 3) for _ in range(4)])
        r_s = rng.standard_normal((4, 3))
        M = rng.standard_normal((4, 5, 3, 3))
        ch = LongChannel(conj=0, mix=0, weight=1.0, hbr=0.1, r_s=r_s, P3=P3,
                         node=1, d2_limit=d2, M=M[1])
        ch.anchor = on_ellipse(P3[1], d2, 1.0, rng.standard_normal(3))
        # node 0 beyond the activity margin, 1 and 2 inside the keep-out,
        # 3 outside it within the margin
        f = {0: 3.0, 1: 0.3, 2: 0.3, 3: 1.5}
        y = {j: on_ellipse(P3[j], d2, f[j], rng.standard_normal(3))
             for j in range(4)}
        ref_pos = np.array([r_s[j] + y[j] for j in range(4)])
        # push against the cut node 2 would pick freely
        z_free = _cheapest_exit(y[2], P3[2], d2, M[2])
        n_free = cut_normal(z_free, P3[2])
        ch.push = -n_free / np.linalg.norm(n_free)

        rows = smd_rows([], [ch], ref_pos, resp3=lambda j: M[j])
        assert [row[0] for row in rows] == [1, 2, 3]
        (_, a1, b1), (_, a2, b2), (_, a3, b3) = rows
        assert_tangent(a1, b1, r_s[1], ch.anchor, P3[1])
        z2 = _cheapest_exit(y[2], P3[2], d2, M[2], side=ch.push)
        assert_tangent(a2, b2, r_s[2], z2, P3[2])
        assert a2 @ ch.push > 0.0 and not np.allclose(z2, z_free)
        assert_tangent(a3, b3, r_s[3],
                       project_onto_ellipsoid(y[3], P3[3], d2), P3[3])
        assert a3 @ ref_pos[3] >= b3


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


class TestLongTermMixture:
    """case3's encounter over 10500 s, split into three mixands: limit
    adaptation prices more than one long-term channel."""

    @pytest.fixture(scope="class")
    def sol(self):
        scn = dataclasses.replace(load_scenario(CASE3), horizon=(0.0, 10500.0))
        assert scn.n_mix == 3
        return solve(scn, Config())

    def test_converges_within_budget(self, sol):
        assert sol.status == "converged"
        assert len(sol.channels) == 3
        assert float(np.max(sol.tipoc_nodes)) <= 1.05e-6

    def test_limits_multiply_to_budget(self, sol):
        q = np.array([ch.p_limit for ch in sol.channels])
        assert abs(np.prod(1.0 - q) - (1.0 - sol.total_limit)) <= 1e-10

    def test_final_probability_read_at_the_constrained_node(self, sol):
        for k, ch in enumerate(sol.channels):
            assert ch.p_final == sol.tipoc_mix[ch.node, k]


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
