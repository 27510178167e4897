import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camopt import astro, cli, scp
from camopt.astro import J2_EARTH, R_EARTH, Dynamics, NodeGrid, flow, flow_jets
from camopt.dajet import gradient, identity, jet_space
from camopt.convexify import RiskRows, assemble, cut_normal, \
    project_onto_ellipsoid
from camopt.risk import bplane_basis
from camopt.scenario import Config, Scenario, load_scenario, scaled_dynamics
from camopt.socp import solve as socp_solve
from camopt.scp import (
    LongChannel,
    ScpError,
    ShortChannel,
    _cheapest_exit,
    _detect_encounters,
    _exit_table,
    _impulse_responses,
    _revisits,
    _risk_rows,
    _select_anchors,
    _stalls,
    _stm_track,
    _table_cost,
    adapt_limits,
    solve,
)

from test_convexify import double_integrator_segment

CASE1 = "scenarios/case1.json"
CASE3 = "scenarios/case3.json"


def two_cdm():
    sc = load_scenario(CASE1)
    return dataclasses.replace(sc, conjunctions=sc.conjunctions[:2],
                               horizon=(0.0, 7460.0))


def second_and_third_cdm():
    """case1's second and third conjunctions: the TPoC polish takes two
    majors."""
    sc = load_scenario(CASE1)
    return dataclasses.replace(sc, conjunctions=sc.conjunctions[1:3],
                               horizon=(0.0, 13391.0))


@pytest.fixture(scope="module")
def sol2():
    return solve(two_cdm(), Config())


def record_flights(monkeypatch):
    """Wrap the solver's segment linearization; the returned function lists
    one entry per flight so far: "bound" for order-1 jets whose bounded
    ratios the solve kept, "carried" for order-1 jets that took the ratios
    kept from an earlier flight, "order2" for order-2 jets."""
    records, real = [], scp.linearize_segment

    def linearize(*args, order=2, **kwargs):
        segs = real(*args, order=order, **kwargs)
        records.append((order, segs, segs.xi))
        return segs

    monkeypatch.setattr(scp, "linearize_segment", linearize)
    return lambda: ["order2" if order == 2 else
                    "bound" if segs.xi is xi else "carried"
                    for order, segs, xi in records]


# ---------------------------------------------------------------------
# state transition tracks


class TestStmTrack:
    def test_backward_span_from_tca(self):
        # long-term channels track from the TCA back to t0, then forward
        # through the grid (scaled units, one orbit is 2 pi)
        dyn = Dynamics.two_body_j2(1.0, J2_EARTH, R_EARTH / 6928.0)
        x_tca = np.array([0.3, 0.95, 0.1, -0.97, 0.28, 0.2])
        times = [2.0, 0.0, 0.7, 1.4, 2.0, 2.6]
        means, stms = _stm_track(x_tca, times, dyn)

        x = x_tca
        for k, (ta, tb) in enumerate(zip(times[:-1], times[1:])):
            x = flow(x, ta, tb, np.zeros(3), dyn)
            assert np.max(np.abs(means[k + 1] - x)) < 1e-10

        _, fwd = _stm_track(means[1], [0.0, 2.0], dyn)
        assert np.max(np.abs(stms[1] @ fwd[1] - np.eye(6))) < 1e-9
        assert np.max(np.abs(fwd[1] @ stms[1] - np.eye(6))) < 1e-9

    def test_matches_a_tight_sequential_track(self):
        # a backward leg of several grid steps, then a uniform grid: the
        # batched pieces against one order-1 jet row flown span by span at
        # tol 1e-15
        dyn = Dynamics.two_body_j2(1.0, J2_EARTH, R_EARTH / 6928.0)
        x_tca = np.array([0.3, 0.95, 0.1, -0.97, 0.28, 0.2])
        times = [1.9] + list(np.linspace(0.0, 2.5, 25))
        means, stms = _stm_track(x_tca, times, dyn)

        spc = jet_space(6, 1)
        y = identity(spc, x_tca[None])
        for k, (ta, tb) in enumerate(zip(times[:-1], times[1:])):
            y = flow_jets(spc, y, ta, tb, dyn, tol=1e-15)
            ref = gradient(spc, y[0])
            assert np.max(np.abs(means[k + 1] - y[0, :, 0])) < 1e-10
            assert np.max(np.abs(stms[k + 1] - ref)) < 1e-9 * np.max(np.abs(ref))


# ---------------------------------------------------------------------
# encounter detection


def coplanar_circles(phi0):
    """Primary on the unit circle, secondary on a circle of radius 1.3 in
    the same plane, trailing by ``phi0``; the distance is least when the
    primary has gained ``-phi0`` and greatest half a synodic period later.
    Returns the states and the rate of the phase angle (mu = 1)."""
    vb = 1.3 ** -0.5
    xp = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    xs = np.array([1.3 * math.cos(phi0), -1.3 * math.sin(phi0), 0.0,
                   vb * math.sin(phi0), vb * math.cos(phi0), 0.0])
    return xp, xs, 1.0 - 1.3 ** -1.5


class TestDetectEncounters:
    dyn = Dynamics.two_body(1.0)

    def refinement_flights(self, monkeypatch):
        """Record each refinement's bracket and the offsets it flies to."""
        log, steps = [], []
        real_flow, real_refine = astro.flow, scp.refine_tca

        def counting_flow(y, t0, t1, *args, **kwargs):
            steps.append(t1 - t0)
            return real_flow(y, t0, t1, *args, **kwargs)

        def refine(*args, **kwargs):
            start = len(steps)
            dt = real_refine(*args, **kwargs)
            # both states are flown by every step
            log.append((kwargs["bracket"], np.cumsum(steps[start::2])))
            return dt

        monkeypatch.setattr(astro, "flow", counting_flow)
        monkeypatch.setattr(scp, "refine_tca", refine)
        return log

    def test_window_ending_on_an_approach(self, monkeypatch):
        # the distance falls through the whole window, its minimum 0.3 in
        # phase past the end
        xp, xs, w = coplanar_circles(-2.5)
        t_end = 2.2 / w
        flights = self.refinement_flights(monkeypatch)
        epochs = _detect_encounters(xp, xs, 0.0, t_end, 0.0, self.dyn,
                                    2.0 * math.pi)
        assert epochs == [0.0]
        assert flights and all(len(offs) == 0 for _, offs in flights)

    def test_no_epoch_at_a_distance_maximum(self, monkeypatch):
        # minimum at phase 0, maximum at pi, window end 0.3 past it: Newton
        # from the falling end heads back to the maximum
        xp, xs, w = coplanar_circles(-0.5)
        t_min, t_max, t_end = 0.5 / w, (math.pi + 0.5) / w, (math.pi + 0.8) / w
        flights = self.refinement_flights(monkeypatch)
        epochs = _detect_encounters(xp, xs, 0.0, t_end, 0.0, self.dyn,
                                    2.0 * math.pi)
        assert len(epochs) == 1 and abs(epochs[0] - t_min) < 1e-6
        assert abs(epochs[0] - t_max) > 1.0
        assert len(flights) == 2  # the minimum and the end
        step = t_end / math.ceil(t_end / (2.0 * math.pi / 120.0))
        for (lo, hi), offs in flights:
            assert hi - lo <= 2.0 * step + 1e-8
            assert all(lo <= o <= hi for o in offs)

    def test_shared_primary_scan_changes_nothing(self):
        xp, xs, w = coplanar_circles(-0.5)
        t_end = (math.pi + 0.8) / w
        scan = scp._coast(xp, scp._scan_times(0.0, t_end, 2.0 * math.pi),
                          self.dyn)
        args = (xp, xs, 0.0, t_end, 0.0, self.dyn, 2.0 * math.pi)
        assert _detect_encounters(*args, primary=scan) == \
            _detect_encounters(*args)


# ---------------------------------------------------------------------
# probability budget allocation


def log_rho(scale):
    # displacement grows as the limit shrinks, a typical monotone shape
    return lambda q: scale * np.maximum(0.0, -np.log10(q) - 3.0)


class TestAdaptLimits:
    def test_limit_tables_built_once_per_solve(self, monkeypatch):
        # limit adaptation runs at every major, but each channel's limits
        # over the adaptation grid are inverted once per solve, with the
        # same answer bit for bit as inverting them at every major
        inversions, real = [], scp.invert_chan

        def invert(p, u):
            if np.ndim(p):
                inversions.append(u)
            return real(p, u)

        monkeypatch.setattr(scp, "invert_chan", invert)
        sol = solve(two_cdm(), Config())
        assert sol.majors > 2 and len(inversions) == len(sol.channels) == 2
        rho_fn = scp._rho_fn
        monkeypatch.setattr(scp, "_rho_fn",
                            lambda ch, table, limits: rho_fn(ch, table, {}))
        inversions.clear()
        every = solve(two_cdm(), Config())
        assert len(inversions) == 2 * every.majors
        assert np.array_equal(sol.u_frac, every.u_frac)
        assert [rec.limits for rec in sol.log] == \
            [rec.limits for rec in every.log]

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
            adapt_limits(np.full(3, 1e-5), fns, 1e-9)


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
    return _risk_rows("smd", 1e-6, st_channels, lt_channels, ref_pos,
                      resp3, nu_risk=1.0, total_cap=1e-6).halfspaces


def assert_tangent(a, rhs, centre, z, P):
    """``a . r >= rhs`` is the keep-out plane tangent at centre + z."""
    n = cut_normal(z, P)
    assert a @ (centre + z) == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    assert abs(a @ n) == pytest.approx(np.linalg.norm(a) * np.linalg.norm(n),
                                       rel=1e-12)
    assert a @ n > 0.0


class TestPlanes:
    def test_unit_normal_and_the_same_half_space(self):
        # each cut is cut_normal's tangent half-space divided by the norm
        # of its normal
        rng = np.random.default_rng(11)
        basis = bplane_basis(rng.standard_normal(3), rng.standard_normal(3))
        P2, P3 = spd(rng, 2), spd(rng, 3)
        st = ShortChannel(conj=0, mix=0, enc=0, weight=1.0, epoch=0.0,
                          xs=rng.standard_normal(6), P3=np.eye(3),
                          basis=basis, P2=P2, u_chan=0.01, hbr=0.1)
        lt = LongChannel(conj=0, mix=0, weight=1.0, hbr=0.1,
                         r_s=rng.standard_normal((2, 3)),
                         P3=np.array([np.eye(3), P3]))
        z2 = on_ellipse(P2, 9.0, 1.0, rng.standard_normal(2))
        z3 = on_ellipse(P3, 9.0, 1.0, rng.standard_normal(3))
        n2, n3 = cut_normal(z2, P2), cut_normal(z3, P3)
        a2 = basis.T @ n2
        for (a, rhs), a_raw, rhs_raw in (
                (st.plane(z2, 0), a2, n2 @ z2 + a2 @ st.xs[:3]),
                (lt.plane(z3, 1), n3, n3 @ (z3 + lt.r_s[1]))):
            assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-15)
            scale = np.linalg.norm(a_raw)
            assert scale > 1.0  # the raw normals were not unit
            np.testing.assert_allclose(a * scale, a_raw, rtol=1e-13)
            assert rhs * scale == pytest.approx(rhs_raw, rel=1e-13)


class TestImpulseResponses:
    def test_double_integrator_closed_form(self):
        # Phi_c Phi_{i+1}^{-1} B_i has position block dt^2 (c - i - 1/2) I,
        # so the response per unit delta-v is dt (c - i - 1/2) I
        dt, N = 7.0, 4
        grid = NodeGrid(times=dt * np.arange(N + 1.0))
        resp = _impulse_responses(double_integrator_segment(dt, N), grid)
        assert resp(0).shape == (0, 3, 3)
        for c in range(1, N + 1):
            want = np.array([dt * (c - i - 0.5) * np.eye(3) for i in range(c)])
            assert resp(c).shape == (c, 3, 3)
            assert np.allclose(resp(c), want, rtol=1e-13, atol=1e-13)


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

    def test_zero_maneuver_polish_ends_in_few_cone_solves(self):
        # case2's ballistic TPoC, 1.15e-8, already meets the budget: the
        # objectives are zero to the cone solver's floor, so the polish's
        # minor loop sees them repeat instead of wandering for 30 solves
        res = solve(load_scenario("scenarios/case2.json"),
                    Config(refine_mode="tpoc"))
        assert res.status == "converged"
        assert sum(len(rec.cone_solves) for rec in res.log) <= 3
        assert res.dv_mm_s < 1e-9

    def test_late_start_polish_converges(self, tmp_path):
        # with one BLAS thread the KKT solves' error raises the residual of
        # a polish subproblem of this run out of FEASTOL before its gap
        # meets RELTOL; the iterate before, within 100 RELTOL, is the answer
        doc = json.loads(Path(CASE1).read_text())
        doc["conjunctions"] = doc["conjunctions"][:3]
        doc["horizon_s"] = [2000.0, doc["conjunctions"][2]["tca_s"]]
        path = tmp_path / "late_start_three.json"
        path.write_text(json.dumps(doc))
        code = ("from camopt.scenario import Config, load_scenario\n"
                "from camopt.scp import solve\n"
                f"res = solve(load_scenario({str(path)!r}),"
                " Config(refine_mode='tpoc'))\n"
                "print(res.status, res.tpoc_final)")
        src = str(Path(scp.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=300, check=True,
            env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
                 "OMP_NUM_THREADS": "1"}).stdout.split()
        assert out[0] == "converged" and float(out[1]) <= 1.05e-6

    def test_late_start_two_polish_converges(self, tmp_path):
        # case1's first two conjunctions from 3500 s: its polish trust rows
        # on the risk total reach bounds near 1e11 where xi is near 1e-13,
        # and with them ||h|| set the gap floor at 7% of the objective, so
        # the majors wandered to MAX_MAJOR; rows the controls cannot reach
        # are left out
        doc = json.loads(Path(CASE1).read_text())
        doc["conjunctions"] = doc["conjunctions"][:2]
        doc["horizon_s"] = [3500.0, doc["conjunctions"][1]["tca_s"]]
        path = tmp_path / "late_start_two.json"
        path.write_text(json.dumps(doc))
        res = solve(load_scenario(str(path)), Config(refine_mode="tpoc"))
        assert res.status == "converged"
        assert res.tpoc_final <= 1.05e-6

    def test_converges_and_respects_budget(self, sol2):
        assert sol2.status == "converged"
        assert sol2.tpoc_final <= 1.05e-6
        assert sol2.tpoc_ballistic > 1e-6

    def test_primary_flown_once_per_solve(self, monkeypatch):
        # once for the start of the horizon; every conjunction already holds
        # the primary's state at its TCA
        calls, real = [], Scenario.primary_at
        monkeypatch.setattr(Scenario, "primary_at",
                            lambda *a: calls.append(a) or real(*a))
        assert solve(two_cdm(), Config()).status == "converged"
        assert len(calls) == 1
        scp.ballistic(two_cdm())
        assert len(calls) == 2

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

        def counted(prob, start=None):
            res = socp_solve(prob, start=start)
            calls.append(res.iterations)
            return res

        monkeypatch.setattr(scp, "socp_solve", counted)
        res = solve(two_cdm(), Config())
        assert sum(rec.ipm_iters for rec in res.log) == sum(calls)
        assert all(rec.ipm_iters >= rec.minors for rec in res.log)

    def test_warm_starts_that_fail_leave_the_cold_answer(self,
                                                         monkeypatch):
        def cold(prob, start=None):
            return socp_solve(prob)

        def warm_fails(prob, start=None):
            res = socp_solve(prob, start=start)
            return dataclasses.replace(res, status="numerical") \
                if res.start == "warm" else res

        monkeypatch.setattr(scp, "socp_solve", cold)
        ref = solve(two_cdm(), Config())
        monkeypatch.setattr(scp, "socp_solve", warm_fails)
        res = solve(two_cdm(), Config())
        assert np.array_equal(res.controls_km_s2, ref.controls_km_s2)
        solves = [cs for rec in res.log for cs in rec.cone_solves]
        assert all(cs["start"] == "cold" for cs in solves)
        # the solves that tried a warm start also count its iterations
        assert sum(rec.ipm_iters for rec in res.log) > \
            sum(rec.ipm_iters for rec in ref.log)

    def test_tpoc_polish_over_two_nodes_is_banded(self):
        # the polish's total over both conjunction nodes runs along them as
        # a running sum, so no row couples distant nodes
        res = solve(two_cdm(), Config(refine_mode="tpoc"))
        assert res.status == "converged"
        bands = [cs["kkt_band"] for rec in res.log for cs in rec.cone_solves]
        assert all(isinstance(band, int) and 0 < band <= 28
                   for band in bands)

    def test_cone_solves_logged_per_minor(self, sol2):
        for rec in sol2.log:
            assert len(rec.cone_solves) == rec.minors
            assert rec.ipm_iters == sum(cs["iterations"]
                                        for cs in rec.cone_solves)

    def test_final_states_evaluated_once(self, monkeypatch):
        # the TPoC polish checks every major's end states; the closing
        # report reuses the last check instead of evaluating them again
        sc = load_scenario(CASE1)
        sc = dataclasses.replace(sc, conjunctions=sc.conjunctions[:1],
                                 horizon=(4143.0, sc.conjunctions[0].tca),
                                 u_max=2.5 * sc.u_max)
        seen, real = [], scp._evaluate_final

        def evaluate(*args):
            seen.append(args[-1].copy())
            return real(*args)

        monkeypatch.setattr(scp, "_evaluate_final", evaluate)
        sol = solve(sc, Config(refine_mode="tpoc"))
        assert sol.status == "converged" and sol.majors > 1
        assert sum(np.array_equal(x, seen[-1]) for x in seen) == 1

    def test_polish_reuses_checked_states(self, monkeypatch):
        # each polish major after the first budgets its risk cap at the
        # states the previous major's check has just evaluated
        seen, real = [], scp._evaluate_final

        def evaluate(*args):
            seen.append(args[-1].copy())
            return real(*args)

        monkeypatch.setattr(scp, "_evaluate_final", evaluate)
        sol = solve(second_and_third_cdm(), Config(refine_mode="tpoc"))
        # two polish majors or more: one opening evaluation plus a check each
        assert sol.status == "converged" and len(seen) >= 3
        assert not any(np.array_equal(a, b)
                       for i, a in enumerate(seen) for b in seen[:i])

    def test_final_states_follow_the_nonlinear_flow(self, sol2):
        # validation error is quoted in mm
        assert sol2.e_validation_mm <= 5.0

    def test_lean_subproblem_leaves_out_unreachable_trust_rows(
            self, monkeypatch):
        # the first 2-CDM subproblem: node 0 is fixed at the reference, so
        # its 12 state trust rows go, and so do any others the controls
        # cannot reach
        args, kwargs = first_subproblem(monkeypatch, two_cdm())
        lean = assemble(*args, **kwargs)
        full = assemble(*args, **dict(kwargs, reach=np.inf))
        assert np.all(args[0].xi[0, :6] > 1e-14)
        assert lean.dims.nonneg <= full.dims.nonneg - 12

    def test_second_order_jets_once_and_no_virtual_controls(
            self, monkeypatch):
        # the reference never leaves the trust region the first major's
        # ratios set, so they are derived once; no bounded state trust row
        # could bind, so no segment flies order 2; and every subproblem is
        # feasible as it stands
        flights = record_flights(monkeypatch)
        sol = solve(two_cdm(), Config())
        assert flights() == ["bound"] + ["carried"] * (len(sol.log) - 1)
        assert [rec.order2_segments for rec in sol.log] == [0] * len(sol.log)
        assert all(cs["status"] == "optimal" for rec in sol.log
                   for cs in rec.cone_solves)


def polish_infeasible(monkeypatch, first_only):
    """Make the TPoC polish's cone solves report infeasible, every one or
    only the first; returns the ``nu_risk`` of every polish subproblem's
    risk rows, in order."""
    nu_risk, stage = [], [None]
    real_rows, real_solve = scp._risk_rows, scp._cone_solve

    def rows(st, *args, **kwargs):
        stage[0] = st
        if st != "smd":
            nu_risk.append(kwargs["nu_risk"])
        return real_rows(st, *args, **kwargs)

    def cone_solve(prob, cone_solves, start=None):
        res = real_solve(prob, cone_solves, start=start)
        if stage[0] != "smd" and (len(nu_risk) == 1 or not first_only):
            cone_solves[-1]["status"] = "infeasible"
            return dataclasses.replace(res, status="infeasible")
        return res

    monkeypatch.setattr(scp, "_risk_rows", rows)
    monkeypatch.setattr(scp, "_cone_solve", cone_solve)
    return nu_risk


class TestDriverLimits:
    """Branches of the major/minor loop that the bundled cases never
    take: the polish's infeasible-widening retry and the iteration
    limits."""

    def test_polish_that_stays_infeasible_fails(self, monkeypatch):
        # the risk trust region widens fourfold per retry until it passes
        # 1e6 times its start, then the solve gives up
        nu_risk = polish_infeasible(monkeypatch, first_only=False)
        with pytest.raises(ScpError, match="conic subproblem ended "
                                           "infeasible at major"):
            solve(two_cdm(), Config(refine_mode="tpoc"))
        assert nu_risk == [scp.NU_BAR * 4.0 ** k for k in range(11)]

    def test_polish_retries_an_infeasible_subproblem_wider(self,
                                                           monkeypatch):
        nu_risk = polish_infeasible(monkeypatch, first_only=True)
        sol = solve(two_cdm(), Config(refine_mode="tpoc"))
        assert sol.status == "converged"
        assert nu_risk[:2] == [scp.NU_BAR, 4.0 * scp.NU_BAR]
        [rec] = [rec for rec in sol.log
                 if any(cs["status"] != "optimal" for cs in rec.cone_solves)]
        assert rec.minors == 3
        assert [cs["status"] for cs in rec.cone_solves] == \
            ["infeasible", "optimal", "optimal"]

    def test_major_limit_ends_max_iterations(self, monkeypatch, tmp_path,
                                             capsys):
        monkeypatch.setattr(scp, "MAX_MAJOR", 1)
        for mode in ("smd", "tpoc"):
            sol = solve(two_cdm(), Config(refine_mode=mode))
            assert (sol.status, sol.majors) == ("max_iterations", 1), mode
            assert sol.tpoc_final == pytest.approx(7.26e-7, rel=1e-3), mode
        doc = json.load(open(CASE1))
        doc["conjunctions"] = doc["conjunctions"][:2]
        doc["horizon_s"] = [0.0, 7460.0]
        path = tmp_path / "two_cdm.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path), "--out",
                         str(tmp_path / "out")]) == 2
        assert "warning: iteration limit reached" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["smd", "tpoc"])
    def test_minor_limit_of_one(self, monkeypatch, mode):
        monkeypatch.setattr(scp, "MAX_MINOR", 1)
        sol = solve(two_cdm(), Config(refine_mode=mode))
        assert sol.log and all(rec.minors == 1 for rec in sol.log)


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
# order-1 relinearization and the cone solve of each minor


class TestXiRefresh:
    def test_at_the_half_width(self):
        # drift exactly NU_BAR / xi keeps the ratios, one ulp more does
        # not, in either direction; an entry with xi = 0 has no bound
        xi = np.zeros((2, 9))
        xi[1, 4] = 0.3
        xi[1, 7] = 5.0  # a control entry, which bounds no state
        x_at = np.zeros((2, 6))
        half = scp.NU_BAR / 0.3
        for edge in (half, -half):
            x = x_at.copy()
            x[0] = 1e300
            x[1, 4] = edge
            assert not scp._xi_stale(x, x_at, xi)
            x[1, 4] = math.nextafter(edge, 2.0 * edge)
            assert scp._xi_stale(x, x_at, xi)

    def test_solve_converges_when_it_fires(self, monkeypatch):
        # the rule at a millionth of the half-width fires on the drift of
        # a real solve, and the ratios are derived again exactly in the
        # majors where it fired
        fired, real = [], scp._xi_stale

        def stale(x_ref, x_at, xi):
            fired.append(real(x_ref, x_at, 1e6 * xi))
            return fired[-1]

        monkeypatch.setattr(scp, "_xi_stale", stale)
        flights = record_flights(monkeypatch)
        sol = solve(two_cdm(), Config())
        assert sol.status == "converged"
        assert any(fired)
        assert flights() == ["bound"] + ["bound" if f else "carried"
                                       for f in fired]
        assert [rec.order2_segments for rec in sol.log] == [0] * len(sol.log)
        assert sol.tpoc_final <= 1.05e-6


def first_subproblem(monkeypatch, scenario, config=None):
    """The (args, kwargs) that ``solve`` assembles its first subproblem
    from; the solve stops there."""
    class Captured(Exception):
        pass

    def capture(*args, **kwargs):
        raise Captured(args, kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(scp, "assemble", capture)
        with pytest.raises(Captured) as got:
            solve(scenario, config or Config())
    return got.value.args


def first_major_ratios(scenario, args):
    """The bounded and the measured (order-2) ratios of every segment of a
    first subproblem's ballistic reference."""
    segs, grid, x_ref = args[:3]
    N, dyn = grid.n_segments, scaled_dynamics(scenario)
    x, u = x_ref[:N], np.zeros((N, 3))
    G = np.concatenate([segs.A, segs.B], axis=2)
    return (astro.xi_bound(x, u, grid.dt, dyn, G),
            astro.linearize_segment(x, u, grid.dt, dyn).xi)


class TestXiScreen:
    """Every relinearization flies order-1 jets and bounds the ratios; a
    segment flies order 2 only where a bounded state trust row could
    bind."""

    def test_first_lean_subproblem_as_with_measured_ratios(
            self, monkeypatch):
        sc = two_cdm()
        args, kwargs = first_subproblem(monkeypatch, sc)
        bound, measured = first_major_ratios(sc, args)
        assert np.array_equal(args[0].xi, bound)
        exact = dataclasses.replace(args[0], xi=measured)
        got = assemble(*args, **kwargs)
        want = assemble(exact, *args[1:], **kwargs)
        for name in ("objective", "eq_rhs", "ineq_rhs"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        for name in ("eq_matrix", "ineq_matrix"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and (a != b).nnz == 0
        assert got.dims == want.dims and got.var_map == want.var_map

    def test_forced_screen_flies_the_measured_ratios(self, monkeypatch):
        # trust regions 180 times narrower make some bounded rows reachable:
        # exactly those segments carry the order-2 ratios, bit for bit as
        # in a flight of every segment
        monkeypatch.setattr(scp, "NU_BAR", scp.NU_BAR / 180.0)
        sc = two_cdm()
        args, kwargs = first_subproblem(monkeypatch, sc)
        bound, measured = first_major_ratios(sc, args)
        flagged = scp.NU_BAR / bound[:, 0] <= kwargs["reach"][:-1].max(axis=1)
        assert 0 < flagged.sum() < len(flagged)
        xi = args[0].xi
        assert np.array_equal(xi[flagged], measured[flagged])
        assert np.array_equal(xi[~flagged], bound[~flagged])

    def test_failed_radius_bound_flies_order_two(self, monkeypatch):
        # xi = inf, what a failed radius bound gives, admits a row at any
        # reach, so that segment flies order 2
        real = astro.xi_bound

        def failing(*args):
            xi = real(*args)
            xi[7] = np.inf
            return xi

        monkeypatch.setattr(astro, "xi_bound", failing)
        flights = record_flights(monkeypatch)
        sc = two_cdm()
        args, _ = first_subproblem(monkeypatch, sc)
        assert flights() == ["bound", "order2"]
        _, measured = first_major_ratios(sc, args)
        assert np.array_equal(args[0].xi[7], measured[7])

    def test_bound_holds_on_the_benchmark_workloads(self, monkeypatch,
                                                    tmp_path):
        # every segment of every order-1 flight in a solve of
        # each workload's base scenario; no segment flies order 2
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        import workloads
        real, worst = scp.linearize_segment, []

        def linearize(x, u, dt, dyn, order=2):
            segs = real(x, u, dt, dyn, order=order)
            if order == 1:
                measured = real(x, u, dt, dyn).xi
                assert np.all(segs.xi >= measured)
                worst.append(np.min(segs.xi[:, :6] / measured[:, :6]))
            return segs

        monkeypatch.setattr(scp, "linearize_segment", linearize)
        for name, spec in workloads.WORKLOADS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(workloads.scenario_pool(name, 0)[0]))
            sol = solve(load_scenario(path), Config(refine_mode=spec["mode"]))
            assert sol.status == "converged", name
            assert all(rec.order2_segments == 0 for rec in sol.log), name
        assert len(worst) >= 3 and min(worst) > 1.5

    def test_bound_holds_on_the_ten_cdm_first_major(self, monkeypatch):
        sc = load_scenario(CASE1)
        args, kwargs = first_subproblem(monkeypatch, sc)
        bound, measured = first_major_ratios(sc, args)
        assert np.all(bound >= measured)
        # the segments whose bounded rows the controls could reach carry
        # the measured ratios
        flagged = scp.NU_BAR / bound[:, 0] <= kwargs["reach"][:-1].max(axis=1)
        assert 0 < flagged.sum() < len(flagged) // 4
        assert np.array_equal(args[0].xi[flagged], measured[flagged])


class TestConeSolveFallback:
    """Two double-integrator segments of unit length from rest.  Node 1
    may leave its zero reference by at most nu_bar / xi = 0.1 per state,
    and node 2 is one segment of at most unit control past it, so node 2
    reaches no further than 0.65 along y.  Each subproblem is solved once
    (a failed warm attempt is solved again cold), and a status other than
    optimal is handed back, not worked around."""

    N = 2

    def build(self, rho):
        grid = NodeGrid(times=np.arange(self.N + 1.0))
        seg = double_integrator_segment(1.0, self.N)
        seg.xi[1, :6] = 0.1
        risk = RiskRows(halfspaces=[(2, np.array([0.0, 1.0, 0.0]), rho)])
        return assemble(seg, grid, np.zeros((3, 6)), np.zeros(6), risk,
                        nu_bar=1e-2)

    def test_unreachable_halfspace_ends_infeasible(self):
        log = []
        res = scp._cone_solve(self.build(1.0), log)
        assert res.status == "infeasible"
        assert [cs["status"] for cs in log] == ["infeasible"]
        assert log[0]["iterations"] == res.iterations

    def test_reachable_halfspace_solves_without_them(self):
        prob = self.build(0.3)
        log = []
        res = scp._cone_solve(prob, log)
        assert [cs["status"] for cs in log] == ["optimal"]
        assert res.status == "optimal"
        assert res.x[prob.var_map["x"]][13] >= 0.3 - 1e-9

    def test_failed_warm_attempt_is_solved_again_cold(self, monkeypatch):
        earlier = scp._cone_solve(self.build(0.3), [])
        attempts = []

        def warm_fails(prob, start=None):
            res = socp_solve(prob, start=start)
            attempts.append(res)
            if res.start == "warm":
                return dataclasses.replace(res, status="numerical")
            return res

        monkeypatch.setattr(scp, "socp_solve", warm_fails)
        for rho, status in ((0.35, "optimal"), (1.0, "infeasible")):
            log, attempts[:] = [], []
            res = scp._cone_solve(self.build(rho), log, start=earlier)
            assert [a.start for a in attempts] == ["warm", "cold"]
            assert res is attempts[1] and res.status == status
            assert log[0]["status"] == status and log[0]["start"] == "cold"
            assert log[0]["iterations"] == sum(a.iterations
                                               for a in attempts)


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


class TestStalls:
    def test_at_the_tolerance(self, monkeypatch):
        # a binary tolerance, so that prev +- tol is exact
        monkeypatch.setattr(scp, "STALL_RTOL", 0.125)
        assert _stalls(7.0, [5.0, 8.0]) and _stalls(9.0, [5.0, 8.0])
        assert not _stalls(math.nextafter(7.0, 0.0), [8.0])
        assert not _stalls(math.nextafter(9.0, 10.0), [8.0])

    @pytest.mark.parametrize("prev", [36.07, -2.5e-3])
    def test_just_inside_and_outside(self, prev):
        tol = scp.STALL_RTOL * abs(prev)
        for sign in (-1.0, 1.0):
            assert _stalls(prev + sign * tol * (1 - 1e-6), [prev])
            assert not _stalls(prev + sign * tol * (1 + 1e-6), [prev])

    def test_against_the_last_objective_only(self):
        assert not _stalls(1.0, [])
        assert _stalls(1.0, [2.0, 1.0 + 1e-4])
        assert not _stalls(1.0, [1.0, 2.0])


# ---------------------------------------------------------------------
# names the benchmark traces


class TestBenchmarkLayers:
    def test_every_traced_name_resolves(self, monkeypatch):
        # the tracer raises MissingLayerError for a layer function that is
        # no longer where perfbench/layertrace.py looks it up
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        import layertrace
        layertrace.Tracer()

    def test_traced_solves_reach_every_layer(self, monkeypatch, tmp_path):
        # a name that still resolves but that the solve no longer calls
        # would read as a layer taking no time
        perfbench = Path(__file__).resolve().parents[1] / "perfbench"
        monkeypatch.syspath_prepend(str(perfbench))
        import layertrace
        import workloads
        for name, spec in workloads.WORKLOADS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(workloads.scenario_pool(name, 0)[0]))
            tracer = layertrace.Tracer()
            with tracer.installed(name):
                assert cli.main(["solve", str(path), "--mode", spec["mode"],
                                 "--out", str(tmp_path / name)]) == 0
            reached = {span[1] for span in tracer.spans}
            assert set(layertrace.LAYERS) <= reached, name
