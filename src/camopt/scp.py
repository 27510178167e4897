"""Sequential convex programming driver for low-thrust collision avoidance.

Couples the jet-linearized dynamics, the keep-out-zone construction and the
embedded cone solver into the full maneuver optimization: risk channels
(one per conjunction, mixture component and encounter), allocation of the
total probability budget across the channels, major/minor iterations and a
nonlinear validation of the converged control profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from . import CamoptError
from .astro import (
    DegenerateEncounterError,
    build_grid,
    flow,
    flow_jets,
    linearize_segment,
    refine_tca,
)
from .convexify import (
    RiskRows,
    ShortTermItem,
    LongTermItem,
    assemble,
    cut_normal,
    linearize_tipoc,
    linearize_tpoc,
    project_onto_ellipsoid,
)
from .dajet import gradient, identity, jet_space
from .risk import (
    bplane_basis,
    chan_poc,
    chan_uv,
    invert_chan,
    invert_ipoc,
    ipoc,
    smd_3d,
)
from .scenario import Config, Scenario, scaled_dynamics
from .socp import SolverSettings, solve as socp_solve
from .uncert import split_along_flow


class ScpError(CamoptError):
    pass


# ---------------------------------------------------------------------
# risk channels


# Both channel kinds answer the same questions, so the driver never asks
# which kind it holds:
#   miss(r_p, j)      miss vector for the primary at r_p on node j, and its
#                     covariance (encounter plane or 3D)
#   plane(z, j)       keep-out cut (a, rhs), a . r_p >= rhs, through the
#                     boundary point z of that miss space
#   limit_d2(p)       squared Mahalanobis limit of a probability limit p
#                     (a scalar or an array)
#   cut_nodes(pos)    nodes that carry a keep-out cut
#   relinearize(pos, resp3)  follow a new reference: constrained node and
#                     impulse responses in the miss space
#   report(scl, grid, states)  the channel's ChannelReport


@dataclass
class ShortChannel:
    """One (conjunction, mixture component, encounter) triple whose
    probability at its closest-approach node enters the total budget."""

    conj: int
    mix: int
    enc: int
    weight: float
    epoch: float  # scaled time
    xs: np.ndarray  # secondary state at the epoch, scaled
    P3: np.ndarray  # relative position covariance there, scaled
    basis: np.ndarray  # 2x3 encounter-plane projector
    P2: np.ndarray
    u_chan: float
    hbr: float  # scaled
    node: int = -1
    p0: float = 0.0  # weighted ballistic probability
    q_limit: float = math.nan
    d2_limit: float = math.inf
    p_final: float = math.nan
    M: np.ndarray | None = None  # encounter-plane impulse responses
    anchor: np.ndarray | None = None  # jointly selected exit anchor
    push: np.ndarray | None = None  # its cut normal, used as side filter
    y0: np.ndarray | None = None  # ballistic encounter-plane miss

    def miss(self, r_p, j):
        return self.basis @ (r_p - self.xs[:3]), self.P2

    def plane(self, z, j):
        n2 = cut_normal(z, self.P2)
        a3 = self.basis.T @ n2
        return a3, float(n2 @ z) + float(a3 @ self.xs[:3])

    def limit_d2(self, p):
        return invert_chan(p, self.u_chan)

    def cut_nodes(self, pos) -> list:
        return [self.node]

    def relinearize(self, pos, resp3):
        self.M = np.einsum("dr,mrc->mdc", self.basis, resp3(self.node))

    def poc(self, r_p) -> float:
        """Chan's probability for the primary at r_p on the channel's node,
        unweighted."""
        return chan_poc(*chan_uv(*self.miss(r_p, self.node), self.hbr))

    def report(self, scl, grid, states) -> ChannelReport:
        # the keep-out constraint acts on the node-level miss, so that is
        # the point reported against the equivalent keep-out circle
        y_fin, _ = self.miss(states[self.node, :3], self.node)
        return ChannelReport(kind="short", conj=self.conj, mix=self.mix,
                             enc=self.enc, weight=self.weight,
                             epoch_s=self.epoch * scl.time, node=self.node,
                             p_ballistic=self.p0, p_limit=self.q_limit,
                             p_final=self.p_final, d2_limit=self.d2_limit,
                             P2=self.P2 * scl.length ** 2,
                             y_ballistic=self.y0 * scl.length,
                             y_final=y_fin * scl.length)


@dataclass
class LongChannel:
    """One mixture component of a long-term encounter, constrained at every
    node through its instantaneous probability."""

    conj: int
    mix: int
    weight: float
    hbr: float
    r_s: np.ndarray  # (M, 3) component mean position per node
    P3: np.ndarray  # (M, 3, 3) component position covariance per node
    node: int = -1  # node of the largest ballistic contribution
    p0: float = 0.0
    q_limit: float = math.nan
    d2_limit: float = math.inf
    p_final: float = math.nan
    M: np.ndarray | None = None  # impulse responses at the worst node
    anchor: np.ndarray | None = None  # jointly selected exit anchor
    push: np.ndarray | None = None  # its cut normal, used as side filter
    ipoc_prof: np.ndarray | None = None  # weighted instantaneous PoC per node

    def miss(self, r_p, j):
        return r_p - self.r_s[j], self.P3[j]

    def plane(self, z, j):
        a = cut_normal(z, self.P3[j])
        return a, float(a @ z) + float(a @ self.r_s[j])

    def limit_d2(self, p):
        return invert_ipoc(p, self.P3[self.node], self.hbr)

    def cut_nodes(self, pos) -> list:
        """Nodes whose reference lies near the keep-out ellipsoid."""
        if not np.isfinite(self.d2_limit) or self.d2_limit <= 0.0:
            return []
        margin = max(4.0 * self.d2_limit, self.d2_limit + 25.0)
        return [j for j in range(len(self.r_s))
                if smd_3d(*self.miss(pos[j], j)) < margin]

    def relinearize(self, pos, resp3):
        # the maneuver can move the worst instant, so the constrained node
        # tracks the current reference
        self.node = int(np.argmax(self.profile(pos)))
        self.M = resp3(self.node)

    def profile(self, pos) -> np.ndarray:
        """Weighted instantaneous PoC at every node for node positions
        ``pos``."""
        return np.array([self.weight * ipoc(*self.miss(pos[j], j), self.hbr)
                         for j in range(len(self.r_s))])

    def report(self, scl, grid, states) -> ChannelReport:
        return ChannelReport(kind="long", conj=self.conj, mix=self.mix,
                             enc=0, weight=self.weight,
                             epoch_s=grid.times[self.node] * scl.time,
                             node=self.node, p_ballistic=self.p0,
                             p_limit=self.q_limit, p_final=self.p_final)


@dataclass
class ChannelReport:
    kind: str
    conj: int
    mix: int
    enc: int
    weight: float
    epoch_s: float
    node: int
    p_ballistic: float
    p_limit: float
    p_final: float
    d2_limit: float = math.nan
    P2: np.ndarray | None = None  # encounter-plane covariance, km^2
    y_ballistic: np.ndarray | None = None  # encounter-plane miss, km
    y_final: np.ndarray | None = None


@dataclass
class IterationRecord:
    major: int
    minors: int
    e_major: float
    e_minor: float
    objective: float
    dv_mm_s: float
    vc_max: float
    # one {status, iterations, pres, dres, gap} per cone solve of the major
    cone_solves: list
    # one (q_limit, d2_limit) per channel, the limits the major ran with
    limits: list

    @property
    def ipm_iters(self) -> int:
        """Interior-point iterations over the major's cone solves."""
        return sum(cs["iterations"] for cs in self.cone_solves)


@dataclass
class TrajectorySolution:
    status: str
    majors: int
    log: list
    times_s: np.ndarray
    states_km: np.ndarray  # (M, 6) position km, velocity km/s
    controls_km_s2: np.ndarray  # (M-1, 3)
    u_frac: np.ndarray
    dv_mm_s: float
    objective: float
    vc_max: float
    e_validation_mm: float
    total_limit: float
    tpoc_ballistic: float
    tpoc_final: float
    channels: list
    tipoc_nodes: np.ndarray | None = None
    tipoc_mix: np.ndarray | None = None  # (M, n_channels) per-component


# ---------------------------------------------------------------------
# propagation helpers (all in scaled units)


def _scale_state(x: np.ndarray, L: float, V: float) -> np.ndarray:
    return np.concatenate([np.asarray(x[:3], float) / L,
                           np.asarray(x[3:6], float) / V])


def _unscale_states(xs: np.ndarray, L: float, V: float) -> np.ndarray:
    out = np.array(xs, float)
    out[..., :3] *= L
    out[..., 3:] *= V
    return out


def _scale_cov(P: np.ndarray, L: float, V: float) -> np.ndarray:
    P = np.asarray(P, float)
    if P.shape == (3, 3):
        return P / L ** 2
    S = np.diag([1.0 / L] * 3 + [1.0 / V] * 3)
    return S @ P @ S


def _node_states(x0: np.ndarray, times: np.ndarray, dyn, u, tol: float) -> np.ndarray:
    """Sequential propagation through every grid epoch; ``u`` is either a
    single acceleration for the whole span or one row per segment."""
    u = np.atleast_2d(np.asarray(u, float))
    out = np.empty((len(times), 6))
    out[0] = x0
    for i in range(len(times) - 1):
        ui = u[0] if len(u) == 1 else u[i]
        out[i + 1] = flow(out[i], times[i], times[i + 1], ui, dyn, tol)
    return out


def _stm_track(x0: np.ndarray, times, dyn, tol: float):
    """Mean and cumulative state transition matrix at each listed epoch.

    Consecutive epochs may run backward in time (a TCA back to t0)."""
    spc = jet_space(6, 1)
    y = identity(spc, np.asarray(x0, float)[None])
    means = [np.asarray(x0, float)]
    stms = [np.eye(6)]
    for ta, tb in zip(times[:-1], times[1:]):
        if tb != ta:
            y = flow_jets(spc, y, ta, tb, dyn, tol=tol)
        means.append(y[0, :, 0].copy())
        stms.append(gradient(spc, y[0]))
    return np.array(means), np.array(stms)


def _detect_encounters(xp0, xs0, t_start, t_end, lo_bound, dyn, period, tol):
    """Epochs of the locally closest approaches over [t_start, t_end].

    Coarse distance scan along both ballistic paths, then a Newton
    refinement (:func:`refine_tca`) of every local minimum.  The starting
    epoch itself counts when the distance grows away from it.
    """
    if t_end - t_start < 0.05 * period:
        return [t_start]
    n = max(int(math.ceil((t_end - t_start) / (period / 120.0))), 4)
    ts = np.linspace(t_start, t_end, n + 1)
    xp, xs = np.array(xp0, float), np.array(xs0, float)
    states_p, states_s, dist = [xp], [xs], [np.linalg.norm(xp[:3] - xs[:3])]
    for ta, tb in zip(ts[:-1], ts[1:]):
        xp = flow(xp, ta, tb, np.zeros(3), dyn, tol)
        xs = flow(xs, ta, tb, np.zeros(3), dyn, tol)
        states_p.append(xp)
        states_s.append(xs)
        dist.append(np.linalg.norm(xp[:3] - xs[:3]))
    d = np.array(dist)
    cand = [j for j in range(1, n) if d[j] <= d[j - 1] and d[j] <= d[j + 1]]
    if d[0] < d[1]:
        cand.insert(0, 0)
    if d[n] < d[n - 1]:
        cand.append(n)
    epochs = []
    for j in cand:
        try:
            dt = refine_tca(states_p[j], states_s[j], dyn)
        except DegenerateEncounterError:
            continue
        e = ts[j] + dt
        if not (lo_bound - 1e-9 <= e <= t_end + 1e-9):
            continue
        e = min(max(e, lo_bound), t_end)
        if all(abs(e - q) > 1e-6 for q in epochs):
            epochs.append(e)
    return sorted(epochs) if epochs else [t_start]


# ---------------------------------------------------------------------
# channel construction


def _make_short_channel(ci, mi, ei, weight, xp, xs, P3, hbr):
    basis = bplane_basis(xp[3:], xs[3:])
    P2 = basis @ P3 @ basis.T
    det = np.linalg.det(P2)
    if det <= 0.0:
        raise ScpError(f"conjunction {ci}: singular encounter covariance")
    return ShortChannel(conj=ci, mix=mi, enc=ei, weight=weight, epoch=math.nan,
                        xs=np.array(xs), P3=np.array(P3), basis=basis, P2=P2,
                        u_chan=hbr ** 2 / math.sqrt(det), hbr=hbr,
                        y0=basis @ (np.asarray(xp[:3]) - np.asarray(xs[:3])))


def _tca_states(scn: Scenario, conj, scl):
    """Scaled TCA of a conjunction, the primary and secondary states there,
    the covariance and the hard-body radius."""
    L, V = scl.length, scl.velocity
    xp = _scale_state(scn.primary_at(conj.tca), L, V)
    xs = xp - np.concatenate([conj.dr / L, conj.dv / V])
    return conj.tca / scl.time, xp, xs, _scale_cov(conj.cov, L, V), \
        conj.hbr / L


def _build_short_channels(scn: Scenario, cfg: Config, scl, dyn, t0, tf):
    channels = []
    for ci, conj in enumerate(scn.conjunctions):
        tca, xp, xs, P, hbr = _tca_states(scn, conj, scl)
        try:
            dt = refine_tca(xp, xs, dyn)
        except DegenerateEncounterError:
            dt = 0.0
        dt = min(max(tca + dt, t0), tf) - tca
        tca += dt
        xp = flow(xp, 0.0, dt, np.zeros(3), dyn, cfg.integ_tol)
        xs = flow(xs, 0.0, dt, np.zeros(3), dyn, cfg.integ_tol)

        if P.shape == (3, 3):
            if scn.n_mix > 1:
                raise ScpError("mixture splitting needs a velocity covariance")
            ch = _make_short_channel(ci, 0, 0, 1.0, xp, xs, P, hbr)
            ch.epoch = tca
            channels.append(ch)
            continue

        # one channel per mixture component and per repeated encounter
        gmm = split_along_flow(xs, P, tf - tca, dyn, scn.n_mix)
        for mi in range(gmm.n_mix):
            w, mean, Pm = gmm.weights[mi], gmm.means[mi], gmm.covs[mi]
            epochs = _detect_encounters(xp, mean, tca, tf, t0, dyn,
                                        2.0 * math.pi, cfg.integ_tol)
            means, stms = _stm_track(mean, [tca] + epochs, dyn, cfg.integ_tol)
            xp_e, t_prev = np.array(xp), tca
            for ei, te in enumerate(epochs):
                xp_e = flow(xp_e, t_prev, te, np.zeros(3), dyn, cfg.integ_tol)
                t_prev = te
                Phi = stms[ei + 1]
                P3 = (Phi @ Pm @ Phi.T)[:3, :3]
                ch = _make_short_channel(ci, mi, ei, w, xp_e, means[ei + 1],
                                         P3, hbr)
                ch.epoch = te
                if ei == 0 or w * ch.poc(xp_e[:3]) >= 1e-3 * cfg.limit_floor:
                    channels.append(ch)
    return channels


def _build_long_channels(scn: Scenario, cfg: Config, scl, dyn, grid, x_ref):
    channels = []
    for ci, conj in enumerate(scn.conjunctions):
        tca, _, xs, P, hbr = _tca_states(scn, conj, scl)
        if P.shape != (6, 6):
            raise ScpError("long-term mode needs a velocity covariance")
        gmm = split_along_flow(xs, P, grid.times[-1] - tca, dyn, scn.n_mix)
        for mi in range(gmm.n_mix):
            means, stms = _stm_track(gmm.means[mi], [tca] + list(grid.times),
                                     dyn, cfg.integ_tol)
            P3 = np.array([(Phi @ gmm.covs[mi] @ Phi.T)[:3, :3]
                           for Phi in stms[1:]])
            ch = LongChannel(conj=ci, mix=mi, weight=gmm.weights[mi],
                             hbr=hbr, r_s=means[1:, :3], P3=P3)
            prof = ch.profile(x_ref[:, :3])
            ch.node = int(np.argmax(prof))
            ch.p0 = float(prof[ch.node])
            channels.append(ch)
    return channels


# ---------------------------------------------------------------------
# control-effort model for anchor selection
#
# The keep-out surface can be left through many points; their fuel cost
# differs by orders of magnitude because along-track displacement is far
# cheaper than radial or cross-track and because early impulses buy more
# drift.  Each candidate tangent cut is priced as the plane offset seen
# from the reference divided by the largest displacement along the cut
# normal that one unit of delta-v can produce on any single segment, and
# the iteration is anchored at the cheapest cut instead of the nearest
# boundary point.


def _impulse_responses(segments, grid):
    """Per-node stacks of the position response at the node to a unit
    delta-v impulse applied on each earlier segment."""
    Phis = [np.eye(6)]
    for seg in segments:
        Phis.append(seg.A @ Phis[-1])
    inv = [np.linalg.inv(P) for P in Phis]
    cache = {}

    def resp(c: int) -> np.ndarray:
        if c not in cache:
            if c == 0:
                cache[c] = np.zeros((0, 3, 3))
            else:
                cache[c] = np.stack(
                    [(Phis[c] @ inv[i + 1] @ segments[i].B)[:3] / grid.dt[i]
                     for i in range(c)])
        return cache[c]

    return resp


_DIR_CACHE: dict = {}


def _exit_directions(dim: int) -> np.ndarray:
    if dim not in _DIR_CACHE:
        if dim == 2:
            th = np.linspace(0.0, 2.0 * np.pi, 721)[:-1]
            _DIR_CACHE[dim] = np.column_stack([np.cos(th), np.sin(th)])
        else:
            # Fibonacci lattice on the sphere
            k = np.arange(1024) + 0.5
            phi = np.arccos(1.0 - 2.0 * k / 1024.0)
            lam = np.pi * (1.0 + math.sqrt(5.0)) * k
            _DIR_CACHE[dim] = np.column_stack(
                [np.sin(phi) * np.cos(lam), np.sin(phi) * np.sin(lam),
                 np.cos(phi)])
    return _DIR_CACHE[dim]


def _exit_table(y0: np.ndarray, P: np.ndarray, M: np.ndarray):
    """Candidate boundary points (per unit sqrt of the miss-distance limit),
    their outward normals, plane offsets from y0, and the best displacement
    per unit delta-v along each normal."""
    evals, Q = np.linalg.eigh(np.asarray(P, float))
    dim = len(y0)
    W = _exit_directions(dim)
    Z1 = (W * np.sqrt(evals)) @ Q.T
    Nn = (W / np.sqrt(evals)) @ Q.T
    Nn = Nn / np.linalg.norm(Nn, axis=1)[:, None]
    b = np.einsum("kj,kj->k", Nn, Z1)
    a = Nn @ np.asarray(y0, float)
    if len(M):
        # response of every segment's three control components along every
        # normal: one (directions, segments * 3) product over the stack,
        # squared in place (fresh megabyte arrays cost more than the sums)
        t = Nn @ M.transpose(1, 0, 2).reshape(dim, -1)
        np.square(t, out=t)
        s2 = t[:, 0::3] + t[:, 1::3]
        s2 += t[:, 2::3]
        s = np.sqrt(np.max(s2, axis=1))
    else:
        s = np.zeros(len(Nn))
    return Z1, Nn, b, a, np.maximum(s, 1e-30)


def _table_cost(table, d2):
    """Cheapest exit cost at each miss-distance limit of ``d2``: one row of
    the (limits, directions) gap matrix each."""
    _, _, b, a, s = table
    gap = np.maximum(np.sqrt(d2)[..., None] * b - a, 0.0)
    return np.min(gap / s, axis=-1)


def _cheapest_exit(y0: np.ndarray, P: np.ndarray, d2: float, M: np.ndarray,
                   side: np.ndarray | None = None) -> np.ndarray:
    """Cheapest tangent-cut anchor; with ``side`` the candidates are
    restricted to cuts pushing along that direction."""
    Z1, Nn, b, a, s = _exit_table(y0, P, M)
    gap = np.maximum(math.sqrt(d2) * b - a, 0.0)
    cost = gap / s
    if side is not None:
        keep = Nn @ side > 0.0
        if np.any(keep):
            cost = np.where(keep, cost, np.inf)
    k = int(np.argmin(cost))
    return math.sqrt(d2) * Z1[k]


def _select_anchors(items, caps):
    """Jointly pick one exit anchor per keep-out surface.

    Channels are committed most expensive first.  Each later channel prices
    its candidate cuts against the displacement already planned for the
    earlier ones, so compatible exit sides ride along instead of fighting.
    The plan itself is extended greedily, filling the segments with the
    largest response along the chosen cut normal up to their delta-v caps.
    ``items`` holds (exit table, d2, M) tuples; returns (anchors,
    normals)."""
    n_seg = len(caps)
    D = np.zeros((n_seg, 3))
    solo = [float(_table_cost(table, d2)) for table, d2, _ in items]
    anchors = [None] * len(items)
    normals = [None] * len(items)
    for idx in np.argsort(solo)[::-1]:
        (Z1, Nn, b, a, s), d2, M = items[idx]
        rd = math.sqrt(d2)
        m = len(M)
        # the planned displacement seen along every normal
        delivered = Nn @ np.einsum("mdc,mc->d", M, D[:m])
        resid = rd * b - a - delivered
        k = int(np.argmin(np.maximum(resid, 0.0) / s))
        anchors[idx] = rd * Z1[k]
        normals[idx] = Nn[k]
        r = float(resid[k])
        if r <= 0.0:
            continue
        rows = np.einsum("mdc,d->mc", M, Nn[k])
        si = np.linalg.norm(rows, axis=1)
        for i in np.argsort(si)[::-1]:
            if r <= 0.0 or si[i] <= 1e-30:
                break
            room = caps[i] - float(np.linalg.norm(D[i]))
            if room <= 0.0:
                continue
            step = min(room, r / si[i])
            D[i] += step * rows[i] / si[i]
            r -= step * si[i]
    return anchors, normals


# ---------------------------------------------------------------------
# probability budget allocation


def adapt_limits(p0, rho_fns, total_limit, floor=1e-9, guesses=None):
    """Per-channel probability limits whose joint survival matches the
    total budget exactly, minimizing the summed displacement each channel
    needs to reach its own keep-out boundary.

    The most demanding channel's limit is eliminated through the product
    identity and the remainder is searched over in log space.
    """
    p0 = np.asarray(p0, float)
    n = len(p0)
    if n == 0:
        return np.zeros(0)
    hi = 1.0 - (1.0 - total_limit) / (1.0 - floor) ** (n - 1)
    if hi <= floor:
        raise ScpError("probability floor too large for the channel count")
    if n == 1:
        return np.array([total_limit])

    ylo, yhi = math.log10(floor), math.log10(hi)
    grid_y = np.linspace(ylo, yhi, 48)
    # scalar powers: numpy's vectorized power differs in the last bit
    grid_q = np.array([10.0 ** y for y in grid_y])
    tables = [np.asarray(f(grid_q), float) for f in rho_fns]

    def rho(s, q):
        return float(np.interp(math.log10(q), grid_y, tables[s]))

    e = int(np.argmax(p0))
    others = [s for s in range(n) if s != e]
    if guesses is None:
        guesses = np.full(n, total_limit / n)
    x0 = np.clip(np.log10(np.asarray(guesses, float)[others]), ylo, yhi)
    one_minus = 1.0 - total_limit

    def objective(y):
        q = 10.0 ** np.asarray(y)
        qe = 1.0 - one_minus / float(np.prod(1.0 - q))
        if not (floor <= qe <= hi):
            return 1e3 * (1.0 + abs(qe - total_limit) / total_limit)
        return rho(e, qe) + sum(rho(s, qs) for s, qs in zip(others, q))

    res = minimize(objective, x0, method="Nelder-Mead",
                   bounds=[(ylo, yhi)] * (n - 1),
                   options={"maxiter": 600 * (n - 1), "xatol": 1e-4,
                            "fatol": 1e-16})
    q = np.empty(n)
    q[others] = np.clip(10.0 ** res.x, floor, hi)
    q[e] = min(max(1.0 - one_minus / float(np.prod(1.0 - q[others])),
                   floor), hi)
    # channels that need no displacement even at the floor are irrelevant
    # to the maneuver; parking them at the floor releases their share of
    # the budget without changing the cost
    for s in range(n):
        if tables[s][0] <= 1e-12:
            q[s] = floor
    # restore the identity exactly through the most demanding channel that
    # can absorb the residual within its bounds
    for k in np.argsort(-p0):
        qk = 1.0 - one_minus / float(np.prod(np.delete(1.0 - q, k)))
        if floor <= qk <= hi:
            q[k] = qk
            break
        q[k] = min(max(qk, floor), hi)
    if abs(float(np.prod(1.0 - q)) - one_minus) > 1e-10:
        raise ScpError("could not restore the probability budget identity")
    return q


def _rho_fn(ch, table):
    """Exit cost of the channel at each limit of an array of limits, priced
    with its exit table at the current reference."""
    def rho(qbar):
        d2 = ch.limit_d2(np.minimum(qbar / ch.weight, 1.0 - 1e-12))
        return np.where(d2 > 0.0, _table_cost(table, d2), 0.0)

    return rho


# perfbench/layertrace.py still wraps these two names of one builder
_st_rho_fn = _lt_rho_fn = _rho_fn


# ---------------------------------------------------------------------
# constraint generation per iteration


def _revisits(obj: float, history, rtol: float = 1e-5) -> bool:
    """True when ``obj`` repeats an earlier objective of ``history`` to
    ``rtol``: the minor iterations run a limit cycle, of any period."""
    tol = rtol * max(abs(obj), 1e-12)
    return any(abs(obj - past) <= tol for past in history)


def _tipoc(lt_channels, pos):
    """Each long-term channel's weighted instantaneous PoC per node, and
    their total per node, for node positions ``pos``."""
    profs = [ch.profile(pos) for ch in lt_channels]
    return profs, 1.0 - np.prod([1.0 - p for p in profs], axis=0)


def _grid_tpoc(st_channels, lt_channels, ref_pos) -> float:
    """Total probability with every encounter held at its grid node."""
    surv = 1.0
    for ch in st_channels:
        surv *= 1.0 - ch.weight * ch.poc(ref_pos[ch.node])
    if lt_channels:
        surv *= 1.0 - float(np.max(_tipoc(lt_channels, ref_pos)[1]))
    return 1.0 - surv


def _risk_rows(stage: str, cfg: Config, st_channels, lt_channels, ref_pos,
               resp3, nu_risk: float, total_cap: float) -> RiskRows:
    """Risk constraints for one subproblem around node positions ref_pos.

    In the miss-distance stage, references still inside a keep-out surface
    anchor their tangent cut at the selected exit; references already
    outside re-anchor at the nearest boundary point so the cut slides with
    the iterate.  The polish stage replaces the per-channel cuts by the
    linearized total-probability constraint."""
    rows = RiskRows()
    if stage == "smd":
        for ch in st_channels + lt_channels:
            d2 = ch.d2_limit
            if not np.isfinite(d2) or d2 <= 0.0:
                continue
            for j in ch.cut_nodes(ref_pos):
                y, P = ch.miss(ref_pos[j], j)
                if smd_3d(y, P) >= d2:
                    z = project_onto_ellipsoid(y, P, d2)
                elif j == ch.node and ch.anchor is not None:
                    z = ch.anchor
                else:
                    # ch.M holds the responses at the channel's own node in
                    # its miss space; a long-term channel's other nodes
                    # take theirs from resp3
                    z = _cheapest_exit(y, P, d2,
                                       ch.M if j == ch.node else resp3(j),
                                       side=ch.push)
                rows.halfspaces.append((j, *ch.plane(z, j)))
    else:
        if st_channels:
            items = [ShortTermItem(node=ch.node,
                                   dr_ref=ref_pos[ch.node] - ch.xs[:3],
                                   basis=ch.basis, P2=ch.P2, hbr=ch.hbr,
                                   weight=ch.weight) for ch in st_channels]
            lin = linearize_tpoc(items)
            refs = ref_pos[[ch.node for ch in st_channels]]
            # gradient acts on the primary position, so the bound carries
            # the reference primary positions, not the relative ones
            bound = total_cap - lin.value \
                + float(np.sum(lin.grads * refs))
            rows.totals.append((lin.nodes, lin.grads, bound, refs,
                                lin.xi, nu_risk))
        # every node where some channel carries a relevant share of the budget
        hot = set()
        for ch in lt_channels:
            hot.update(np.flatnonzero(
                ch.profile(ref_pos) > 1e-3 * cfg.total_limit).tolist())
        for j in sorted(hot):
            items = [LongTermItem(*ch.miss(ref_pos[j], j), hbr=ch.hbr,
                                  weight=ch.weight) for ch in lt_channels]
            lin = linearize_tipoc(items)
            refs = np.array([ref_pos[j]] * len(items))
            bound = total_cap - lin.value \
                + float(np.sum(lin.grads * refs))
            rows.totals.append(([j] * len(items), lin.grads, bound, refs,
                                lin.xi, nu_risk))
    return rows


def _constraint_nodes(channels, ref_pos):
    return sorted({j for ch in channels for j in ch.cut_nodes(ref_pos)})


# ---------------------------------------------------------------------
# main driver


def _evaluate_final(scn, cfg, dyn, st_channels, lt_channels, x_val):
    """Probabilities of the maneuvered trajectory, closest approaches
    re-refined against each channel's ballistic component."""
    survivors = 1.0
    for ch in st_channels:
        xp = x_val[ch.node]
        try:
            dt = refine_tca(xp, ch.xs, dyn)
        except DegenerateEncounterError:
            dt = 0.0
        xpe = flow(xp, 0.0, dt, np.zeros(3), dyn, cfg.integ_tol)
        xse = flow(ch.xs, 0.0, dt, np.zeros(3), dyn, cfg.integ_tol)
        dr = xpe[:3] - xse[:3]
        B = bplane_basis(xpe[3:], xse[3:])
        P2 = B @ ch.P3 @ B.T
        p = chan_poc(*chan_uv(B @ dr, P2, ch.hbr))
        ch.p_final = ch.weight * p
        survivors *= 1.0 - ch.p_final
    tipoc = None
    if lt_channels:
        profs, tipoc = _tipoc(lt_channels, x_val[:, :3])
        for ch, prof in zip(lt_channels, profs):
            ch.ipoc_prof = prof
            ch.p_final = float(prof[ch.node])
        survivors *= 1.0 - float(np.max(tipoc))
    return 1.0 - survivors, tipoc


def _reports(scl, channels, grid, states):
    return [ch.report(scl, grid, states) for ch in channels]


def solve(scenario: Scenario, config: Config | None = None) -> TrajectorySolution:
    cfg = (config or Config()).validated()
    if not (scenario.short_term or scenario.long_term):
        raise ScpError("scenario enables neither short- nor long-term mode")
    scl = scenario.scaling()
    dyn = scaled_dynamics(scenario)
    L, V, T = scl.length, scl.velocity, scl.time
    t0, tf = scenario.horizon[0] / T, scenario.horizon[1] / T
    u_scale = scenario.u_max / scl.acceleration
    if u_scale <= 0.0:
        raise ScpError("maximum acceleration must be positive")
    x_init = _scale_state(scenario.primary_at(scenario.horizon[0]), L, V)

    st_channels = (_build_short_channels(scenario, cfg, scl, dyn, t0, tf)
                   if scenario.short_term and scenario.conjunctions else [])
    epochs = {(i, 0): ch.epoch for i, ch in enumerate(st_channels)}
    grid = build_grid(t0, tf, 2.0 * math.pi, cfg.nodes_per_orbit, epochs)
    for i, ch in enumerate(st_channels):
        ch.node = grid.conjunction_nodes[(i, 0)]
    N = grid.n_segments
    x_ref = _node_states(x_init, grid.times, dyn, np.zeros(3), cfg.integ_tol)
    lt_channels = (_build_long_channels(scenario, cfg, scl, dyn, grid, x_ref)
                   if scenario.long_term and scenario.conjunctions else [])
    for ch in st_channels:
        ch.p0 = ch.weight * ch.poc(x_ref[ch.node, :3])
    channels = st_channels + lt_channels
    tpoc_ball = 1.0 - float(np.prod([1.0 - ch.p0 for ch in channels])) \
        if channels else 0.0

    def package(status, majors, log, x_out, u_frac, vc_max, e_val,
                tpoc_final, tipoc, con_states=None):
        controls = u_frac * scenario.u_max
        dts = grid.dt * T
        dv = float(np.sum(np.linalg.norm(controls, axis=1) * dts)) * 1e6
        return TrajectorySolution(
            status=status, majors=majors, log=log,
            times_s=grid.times * T, states_km=_unscale_states(x_out, L, V),
            controls_km_s2=controls, u_frac=u_frac, dv_mm_s=dv,
            objective=dv, vc_max=vc_max, e_validation_mm=e_val,
            total_limit=cfg.total_limit, tpoc_ballistic=tpoc_ball,
            tpoc_final=tpoc_final,
            # the keep-out cuts are supporting planes of the convex
            # ellipses, so the converged subproblem iterate satisfies them
            # exactly; it is the point reported against the circle
            channels=_reports(scl, channels, grid,
                              x_out if con_states is None else con_states),
            tipoc_nodes=tipoc,
            tipoc_mix=np.column_stack([ch.ipoc_prof for ch in lt_channels])
            if lt_channels else None)

    no_maneuver_needed = tpoc_ball <= cfg.total_limit
    if not channels or (cfg.short_circuit and no_maneuver_needed):
        tpoc_final, tipoc = _evaluate_final(scenario, cfg, dyn, st_channels,
                                            lt_channels, x_ref)
        return package("ballistic", 0, [], x_ref, np.zeros((N, 3)), 0.0,
                       0.0, tpoc_final, tipoc)

    # channel index -> exit table at the reference of this major, shared
    # by its limit adaptation and anchor selection; relinearization starts
    # the next major and drops them
    tables = {}

    def exit_table(i):
        if i not in tables:
            ch = channels[i]
            tables[i] = _exit_table(*ch.miss(x_ref[ch.node, :3], ch.node),
                                    ch.M)
        return tables[i]

    def relinearize(uf):
        tables.clear()
        segs = linearize_segment(x_ref[:N], uf * u_scale, grid.dt, dyn,
                                 tol=cfg.integ_tol)
        r3 = _impulse_responses(segs, grid)
        for ch in channels:
            ch.relinearize(x_ref[:, :3], r3)
        return segs, r3

    def select_anchors(ref_pos):
        items, picked = [], []
        for i, ch in enumerate(channels):
            ch.anchor = ch.push = None
            if not np.isfinite(ch.d2_limit) or ch.d2_limit <= 0.0:
                continue
            if smd_3d(*ch.miss(ref_pos[ch.node], ch.node)) < ch.d2_limit:
                items.append((exit_table(i), ch.d2_limit, ch.M))
                picked.append(ch)
        if items:
            anchors, normals = _select_anchors(items, u_scale * grid.dt)
            for ch, z, n in zip(picked, anchors, normals):
                ch.anchor, ch.push = z, n

    segments, resp3 = relinearize(np.zeros((N, 3)))

    weights = np.array([ch.weight for ch in channels])
    q_cur = cfg.total_limit * weights / float(np.sum(weights))

    def adapt():
        # reallocate the budget against the current reference: channels the
        # maneuver has already cleared release their share down to the floor
        nonlocal q_cur
        # a single channel takes the whole budget unpriced
        rho_fns = [_rho_fn(ch, exit_table(i))
                   for i, ch in enumerate(channels)] \
            if len(channels) > 1 else []
        q_cur = adapt_limits([ch.p0 for ch in channels], rho_fns,
                             cfg.total_limit, cfg.limit_floor, q_cur)
        for ch, qs in zip(channels, q_cur):
            ch.q_limit = float(qs)
            ch.d2_limit = ch.limit_d2(min(qs / ch.weight, 1.0 - 1e-12))

    adapt()

    u_frac = np.zeros((N, 3))
    states = x_ref.copy()
    log = []
    vc_max = math.nan
    settings = SolverSettings()
    major = 0

    def run_stage(stage):
        nonlocal segments, resp3, u_frac, x_ref, states, major, vc_max
        prev_dv = None
        while major < cfg.max_major:
            major += 1
            if major > 1:
                segments, resp3 = relinearize(u_frac)
            ref_pos = x_ref[:, :3].copy()
            cap = cfg.total_limit
            if stage == "smd":
                if major > 1:
                    adapt()
                select_anchors(ref_pos)
            else:
                # refining each closest approach off its grid node shifts
                # the total slightly; budget the grid-node total so the
                # refined one lands on the limit
                tp_ref, _ = _evaluate_final(scenario, cfg, dyn, st_channels,
                                            lt_channels, x_ref)
                tp_grid = _grid_tpoc(st_channels, lt_channels, ref_pos)
                if tp_ref > 0.0 and tp_grid > 0.0:
                    cap = cfg.total_limit * tp_grid / tp_ref
            minors, e_m, cone_solves = 0, math.inf, []
            u_anchor, obj_hist, nu_mult = u_frac, [], 1.0
            while True:
                rows = _risk_rows(stage, cfg, st_channels, lt_channels,
                                  ref_pos, resp3,
                                  nu_risk=cfg.nu_bar * nu_mult,
                                  total_cap=cap)
                prob = assemble(segments, grid, x_ref, x_init, rows,
                                kappa_vc=cfg.kappa_vc, nu_bar=cfg.nu_bar,
                                u_scale=u_scale,
                                u_prev=u_anchor if stage != "smd" else None,
                                prox=0.05)
                res = socp_solve(prob.to_socp(), settings)
                cone_solves.append({"status": res.status,
                                    "iterations": res.iterations,
                                    "pres": res.pres, "dres": res.dres,
                                    "gap": res.gap})
                if res.status != "optimal":
                    if stage != "smd" and res.status == "infeasible" \
                            and nu_mult < 1e6:
                        # right after relinearization the risk rows can
                        # demand a step beyond the trust region
                        nu_mult *= 4.0
                        minors += 1
                        if minors < cfg.max_minor:
                            continue
                    raise ScpError(f"conic subproblem ended {res.status} "
                                   f"at major {major}")
                xsol = res.x
                states = xsol[prob.var_map["x"]].reshape(N + 1, 6)
                watch = _constraint_nodes(channels, ref_pos)
                e_m = max((float(np.linalg.norm(states[j, :3] - ref_pos[j]))
                           for j in watch), default=0.0)
                if watch:
                    ref_pos[watch] = states[watch, :3]
                minors += 1
                if minors >= cfg.max_minor:
                    break
                if stage == "smd":
                    if e_m <= cfg.minor_tol:
                        break
                else:
                    # trust region caps each step; walk on the objective,
                    # widening the risk trust while progress is monotone,
                    # and stop once it returns to an earlier objective
                    u_anchor = xsol[prob.var_map["u"]].reshape(N, 3)
                    if _revisits(res.obj, obj_hist):
                        break
                    if obj_hist and res.obj < obj_hist[-1]:
                        nu_mult = min(nu_mult * 2.0, 256.0)
                    else:
                        nu_mult = max(nu_mult * 0.25, 1.0)
                    obj_hist.append(res.obj)
            u_new = xsol[prob.var_map["u"]].reshape(N, 3)
            vc_max = float(np.max(xsol[prob.var_map["vnorm"]]))
            e_M = float(np.max(np.linalg.norm(u_new - u_frac, axis=1)))
            dv = float(np.sum(np.linalg.norm(u_new, axis=1) * grid.dt)
                       * u_scale * V) * 1e6
            log.append(IterationRecord(major=major, minors=minors,
                                       e_major=e_M, e_minor=e_m,
                                       objective=res.obj, dv_mm_s=dv,
                                       vc_max=vc_max,
                                       cone_solves=cone_solves,
                                       limits=[(ch.q_limit, ch.d2_limit)
                                               for ch in channels]))
            u_frac = u_new
            # relinearize around the propagated trajectory, not the
            # subproblem states, so linearization drift cannot accumulate
            x_ref = _node_states(x_init, grid.times, dyn, u_frac * u_scale,
                                 cfg.integ_tol)
            feasible = True
            if stage != "smd":
                tp, _ = _evaluate_final(scenario, cfg, dyn, st_channels,
                                        lt_channels, x_ref)
                feasible = tp <= cfg.total_limit * 1.02
            if e_M <= cfg.major_tol and feasible:
                return True
            # fuel-flat directions leave the control profile non-unique,
            # so the refinement stage also accepts cost stationarity, as
            # long as the nonlinear total risk respects the budget
            if stage != "smd" and feasible and prev_dv is not None and \
                    abs(dv - prev_dv) <= 3e-4 * max(abs(prev_dv), 1e-12):
                return True
            prev_dv = dv
        return False

    converged = run_stage("smd")
    if converged and cfg.refine_mode == "tpoc":
        polish = True
        if cfg.short_circuit:
            x_chk = _node_states(x_init, grid.times, dyn, u_frac * u_scale,
                                 cfg.integ_tol)
            tp, _ = _evaluate_final(scenario, cfg, dyn, st_channels,
                                    lt_channels, x_chk)
            polish = abs(tp - cfg.total_limit) \
                > cfg.short_circuit_margin * cfg.total_limit
        if polish:
            converged = run_stage("tpoc")
    status = "converged" if converged else "max_iterations"

    # nonlinear validation of the converged zero-order-hold profile; the
    # linear prediction is rebuilt from the segment maps in exact arithmetic
    # so solver roundoff in the subproblem states does not pollute the check
    x_val = _node_states(x_init, grid.times, dyn, u_frac * u_scale,
                         cfg.integ_tol)
    x_lin = [x_init]
    for seg, ui in zip(segments, u_frac * u_scale):
        x_lin.append(seg.A @ x_lin[-1] + seg.B @ ui + seg.c)
    x_lin = np.array(x_lin)
    e_val = float(np.max(np.linalg.norm(x_val[:, :3] - x_lin[:, :3],
                                        axis=1))) * L * 1e6
    tpoc_final, tipoc = _evaluate_final(scenario, cfg, dyn, st_channels,
                                        lt_channels, x_val)
    return package(status, len(log), log, x_val, u_frac, vc_max, e_val,
                   tpoc_final, tipoc, con_states=states)
