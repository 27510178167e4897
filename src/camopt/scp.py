"""Sequential convex programming driver for low-thrust collision avoidance.

Couples the jet-linearized dynamics, the keep-out-zone construction and the
embedded cone solver into the full maneuver optimization: risk channels
(one per conjunction, mixture component and encounter), allocation of the
total probability budget across the channels, major/minor iterations and a
nonlinear validation of the converged control profile.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

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
    state_reach,
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
from .socp import solve as socp_solve
from .uncert import split_along_flow


NODES_PER_ORBIT = 60  # grid step of one orbital period (2 pi scaled)
MAJOR_TOL = 1e-3  # scaled acceleration
MINOR_TOL = 1e-6  # scaled position
NU_BAR = 1e-2  # state trust region |x - x_ref| <= NU_BAR / xi
MAX_MAJOR = 30
MAX_MINOR = 30
LIMIT_FLOOR = 1e-9  # smallest probability limit of a channel
REVISIT_RTOL = 1e-5  # a minor objective this close to an earlier one cycles
STALL_RTOL = 1e-3  # a polish minor gaining less than this has stalled


# ---------------------------------------------------------------------
# risk channels


# Both channel kinds answer the same questions, so the driver never asks
# which kind it holds:
#   miss(r_p, j)      miss vector for the primary at r_p on node j, and its
#                     covariance (encounter plane or 3D)
#   plane(z, j)       keep-out cut (a, rhs), a . r_p >= rhs, through the
#                     boundary point z of that miss space, with |a| = 1
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
        n2 = n2 / np.linalg.norm(n2)
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
        a = a / np.linalg.norm(a)
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
    # one {status, start, iterations, pres, dres, gap, kkt_dim, kkt_band}
    # per minor
    cone_solves: list
    # one (q_limit, d2_limit) per channel, the limits the major ran with
    limits: list
    order2_segments: int  # segments its relinearization flew at order 2

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


def _scale_cov(P: np.ndarray, L: float, V: float) -> np.ndarray:
    P = np.asarray(P, float)
    if P.shape == (3, 3):
        return P / L ** 2
    S = np.diag([1.0 / L] * 3 + [1.0 / V] * 3)
    return S @ P @ S


def _node_states(x0: np.ndarray, times: np.ndarray, dyn, u) -> np.ndarray:
    """Sequential propagation through every grid epoch; ``u`` is either a
    single acceleration for the whole span or one row per segment."""
    u = np.atleast_2d(np.asarray(u, float))
    out = np.empty((len(times), 6))
    out[0] = x0
    for i in range(len(times) - 1):
        ui = u[0] if len(u) == 1 else u[i]
        out[i + 1] = flow(out[i], times[i], times[i + 1], ui, dyn)
    return out


# longest span one jet row of an STM track flies: the grid step, so a long
# leg flies as pieces in the same batch as the grid spans instead of alone
# after them
_STM_PIECE = 2.0 * math.pi / NODES_PER_ORBIT


def _coast(x0: np.ndarray, times, dyn) -> np.ndarray:
    """Ballistic float states at each listed epoch, flown span by span;
    consecutive epochs may run backward in time."""
    out = np.empty((len(times), 6))
    out[0] = x0
    for i in range(len(times) - 1):
        out[i + 1] = flow(out[i], times[i], times[i + 1], np.zeros(3), dyn)
    return out


def _stm_track(x0: np.ndarray, times, dyn):
    """Mean and cumulative state transition matrix at each listed epoch.

    Consecutive epochs may run backward in time (a TCA back to t0).  Spans
    longer than :data:`_STM_PIECE` are cut into equal pieces.  The mean is
    chained through the pieces with float flows, every piece's own STM comes
    from one batched order-1 jet flight seeded at its start, and the
    cumulative STMs are their running product.  Each jet row takes the steps
    of its piece's float flow, so a piece's STM is the derivative of the
    very flight that carried the mean across it."""
    times = np.asarray(times, float)
    pieces = np.maximum(np.ceil(np.abs(np.diff(times)) / _STM_PIECE),
                        1).astype(int)
    fine = [times[:1]]
    for ta, tb, n in zip(times[:-1], times[1:], pieces):
        fine.append(ta + (tb - ta) * np.arange(1, n + 1) / n)
        fine[-1][-1] = tb
    fine = np.concatenate(fine)
    means = _coast(x0, fine, dyn)
    spc = jet_space(6, 1)
    y = flow_jets(spc, identity(spc, means[:-1]), fine[:-1], fine[1:], dyn)
    phis = gradient(spc, y)
    stms = np.empty((len(fine), 6, 6))
    stms[0] = np.eye(6)
    for i, phi in enumerate(phis):
        stms[i + 1] = phi @ stms[i]
    listed = np.concatenate([[0], np.cumsum(pieces)])
    return means[listed], stms[listed]


def _scan_times(t_start, t_end, period):
    """Epochs of the coarse encounter scan over [t_start, t_end]: at least
    120 per period and at least 4 steps."""
    n = max(int(math.ceil((t_end - t_start) / (period / 120.0))), 4)
    return np.linspace(t_start, t_end, n + 1)


def _detect_encounters(xp0, xs0, t_start, t_end, lo_bound, dyn, period,
                       primary=None):
    """Epochs of the locally closest approaches over [t_start, t_end].

    Coarse distance scan along both ballistic paths, then a Newton
    refinement (:func:`refine_tca`) of every local minimum of the scan.
    The window's first epoch is a candidate when the distance grows away
    from it, its last when the distance falls into it.  Each candidate is
    refined only inside its bracket, the scan epochs on either side of it:
    the first epoch's bracket reaches one scan step back (no earlier than
    ``lo_bound``) and the last epoch's ends at ``t_end``.  A candidate whose
    Newton step leaves its bracket is dropped: its minimum lies outside
    (past ``t_end``, or in a neighbouring bracket) or the iteration heads
    for a distance maximum.  ``primary`` holds the primary's states on the
    scan epochs (:func:`_scan_times`) when a caller scans several
    secondaries against one primary.
    """
    if t_end - t_start < 0.05 * period:
        return [t_start]
    ts = _scan_times(t_start, t_end, period)
    n = len(ts) - 1
    states_p = _coast(xp0, ts, dyn) if primary is None else primary
    states_s = _coast(xs0, ts, dyn)
    d = np.array([np.linalg.norm(a[:3] - b[:3])
                  for a, b in zip(states_p, states_s)])
    cand = [j for j in range(1, n) if d[j] <= d[j - 1] and d[j] <= d[j + 1]]
    if d[0] < d[1]:
        cand.insert(0, 0)
    if d[n] < d[n - 1]:
        cand.append(n)
    epochs = []
    for j in cand:
        lo = ts[j - 1] if j else max(2.0 * ts[0] - ts[1], lo_bound)
        bracket = (lo - ts[j] - 1e-9, ts[min(j + 1, n)] - ts[j] + 1e-9)
        try:
            dt = refine_tca(states_p[j], states_s[j], dyn, bracket=bracket)
        except DegenerateEncounterError:
            continue
        if not bracket[0] <= dt <= bracket[1]:
            continue
        e = min(max(ts[j] + dt, lo_bound), t_end)
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
        raise CamoptError(f"conjunction {ci}: singular encounter covariance")
    return ShortChannel(conj=ci, mix=mi, enc=ei, weight=weight, epoch=math.nan,
                        xs=np.array(xs), P3=np.array(P3), basis=basis, P2=P2,
                        u_chan=hbr ** 2 / math.sqrt(det), hbr=hbr,
                        y0=basis @ (np.asarray(xp[:3]) - np.asarray(xs[:3])))


def tca_states(conj, scl):
    """Scaled TCA of a conjunction, the primary and secondary states there,
    the covariance and the hard-body radius."""
    L, V = scl.length, scl.velocity
    xp = _scale_state(conj.xp, L, V)
    xs = xp - np.concatenate([conj.dr / L, conj.dv / V])
    return conj.tca / scl.time, xp, xs, _scale_cov(conj.cov, L, V), \
        conj.hbr / L


def _build_short_channels(scn: Scenario, scl, dyn, t0, tf):
    channels = []
    for ci, conj in enumerate(scn.conjunctions):
        tca, xp, xs, P, hbr = tca_states(conj, scl)
        try:
            dt = refine_tca(xp, xs, dyn)
        except DegenerateEncounterError:
            dt = 0.0
        dt = min(max(tca + dt, t0), tf) - tca
        tca += dt
        xp = flow(xp, 0.0, dt, np.zeros(3), dyn)
        xs = flow(xs, 0.0, dt, np.zeros(3), dyn)

        if P.shape == (3, 3):
            if scn.n_mix > 1:
                raise CamoptError("mixture splitting needs a velocity "
                                  "covariance")
            ch = _make_short_channel(ci, 0, 0, 1.0, xp, xs, P, hbr)
            ch.epoch = tca
            channels.append(ch)
            continue

        # one channel per mixture component and per repeated encounter
        gmm = split_along_flow(xs, P, tf - tca, dyn, scn.n_mix)
        scan_p = _coast(xp, _scan_times(tca, tf, 2.0 * math.pi), dyn)
        for mi in range(gmm.n_mix):
            w, mean, Pm = gmm.weights[mi], gmm.means[mi], gmm.covs[mi]
            epochs = _detect_encounters(xp, mean, tca, tf, t0, dyn,
                                        2.0 * math.pi, primary=scan_p)
            means, stms = _stm_track(mean, [tca] + epochs, dyn)
            xp_e, t_prev = np.array(xp), tca
            for ei, te in enumerate(epochs):
                xp_e = flow(xp_e, t_prev, te, np.zeros(3), dyn)
                t_prev = te
                Phi = stms[ei + 1]
                P3 = (Phi @ Pm @ Phi.T)[:3, :3]
                ch = _make_short_channel(ci, mi, ei, w, xp_e, means[ei + 1],
                                         P3, hbr)
                ch.epoch = te
                if ei == 0 or w * ch.poc(xp_e[:3]) >= 1e-3 * LIMIT_FLOOR:
                    channels.append(ch)
    return channels


def _build_long_channels(scn: Scenario, scl, dyn, grid, x_ref):
    channels = []
    for ci, conj in enumerate(scn.conjunctions):
        tca, _, xs, P, hbr = tca_states(conj, scl)
        if P.shape != (6, 6):
            raise CamoptError("long-term mode needs a velocity covariance")
        gmm = split_along_flow(xs, P, grid.times[-1] - tca, dyn, scn.n_mix)
        for mi in range(gmm.n_mix):
            means, stms = _stm_track(gmm.means[mi], [tca] + list(grid.times),
                                     dyn)
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
    Phi = np.empty((len(segments.A) + 1, 6, 6))
    Phi[0] = np.eye(6)
    for i, A in enumerate(segments.A):
        Phi[i + 1] = A @ Phi[i]
    inv = np.linalg.inv(Phi)
    cache = {}

    def resp(c: int) -> np.ndarray:
        if c not in cache:
            cache[c] = (Phi[c] @ inv[1:c + 1] @ segments.B[:c])[:, :3] \
                / grid.dt[:c, None, None]
        return cache[c]

    return resp


@functools.cache
def _exit_directions(dim: int) -> np.ndarray:
    if dim == 2:
        th = np.linspace(0.0, 2.0 * np.pi, 721)[:-1]
        return np.column_stack([np.cos(th), np.sin(th)])
    # Fibonacci lattice on the sphere
    k = np.arange(1024) + 0.5
    phi = np.arccos(1.0 - 2.0 * k / 1024.0)
    lam = np.pi * (1.0 + math.sqrt(5.0)) * k
    return np.column_stack([np.sin(phi) * np.cos(lam),
                            np.sin(phi) * np.sin(lam), np.cos(phi)])


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


def adapt_limits(p0, rho_fns, total_limit, guesses=None):
    """Per-channel probability limits whose joint survival matches the
    total budget exactly, minimizing the summed displacement each channel
    needs to reach its own keep-out boundary.

    The most demanding channel's limit is eliminated through the product
    identity and the remainder is searched over in log space.
    """
    p0 = np.asarray(p0, float)
    n, floor = len(p0), LIMIT_FLOOR
    if n == 0:
        return np.zeros(0)
    hi = 1.0 - (1.0 - total_limit) / (1.0 - floor) ** (n - 1)
    if hi <= floor:
        raise CamoptError("probability floor too large for the channel count")
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

    # imported here so one-channel solves, which return above, skip its cost
    from scipy.optimize import minimize
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
        raise CamoptError("could not restore the probability budget identity")
    return q


def _rho_fn(ch, table, limits: dict):
    """Exit cost of the channel at each limit of an array of limits, priced
    with its exit table at the current reference.  ``limits`` keeps the
    channel's squared-distance limits per channel node across the calls
    of one solve, whose limit grid :func:`adapt_limits` fixes from the
    total budget and the channel count; a long-term channel's limits also
    depend on the node it is constrained at."""
    def rho(qbar):
        if ch.node not in limits:
            limits[ch.node] = ch.limit_d2(np.minimum(qbar / ch.weight,
                                                     1.0 - 1e-12))
        d2 = limits[ch.node]
        return np.where(d2 > 0.0, _table_cost(table, d2), 0.0)

    return rho


# perfbench/layertrace.py still wraps these two names of one builder
_st_rho_fn = _lt_rho_fn = _rho_fn


# ---------------------------------------------------------------------
# constraint generation per iteration


def _revisits(obj: float, history) -> bool:
    """True when ``obj`` repeats an earlier objective of ``history`` to
    ``REVISIT_RTOL``: the minor iterations run a limit cycle, of any
    period."""
    tol = REVISIT_RTOL * max(abs(obj), 1e-12)
    return any(abs(obj - past) <= tol for past in history)


def _stalls(obj: float, history) -> bool:
    """True when ``obj`` moved from the last objective of ``history`` by
    at most ``STALL_RTOL`` of it: the next minor would not pay its cone
    solve."""
    return bool(history) and \
        abs(obj - history[-1]) <= STALL_RTOL * abs(history[-1])


def _xi_stale(x_ref: np.ndarray, x_at: np.ndarray, xi: np.ndarray) -> bool:
    """True when some node of ``x_ref`` has left the node states ``x_at``
    that the nonlinearity ratios ``xi`` (measured, or their upper bounds)
    were taken at by more than that entry's own trust-region half-width
    ``NU_BAR / xi``; an entry with xi = 0 has none."""
    with np.errstate(divide="ignore"):
        return bool(np.any(np.abs(x_ref - x_at) > NU_BAR / xi[:, :6]))


def _cone_solve(prob, cone_solves: list, start=None):
    """Solve the subproblem ``prob`` and append its statistics to
    ``cone_solves``; returns the solver's result, whatever its status.

    The solve starts warm from ``start``, an earlier optimal result, when
    its sizes fit.  A warm solve that does not end optimal is solved again
    cold, so a warm start never fails a subproblem the cold start solves;
    its entry counts the iterations of both attempts."""
    cone = prob.to_socp()
    res = socp_solve(cone, start=start)
    iterations = res.iterations
    if res.start == "warm" and res.status != "optimal":
        res = socp_solve(cone)
        iterations += res.iterations
    cone_solves.append({"status": res.status, "start": res.start,
                        "iterations": iterations,
                        "pres": res.pres, "dres": res.dres, "gap": res.gap,
                        "kkt_dim": len(cone.c) + len(cone.b) + len(cone.h),
                        "kkt_band": res.kkt_band})
    return res


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


def _risk_rows(stage: str, total_limit: float, st_channels, lt_channels,
               ref_pos, resp3, nu_risk: float, total_cap: float) -> RiskRows:
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
                ch.profile(ref_pos) > 1e-3 * total_limit).tolist())
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


def _evaluate_final(dyn, st_channels, lt_channels, x_val):
    """Probabilities of the maneuvered trajectory, closest approaches
    re-refined against each channel's ballistic component."""
    survivors = 1.0
    for ch in st_channels:
        xp = x_val[ch.node]
        try:
            dt = refine_tca(xp, ch.xs, dyn)
        except DegenerateEncounterError:
            dt = 0.0
        xpe = flow(xp, 0.0, dt, np.zeros(3), dyn)
        xse = flow(ch.xs, 0.0, dt, np.zeros(3), dyn)
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


class _Run:
    """One solve in scaled units: dynamics, node grid, the reference
    ``x_ref`` (ballistic at first) and the channels around it, and the
    state the steps of the major/minor loop share, one method each."""

    def __init__(self, scenario: Scenario, total_limit: float):
        if not (scenario.short_term or scenario.long_term):
            raise CamoptError("scenario enables neither short- nor long-term "
                              "mode")
        self.scenario, self.total_limit = scenario, total_limit
        self.scl = scl = scenario.scaling()
        self.dyn = dyn = scaled_dynamics(scenario)
        L, V, T = scl.length, scl.velocity, scl.time
        t0, tf = scenario.horizon[0] / T, scenario.horizon[1] / T
        self.u_scale = scenario.u_max / scl.acceleration
        if self.u_scale <= 0.0:
            raise CamoptError("maximum acceleration must be positive")
        self.x_init = _scale_state(scenario.primary_at(scenario.horizon[0]),
                                   L, V)

        st_channels = (_build_short_channels(scenario, scl, dyn, t0, tf)
                       if scenario.short_term and scenario.conjunctions
                       else [])
        epochs = {(i, 0): ch.epoch for i, ch in enumerate(st_channels)}
        self.grid = grid = build_grid(t0, tf, 2.0 * math.pi, NODES_PER_ORBIT,
                                      epochs)
        for i, ch in enumerate(st_channels):
            ch.node = grid.conjunction_nodes[(i, 0)]
        self.x_ref = x_ref = _node_states(self.x_init, grid.times, dyn,
                                          np.zeros(3))
        lt_channels = (_build_long_channels(scenario, scl, dyn, grid, x_ref)
                       if scenario.long_term and scenario.conjunctions else [])
        for ch in st_channels:
            ch.p0 = ch.weight * ch.poc(x_ref[ch.node, :3])
        self.st_channels, self.lt_channels = st_channels, lt_channels
        self.channels = channels = st_channels + lt_channels
        self.tpoc_ball = 1.0 - float(np.prod([1.0 - ch.p0 for ch in channels]))

        self.u_frac = np.zeros((grid.n_segments, 3))
        # the last minor's subproblem states
        self.states = x_ref.copy()
        self.log = []
        self.major = 0
        self.evaluated = (None, None)
        # channel index -> exit table at the reference of this major, shared
        # by its limit adaptation and anchor selection; relinearization
        # starts the next major and drops them
        self.tables = {}
        # the nonlinearity ratios xi only size the state trust regions.
        # Every segment flies order-1 jets and takes the analytic upper
        # bound of astro.xi_bound; a segment flies order 2 for its exact
        # ratios only where a bounded row could bind (NU_BAR / bound <= its
        # reach), so the lean subproblem keeps exactly the rows the exact
        # ratios would keep.  The ratios barely move during a solve: they
        # are kept, as (node states they were taken at, ratios, exact per
        # segment), until the reference leaves the trust region they set
        self.xi_at = None
        # the last optimal cone solve of the run: each later one starts from
        # it where the sizes fit
        self.last_optimal = None
        # per channel, its limit_d2 over the adaptation's limit grid
        self.limit_tables = [{} for _ in channels]
        weights = np.array([ch.weight for ch in channels])
        self.q_cur = total_limit * weights / float(np.sum(weights))

    def exit_table(self, i):
        if i not in self.tables:
            ch = self.channels[i]
            self.tables[i] = _exit_table(
                *ch.miss(self.x_ref[ch.node, :3], ch.node), ch.M)
        return self.tables[i]

    def relinearize(self):
        """Segment maps around ``x_ref`` for the controls ``u_frac``."""
        self.tables.clear()
        grid, dyn, x_ref = self.grid, self.dyn, self.x_ref
        N = grid.n_segments
        u = self.u_frac * self.u_scale
        segs = linearize_segment(x_ref[:N], u, grid.dt, dyn, order=1)
        if self.xi_at is None or _xi_stale(x_ref[:N], *self.xi_at[:2]):
            self.xi_at = (x_ref[:N].copy(), segs.xi, np.zeros(N, dtype=bool))
        else:
            segs.xi = self.xi_at[1]
        x_at, xi, exact = self.xi_at
        # fixed for the major: every minor's lean subproblem reuses it
        reach = state_reach(segs, self.x_init, x_ref, self.u_scale)
        order2 = ~exact & (NU_BAR / xi[:, 0] <= reach[:N].max(axis=1))
        if order2.any():
            xi[order2] = linearize_segment(x_ref[:N][order2], u[order2],
                                           grid.dt[order2], dyn).xi
            x_at[order2] = x_ref[:N][order2]
            exact |= order2
        r3 = _impulse_responses(segs, grid)
        for ch in self.channels:
            ch.relinearize(x_ref[:, :3], r3)
        self.segments, self.resp3, self.reach = segs, r3, reach
        self.order2_segments = int(order2.sum())

    def select_anchors(self, ref_pos):
        items, picked = [], []
        for i, ch in enumerate(self.channels):
            ch.anchor = ch.push = None
            if not np.isfinite(ch.d2_limit) or ch.d2_limit <= 0.0:
                continue
            if smd_3d(*ch.miss(ref_pos[ch.node], ch.node)) < ch.d2_limit:
                items.append((self.exit_table(i), ch.d2_limit, ch.M))
                picked.append(ch)
        if items:
            anchors, normals = _select_anchors(items,
                                               self.u_scale * self.grid.dt)
            for ch, z, n in zip(picked, anchors, normals):
                ch.anchor, ch.push = z, n

    def adapt(self):
        """Reallocate the budget against the current reference: channels the
        maneuver has already cleared release their share down to the floor."""
        # a single channel takes the whole budget unpriced
        rho_fns = [_rho_fn(ch, self.exit_table(i), self.limit_tables[i])
                   for i, ch in enumerate(self.channels)] \
            if len(self.channels) > 1 else []
        self.q_cur = adapt_limits([ch.p0 for ch in self.channels], rho_fns,
                                  self.total_limit, guesses=self.q_cur)
        for ch, qs in zip(self.channels, self.q_cur):
            ch.q_limit = float(qs)
            ch.d2_limit = ch.limit_d2(min(qs / ch.weight, 1.0 - 1e-12))

    def evaluate(self, x):
        """Total risk of node states ``x`` and TIPoC per node, kept until
        other states are evaluated: the next polish major's risk cap and
        the closing report reuse a major's check, and the final
        probabilities it left on the channels are still those of ``x``."""
        if self.evaluated[0] is not x:
            self.evaluated = (x, _evaluate_final(self.dyn, self.st_channels,
                                                 self.lt_channels, x))
        return self.evaluated[1]

    def run_stage(self, stage):
        """Majors of the ``smd`` or ``tpoc`` stage until they converge
        (True) or the run reaches ``MAX_MAJOR`` majors (False)."""
        grid, limit, N = self.grid, self.total_limit, self.grid.n_segments
        prev_dv = None
        while self.major < MAX_MAJOR:
            self.major += 1
            self.relinearize()
            ref_pos = self.x_ref[:, :3].copy()
            cap = limit
            if stage == "smd":
                self.adapt()
                self.select_anchors(ref_pos)
            else:
                # refining each closest approach off its grid node shifts
                # the total slightly; budget the grid-node total so the
                # refined one lands on the limit
                tp_ref, _ = self.evaluate(self.x_ref)
                tp_grid = _grid_tpoc(self.st_channels, self.lt_channels,
                                     ref_pos)
                if tp_ref > 0.0 and tp_grid > 0.0:
                    cap = limit * tp_grid / tp_ref
            minors, e_m, cone_solves = 0, math.inf, []
            u_anchor, obj_hist, nu_mult = self.u_frac, [], 1.0
            while True:
                rows = _risk_rows(stage, limit, self.st_channels,
                                  self.lt_channels, ref_pos, self.resp3,
                                  nu_risk=NU_BAR * nu_mult, total_cap=cap)
                prob = assemble(self.segments, grid, self.x_ref, self.x_init,
                                rows, nu_bar=NU_BAR, u_scale=self.u_scale,
                                u_prev=u_anchor if stage != "smd" else None,
                                prox=0.05, reach=self.reach)
                res = _cone_solve(prob, cone_solves, start=self.last_optimal)
                if res.status != "optimal":
                    if stage != "smd" and res.status == "infeasible" \
                            and nu_mult < 1e6:
                        # right after relinearization the risk rows can
                        # demand a step beyond the trust region
                        nu_mult *= 4.0
                        minors += 1
                        if minors < MAX_MINOR:
                            continue
                    raise CamoptError(f"conic subproblem ended {res.status} "
                                      f"at major {self.major}")
                self.last_optimal = res
                xsol = res.x
                self.states = states = \
                    xsol[prob.var_map["x"]].reshape(N + 1, 6)
                watch = _constraint_nodes(self.channels, ref_pos)
                e_m = max((float(np.linalg.norm(states[j, :3] - ref_pos[j]))
                           for j in watch), default=0.0)
                if watch:
                    ref_pos[watch] = states[watch, :3]
                minors += 1
                if minors >= MAX_MINOR:
                    break
                if stage == "smd":
                    if e_m <= MINOR_TOL:
                        break
                else:
                    # trust region caps each step; walk on the objective,
                    # widening the risk trust while progress is monotone,
                    # and stop once it returns to an earlier objective or
                    # stops moving
                    u_anchor = xsol[prob.var_map["u"]].reshape(N, 3)
                    if _revisits(res.obj, obj_hist) or \
                            _stalls(res.obj, obj_hist):
                        break
                    if obj_hist and res.obj < obj_hist[-1]:
                        nu_mult = min(nu_mult * 2.0, 256.0)
                    else:
                        nu_mult = max(nu_mult * 0.25, 1.0)
                    obj_hist.append(res.obj)
            u_new = xsol[prob.var_map["u"]].reshape(N, 3)
            e_M = float(np.max(np.linalg.norm(u_new - self.u_frac, axis=1)))
            dv = float(np.sum(np.linalg.norm(u_new, axis=1) * grid.dt)
                       * self.u_scale * self.scl.velocity) * 1e6
            self.log.append(IterationRecord(
                major=self.major, minors=minors, e_major=e_M, e_minor=e_m,
                objective=res.obj, dv_mm_s=dv, cone_solves=cone_solves,
                limits=[(ch.q_limit, ch.d2_limit) for ch in self.channels],
                order2_segments=self.order2_segments))
            self.u_frac = u_new
            # relinearize around the propagated trajectory, not the
            # subproblem states, so linearization drift cannot accumulate
            self.x_ref = _node_states(self.x_init, grid.times, self.dyn,
                                      u_new * self.u_scale)
            feasible = stage == "smd" or \
                self.evaluate(self.x_ref)[0] <= limit * 1.02
            if e_M <= MAJOR_TOL and feasible:
                return True
            # fuel-flat directions leave the control profile non-unique,
            # so both stages also accept cost stationarity, the refinement
            # stage as long as the nonlinear total risk respects the budget
            if feasible and prev_dv is not None and \
                    abs(dv - prev_dv) <= 3e-4 * max(abs(prev_dv), 1e-12):
                return True
            prev_dv = dv
        return False

    def package(self, status, e_val=0.0) -> TrajectorySolution:
        """The solution for the reference ``x_ref``, flown under the
        controls ``u_frac``, and its :meth:`evaluate` answer."""
        scn, scl, grid, T = self.scenario, self.scl, self.grid, self.scl.time
        final = self.evaluate(self.x_ref)
        controls = self.u_frac * scn.u_max
        dv = float(np.sum(np.linalg.norm(controls, axis=1) * (grid.dt * T))) \
            * 1e6
        return TrajectorySolution(
            status=status, majors=len(self.log), log=self.log,
            times_s=grid.times * T,
            states_km=self.x_ref * np.repeat([scl.length, scl.velocity], 3),
            controls_km_s2=controls, u_frac=self.u_frac, dv_mm_s=dv,
            e_validation_mm=e_val,
            total_limit=self.total_limit, tpoc_ballistic=self.tpoc_ball,
            tpoc_final=final[0],
            # the keep-out cuts are supporting planes of the convex
            # ellipses, so the converged subproblem iterate satisfies them
            # exactly; it is the point reported against the circle
            channels=_reports(scl, self.channels, grid, self.states),
            tipoc_nodes=final[1],
            tipoc_mix=np.column_stack([ch.ipoc_prof
                                       for ch in self.lt_channels])
            if self.lt_channels else None)


def ballistic(scenario: Scenario,
              config: Config | None = None) -> TrajectorySolution:
    """The unmaneuvered trajectory and its risk, evaluated as :func:`solve`
    evaluates its answer, without entering the optimizer."""
    cfg = (config or Config()).validated()
    return _Run(scenario, cfg.total_limit).package("ballistic")


def solve(scenario: Scenario, config: Config | None = None) -> TrajectorySolution:
    cfg = (config or Config()).validated()
    if not scenario.conjunctions:
        # every conjunction makes at least one channel; without any there
        # is nothing to optimize
        return ballistic(scenario, cfg)
    run = _Run(scenario, cfg.total_limit)
    converged = run.run_stage("smd")
    if converged and cfg.refine_mode == "tpoc":
        converged = run.run_stage("tpoc")

    # nonlinear validation of the converged zero-order-hold profile, whose
    # propagation ended the last major; the linear prediction is rebuilt
    # from the segment maps in exact arithmetic so solver roundoff in the
    # subproblem states does not pollute the check
    x_lin = [run.x_init]
    segs = run.segments
    for A, B, c, ui in zip(segs.A, segs.B, segs.c, run.u_frac * run.u_scale):
        x_lin.append(A @ x_lin[-1] + B @ ui + c)
    x_lin = np.array(x_lin)
    e_val = float(np.max(np.linalg.norm(run.x_ref[:, :3] - x_lin[:, :3],
                                        axis=1))) * run.scl.length * 1e6
    return run.package("converged" if converged else "max_iterations", e_val)
