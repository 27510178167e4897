"""Scenario ingestion, frames, and unit scaling.

A scenario file is a single JSON document holding the primary's orbit and
actuator limits, a list of conjunction records (TCA, relative state and
combined covariance in the primary's RTN frame at TCA, combined hard-body
radius) and mode flags.  The loader rotates the relative state and the
covariance into ECI once, using the primary's ballistic RTN frame at each
TCA, so everything downstream is frame free.  Internally units are km,
km/s and seconds past t0; the solver additionally works in canonical
units where the primary's semi-major axis and the circular speed at it
are both 1.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import CamoptError
from .astro import Dynamics, GM_EARTH, flow


class ScenarioFormatError(CamoptError):
    """Raised for schema violations; message carries the JSON field path."""


SCHEMA_VERSION = 1

# keys of the lower-triangular position covariance block; the off-diagonal
# values fill the upper triangle in row-major order (rt, rn, tn)
_POS_KEYS = ("P_rr", "P_tt", "P_nn", "P_rt", "P_tn", "P_nr")
_VEL_KEYS = ("P_rdot_rdot", "P_tdot_tdot", "P_ndot_ndot")
_NUMBER = (int, float)


# ---------------------------------------------------------------------
# frames and elements


def rtn_matrix(state: np.ndarray) -> np.ndarray:
    """Columns are the RTN unit vectors of the owning state in ECI, so that
    v_eci = M @ v_rtn.  States stacked as rows (N, 6) give one M per row,
    stacked (N, 3, 3), each the one its row alone gives bit for bit."""
    x = np.asarray(state, float)
    r, v = x[..., :3], x[..., 3:6]
    rhat = r / _norms(r)
    h = np.cross(r, v)
    nhat = h / _norms(h)
    that = np.cross(nhat, rhat)
    return np.stack([rhat, that, nhat], axis=-1)


def _norms(a: np.ndarray) -> np.ndarray:
    """Euclidean norm of each 3-vector of ``a``, taken one vector at a time
    (a batched reduction would sum in another order), shaped to divide
    ``a``."""
    return np.array([np.linalg.norm(row) for row in a.reshape(-1, 3)]) \
        .reshape(a.shape[:-1] + (1,))


def rotate_cov(cov: np.ndarray, state: np.ndarray) -> np.ndarray:
    """RTN covariance (3x3 or 6x6) of the owning state into ECI."""
    M = rtn_matrix(state)
    cov = np.asarray(cov, float)
    if cov.shape == (3, 3):
        return M @ cov @ M.T
    R = np.zeros((6, 6))
    R[:3, :3] = M
    R[3:, 3:] = M
    return R @ cov @ R.T


def elements_to_state(a: float, e: float, inc: float, raan: float,
                      argp: float, nu: float, mu: float = GM_EARTH) -> np.ndarray:
    """Classical elements (angles in radians) to a Cartesian ECI state."""
    p = a * (1.0 - e ** 2)
    r = p / (1.0 + e * math.cos(nu))
    r_pf = np.array([r * math.cos(nu), r * math.sin(nu), 0.0])
    v_pf = math.sqrt(mu / p) * np.array([-math.sin(nu), e + math.cos(nu), 0.0])
    cO, sO = math.cos(raan), math.sin(raan)
    co, so = math.cos(argp), math.sin(argp)
    ci, si = math.cos(inc), math.sin(inc)
    R = np.array([
        [cO * co - sO * so * ci, -cO * so - sO * co * ci, sO * si],
        [sO * co + cO * so * ci, -sO * so + cO * co * ci, -cO * si],
        [so * si, co * si, ci],
    ])
    return np.concatenate([R @ r_pf, R @ v_pf])


# ---------------------------------------------------------------------
# scaling


@dataclass(frozen=True)
class Scaling:
    """Canonical units built on the primary's semi-major axis."""

    length: float  # km
    velocity: float  # km/s
    time: float  # s
    acceleration: float  # km/s^2

    @classmethod
    def from_sma(cls, a_p: float, mu: float = GM_EARTH) -> "Scaling":
        if a_p <= 0:
            raise ScenarioFormatError("semi-major axis must be positive")
        return cls(length=a_p, velocity=math.sqrt(mu / a_p),
                   time=math.sqrt(a_p ** 3 / mu), acceleration=mu / a_p ** 2)


# ---------------------------------------------------------------------
# scenario data


@dataclass
class Conjunction:
    """One predicted close approach. dr/dv follow the primary-minus-secondary
    convention so the secondary state is xp - [dr, dv].  All members
    are ECI; the loader has already rotated the file's RTN quantities, in
    the RTN frame of ``xp``."""

    tca: float  # s past t0
    dr: np.ndarray  # km, ECI
    dv: np.ndarray  # km/s, ECI
    cov: np.ndarray  # 3x3 or 6x6 combined covariance, km^2 blocks, ECI
    hbr: float  # km, combined hard-body radius
    xp: np.ndarray  # the primary's ballistic ECI state at tca [km, km/s]


@dataclass
class Scenario:
    mu: float
    dynamics: Dynamics
    x_primary: np.ndarray  # ECI state at state_epoch [km, km/s]
    state_epoch: float  # s past t0
    u_max: float  # km/s^2
    horizon: tuple  # (t0, tf) in s past t0
    short_term: bool
    long_term: bool
    n_mix: int
    conjunctions: list
    name: str = ""

    @property
    def sma(self) -> float:
        r, v = self.x_primary[:3], self.x_primary[3:]
        energy = 0.5 * v @ v - self.mu / np.linalg.norm(r)
        return -self.mu / (2.0 * energy)

    def scaling(self) -> Scaling:
        return Scaling.from_sma(self.sma, self.mu)

    def primary_at(self, t: float) -> np.ndarray:
        """Primary ballistic state at epoch t [s past t0]."""
        return flow(self.x_primary, self.state_epoch, t, np.zeros(3),
                    self.dynamics)


@dataclass
class Config:
    """What the operator chooses for a solve: the refinement mode of the
    risk constraints and the total probability budget.  The solver's
    tuning values are constants of :mod:`camopt.scp` and
    :mod:`camopt.socp`."""

    total_limit: float = 1e-6
    refine_mode: str = "smd"  # {"smd", "tpoc"}

    def validated(self) -> "Config":
        if self.total_limit <= 0:
            raise ScenarioFormatError("config.total_limit must be positive")
        if self.refine_mode not in ("smd", "tpoc"):
            raise ScenarioFormatError("refine_mode must be 'smd' or 'tpoc'")
        return self


# ---------------------------------------------------------------------
# JSON loading


def _typed(val, typ) -> bool:
    """isinstance, except that true and false are only booleans and a
    number must be finite as a float."""
    if isinstance(val, bool):
        return typ is bool
    if typ is _NUMBER:
        return isinstance(val, _NUMBER) and abs(val) <= sys.float_info.max
    return isinstance(val, typ)


def _get(obj, key, path, typ=None):
    if key not in obj:
        raise ScenarioFormatError(f"missing field {path}.{key}")
    val = obj[key]
    if typ is not None and not _typed(val, typ):
        raise ScenarioFormatError(f"field {path}.{key} has wrong type")
    return val


def _opt(obj, key, path, typ, default):
    return _get(obj, key, path, typ) if key in obj else default


def _vector(obj, key, path, n):
    v = _get(obj, key, path, list)
    if len(v) != n or not all(_typed(x, _NUMBER) for x in v):
        raise ScenarioFormatError(f"field {path}.{key} must be {n} numbers")
    return np.array(v, float)


def _covariance(entry, path):
    """Triangular RTN entries to a symmetric matrix; the off-diagonal values
    fill the upper triangle row by row.  The velocity block (diagonal entries
    only) is optional.  Tiny negative eigenvalues from rounded inputs are
    clipped to zero; anything worse is rejected."""
    vals = {k: _get(entry, k, path, _NUMBER) for k in _POS_KEYS}
    P = np.array([
        [vals["P_rr"], vals["P_rt"], vals["P_tn"]],
        [vals["P_rt"], vals["P_tt"], vals["P_nr"]],
        [vals["P_tn"], vals["P_nr"], vals["P_nn"]],
    ])
    if any(k in entry for k in _VEL_KEYS):
        full = np.zeros((6, 6))
        full[:3, :3] = P
        for j, k in enumerate(_VEL_KEYS):
            full[3 + j, 3 + j] = _get(entry, k, path, _NUMBER)
        P = full
    evals, vecs = np.linalg.eigh(P)
    scale = max(1e-300, np.max(np.abs(evals)))
    if evals[0] < -1e-6 * scale:
        raise ScenarioFormatError(f"covariance at {path} is not PSD")
    if evals[0] < 0.0:
        P = (vecs * np.clip(evals, 0.0, None)) @ vecs.T
    return P


def _primary_state(prim, mu):
    if "state" in prim:
        st = _get(prim, "state", "primary", dict)
        return np.concatenate([_vector(st, "r_km", "primary.state", 3),
                               _vector(st, "v_km_s", "primary.state", 3)])
    if "elements" in prim:
        el = _get(prim, "elements", "primary", dict)
        path = "primary.elements"
        a, e = _get(el, "a_km", path, _NUMBER), _get(el, "e", path, _NUMBER)
        if a <= 0 or not 0 <= e < 1:
            raise ScenarioFormatError(f"{path} must be an ellipse: a_km > 0, "
                                      "0 <= e < 1")
        return elements_to_state(
            a, e, math.radians(_get(el, "i_deg", path, _NUMBER)),
            math.radians(_opt(el, "raan_deg", path, _NUMBER, 0.0)),
            math.radians(_opt(el, "argp_deg", path, _NUMBER, 0.0)),
            math.radians(_opt(el, "nu_deg", path, _NUMBER, 0.0)), mu)
    raise ScenarioFormatError("primary needs either 'state' or 'elements'")


def load_scenario(path) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ScenarioFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError("a scenario must be a JSON object")

    if doc.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
        raise ScenarioFormatError("unsupported schema version")
    mu = float(_opt(doc, "mu_km3_s2", "$", _NUMBER, GM_EARTH))
    if mu <= 0:
        raise ScenarioFormatError("mu_km3_s2 must be positive")
    dyn_name = doc.get("dynamics", "two_body")
    if dyn_name == "two_body":
        dynamics = Dynamics.two_body(mu)
    elif dyn_name == "j2":
        dynamics = Dynamics.two_body_j2(mu)
    else:
        raise ScenarioFormatError(f"unknown dynamics model {dyn_name!r}")

    prim = _get(doc, "primary", "$", dict)
    x_p = _primary_state(prim, mu)
    u_max = _get(prim, "u_max_mm_s2", "primary", _NUMBER) * 1e-6  # km/s^2
    # accepted, type-checked and unused
    _opt(prim, "mass_kg", "primary", _NUMBER, 0.0)
    horizon = _vector(doc, "horizon_s", "$", 2)
    state_epoch = float(_opt(prim, "state_epoch_s", "primary", _NUMBER,
                             horizon[0]))

    mode = _opt(doc, "mode", "$", dict, {})
    short_term = _opt(mode, "short_term", "mode", bool, True)
    long_term = _opt(mode, "long_term", "mode", bool, False)
    n_mix = _opt(mode, "n_mix", "mode", int, 1)
    if n_mix < 1 or n_mix % 2 == 0:
        raise ScenarioFormatError("mode.n_mix must be odd and positive")

    raw = []
    for idx, entry in enumerate(_opt(doc, "conjunctions", "$", list, [])):
        path = f"conjunctions[{idx}]"
        if not isinstance(entry, dict):
            raise ScenarioFormatError(f"{path} must be an object")
        tca = _get(entry, "tca_s", path, _NUMBER)
        if not horizon[0] <= tca <= horizon[1]:
            raise ScenarioFormatError(f"{path}.tca_s outside horizon")
        dr = _vector(entry, "dr_m", path, 3) * 1e-3
        dv = _vector(entry, "dv_km_s", path, 3)
        cov = _covariance(_get(entry, "cov_rtn_km2", path, dict),
                          f"{path}.cov_rtn_km2")
        hbr = _get(entry, "hbr_m", path, _NUMBER) * 1e-3
        if hbr <= 0:
            raise ScenarioFormatError(f"{path}.hbr_m must be positive")
        raw.append((idx, float(tca), dr, dv, cov, float(hbr)))

    # rotate each record from the primary's RTN at its TCA into ECI,
    # propagating the primary once through the sorted TCAs; each record
    # keeps the primary's state at its TCA
    conjunctions = [None] * len(raw)
    x_cur, t_cur = x_p, state_epoch
    for idx, tca, dr, dv, cov, hbr in sorted(raw, key=lambda r: r[1]):
        x_cur = flow(x_cur, t_cur, tca, np.zeros(3), dynamics)
        t_cur = tca
        M = rtn_matrix(x_cur)
        conjunctions[idx] = Conjunction(
            tca=tca, dr=M @ dr, dv=M @ dv, cov=rotate_cov(cov, x_cur),
            hbr=hbr, xp=x_cur)

    return Scenario(mu=mu, dynamics=dynamics, x_primary=x_p,
                    state_epoch=state_epoch, u_max=u_max,
                    horizon=(float(horizon[0]), float(horizon[1])),
                    short_term=short_term, long_term=long_term, n_mix=n_mix,
                    conjunctions=conjunctions,
                    name=_opt(doc, "name", "$", str, ""))


def scaled_dynamics(scenario: Scenario) -> Dynamics:
    """Dynamics in canonical units (mu = 1, lengths in primary sma)."""
    sc = scenario.scaling()
    return replace(scenario.dynamics, mu=1.0,
                   r_ref=scenario.dynamics.r_ref / sc.length)
