import copy
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camopt import CamoptError
from camopt.astro import GM_EARTH, flow
from camopt.scenario import (
    Config,
    Scaling,
    Scenario,
    ScenarioFormatError,
    elements_to_state,
    load_scenario,
    rotate_cov,
    rtn_matrix,
    scaled_dynamics,
)

SCENARIOS = "scenarios"


def write_doc(tmp_path, doc):
    p = tmp_path / "sc.json"
    p.write_text(json.dumps(doc))
    return p


def minimal_doc(**over):
    doc = {
        "schema": 1,
        "dynamics": "two_body",
        "primary": {
            "elements": {"a_km": 7000.0, "e": 0.0, "i_deg": 10.0},
            "u_max_mm_s2": 1.0,
        },
        "horizon_s": [0.0, 6000.0],
        "conjunctions": [
            {"tca_s": 3000.0,
             "dr_m": [10.0, 20.0, -5.0],
             "dv_km_s": [0.1, -7.0, 7.0],
             "cov_rtn_km2": {"P_rr": 1e-4, "P_tt": 4e-4, "P_nn": 1e-4,
                             "P_rt": 0.0, "P_tn": 0.0, "P_nr": 0.0},
             "hbr_m": 5.0},
        ],
    }
    doc.update(over)
    return doc


class TestFrames:
    def setup_method(self):
        self.x = elements_to_state(7000.0, 0.1, 0.5, 0.3, 0.2, 1.1)

    def test_rtn_matrix_orthonormal(self):
        M = rtn_matrix(self.x)
        assert np.allclose(M.T @ M, np.eye(3), atol=1e-14)
        assert np.linalg.det(M) == pytest.approx(1.0, abs=1e-13)

    def test_radial_axis(self):
        M = rtn_matrix(self.x)
        rhat = self.x[:3] / np.linalg.norm(self.x[:3])
        assert np.allclose(M[:, 0], rhat, atol=1e-14)

    def test_normal_axis_along_momentum(self):
        M = rtn_matrix(self.x)
        h = np.cross(self.x[:3], self.x[3:])
        assert np.allclose(M[:, 2], h / np.linalg.norm(h), atol=1e-14)

    def test_round_trip(self):
        v = np.array([1.0, -2.0, 0.5])
        M = rtn_matrix(self.x)
        assert np.allclose(M.T @ (M @ v), v, atol=1e-14)

    def test_stacked_states_give_each_states_frame_bit_for_bit(self):
        def one(state):  # the frame of one state, built column by column
            r, v = state[:3], state[3:]
            rhat = r / np.linalg.norm(r)
            h = np.cross(r, v)
            nhat = h / np.linalg.norm(h)
            return np.column_stack([rhat, np.cross(nhat, rhat), nhat])

        rng = np.random.default_rng(5)
        X = self.x + rng.standard_normal((40, 6)) * [50, 50, 50, .1, .1, .1]
        U = rng.standard_normal((40, 3))
        M = rtn_matrix(X)
        assert M.shape == (40, 3, 3)
        assert all(np.array_equal(M[i], one(x)) for i, x in enumerate(X))
        # the stacked products maneuver.csv takes, against one at a time
        dv = np.matmul(M.transpose(0, 2, 1), U[:, :, None])[:, :, 0]
        assert np.array_equal(dv, [one(x).T @ u for x, u in zip(X, U)])

    def test_rotate_cov_preserves_eigenvalues(self):
        P = np.diag([1.0, 4.0, 9.0])
        Q = rotate_cov(P, self.x)
        assert np.allclose(np.sort(np.linalg.eigvalsh(Q)), [1, 4, 9],
                           atol=1e-12)

    def test_rotate_cov_6x6_blocks(self):
        P = np.diag([1.0, 4.0, 9.0, 0.1, 0.2, 0.3])
        Q = rotate_cov(P, self.x)
        assert Q.shape == (6, 6)
        assert np.allclose(Q[:3, 3:], 0.0, atol=1e-13)


class TestElements:
    def test_circular_equatorial(self):
        x = elements_to_state(7000.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        v = math.sqrt(GM_EARTH / 7000.0)
        assert np.allclose(x, [7000, 0, 0, 0, v, 0], atol=1e-10)

    def test_energy_matches_sma(self):
        a = 8000.0
        x = elements_to_state(a, 0.3, 0.7, 1.0, 2.0, 0.5)
        en = 0.5 * x[3:] @ x[3:] - GM_EARTH / np.linalg.norm(x[:3])
        assert -GM_EARTH / (2 * en) == pytest.approx(a, rel=1e-12)

    def test_apsis_radii(self):
        a, e = 8000.0, 0.2
        rp = np.linalg.norm(elements_to_state(a, e, 0.4, 0, 0, 0.0)[:3])
        ra = np.linalg.norm(elements_to_state(a, e, 0.4, 0, 0, math.pi)[:3])
        assert rp == pytest.approx(a * (1 - e), rel=1e-12)
        assert ra == pytest.approx(a * (1 + e), rel=1e-12)


class TestScaling:
    def test_canonical_units(self):
        sc = Scaling.from_sma(7000.0)
        assert 7000.0 / sc.length == pytest.approx(1.0)
        v = math.sqrt(GM_EARTH / 7000.0)
        assert v / sc.velocity == pytest.approx(1.0)
        T = 2 * math.pi * math.sqrt(7000.0 ** 3 / GM_EARTH)
        assert T / sc.time == pytest.approx(2 * math.pi)

    def test_consistency(self):
        sc = Scaling.from_sma(6928.0)
        assert sc.velocity * sc.time == pytest.approx(sc.length, rel=1e-14)
        assert sc.acceleration * sc.time == pytest.approx(sc.velocity,
                                                          rel=1e-14)

    def test_nonpositive_sma(self):
        with pytest.raises(ScenarioFormatError):
            Scaling.from_sma(-1.0)


class TestLoader:
    def test_minimal_loads(self, tmp_path):
        sc = load_scenario(write_doc(tmp_path, minimal_doc()))
        assert sc.sma == pytest.approx(7000.0, rel=1e-12)
        assert len(sc.conjunctions) == 1
        assert sc.u_max == pytest.approx(1e-6)

    def test_relative_state_rotated_to_eci(self, tmp_path):
        sc = load_scenario(write_doc(tmp_path, minimal_doc()))
        c = sc.conjunctions[0]
        xp = sc.primary_at(c.tca)
        # norms survive the frame change; components match an RTN rotation
        assert np.linalg.norm(c.dr) == pytest.approx(
            np.linalg.norm([10.0, 20.0, -5.0]) * 1e-3, rel=1e-12)
        assert np.allclose(rtn_matrix(xp).T @ c.dr * 1e3, [10.0, 20.0, -5.0],
                           atol=1e-9)

    def test_covariance_rotated_to_eci(self, tmp_path):
        sc = load_scenario(write_doc(tmp_path, minimal_doc()))
        c = sc.conjunctions[0]
        assert np.allclose(np.sort(np.linalg.eigvalsh(c.cov)),
                           [1e-4, 1e-4, 4e-4], rtol=1e-12)

    def test_secondary_state_convention(self, tmp_path):
        sc = load_scenario(write_doc(tmp_path, minimal_doc()))
        c = sc.conjunctions[0]
        xp = sc.primary_at(c.tca)
        xs = xp - np.concatenate([c.dr, c.dv])
        # dv is the primary's velocity minus the secondary's, stored in ECI
        # and read back in the primary's RTN frame at TCA
        assert np.allclose(rtn_matrix(xp).T @ (xp[3:] - xs[3:]),
                           [0.1, -7.0, 7.0], atol=1e-12)

    def test_off_diagonal_order_row_major(self, tmp_path):
        doc = minimal_doc()
        doc["conjunctions"][0]["cov_rtn_km2"] = {
            "P_rr": 4e-4, "P_tt": 9e-4, "P_nn": 1e-4,
            "P_rt": 1e-5, "P_tn": 2e-5, "P_nr": 3e-5}
        sc = load_scenario(write_doc(tmp_path, doc))
        c = sc.conjunctions[0]
        xp = sc.primary_at(c.tca)
        M = rtn_matrix(xp)
        P = M.T @ c.cov @ M
        assert P[0, 1] == pytest.approx(1e-5, rel=1e-10)
        assert P[0, 2] == pytest.approx(2e-5, rel=1e-10)
        assert P[1, 2] == pytest.approx(3e-5, rel=1e-10)

    def test_near_singular_covariance_repaired(self, tmp_path):
        # rank deficient up to rounding: clip, do not reject
        doc = minimal_doc()
        doc["conjunctions"][0]["cov_rtn_km2"] = {
            "P_rr": 1.0, "P_tt": 1.0, "P_nn": 1.0,
            "P_rt": 1.0000001, "P_tn": 0.0, "P_nr": 0.0}
        sc = load_scenario(write_doc(tmp_path, doc))
        assert np.min(np.linalg.eigvalsh(sc.conjunctions[0].cov)) >= 0.0

    def test_indefinite_covariance_rejected(self, tmp_path):
        doc = minimal_doc()
        doc["conjunctions"][0]["cov_rtn_km2"]["P_rt"] = 1.0
        with pytest.raises(ScenarioFormatError, match="not PSD"):
            load_scenario(write_doc(tmp_path, doc))

    def test_missing_field_path_in_message(self, tmp_path):
        doc = minimal_doc()
        del doc["conjunctions"][0]["hbr_m"]
        with pytest.raises(ScenarioFormatError, match=r"conjunctions\[0\]"):
            load_scenario(write_doc(tmp_path, doc))

    def test_tca_outside_horizon(self, tmp_path):
        doc = minimal_doc()
        doc["conjunctions"][0]["tca_s"] = 9000.0
        with pytest.raises(ScenarioFormatError, match="horizon"):
            load_scenario(write_doc(tmp_path, doc))

    def test_even_mixture_rejected(self, tmp_path):
        doc = minimal_doc(mode={"short_term": True, "long_term": False,
                                "n_mix": 2})
        with pytest.raises(ScenarioFormatError, match="n_mix"):
            load_scenario(write_doc(tmp_path, doc))

    def test_bad_dynamics_name(self, tmp_path):
        with pytest.raises(ScenarioFormatError, match="dynamics"):
            load_scenario(write_doc(tmp_path, minimal_doc(dynamics="drag")))

    # each edit changes the document in place or returns a replacement
    @pytest.mark.parametrize("edit", [
        lambda d: [d],
        lambda d: d.update(mu_km3_s2="abc"),
        lambda d: d.update(mode={"n_mix": "x"}),
        lambda d: d.update(mode=[1]),
        lambda d: d["primary"].update(state_epoch_s="z"),
        lambda d: d["primary"]["elements"].update(raan_deg="r"),
        lambda d: d["primary"]["elements"].update(argp_deg=None),
        lambda d: d["primary"]["elements"].update(nu_deg=[0.0]),
        lambda d: d.update(conjunctions=[7]),
        lambda d: d["primary"]["elements"].update(e=1.5),
        lambda d: d["primary"]["elements"].update(a_km=-7000.0),
        lambda d: d["primary"]["elements"].update(a_km=True),
        lambda d: d.update(mode={"n_mix": True}),
        lambda d: d["conjunctions"][0]["dr_m"].__setitem__(0, math.inf),
        lambda d: d["primary"].update(u_max_mm_s2=10 ** 400),
        lambda d: d["primary"].update(mass_kg="heavy"),
    ], ids=["top_level_array", "mu", "n_mix", "mode", "state_epoch", "raan",
            "argp", "nu", "conjunction", "hyperbolic", "negative_sma",
            "boolean_sma", "boolean_n_mix", "infinite_miss", "huge_int",
            "mass"])
    def test_bad_field_rejected(self, tmp_path, edit):
        doc = minimal_doc()
        doc = edit(doc) or doc
        with pytest.raises(ScenarioFormatError):
            load_scenario(write_doc(tmp_path, doc))

    def test_empty_conjunction_list_ok(self, tmp_path):
        sc = load_scenario(write_doc(tmp_path, minimal_doc(conjunctions=[])))
        assert sc.conjunctions == []

    def test_scaled_dynamics_unit_mu(self, tmp_path):
        sc = load_scenario(write_doc(tmp_path, minimal_doc()))
        dyn = scaled_dynamics(sc)
        assert dyn.mu == 1.0


class TestBundledScenarios:
    @pytest.mark.parametrize("name", ["case1", "case2", "case3"])
    def test_loads(self, name):
        sc = load_scenario(f"{SCENARIOS}/{name}.json")
        assert sc.conjunctions

    def test_case1_shape(self):
        sc = load_scenario(f"{SCENARIOS}/case1.json")
        assert len(sc.conjunctions) == 10
        tcas = [c.tca for c in sc.conjunctions]
        assert tcas == sorted(tcas)
        assert sc.horizon[1] == tcas[-1]

    def test_case1_keeps_the_primary_at_each_tca(self):
        # the loader's one pass through the sorted TCAs gives each record
        # the primary's state there, the state whose RTN frame rotated it
        sc = load_scenario(f"{SCENARIOS}/case1.json")
        with open(f"{SCENARIOS}/case1.json") as fh:
            entries = json.load(fh)["conjunctions"]
        for c, entry in zip(sc.conjunctions, entries):
            xp = sc.primary_at(c.tca)
            assert np.max(np.abs(c.xp[:3] - xp[:3])) <= 1e-7
            assert np.max(np.abs(c.xp[3:] - xp[3:])) <= 1e-10
            dr = np.array(entry["dr_m"]) * 1e-3
            assert np.max(np.abs(rtn_matrix(c.xp).T @ c.dr - dr)) \
                <= 1e-12 * np.linalg.norm(dr)

    def test_case2_repeating_encounter(self):
        # the secondary comes back after six primary orbits with the
        # same small miss distance
        sc = load_scenario(f"{SCENARIOS}/case2.json")
        c = sc.conjunctions[0]
        xs = sc.primary_at(c.tca) - np.concatenate([c.dr, c.dv])
        T = 2.0 * math.pi * sc.scaling().time
        xp6 = sc.primary_at(c.tca + 6 * T)
        xs6 = flow(xs, c.tca, c.tca + 6 * T, np.zeros(3), sc.dynamics)
        assert np.linalg.norm(xp6[:3] - xs6[:3]) < 0.050
        assert np.linalg.norm(c.dr) == pytest.approx(0.020, rel=1e-9)

    def test_case3_recurring_encounters(self):
        # radial/normal relative motion is periodic orbit over orbit while
        # the along-track component drifts by a constant amount, so close
        # approaches recur once per primary orbit
        sc = load_scenario(f"{SCENARIOS}/case3.json")
        c = sc.conjunctions[0]
        xp = sc.primary_at(c.tca)
        xs = xp - np.concatenate([c.dr, c.dv])

        def rel_rtn(t):
            a = flow(xp, c.tca, t, np.zeros(3), sc.dynamics)
            b = flow(xs, c.tca, t, np.zeros(3), sc.dynamics)
            return rtn_matrix(a).T @ (a[:3] - b[:3])

        T = 2.0 * math.pi * sc.scaling().time
        drifts = []
        for phase in (0.0, 0.3, 0.6):
            rows = [rel_rtn(phase * T + k * T) for k in range(3)]
            for k in (1, 2):
                assert abs(rows[k][0] - rows[0][0]) < 1.0  # radial
                assert abs(rows[k][2] - rows[0][2]) < 1.0  # normal
                drifts.append(rows[k][1] - rows[k - 1][1])
        assert np.ptp(drifts) < 1.0  # uniform along-track drift rate


class TestConfig:
    def test_defaults_valid(self):
        Config().validated()

    def test_bad_refine_mode(self):
        with pytest.raises(ScenarioFormatError):
            Config(refine_mode="exact").validated()

    def test_nonpositive_limit(self):
        with pytest.raises(ScenarioFormatError):
            Config(total_limit=0.0).validated()


# ---------------------------------------------------------------------
# fuzzing the loader with mutated bundled scenarios


def _bundled_docs():
    docs = []
    for name in ("case1", "case2", "case3"):
        with open(f"{SCENARIOS}/{name}.json") as fh:
            doc = json.load(fh)
        # case1's ten conjunctions span 16 hours of J2 propagation; two
        # carry every field at a fraction of the load time
        doc["conjunctions"] = doc["conjunctions"][:2]
        docs.append(doc)
    return docs


_DOCS = _bundled_docs()


def _locations(node, prefix=()):
    """Path of every value inside a JSON document."""
    keys = node.keys() if isinstance(node, dict) else range(len(node))
    out = []
    for k in keys:
        out.append(prefix + (k,))
        if isinstance(node[k], (dict, list)):
            out.extend(_locations(node[k], prefix + (k,)))
    return out


def _mutate(value, kind, other):
    """One mutation of a JSON value."""
    if kind == "retype":
        return other
    if kind == "negate":
        return -value if isinstance(value, (int, float)) and \
            not isinstance(value, bool) else other
    if kind == "nest_list":
        return [value]
    return {"value": value}


@st.composite
def mutated_docs(draw, docs=_DOCS):
    """One to three mutations of a copy of one of ``docs``."""
    doc = copy.deepcopy(draw(st.sampled_from(docs)))
    for _ in range(draw(st.integers(1, 3))):
        locations = _locations(doc)
        if not locations:
            break
        *parent_path, key = draw(st.sampled_from(locations))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        kind = draw(st.sampled_from(
            ["delete", "retype", "negate", "nest_list", "nest_dict"]))
        other = draw(st.sampled_from(
            [None, True, False, "x", "", [], {}, [1.0, 2.0], {"a": 1},
             math.nan, math.inf, 10 ** 400]))
        if kind == "delete":
            del parent[key]
        else:
            parent[key] = _mutate(parent[key], kind, other)
    return doc


class TestLoaderFuzz:
    @settings(max_examples=200, deadline=None)
    @given(doc=mutated_docs())
    def test_loads_or_fails_cleanly(self, tmp_path_factory, doc):
        path = tmp_path_factory.mktemp("fuzz") / "sc.json"
        path.write_text(json.dumps(doc))
        try:
            sc = load_scenario(path)
        except CamoptError:
            return
        assert isinstance(sc, Scenario)
