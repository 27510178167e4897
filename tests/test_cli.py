import csv
import json
import math

import numpy as np
import pytest

from camopt import cli
from camopt.scenario import load_scenario

CASE1 = "scenarios/case1.json"
CASE2 = "scenarios/case2.json"


@pytest.fixture(scope="module")
def two_cdm_file(tmp_path_factory):
    # the first two conjunctions of the ten-CDM fixture, on a shortened
    # horizon, written back out so the CLI can load them
    doc = json.load(open(CASE1))
    doc["conjunctions"] = doc["conjunctions"][:2]
    doc["horizon_s"] = [0.0, 7460.0]
    path = tmp_path_factory.mktemp("scn") / "two_cdm.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def solved_dir(two_cdm_file, tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    code = cli.main(["solve", two_cdm_file, "--out", str(out)])
    assert code == 0
    return out


@pytest.fixture(scope="module")
def empty_scenario(tmp_path_factory):
    doc = json.load(open(CASE1))
    doc["conjunctions"] = []
    path = tmp_path_factory.mktemp("scn") / "empty.json"
    path.write_text(json.dumps(doc))
    return str(path)


def read_maneuver(out_dir):
    rows = list(csv.reader(open(out_dir / "maneuver.csv")))[1:]
    t = np.array([float(r[0]) for r in rows])
    dv = np.array([[float(v) for v in r[1:]] for r in rows])
    return t, dv


class TestSolveArtifacts:
    def test_zero_control_writes_zero_rows(self, empty_scenario, tmp_path):
        code = cli.main(["solve", empty_scenario, "--out", str(tmp_path)])
        assert code == 0
        _, dv = read_maneuver(tmp_path)
        assert np.all(dv == 0.0)
        doc = json.load(open(tmp_path / "summary.json"))
        assert doc["status"] == "ballistic"
        assert doc["dv_mm_s"] == 0.0

    def test_summary_dv_recomputes_from_maneuver_csv(self, solved_dir):
        doc = json.load(open(solved_dir / "summary.json"))
        _, dv = read_maneuver(solved_dir)
        total = float(np.sum(np.linalg.norm(dv, axis=1)))
        assert abs(total - doc["dv_mm_s"]) <= 1e-9

    def test_active_bplane_points_leave_the_circle(self, solved_dir):
        rows = list(csv.reader(open(solved_dir / "bplane.csv")))[1:]
        assert rows
        for r in rows:
            if float(r[7]) >= float(json.load(
                    open(solved_dir / "summary.json"))["total_limit"]):
                continue
            norm = math.hypot(float(r[5]), float(r[6]))
            assert norm >= 1.0 - 1e-6

    def test_iteration_log_counts_ipm_iterations(self, solved_dir):
        log = json.load(open(solved_dir / "summary.json"))["iteration_log"]
        assert log
        for rec in log:
            assert isinstance(rec["ipm_iters"], int)
            assert rec["ipm_iters"] >= rec["minors"]

    def test_iteration_log_lists_cone_solves(self, solved_dir):
        log = json.load(open(solved_dir / "summary.json"))["iteration_log"]
        for rec in log:
            solves = rec["cone_solves"]
            assert len(solves) == rec["minors"]
            assert sum(cs["iterations"] for cs in solves) == rec["ipm_iters"]
            for cs in solves:
                assert set(cs) == {"status", "iterations", "pres", "dres",
                                   "gap"}
                assert cs["status"] == "optimal"
                assert max(cs["pres"], cs["dres"]) <= 1e-9

    def test_iteration_log_traces_the_limits(self, solved_dir):
        doc = json.load(open(solved_dir / "summary.json"))
        for rec in doc["iteration_log"]:
            assert len(rec["limits"]) == len(doc["channels"])
            for lim in rec["limits"]:
                assert set(lim) == {"q_limit", "d2_limit"}
                assert lim["d2_limit"] is None or lim["d2_limit"] >= 0.0
            # the limits split the total budget exactly
            survive = math.prod(1.0 - lim["q_limit"] for lim in rec["limits"])
            assert survive == pytest.approx(1.0 - doc["total_limit"],
                                            abs=1e-10)
        last = doc["iteration_log"][-1]["limits"]
        assert [lim["q_limit"] for lim in last] == \
            [ch["p_limit"] for ch in doc["channels"]]

    def test_summary_round_trips_through_json(self, solved_dir):
        raw = (solved_dir / "summary.json").read_text()
        doc = json.loads(raw)
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_solution_respects_budget(self, solved_dir):
        doc = json.load(open(solved_dir / "summary.json"))
        assert doc["tpoc_final"] <= doc["total_limit"] * 1.05
        assert doc["tpoc_ballistic"] > doc["total_limit"]


class TestValidate:
    def test_validate_reruns_clean(self, two_cdm_file, solved_dir, capsys):
        code = cli.main(["validate", two_cdm_file, str(solved_dir)])
        assert code == 0
        out = capsys.readouterr().out
        e_val = float(out.split()[1])
        assert e_val <= 50.0

    def test_missing_solution_fails(self, two_cdm_file, tmp_path):
        assert cli.main(["validate", two_cdm_file,
                         str(tmp_path / "nope.json")]) == 3


class TestRisk:
    def test_report_matches_summary(self, two_cdm_file, solved_dir, capsys):
        code = cli.main(["risk", two_cdm_file])
        assert code == 0
        out = capsys.readouterr().out
        tpoc = float(out.split("TPoC (ballistic)")[1].split()[0])
        doc = json.load(open(solved_dir / "summary.json"))
        # the report prints seven significant digits
        assert tpoc == pytest.approx(doc["tpoc_ballistic"], rel=1e-6)


    def test_zero_relative_velocity_fails_cleanly(self, tmp_path, capsys):
        doc = json.load(open(CASE2))
        doc["conjunctions"][0]["dv_km_s"] = [0.0, 0.0, 0.0]
        path = tmp_path / "still.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["risk", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestBadInput:
    def test_mistyped_field_fails_cleanly(self, tmp_path, capsys):
        doc = json.load(open(CASE1))
        doc["mu_km3_s2"] = "abc"
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mu_km3_s2" in err


class TestSplit:
    def test_mixture_dump_is_normalized(self, capsys):
        code = cli.main(["split", CASE2, "--nmix", "3"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n_mix"] == 3
        for entry in doc["conjunctions"]:
            w = np.array(entry["weights"])
            assert np.sum(w) == pytest.approx(1.0, abs=1e-12)
            assert len(entry["means"]) == 3

    def test_position_only_covariance_rejected(self, capsys):
        # the ten-CDM fixture carries no velocity block
        assert cli.main(["split", CASE1, "--nmix", "3"]) == 3

    def test_single_component_keeps_a_position_covariance(self, capsys):
        # one component needs no velocity block: it is the input Gaussian
        assert cli.main(["split", CASE1, "--nmix", "1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        scn = load_scenario(CASE1)
        assert len(doc["conjunctions"]) == len(scn.conjunctions)
        for entry, conj in zip(doc["conjunctions"], scn.conjunctions):
            assert entry["weights"] == [1.0]
            assert np.allclose(entry["covs"][0], conj.cov, rtol=1e-14,
                               atol=0.0)


class TestSelftest:
    def test_every_suite_passes(self, capsys):
        assert cli.main(["selftest"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(cli._SUITES)
        assert all(line.startswith("pass  ") for line in lines)
