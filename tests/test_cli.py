import contextlib
import csv
import importlib
import io
import json
import math
import os
import pkgutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import camopt
from camopt import cli, scp, selftest
from camopt.scenario import Scenario, load_scenario
from test_scenario import mutated_docs

CASE1 = "scenarios/case1.json"
CASE2 = "scenarios/case2.json"
SRC = str(Path(cli.__file__).resolve().parents[1])


def _one_cdm_doc():
    # the ten-CDM fixture's first conjunction with 1500 s of warning and
    # 2.5 times its thrust: one channel, no limit adaptation
    doc = json.load(open(CASE1))
    doc["conjunctions"] = doc["conjunctions"][:1]
    doc["horizon_s"] = [4143.0, doc["conjunctions"][0]["tca_s"]]
    doc["primary"]["u_max_mm_s2"] *= 2.5
    return doc


ONE_CDM = _one_cdm_doc()


@pytest.fixture(scope="module")
def late_start_file(tmp_path_factory):
    # the ten-CDM fixture's first conjunction with 1500 s of warning at its
    # own thrust: too little to reach the TPoC budget
    doc = json.load(open(CASE1))
    doc["conjunctions"] = doc["conjunctions"][:1]
    doc["horizon_s"] = [4143.0, doc["conjunctions"][0]["tca_s"]]
    path = tmp_path_factory.mktemp("scn") / "late_start.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def late_start_two_file(tmp_path_factory):
    # the ten-CDM fixture's first two conjunctions from 4143 s: at full
    # thrust the maneuver reaches at most 30 mm/s before the first TCA,
    # too little for the TPoC budget
    doc = json.load(open(CASE1))
    doc["conjunctions"] = doc["conjunctions"][:2]
    doc["horizon_s"] = [4143, 7460]
    path = tmp_path_factory.mktemp("scn") / "late_start_two.json"
    path.write_text(json.dumps(doc))
    return str(path)


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
def one_cdm_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("scn") / "one_cdm.json"
    path.write_text(json.dumps(ONE_CDM))
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
        # nothing earlier to start from
        assert log[0]["cone_solves"][0]["start"] == "cold"
        for rec in log:
            solves = rec["cone_solves"]
            assert len(solves) == rec["minors"]
            assert sum(cs["iterations"] for cs in solves) == rec["ipm_iters"]
            for cs in solves:
                assert set(cs) == {"status", "start", "iterations", "pres",
                                   "dres", "gap", "kkt_dim", "kkt_band"}
                assert cs["start"] in ("cold", "warm")
                assert isinstance(cs["kkt_dim"], int) and cs["kkt_dim"] > 0
                # the smd stage has no row that couples distant nodes
                assert 0 < cs["kkt_band"] <= 28
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

    @pytest.mark.parametrize("field, mutate", [
        ("times_s", lambda d: d["times_s"].__setitem__(1, "abc")),
        ("states_km", lambda d: d["states_km"].pop()),
        ("controls_km_s2", lambda d: d["controls_km_s2"].pop()),
        ("controls_km_s2", lambda d: d["controls_km_s2"][0].pop()),
        ("times_s", lambda d: d["times_s"].clear()),
        ("e_validation_mm", lambda d: d.__setitem__("e_validation_mm", None)),
        ("e_validation_mm", lambda d: d.__setitem__("e_validation_mm", "x")),
        ("dv_mm_s", lambda d: d.__setitem__("dv_mm_s", None)),
        ("dv_mm_s", lambda d: d.__setitem__("dv_mm_s", "x")),
        ("missing field states_km", lambda d: d.pop("states_km")),
        # a string is the whole document
        ("a solution must be a JSON object", "[]"),
        ("invalid JSON: Expecting property name", "{bad"),
    ], ids=["non_numeric_time", "short_states", "short_controls",
            "ragged_control", "empty_times", "null_e_validation",
            "string_e_validation", "null_dv", "string_dv", "missing_states",
            "not_an_object", "invalid_json"])
    def test_malformed_solution_fails_cleanly(self, two_cdm_file, solved_dir,
                                              tmp_path, capsys, field, mutate):
        path = tmp_path / "summary.json"
        if isinstance(mutate, str):
            path.write_text(mutate)
        else:
            doc = json.load(open(solved_dir / "summary.json"))
            mutate(doc)
            path.write_text(json.dumps(doc))
        assert cli.main(["validate", two_cdm_file, str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err


class TestRisk:
    def test_report_matches_summary(self, two_cdm_file, solved_dir, capsys):
        code = cli.main(["risk", two_cdm_file])
        assert code == 0
        out = capsys.readouterr().out
        tpoc = float(out.split("TPoC (ballistic)")[1].split()[0])
        doc = json.load(open(solved_dir / "summary.json"))
        # the report prints seven significant digits
        assert tpoc == pytest.approx(doc["tpoc_ballistic"], rel=1e-6)


    def test_never_enters_the_optimizer(self, two_cdm_file, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the risk report entered the optimizer")

        for name in ("assemble", "socp_solve", "adapt_limits"):
            monkeypatch.setattr(scp, name, refuse)
        assert cli.main(["risk", two_cdm_file]) == 0

    def test_far_mixand_encounters_report(self, capsys):
        # a mixand's eighth encounter misses by about 1e5 sigma
        assert cli.main(["risk", CASE2]) == 0
        assert "TPoC (ballistic)" in capsys.readouterr().out

    def test_zero_relative_velocity_fails_cleanly(self, tmp_path, capsys):
        doc = json.load(open(CASE2))
        doc["conjunctions"][0]["dv_km_s"] = [0.0, 0.0, 0.0]
        path = tmp_path / "still.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["risk", str(path)]) == 3
        assert capsys.readouterr().err == \
            "error: zero relative velocity, B-plane undefined\n"


class TestBadInput:
    def test_mistyped_field_fails_cleanly(self, tmp_path, capsys):
        doc = json.load(open(CASE1))
        doc["mu_km3_s2"] = "abc"
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["solve", str(path), "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and "mu_km3_s2" in err

    @pytest.mark.parametrize("argv, line", [
        ("solve {empty} --out {tmp}", "error: empty horizon"),
        (f"solve {CASE1} --nmix 3 --out {{tmp}}",
         "error: mixture splitting needs a velocity covariance"),
        (f"split {CASE2} --nmix 2", "error: no split library for n_mix=2"),
    ], ids=["empty_horizon", "position_only_mixture", "no_split_library"])
    def test_failure_prints_one_error_line(self, tmp_path, capsys, argv,
                                           line):
        # the fixture's primary with no conjunctions, on a reversed horizon
        doc = json.load(open(CASE1))
        doc["conjunctions"], doc["horizon_s"] = [], [100.0, 0.0]
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps(doc))
        argv = argv.format(empty=empty, tmp=tmp_path / "out").split()
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == line + "\n"


class TestErrorClasses:
    def test_one_class_reported_and_two_caught(self):
        # CamoptError is every failure the command line reports; its two
        # subclasses are the failures the program catches itself
        modules = [camopt] + [importlib.import_module(f"camopt.{m.name}")
                              for m in pkgutil.iter_modules(camopt.__path__)]
        found = {f"{mod.__name__}.{name}": cls for mod in modules
                 for name, cls in vars(mod).items()
                 if isinstance(cls, type) and issubclass(cls, BaseException)
                 and cls.__module__ == mod.__name__}
        assert sorted(found) == ["camopt.CamoptError",
                                 "camopt.astro.DegenerateEncounterError",
                                 "camopt.socp.SolverError"]
        assert all(issubclass(cls, camopt.CamoptError)
                   for cls in found.values())


class TestUnreachableBudget:
    def test_fails_without_numeric_warnings(self, late_start_file, tmp_path,
                                            capsys):
        # the NT scaling of its cone solves used to overflow and feed NaNs
        # into the cone algebra before the solve gave up
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(["solve", late_start_file, "--mode", "tpoc",
                             "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: conic subproblem ended infeasible at major 1")

    def test_smd_stage_fails_instead_of_converging(self, late_start_two_file,
                                                   tmp_path, capsys):
        # no feasible subproblem reaches the budget, so the solve must not
        # report a maneuver 142 times over it as converged
        code = cli.main(["solve", late_start_two_file, "--mode", "smd",
                         "--out", str(tmp_path)])
        assert code == 3
        assert capsys.readouterr().err.startswith(
            "error: conic subproblem ended infeasible at major 1")
        assert not (tmp_path / "summary.json").exists()


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

    def test_primary_not_flown_again(self, monkeypatch, capsys):
        # each conjunction already holds the primary's state at its TCA
        calls, real = [], Scenario.primary_at
        monkeypatch.setattr(Scenario, "primary_at",
                            lambda *a: calls.append(a) or real(*a))
        assert cli.main(["split", CASE2, "--nmix", "3"]) == 0
        assert calls == []

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
        assert len(lines) == len(selftest.SUITES)
        assert all(line.startswith("pass  ") for line in lines)


def _scipy_loaded(code, *args):
    """scipy modules loaded once ``code`` has run in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(*sorted(m for m in sys.modules "
                "if m.startswith('scipy.')))", *args],
        capture_output=True, text=True, timeout=120, check=True,
        env={**os.environ, "PYTHONPATH": SRC})
    return set(out.stdout.splitlines()[-1].split())


class TestImportBudget:
    """Every ``camopt`` process pays for what the command line imports."""

    def test_load_imports_no_oracle_packages(self):
        loaded = _scipy_loaded(
            "import sys, camopt.cli\ncamopt.cli.load_scenario(sys.argv[1])",
            CASE2)
        assert "scipy.sparse" in loaded
        assert not loaded & {"scipy.optimize", "scipy.stats",
                             "scipy.integrate"}
        # the KKT band layout imports it on the first cone solve
        assert "scipy.sparse.csgraph" not in loaded

    def test_one_channel_solve_never_imports_optimize(self, one_cdm_file,
                                                      tmp_path):
        loaded = _scipy_loaded(
            "import sys, camopt.cli\n"
            "assert camopt.cli.main(['solve', sys.argv[1], '--mode', 'tpoc',"
            " '--out', sys.argv[2]]) == 0", one_cdm_file, str(tmp_path))
        assert "scipy.optimize" not in loaded


class TestSolveFuzz:
    @settings(max_examples=25, deadline=None)
    @given(doc=mutated_docs([ONE_CDM]))
    def test_solves_or_fails_cleanly(self, tmp_path_factory, doc):
        tmp = tmp_path_factory.mktemp("fuzz")
        path = tmp / "sc.json"
        path.write_text(json.dumps(doc))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["solve", str(path), "--out", str(tmp / "out")])
        assert code in (0, 2, 3)
