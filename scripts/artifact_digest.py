"""Print one sha256 per solve artifact and per risk report of the
benchmark's scenario variants.

For every seed, every variant of every workload in
``perfbench/workloads.py`` is solved through ``camopt solve`` in its
workload's mode and reported through ``camopt risk``.  Each output line is

    <workload> seed<N> v<k> <artifact> <exit code> <sha256>

with one line per ``summary.json``, ``maneuver.csv``, ``bplane.csv`` and
``tipoc.csv`` the solve writes, and one for the standard output of the risk
report.  Two checkouts that print the same lines compute the same answers
bit for bit.  A ``summary.json`` line goes on with the numbers behind its
solve,

    status=<s> dv_mm_s=<f> tpoc_final=<f> majors=<n> minors=<n> ipm=<n>
    e_validation_mm=<f>

(floats at full precision; minors and IPM iterations summed over the
majors), so answers that moved in the last bits can be compared against
tolerances from one run.  camopt is imported from this checkout's ``src``.

Run from the repository root:
    python3 scripts/artifact_digest.py --seeds 0 1
"""

from __future__ import annotations

import os

# one BLAS thread, as in the benchmark, so the answers cannot depend on
# how a threaded BLAS splits its sums
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from camopt import cli  # noqa: E402
import workloads  # noqa: E402

ARTIFACTS = ("summary.json", "maneuver.csv", "bplane.csv", "tipoc.csv")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _quiet(argv):
    """Exit code and standard output of one ``camopt`` call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def numbers(summary: dict) -> str:
    """The solve's status, cost, risk and iteration counts as one field
    list."""
    log = summary["iteration_log"]
    return (f"status={summary['status']} dv_mm_s={summary['dv_mm_s']!r} "
            f"tpoc_final={summary['tpoc_final']!r} "
            f"majors={summary['iterations']} "
            f"minors={sum(rec['minors'] for rec in log)} "
            f"ipm={sum(rec['ipm_iters'] for rec in log)} "
            f"e_validation_mm={summary['e_validation_mm']!r}")


def digests(name: str, seed: int, work: Path):
    """(label, exit code, sha256) of every artifact and risk report of one
    workload's variants for ``seed``, the ``summary.json`` sha256 followed
    by its numbers; ``work`` is an empty directory."""
    mode = workloads.WORKLOADS[name]["mode"]
    for k, doc in enumerate(workloads.scenario_pool(name, seed)):
        label = f"{name} seed{seed} v{k}"
        # relative paths, so no report names the scratch directory
        scenario, out = f"v{k}.json", f"v{k}"
        (work / scenario).write_text(json.dumps(doc, indent=1) + "\n")
        code, _ = _quiet(["solve", scenario, "--mode", mode, "--out", out])
        for art in ARTIFACTS:
            path = work / out / art
            if path.is_file():
                data = path.read_bytes()
                sha = _sha(data)
                if art == "summary.json":
                    sha += " " + numbers(json.loads(data))
                yield f"{label} {art}", code, sha
        code, report = _quiet(["risk", scenario])
        yield f"{label} risk", code, _sha(report.encode())


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    args = p.parse_args(argv)
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for seed in args.seeds:
                for name in workloads.WORKLOADS:
                    work = Path(tmp) / f"{name}-{seed}"
                    work.mkdir()
                    os.chdir(work)
                    for label, code, sha in digests(name, seed, work):
                        print(label, code, sha, flush=True)
        finally:
            os.chdir(here)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
