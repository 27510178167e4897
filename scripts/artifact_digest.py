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
    e_validation_mm=<f> order2=<n> kkt_dim=<n> banded=<n> warm=<n>

(floats at full precision; minors and IPM iterations summed over the
majors; ``order2`` counts the segments flown at order 2 over all majors,
``kkt_dim`` sums the KKT dimension n + p + m over the cone solves,
``banded`` counts the cone solves with a ``kkt_band``, which is all of them
now that every KKT system is factored as a band matrix (the field stays so
that digests of older checkouts still compare), and ``warm`` those that
started from an earlier cone solve's result, those with
``"start": "warm"``), so
answers that moved in the last bits can be compared against tolerances
from one run.  camopt is imported from this checkout's ``src``.

With ``--against OLD.txt`` the lines are also compared with those of an
earlier run.  Per artifact (``summary.json``, ``maneuver.csv``,
``bplane.csv``, ``tipoc.csv`` and ``risk``) one line counts the lines
repeated exactly, followed by every line that differs or that only one run
has.  Per workload one more line reports how many summaries are
byte-identical, the largest relative change of ``dv_mm_s`` and
``tpoc_final``, the largest absolute change of ``e_validation_mm`` in mm
(it sits at the integration-noise level, a few microns or less, where a
relative change says nothing), the majors, minors, IPM iterations, order-2
segments, KKT dimensions, banded and warm cone solves summed on each side
(``?`` where the earlier lines do not have the field), and every solve
whose status or exit code changed.  The exit code is 1 when any line
differs or is missing on either side, so it alone tells whether two
checkouts agree bit for bit.

``--workloads NAME ...`` digests only the named workloads (default: all
of the benchmark's), and ``--against`` then compares only their lines, so a
change that moves one layer can be checked on the workload that exercises
it.  Two more names are not benchmark workloads and are not digested by
default, so digests of older checkouts still compare.  ``criterion2``
digests the two ``tpoc`` solves of acceptance criterion 2 as
``tests/test_acceptance.py`` sets them up, case1's first two conjunctions
over [0, 7460] s (v0) and its first five over [0, 21234] s (v1), the same
two for every seed.  They are the bundled solves whose TPoC polish couples
several conjunction nodes.  ``criterion3`` digests the ``smd`` solve of
acceptance criterion 3, case1 with its ten conjunctions as bundled (v0),
the same for every seed: the bundled solve with the most channels.

Run from the repository root:
    python3 scripts/artifact_digest.py --seeds 0 1 > old.txt
    python3 scripts/artifact_digest.py --seeds 0 1 --against old.txt
    python3 scripts/artifact_digest.py --workloads tpoc-1cdm --against old.txt
    python3 scripts/artifact_digest.py --workloads criterion2 > old2.txt
    python3 scripts/artifact_digest.py --workloads criterion3 > old3.txt
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
# acceptance criterion 2: (conjunctions of case1 kept, horizon end in s)
CRITERION2 = ((2, 7460.0), (5, 21234.0))
KINDS = ARTIFACTS + ("risk",)  # the fourth field of every digest line


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
    solves = [cs for rec in log for cs in rec["cone_solves"]]
    return (f"status={summary['status']} dv_mm_s={summary['dv_mm_s']!r} "
            f"tpoc_final={summary['tpoc_final']!r} "
            f"majors={summary['iterations']} "
            f"minors={sum(rec['minors'] for rec in log)} "
            f"ipm={sum(rec['ipm_iters'] for rec in log)} "
            f"e_validation_mm={summary['e_validation_mm']!r} "
            f"order2={sum(rec['order2_segments'] for rec in log)} "
            f"kkt_dim={sum(cs['kkt_dim'] for cs in solves)} "
            f"banded={sum(cs['kkt_band'] is not None for cs in solves)} "
            f"warm={sum(cs['start'] == 'warm' for cs in solves)}")


def variants(name: str, seed: int):
    """The refine mode and the scenario documents of one workload for
    ``seed``."""
    if name in workloads.WORKLOADS:
        return (workloads.WORKLOADS[name]["mode"],
                workloads.scenario_pool(name, seed))
    case1 = json.loads((ROOT / "scenarios" / "case1.json").read_text())
    if name == "criterion3":
        return "smd", [case1]
    return "tpoc", [{**case1, "conjunctions": case1["conjunctions"][:k],
                     "horizon_s": [0.0, end]} for k, end in CRITERION2]


def digests(name: str, seed: int, work: Path):
    """(label, exit code, sha256) of every artifact and risk report of one
    workload's variants for ``seed``, the ``summary.json`` sha256 followed
    by its numbers; ``work`` is an empty directory."""
    mode, docs = variants(name, seed)
    for k, doc in enumerate(docs):
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


RELATIVE = ("dv_mm_s", "tpoc_final")
ABSOLUTE = ("e_validation_mm",)  # in mm
COUNTS = ("majors", "minors", "ipm", "order2", "kkt_dim", "banded", "warm")


def identical(old_lines, new_lines):
    """Per artifact, the count of lines both digests hold unchanged and
    every line that differs or only one of them has; and whether all
    lines agree."""
    old, new = ({" ".join(f[:4]): line for line in lines
                 if len(f := line.split()) > 5 and f[3] in KINDS}
                for lines in (old_lines, new_lines))
    report = []
    for art in KINDS:
        keys = [k for k in dict.fromkeys([*old, *new])
                if k.split()[3] == art]
        same = sum(old.get(k) == new.get(k) for k in keys)
        report.append(f"{art}: {same}/{len(keys)} lines identical")
        for k in keys:
            if k not in new or k not in old:
                report.append(f"  {k}: only in the "
                              f"{'earlier' if k in old else 'new'} run")
            elif old[k] != new[k]:
                report.append(f"  {k}: differs")
    return report, old == new


def summaries(lines) -> dict:
    """Label -> (exit code, sha256, numbers) of every ``summary.json``
    line of a digest."""
    out = {}
    for line in lines:
        f = line.split()
        if len(f) > 5 and f[3] == "summary.json":
            nums = dict(kv.split("=", 1) for kv in f[6:])
            out[" ".join(f[:3])] = (f[4], f[5], nums)
    return out


def _total(side, keys, field) -> str:
    """Sum of an integer field over the solves ``keys``, or ``?`` when a
    line does not have it."""
    vals = [side[k][2].get(field) for k in keys]
    return "?" if None in vals else str(sum(int(v) for v in vals))


def compare(old_lines, new_lines):
    """One report line per workload on the solves both digests hold, and
    one per solve whose status or exit code changed."""
    old, new = summaries(old_lines), summaries(new_lines)
    report = []
    for name in dict.fromkeys(k.split()[0] for k in new):
        keys = [k for k in new if k.split()[0] == name and k in old]
        same = sum(old[k][:2] == new[k][:2] for k in keys)
        parts = [f"{name}: {same}/{len(keys)} summaries identical"]
        for field in RELATIVE:
            worst = max((abs(float(new[k][2][field]) / float(old[k][2][field])
                             - 1.0) for k in keys
                         if float(old[k][2][field]) != 0.0), default=0.0)
            parts.append(f"{field} max rel change {worst:.3g}")
        for field in ABSOLUTE:
            worst = max((abs(float(new[k][2][field]) -
                             float(old[k][2][field])) for k in keys),
                        default=0.0)
            parts.append(f"{field} max abs change {worst:.3g} mm")
        for field in COUNTS:
            parts.append(f"{field} {_total(old, keys, field)} -> "
                         f"{_total(new, keys, field)}")
        report.append(", ".join(parts))
        for k in keys:
            (c0, _, n0), (c1, _, n1) = old[k], new[k]
            if (c0, n0["status"]) != (c1, n1["status"]):
                report.append(f"  {k}: status {n0['status']} (exit {c0}) -> "
                              f"{n1['status']} (exit {c1})")
    return report


def run(seeds, names):
    """Print and return the digest lines of this checkout for ``seeds``
    and the workloads ``names``."""
    lines = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for seed in seeds:
                for name in names:
                    work = Path(tmp) / f"{name}-{seed}"
                    work.mkdir()
                    os.chdir(work)
                    for label, code, sha in digests(name, seed, work):
                        lines.append(f"{label} {code} {sha}")
                        print(lines[-1], flush=True)
        finally:
            os.chdir(here)
    return lines


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0])
    p.add_argument("--against", type=Path, metavar="OLD.txt",
                   help="an earlier run's lines to compare with")
    p.add_argument("--workloads", nargs="+", metavar="NAME",
                   choices=[*workloads.WORKLOADS, "criterion2",
                            "criterion3"],
                   default=list(workloads.WORKLOADS),
                   help="digest only these workloads (default: all of the "
                        "benchmark's)")
    args = p.parse_args(argv)
    lines = run(args.seeds, args.workloads)
    if not args.against:
        return 0
    old = [line for line in args.against.read_text().splitlines()
           if line.partition(" ")[0] in args.workloads]
    report, same = identical(old, lines)
    for line in report + compare(old, lines):
        print(line)
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
