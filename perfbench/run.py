"""Solve-time benchmark for camopt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The load is a closed loop of one client: one process makes one in-process
``camopt.cli.main(["solve", ...])`` call at a time (load, solve, emit) on the
scenario files ``perfbench/workloads.py`` writes from the seed, and checks
every answer.  The BLAS thread count is fixed to ``BLAS_THREADS`` before
numpy loads.  There is no warm-up solve: camopt has no lazy set-up worth
timing apart (its caches are a few small tables), and the first solve of a
process measured no slower than the next three.

``--trace 0`` solves the run's scenario variants one after the other, at
least ``MIN_SOLVES`` times and then while another solve is expected to end
within ``--seconds``, and reports the end-to-end metrics.  Every solve and
every set-up runs between two timings of ``perfbench/probe.py``, a fixed
unit of camopt-shaped work.  Each wall time is scaled by ``PROBE_REF_S``
/ (the mean of its two probes), so the machine's speed drift divides out
and a change to camopt does not; ``solve_s`` is the mean of the scaled
solve times and ``setup_s`` the median of the scaled set-up times.  The
unscaled times are printed and recorded too.
``--trace 1`` alternates solves traced at the layer boundaries
(``perfbench/layertrace.py``) with untraced solves of one variant and
reports the per-layer metrics, medians over the traced solves.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print the seeds, the environment and every metric by name with its unit.
Samples, spans and the environment are also written to
``.perfbench_out/<workload>-seed<N>-trace<T>/`` in the checkout.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

sys.path.insert(0, str(HERE))
import layertrace  # noqa: E402
import probe  # noqa: E402
import workloads  # noqa: E402

# end-to-end times are reported as if every probe had taken this long, a
# typical probe time on the machine the benchmark was written on
PROBE_REF_S = 0.2

# solves a run makes however long they take
MIN_SOLVES = 3

# import plus first scenario load, each in a fresh interpreter
SETUP_REPS = 3
SETUP_CODE = """\
import sys, time
t = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import camopt.cli
camopt.cli.load_scenario(sys.argv[2])
print(time.perf_counter() - t)
"""

# answer checks
RISK_SLACK = 1.05  # TPoC (max TIPoC on long-term) over the budget
MAX_E_VALIDATION_MM = 50.0
MAX_IDENTITY_ERR = 1e-10  # |prod(1 - q) - (1 - budget)| in smd mode

END_TO_END_UNITS = {"solve_s": "s", "setup_s": "s", "dv_mm_s": "mm/s",
                    "peak_rss_mb": "MB"}

# counts that must repeat exactly for one input
EXACT_COUNTS = ("scp.majors", "scp.minors", "socp.ipm_iters",
                "astro.linearize_segment.calls", "convexify.kkt_dim")

PER_LAYER = ([f"{layer}.s" for layer in layertrace.LAYERS] + [
    "astro.linearize_segment.calls", "socp.solve.calls", "socp.ipm_iters",
    "socp.optimal_ratio", "convexify.kkt_dim", "scp.adapt_limits.calls",
    "scp.evaluate_final.calls", "cli.emit.bytes", "scp.majors",
    "scp.minors", "trace.coverage", "trace.overhead"])


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def _import_cli():
    if not (SRC / "camopt" / "__init__.py").is_file():
        raise BenchError(f"no camopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import camopt.cli
    if Path(camopt.cli.__file__).resolve().parent != SRC / "camopt":
        raise BenchError(f"imported camopt from {camopt.cli.__file__}, "
                         f"not from {SRC}")
    return camopt.cli


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def measure_setup(scenario, speed):
    """Set-up seconds of ``SETUP_REPS`` fresh interpreters, each after one
    ``speed`` probe; rep ``k`` follows probe ``k``."""
    times = []
    for _ in range(SETUP_REPS):
        speed()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                              str(scenario)],
                             capture_output=True, text=True, timeout=60,
                             check=True)
        times.append(float(out.stdout.split()[-1]))
    return times


class Runner:
    """Runs and checks solves of one workload's scenario files."""

    def __init__(self, cli, name, out_dir, tracer=None):
        self.cli = cli
        self.mode = workloads.WORKLOADS[name]["mode"]
        self.ref_dv, self.dv_band = workloads.WORKLOADS[name]["dv_ref"]
        self.out_dir = out_dir
        self.tracer = tracer
        self.attempted = 0
        self.failures = []  # one line per failed solve
        self.signatures = {}  # scenario file -> exact counts of its 1st solve

    def solve(self, path, traced=False):
        """One ``camopt solve``; returns (solve id, wall s, summary), with
        summary None when the solve failed a check."""
        self.attempted += 1
        solve_id = self.attempted
        argv = ["solve", str(path), "--mode", self.mode,
                "--out", str(self.out_dir)]
        tracing = self.tracer.installed(solve_id) if traced \
            else contextlib.nullcontext()
        rc = problem = None
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            tic = time.perf_counter()
            try:
                with tracing:
                    rc = self.cli.main(argv)
            except Exception as exc:  # a failed solve, not a failed run
                problem = f"raised {type(exc).__name__}: {exc}"
            wall = time.perf_counter() - tic
        summary = None
        if problem is None and rc != 0:
            problem = f"exit code {rc}"
        if problem is None:
            summary = json.loads((self.out_dir / "summary.json").read_text())
            problem = self.check(path, summary)
        if problem is not None:
            self.failures.append(f"solve {solve_id} ({path.name}): {problem}")
            summary = None
        else:
            summary["emit_bytes"] = sum(p.stat().st_size
                                        for p in self.out_dir.iterdir())
        return solve_id, wall, summary

    def check(self, path, s):
        """Why the answer in summary ``s`` is wrong, or None."""
        budget = s["total_limit"]
        if not s["tpoc_final"] <= RISK_SLACK * budget:
            return f"TPoC {s['tpoc_final']:.4e} above {RISK_SLACK} x budget"
        if not s["e_validation_mm"] <= MAX_E_VALIDATION_MM:
            return f"e_validation {s['e_validation_mm']:.3f} mm"
        if self.mode == "smd":
            survive = math.prod(1.0 - ch["p_limit"] for ch in s["channels"])
            err = abs(survive - (1.0 - budget))
            if not err <= MAX_IDENTITY_ERR:
                return f"limit product identity off by {err:.2e}"
        if not abs(s["dv_mm_s"] - self.ref_dv) <= self.dv_band * self.ref_dv:
            return (f"dv {s['dv_mm_s']:.6g} mm/s outside "
                    f"{self.ref_dv:.6g} mm/s +- {self.dv_band:.1%}")
        # a repeat of one input must reproduce its iteration counts and
        # answer bit for bit
        sig = (s["iterations"],
               [r["minors"] for r in s["iteration_log"]],
               s["dv_mm_s"], s["tpoc_final"])
        first = self.signatures.setdefault(path, sig)
        if sig != first:
            return f"repeat differs (majors, minors, dv, tpoc): {sig} " \
                   f"!= {first}"
        return None


def _median(values):
    return statistics.median(values) if values else math.nan


def _time_left(start, seconds, walls):
    """Whether one more step, as long as the median of ``walls`` (the steps
    so far), is expected to end within ``seconds`` of ``start``."""
    return time.perf_counter() - start + _median(walls) <= seconds


def run_untraced(runner, pool, seconds, speed):
    """Solve the variants of the pool in turn while time is left, each
    between two ``speed`` probes; returns one sample per correct solve:
    variant, wall time, the index of the probe before it, delta-v and minor
    iterations per major."""
    samples = []
    steps = []  # probe plus solve seconds of every attempt, failed or not
    start = time.perf_counter()
    i = 0
    while i < MIN_SOLVES or _time_left(start, seconds, steps):
        speed()
        _, wall, summary = runner.solve(pool[i % len(pool)])
        steps.append(speed.samples[-1] + wall)
        if summary is not None:
            samples.append({
                "variant": i % len(pool), "wall_s": wall,
                "probe": len(speed.samples) - 1,
                "dv_mm_s": summary["dv_mm_s"],
                "minors": [r["minors"] for r in summary["iteration_log"]]})
        i += 1
    speed()
    return samples


def _at_reference_speed(timed, probes):
    """(seconds, k) pairs, each timed between probes ``k`` and ``k + 1``,
    scaled to the seconds they take where a probe takes ``PROBE_REF_S``."""
    return [t * 2.0 * PROBE_REF_S / (probes[k] + probes[k + 1])
            for t, k in timed]


def _layer_sample(tracer, solve_id, summary):
    seconds, calls, coverage = tracer.layer_totals(solve_id)
    socp = tracer.socp.get(solve_id,
                           {"ipm_iters": 0, "optimal": 0, "kkt_dim": 0})
    sample = {f"{layer}.s": v for layer, v in seconds.items()}
    sample.update({
        "astro.linearize_segment.calls": calls["astro.linearize_segment"],
        "socp.solve.calls": calls["socp.solve"],
        "socp.ipm_iters": socp["ipm_iters"],
        "socp.optimal_ratio": socp["optimal"] / max(calls["socp.solve"], 1),
        "convexify.kkt_dim": socp["kkt_dim"],
        "scp.adapt_limits.calls": calls["scp.adapt_limits"],
        "scp.evaluate_final.calls": calls["scp.evaluate_final"],
        "cli.emit.bytes": summary["emit_bytes"],
        "scp.majors": summary["iterations"],
        "scp.minors": sum(r["minors"] for r in summary["iteration_log"]),
        "trace.coverage": coverage,
    })
    return sample


def run_traced(runner, tracer, path, seconds):
    """Alternate traced and untraced solves of one input while time is
    left, with at least two traced solves.  Returns the per-layer
    medians over traced solves, every traced sample, and the exact counts
    that differed between traced repeats."""
    plain, traced, samples = [], [], []
    start = time.perf_counter()
    while len(samples) < 2 or _time_left(
            start, seconds, [t + u for t, u in zip(traced, plain)]):
        solve_id, wall, summary = runner.solve(path, traced=True)
        if summary is not None:
            traced.append(wall)
            samples.append(_layer_sample(tracer, solve_id, summary))
        _, wall, summary = runner.solve(path)
        if summary is not None:
            plain.append(wall)
        if runner.failures:
            break  # the failures are reported
    metrics = {k: _median([s[k] for s in samples]) for k in samples[0]} \
        if samples else {}
    metrics["trace.overhead"] = _median(traced) - _median(plain)
    mismatches = [f"{k} {[s[k] for s in samples]}" for k in EXACT_COUNTS
                  if len({s[k] for s in samples}) > 1]
    return metrics, samples, mismatches


def _unit(metric):
    if metric in ("socp.optimal_ratio", "trace.coverage"):
        return "ratio"
    return {"s": "s", "overhead": "s", "bytes": "bytes"}.get(
        metric.rsplit(".", 1)[1], "count")


def main(argv=None):
    p = argparse.ArgumentParser(description="camopt solve-time benchmark")
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cli = _import_cli()
    tracer = layertrace.Tracer() if args.trace else None
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    pool = workloads.write_pool(args.workload, args.seed, run_dir)
    (run_dir / "solve").mkdir(exist_ok=True)
    env = environment()
    raans = [json.loads(p.read_text())["primary"]["elements"]["raan_deg"]
             for p in pool]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"variants raan_deg {raans}")
    print(f"environment {json.dumps(env)}")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "raan_deg": raans, "environment": env}

    runner = Runner(cli, args.workload, run_dir / "solve", tracer)

    mismatches = []
    if args.trace:
        values, samples, mismatches = run_traced(runner, tracer, pool[0],
                                                 args.seconds)
        report = {k: {"value": values.get(k, math.nan), "unit": _unit(k)}
                  for k in PER_LAYER}
        record["samples"] = samples
        (run_dir / "spans.json").write_text(json.dumps(tracer.dump()))
    else:
        speed = probe.Probe()
        setup = measure_setup(pool[0], speed)
        samples = run_untraced(runner, pool, args.seconds, speed)
        walls = [s["wall_s"] for s in samples]
        solves = _at_reference_speed(
            [(s["wall_s"], s["probe"]) for s in samples], speed.samples)
        # the mean, not the median: on tpoc-1cdm the TPoC polish takes 5
        # minor iterations on about half the variants and 6 to 10 on the
        # rest, and a run's median jumped between the two groups
        values = {
            "solve_s": statistics.fmean(solves) if solves else math.nan,
            "setup_s": _median(_at_reference_speed(
                [(t, k) for k, t in enumerate(setup)], speed.samples)),
            "dv_mm_s": _median([s["dv_mm_s"] for s in samples]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report = {k: {"value": v, "unit": END_TO_END_UNITS[k]}
                  for k, v in values.items()}
        record.update(solves=samples, setup_s=setup, probe_s=speed.samples)
        print(f"probe over {len(speed.samples)} probes: median "
              f"{_median(speed.samples):.4f} s, min {min(speed.samples):.4f}"
              f" s, max {max(speed.samples):.4f} s")
        print(f"unscaled solve wall over {len(walls)} solves: median "
              f"{_median(walls):.4f} s, min "
              f"{min(walls, default=math.nan):.4f} s, max "
              f"{max(walls, default=math.nan):.4f} s; set-up wall median "
              f"{_median(setup):.4f} s")

    failed = len(runner.failures)
    record.update(attempted=runner.attempted, failures=runner.failures,
                  count_mismatches=mismatches, metrics=report)
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")
    for why in runner.failures:
        print(f"FAILED {why}")
    for why in mismatches:
        print(f"EXACT COUNT DIFFERS between repeats: {why}")
    print(f"fail_rate {failed}/{runner.attempted} failed/attempted")
    for k, m in report.items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    correct = failed == 0 and not mismatches and \
        all(math.isfinite(m["value"]) for m in report.values())
    # strict JSON has no NaN; a value that could not be measured is 0 in a
    # result that is not correct
    for m in report.values():
        if not math.isfinite(m["value"]):
            m["value"] = 0.0
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception as exc:
        print(f"benchmark error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        sys.exit(2)
