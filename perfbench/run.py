"""groundlab benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload flow --seed 0 --seconds 15 --trace 0

Run from the repository root.  Each workload run is a fresh interpreter
(`iteration.py`) with GROUNDLAB_WORKERS=1 and BLAS/OpenMP threads at 1; runs
follow one another until --seconds are used, and at least three are made.
Every process of the benchmark is pinned to one core, and the end-to-end
times are rescaled to a reference host speed by `hostspeed.SpeedMeter`, so
that the host's speed steps do not read as changes of the program.
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced runs alternate and it carries the per-layer
metrics.  The line before it holds diagnostics: host.calib_s, fail_frac,
the workload's own rate under its own name, and every sample, unscaled
ones included.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402
from hostspeed import REF_LOOP_S, speed_loop  # noqa: E402
from tracer import PER_LAYER  # noqa: E402

SETUP_SAMPLES = 9       # fresh interpreters timed per run, after one warm-up
MIN_RUNS = 3            # timed workload runs, whatever --seconds says
BUDGET_S = 170          # one invocation never plans past this
RATE_NAME = {"gibbs-local": "proposals_per_s", "gibbs-scan": "proposals_per_s",
             "flow": "rows_per_s", "tables": "rows_per_s"}
# Counts that must repeat exactly between traced runs of the same code.
EXACT_COUNTS = ("gibbs.metropolis.proposals", "gibbs.metropolis.accepted",
                "machines.run.calls", "machines.run.steps",
                "machines.word_measure.calls",
                "machines.word_measure.distinct_args",
                "gibbs.TorusConfig.recompute_energy.calls",
                "gibbs.boltzmann_exact.configs")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "GROUNDLAB_WORKERS"):
        env[var] = "1"
    return env


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - t0


def pin_to_one_core() -> None:
    """Run this process and every child on one core, so the speed loop sees
    the core the workload runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def setup_seconds(env: dict):
    """Fresh interpreter until `import groundlab.cli` returns: (seconds,
    seconds at the reference speed).  The speed loop is timed here just
    before the interpreter starts and in it just after the import."""
    code = ("import groundlab.cli\nimport time\n"
            "t = time.clock_gettime_ns(time.CLOCK_MONOTONIC)\n"
            f"import sys\nsys.path.insert(0, {str(HERE)!r})\n"
            "from hostspeed import speed_loop\n"
            "print(t, speed_loop())")
    before = speed_loop()
    t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=60,
                          check=True)
    t_end, after = proc.stdout.split()[-2:]
    seconds = (int(t_end) - t0) / 1e9
    return seconds, seconds * REF_LOOP_S / ((before + float(after)) / 2)


def spawn(args: list, env: dict, timeout: float):
    """One iteration.py child; its JSON result, or None if it broke."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "iteration.py"),
                               *args], env=env, cwd=ROOT,
                              stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def median(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "groundlab" / "cli.py").is_file():
        print(f"error: no groundlab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    invoked = time.monotonic()
    pin_to_one_core()
    env = child_env()
    out = HERE / "out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--out", str(out)]
    n_jobs = len(wl.jobs(args.workload, args.seed, out))
    calib_before = calibrate()

    setup = []
    if not args.trace:
        setup_seconds(env)  # warm-up: writes the bytecode caches
        setup = [setup_seconds(env) for _ in range(SETUP_SAMPLES)]

    plain, traced, broken = [], [], 0
    started = time.monotonic()
    while not broken:
        left = BUDGET_S - (time.monotonic() - invoked)
        for flags, bucket in ([], plain), (["--trace"], traced):
            if flags and not args.trace:
                continue
            result = spawn(base + flags, env, left)
            if result is None:
                broken += 1
            else:
                bucket.append(result)
        rounds = max(len(plain), 1)
        elapsed = time.monotonic() - started
        per_round = elapsed / rounds
        # stop once one more round would end further past --seconds than
        # stopping now falls short of it
        enough = rounds >= (1 if args.trace else MIN_RUNS)
        if (enough and elapsed + per_round / 2 > args.seconds) or \
                time.monotonic() - invoked + per_round > BUDGET_S - 20:
            break

    check = spawn(base + ["--check"], env,
                  BUDGET_S - (time.monotonic() - invoked))
    calib_after = calibrate()

    records = [job for r in plain + traced for job in r["jobs"]]
    records += check["jobs"] if check else [{"id": "check", "error": "broke"}]
    records += [{"id": "workload run", "error": "broke"}] * (broken * n_jobs)
    if args.trace:
        metrics, missing = traced_metrics(plain, traced)
        records += moved_counts(traced)
    else:
        rates = [r["work"] / r["work_scaled_s"] for r in plain
                 if r["work_scaled_s"] > 0]
        metrics = {
            "wall_s": (median([r["scaled_wall_s"] for r in plain]), "s"),
            "setup_s": (median([scaled for _, scaled in setup]), "s"),
            "work_per_s": (median(rates), "1/s"),
            "peak_rss_mb": (median([r["rss_mb"] for r in plain]), "MB"),
        }
    problems = [f"{j['id']}: {j['error']}" for j in records if j["error"]]
    attempted = len(records)
    failed = len(problems)
    diagnostics = {
        "workload": args.workload, "seed": args.seed,
        "host.calib_s": {"before": calib_before, "after": calib_after},
        "fail_frac": failed / attempted,
        "samples": {"wall_s": [r["scaled_wall_s"] for r in plain],
                    "setup_s": [scaled for _, scaled in setup],
                    "unscaled_wall_s": [r["wall_s"] for r in plain],
                    "unscaled_setup_s": [raw for raw, _ in setup],
                    "unscaled_traced_wall_s": [r["wall_s"] for r in traced]},
        "problems": problems[:20],
    }
    if args.trace:
        diagnostics["missing"] = missing
    else:
        diagnostics[RATE_NAME[args.workload]] = metrics["work_per_s"][0]
    print(json.dumps({"diagnostics": diagnostics}))
    print(json.dumps({
        "correct": failed == 0 and bool(plain),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


def moved_counts(traced: list) -> list:
    """One failed record per count that differs between traced runs of the
    same code and seed."""
    records = []
    for name in EXACT_COUNTS:
        seen = {r["layers"][name] for r in traced}
        if len(seen) > 1:
            records.append({"id": f"count {name}",
                            "error": f"moved between runs: {sorted(seen)}"})
    return records


def traced_metrics(plain: list, traced: list):
    """Per-layer metrics: the lower median over the traced runs, a value
    one run actually read."""
    metrics, missing = {}, {}
    for r in traced:
        missing.update(r.get("missing", {}))
    overhead = None
    if traced and plain:
        overhead = (median([r["wall_s"] for r in traced])
                    - median([r["wall_s"] for r in plain]))
    for name, unit, _, _ in PER_LAYER:
        values = [r["layers"][name] for r in traced]
        if name == "trace.overhead_s":
            values = [overhead]
        if not values or any(v is None for v in values):
            metrics[name] = (None, unit)
            missing.setdefault(name, "no value")
        else:
            metrics[name] = (statistics.median_low(values), unit)
    return metrics, missing


if __name__ == "__main__":
    sys.exit(main())
