"""One run of one workload, in a fresh interpreter, as `run.py` spawns it.

    python3 perfbench/iteration.py --workload flow --seed 0 --out DIR [--trace]
    python3 perfbench/iteration.py --workload flow --seed 0 --out DIR --check

The first form imports `groundlab.cli`, runs every job of the workload one
after another, then checks the artifacts; with --trace the spans are recorded
and the per-layer metrics derived.  The second form runs the identities that
need extra jobs: a byte-for-byte replay through an emitted `--config`, and,
on `flow`, the epsilon = 1/2 report that every positive epsilon must equal.
Either form prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads as wl


def _job_error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_iteration(workload: str, seed: int, out: Path, tracer=None,
                  check_digests: bool = True, meter=None) -> dict:
    """Time every job of a workload, then check what each produced.

    With a started `SpeedMeter`, times leave out the meter's own loops and
    each job also gets its time at the reference host speed."""
    from groundlab import cli
    main = cli.main  # looked up after the tracer, if any, patched it

    out.mkdir(parents=True, exist_ok=True)
    wl.prepare_inputs(workload, out)
    job_list = wl.jobs(workload, seed, out)
    records, spans, ctx = [], [], {}
    clock = time.perf_counter
    t_start = clock()
    for run_id, job in enumerate(job_list):
        if tracer is not None:
            tracer.run_id = run_id
        rec = {"id": job.id, "error": None}
        t0 = clock()
        try:
            if job.call is not None:
                ctx[job.id] = job.call()
            else:
                rc = main(job.full_argv(out))
                if rc != 0:
                    rec["error"] = f"exit code {rc}"
        except Exception as exc:  # a crashing job is a failed job, not a crash
            rec["error"] = _job_error(exc)
        rec["seconds"] = clock() - t0
        spans.append((t0, t0 + rec["seconds"]))
        records.append(rec)
    t_end = clock()
    wall = t_end - t_start
    if meter is not None:
        meter.stop()
        wall -= meter.own(t_start, t_end)
        for rec, (t0, t1) in zip(records, spans):
            rec["seconds"] -= meter.own(t0, t1)
            rec["scaled_s"] = meter.scaled(t0, t1)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()
    digests = wl.load_digests().get(workload, {}) if check_digests else None
    work = work_s = work_scaled_s = artifact_bytes = 0
    for job, rec in zip(job_list, records):
        if rec["error"] is None:
            try:
                units, nbytes = _check_job(seed, job, out, ctx, digests, rec)
                artifact_bytes += nbytes
                if units:
                    work += units
                    work_s += rec["seconds"]
                    work_scaled_s += rec.get("scaled_s", 0.0)
            except Exception as exc:  # any check that breaks is a miss
                rec["error"] = f"check: {_job_error(exc)}"
    result = {"workload": workload, "seed": seed, "wall_s": wall,
              "rss_mb": rss_mb, "work": work, "work_s": work_s,
              "artifact_bytes": artifact_bytes, "jobs": records}
    if meter is not None:
        result["scaled_wall_s"] = sum(rec["scaled_s"] for rec in records)
        result["work_scaled_s"] = work_scaled_s
        result["meter_samples"] = len(meter.starts)
    if tracer is not None:
        from tracer import layer_values
        result["layers"] = layer_values(
            tracer, {"artifact_bytes": artifact_bytes})
        result["missing"] = dict(tracer.missing)
        tracer.write_spans(out / "spans.tsv")
    return result


def _check_job(seed, job, out, ctx, digests, rec):
    """Identities, then the recorded digest unless digests is None;
    returns (work units, artifact bytes)."""
    if job.call is not None:
        result = ctx[job.id]
        wl.CHECKS[job.id](job, result, ctx)
        chunks = wl.canonical(job, result)
        units = nbytes = 0
    else:
        path = job.artifact(out)
        data = path.read_bytes()
        text = data.decode()
        wl.CHECKS[job.id](job, text, ctx)
        chunks = [data]
        units = wl.work_units(job, text)
        nbytes = len(data) + Path(f"{path}.config").stat().st_size
    rec["sha256"] = wl.digest_of(chunks)
    if digests is not None and (not job.seeded or seed == wl.DEFAULT_SEED):
        want = digests.get(job.id)
        if rec["sha256"] != want:
            raise wl.CheckFailed(f"sha256 {rec['sha256'][:16]} != recorded "
                                 f"{(want or 'none')[:16]}")
    return units, nbytes


def run_checks(workload: str, seed: int, out: Path) -> dict:
    """Replay one job through its --config; on flow, the epsilon identity."""
    from groundlab.cli import main
    job_list = {job.id: job for job in wl.jobs(workload, seed, out)}
    records = []

    def attempt(name, fn):
        rec = {"id": name, "error": None}
        try:
            fn()
        except Exception as exc:  # a crashing check is a failed check
            rec["error"] = _job_error(exc)
        records.append(rec)

    replayed = job_list[wl.REPLAY[workload]]
    original = replayed.artifact(out)

    def replay():
        copy = out / f"replay-{original.name}"
        rc = main([replayed.argv[0], "--config", f"{original}.config",
                   replayed.out_flag, str(copy)])
        wl.require(rc == 0, f"replay exit code {rc}")
        wl.require(copy.read_bytes() == original.read_bytes(),
                   f"{replayed.id} does not replay byte for byte")

    attempt(f"replay-{replayed.id}", replay)
    if workload == "flow":
        selector = job_list["perturb-selector"]

        def half():
            argv = list(selector.argv)
            argv[argv.index("--epsilon") + 1] = "1/2"
            half_path = out / "perturb-half.json"
            rc = main([*argv, "--out", str(half_path)])
            wl.require(rc == 0, f"exit code {rc}")
            wl.require(half_path.read_bytes()
                       == selector.artifact(out).read_bytes(),
                       "positive-epsilon report differs from epsilon=1/2")

        attempt("perturb-epsilon-half", half)
    return {"workload": workload, "seed": seed, "jobs": records}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    if args.check:
        result = run_checks(args.workload, args.seed, args.out)
    else:
        tracer = None
        if args.trace:
            import groundlab.cli  # noqa: F401  (bind every module first)
            from tracer import Tracer
            tracer = Tracer().install()
            meter = None
        else:
            from hostspeed import SpeedMeter
            meter = SpeedMeter().start()
        result = run_iteration(args.workload, args.seed, args.out, tracer,
                               meter=meter)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
