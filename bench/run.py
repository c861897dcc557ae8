"""cmadof benchmark runner.

    python3 bench/run.py --workload ga_link --seed 3 --seconds 50 --trace 0

Run from the root of a cmadof checkout. The runner imports the CLI from
``src/`` and runs jobs in this process: each round runs the workload's
``dof`` job(s) and then one ``optimize`` job, with config files it writes
under ``.bench_out/``, until ``--seconds`` are used up. Every job's outputs
are checked against ``bench/reference.json``. Job times in the end-to-end
metrics and set-up times are scaled to the reference machine speed by
calibration readings taken around each of them and about every second
inside a job (calibration.py); the unscaled times are printed and
recorded beside them.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json (set-up time
is measured in fresh interpreters before the rounds). ``--trace 1``
alternates untraced and traced rounds on the same inputs and prints the
per-layer metrics of the traced rounds. The last stdout line is the JSON
result; the lines before it give each metric's median, high percentile and
sample count and the machine record, which also goes to
``.bench_out/BENCH_<workload>_s<seed>_t<trace>.json``. See bench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration
import harness
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

#: fresh-interpreter set-ups per run; setup_s is their median
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_round(workload, ga_seed, work, counter, reference, tracer=None,
              clock=None):
    """`dof_repeats` dof jobs, then one optimize job, all checked.

    With a calibration clock every job also gets its scaled time. With a
    tracer, its wrappers are installed for the round and pool workers
    write their spans under `work/spans`.
    """
    jobs = []

    def job(command, out):
        values = harness.job_config(workload, command, out / "out", ga_seed)
        jobs.append(harness.run_job(command, values, out, counter, tracer,
                                    clock))

    with contextlib.ExitStack() as stack:
        if tracer is not None:
            tracer.reset()
            tracer.worker_dir = str(work / "spans")
            os.makedirs(tracer.worker_dir)
            stack.enter_context(tracer.installed())
        for i in range(workload.dof_repeats):
            job("dof", work / f"dof{i}")
        job("optimize", work / "optimize")
    for job in jobs:
        harness.check(job, reference, ga_seed)
        if not job.ok:
            print(f"bench: {job.command} job (GA seed {ga_seed}) failed: "
                  f"{job.error}", file=sys.stderr)
    return jobs


def traced_metrics(tracer, traced, base, counter, requested):
    """Per-layer metrics and span durations of one traced round.

    `base` is the untraced round on the same inputs, for the overhead.
    """
    workers = tracing.load_worker_spans(tracer.worker_dir)
    counts = dict(tracer.counts)
    for dump in workers:
        for key, val in dump["counts"].items():
            counts[key] = (max(counts.get(key, 0), val)
                           if key == "channel.g_bytes"
                           else counts.get(key, 0) + val)
    wall = sum(j.wall_s for j in traced)
    metrics, durations = layer_metrics(
        [tracer.spans] + [d["spans"] for d in workers], counts, wall,
        len(counter.keys), len(counter.degenerate), requested,
        tracer.captured[-1] if tracer.captured else None,
        sum(j.artifact_bytes for j in traced))
    metrics["trace.overhead"] = wall / sum(j.wall_s for j in base) - 1.0
    tracer.reset()
    tracer.worker_dir = None  # workers of untraced rounds write nothing
    return metrics, durations


def layer_metrics(process_spans, counts, round_wall, unique, degenerate,
                  requested, problem, artifact_bytes):
    """Per-layer metrics of one traced round (all processes summed)."""
    totals: dict[str, dict] = {}
    for spans in process_spans:
        for name, t in tracing.span_totals(spans).items():
            acc = totals.setdefault(name, {"count": 0, "s": 0.0,
                                           "self_s": 0.0, "durations": []})
            for key in ("count", "s", "self_s"):
                acc[key] += t[key]
            acc["durations"] += t["durations"]

    def secs(*names):
        return sum(totals[n]["s"] for n in names if n in totals)

    def calls(name):
        return totals[name]["count"] if name in totals else 0

    def self_secs(name):
        return totals[name]["self_s"] if name in totals else 0.0

    cache_bytes, result_bytes = harness.pickled_bytes(problem) \
        if problem is not None else (0, 0.0)
    metrics = {
        "efie.assemble_s": secs("efie.assemble_impedance"),
        "efie.assemble_calls": calls("efie.assemble_impedance"),
        "quadrature.static_s": secs("quadrature.static_potential_integrals"),
        "quadrature.static_calls":
            calls("quadrature.static_potential_integrals"),
        "efie.kernel_evals": counts.get("efie.kernel_evals", 0),
        "dofcore.report_s": secs("dofcore.gamma_decomposition",
                                 "dofcore.build_report"),
        "channel.svd_s": secs("channel.singulars"),
        "channel.assemble_s": secs("channel.assemble_channel"),
        "channel.g_bytes": counts.get("channel.g_bytes", 0),
        "dofcore.maps_s": secs("dofcore.transmitter_map",
                               "dofcore.receiver_map",
                               "dofcore.equivalent_channel"),
        "cma.solve_s": secs("cma.solve_modes"),
        "cma.patterns_s": secs("cma.excitation_matrix", "cma.mode_patterns"),
        "mesh.s": secs(*(n for n in totals if n.startswith("mesh."))),
        "mesh.calls": calls("mesh.build_plate_mesh"),
        "ga.self_s": self_secs("ga.run_ga"),
        "ga.cache_bytes": cache_bytes,
        "ga.result_bytes": result_bytes,
        "ga.unique_evals": unique,
        "ga.requested": requested,
        "ga.repeat_ratio": 1.0 - unique / requested,
        "ga.degenerate": degenerate,
        "cli.self_s": self_secs("cli.main"),
        "cli.artifact_bytes": artifact_bytes,
        # glue inside evaluate that no layer span covers, plus benchmark time
        # outside the CLI
        "trace.unaccounted_s": (round_wall - secs("cli.main")
                                + self_secs("ga.evaluate")),
    }
    durations = {n: t["durations"] for n, t in totals.items()}
    return metrics, durations


def main(argv=None) -> int:
    args = parse_args(argv)
    load_at_start = os.getloadavg()
    try:
        cleared = harness.prepare(ROOT)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    except (RuntimeError, OSError, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.workload not in harness.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    workload = harness.WORKLOADS[args.workload]
    reference = harness.load_reference()[workload.reference]
    env = harness.environment(ROOT, cleared, load_at_start)
    print(json.dumps({"env": env}), flush=True)

    tag = f"{workload.name}_s{args.seed}_t{args.trace}"
    work = OUT / "work" / f"{tag}_{os.getpid()}"
    harness.clean(work)
    order = random.Random(args.seed).sample(range(harness.N_GA_SEEDS),
                                            harness.N_GA_SEEDS)
    counter = harness.EvalCounter()
    counter.install()
    tracer = tracing.Tracer() if args.trace else None
    requested = (workload.ga["population"]
                 + workload.ga["generations"] * workload.ga["parents"])

    samples: dict[str, list] = {}
    raw: dict[str, list] = {}  # unscaled times, recorded beside the metrics
    durations: dict[str, list] = {}
    jobs_all = []

    def note(name, value, into=samples):
        into.setdefault(name, []).append(value)

    # traced runs report unscaled per-layer times and take no readings
    clock = None if args.trace else calibration.SpeedClock()
    if clock is not None:
        harness.install_ticks(clock)
        values = harness.job_config(workload, workload.setup_command,
                                    work / "setup" / "out", order[0])
        for _ in range(SETUP_REPEATS):
            seconds = harness.measure_setup(
                ROOT, workload.setup_command, values, work / "setup")
            note("setup_s", clock.rescale(seconds))
            note("setup_s", seconds, raw)

    t_start = time.perf_counter()
    k = 0
    while True:
        ga_seed = order[k % len(order)]
        base = run_round(workload, ga_seed, work / f"r{k}",
                         counter, reference, clock=clock)
        jobs_all += base
        if args.trace:
            traced = run_round(workload, ga_seed, work / f"r{k}t", counter,
                               reference, tracer)
            jobs_all += traced
            layer, durs = traced_metrics(tracer, traced, base, counter,
                                         requested)
            for name, value in layer.items():
                note(name, value)
            for name, ds in durs.items():
                durations.setdefault(name, []).extend(ds)
        else:
            opt = base[-1]
            note("ga_wall_s", opt.scaled_s)
            note("evals_per_s", len(counter.keys) / opt.scaled_s)
            note("ga_wall_s", opt.wall_s, raw)
            note("evals_per_s", len(counter.keys) / opt.wall_s, raw)
            for job in base[:-1]:
                note("dof_s", job.scaled_s)
                note("dof_s", job.wall_s, raw)
            if k == 0:
                # set-up and one round, so the figure does not depend on
                # how many rounds fit
                note("peak_rss_mb", harness.peak_rss_mb())
        harness.clean(work / f"r{k}")
        harness.clean(work / f"r{k}t")
        k += 1
        elapsed = time.perf_counter() - t_start
        # start another round only if one more is expected to fit
        if elapsed + elapsed / k > args.seconds:
            break

    attempted = len(jobs_all)
    failed = sum(not j.ok for j in jobs_all)
    if args.trace:
        note("error_rate", failed / attempted)
        wanted = spec["per_layer"]
    else:
        wanted = spec["end_to_end"]
    missing = {m["name"] for m in wanted} ^ set(samples)
    if missing:
        print(f"bench: metrics differ from BENCHMARK.json: {sorted(missing)}",
              file=sys.stderr)
        return 1
    summary = {name: harness.describe(vals) for name, vals in samples.items()}
    if clock is not None:
        raw["calibration_s"] = clock.readings
    unscaled = {name: harness.describe(vals) for name, vals in raw.items()}
    calls = {name: harness.describe(ds) for name, ds in durations.items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": statistics.median(
            samples[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "rounds": k,
              "env": env, "summary": summary, "samples": samples,
              "unscaled": unscaled, "unscaled_samples": raw,
              "span_durations_s": calls, "result": result}
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1),
                                           "utf-8")
    harness.clean(work)
    print(json.dumps({"summary": summary, "rounds": k}))
    print(json.dumps({"unscaled": unscaled}))
    if calls:
        print(json.dumps({"span_durations_s": calls}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
