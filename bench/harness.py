"""Workloads, jobs, correctness gate and environment record of the benchmark.

Every job is one ``cmadof`` CLI invocation (``cmadof.cli.main``) in this
process, driven by a config file the benchmark writes. Nothing here
imports numpy or cmadof at module level: ``prepare`` must clear the
caller's thread settings before the BLAS libraries load.
"""

from __future__ import annotations

import glob
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

#: GA seeds with committed reference results; a run draws its rounds from
#: this pool in an order fixed by --seed
N_GA_SEEDS = 32

#: relative tolerance of floating outputs against the reference, scaled by
#: the largest magnitude in the compared vector
RTOL = 1e-6

#: leading G singular values kept in the reference (the tail sits at
#: roundoff level and is not reproducible to a relative tolerance)
N_G_SINGULARS = 16

FREQUENCY = 27e9
C0 = 299_792_458.0
WAVELENGTH = C0 / FREQUENCY

#: the acceptance-7 link as a config file can state it: 8 pixel columns
#: x 4 port rows at 0.35 wavelength, one wavelength apart, 10 modes kept
SMALL_LINK = {
    "frequency": FREQUENCY,
    "pixel_size": 0.35 * WAVELENGTH,
    "separation": 1.0 * WAVELENGTH,
    "n_keep": 10,
    "tx_ports": 4, "rx_ports": 4,
    "tx_pixels_per_port": 8, "rx_pixels_per_port": 8,
}

#: all-metal 8 x 16 pixel plates with 8 ports, other keys at defaults
LARGE_LINK = {
    "tx_ports": 8, "rx_ports": 8,
    "tx_pixels_per_port": 16, "rx_pixels_per_port": 16,
}


@dataclass(frozen=True)
class Workload:
    """One round = `dof_repeats` dof jobs, then one optimize job."""

    name: str
    link: dict
    ga: dict
    jobs: int
    dof_repeats: int
    reference: str  # key of the reference table this workload checks
    setup_command: str


WORKLOADS = {
    w.name: w for w in (
        Workload("ga_link", SMALL_LINK,
                 {"population": 20, "parents": 10, "generations": 2},
                 jobs=1, dof_repeats=3, reference="small",
                 setup_command="optimize"),
        Workload("ga_link_pool", SMALL_LINK,
                 {"population": 20, "parents": 10, "generations": 2},
                 jobs=2, dof_repeats=3, reference="small",
                 setup_command="optimize"),
        Workload("dof_large", LARGE_LINK,
                 {"population": 2, "parents": 2, "generations": 0},
                 jobs=1, dof_repeats=1, reference="large",
                 setup_command="dof"),
    )
}


def prepare(root: Path) -> dict:
    """Make `root/src` the cmadof import and clear caller thread settings.

    Returns the removed *_NUM_THREADS variables. Raises RuntimeError when
    the checkout holds no cmadof sources.
    """
    cleared = {k: os.environ.pop(k) for k in sorted(os.environ)
               if k.endswith("_NUM_THREADS")}
    src = root / "src"
    if not (src / "cmadof" / "__init__.py").is_file():
        raise RuntimeError(f"no cmadof sources under {src}")
    sys.path.insert(0, str(src))
    import cmadof
    if Path(cmadof.__file__).resolve().parent != (src / "cmadof").resolve():
        raise RuntimeError(f"cmadof imported from {cmadof.__file__}, "
                           f"not from {src}")
    return cleared


def config_text(values: dict) -> str:
    return "".join(f"{k} = {v!r}\n" if isinstance(v, float)
                   else f"{k} = {v}\n" for k, v in values.items())


def job_config(workload: Workload, command: str, out: Path,
               ga_seed: int) -> dict:
    values = dict(workload.link, out=str(out))
    if command == "optimize":
        values.update(workload.ga, seed=ga_seed, jobs=workload.jobs)
    return values


class EvalCounter:
    """Distinct configurations the CLI process passes to ``evaluate``.

    Every configuration the GA requests reaches ``evaluate`` in the CLI
    process, also with a pool (the workers fill the cache, the parent then
    reads every individual through ``evaluate``), so the distinct keys are
    the unique evaluations whatever `jobs` is.
    """

    def __init__(self):
        self.keys: set[bytes] = set()
        self.degenerate: set[bytes] = set()

    def reset(self) -> None:
        self.keys, self.degenerate = set(), set()

    def install(self) -> None:
        import numpy as np
        from cmadof import ga
        from tracing import rebind

        original = ga.evaluate
        counter = self

        def evaluate(problem, phi):
            result = original(problem, phi)
            key = np.packbits(
                np.asarray(phi, dtype=np.uint8).ravel()).tobytes()
            counter.keys.add(key)
            if result[2] == float("-inf"):
                counter.degenerate.add(key)
            return result

        rebind(original, evaluate)


#: program functions after whose calls a running SpeedClock may take a
#: reading: the touching-pair integrals run throughout every assembly, and
#: every configuration passes through evaluate
TICK_TARGETS = (("cmadof.quadrature", "static_potential_integrals"),
                ("cmadof.ga", "evaluate"))


def install_ticks(clock) -> None:
    """Tick `clock` after every call of a TICK_TARGETS function."""
    import importlib

    from tracing import rebind

    for mod_name, attr in TICK_TARGETS:
        original = getattr(importlib.import_module(mod_name), attr)

        def ticking(*args, _fn=original, **kwargs):
            result = _fn(*args, **kwargs)
            clock.tick()
            return result

        rebind(original, ticking)


@dataclass
class Job:
    command: str
    wall_s: float
    ok: bool
    summary: dict | None
    error: str | None
    artifact_bytes: int
    #: wall_s at the reference machine speed (see calibration.py)
    scaled_s: float | None = None


def run_job(command: str, values: dict, work: Path, counter: EvalCounter,
            tracer=None, clock=None) -> Job:
    """Run one CLI job, time it, and summarize its artifacts.

    With a calibration.SpeedClock the job's wall time leaves out the
    clock's readings and its scaled time is filled in.
    """
    from cmadof import cli

    out = Path(values["out"])
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "run.ini"
    cfg_path.write_text(config_text(values), encoding="utf-8")
    counter.reset()
    argv = [command, "--config", str(cfg_path)]
    error = None
    if clock is not None:
        clock.start()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli.main"):
                rc = cli.main(argv)
    except Exception as exc:  # a crashing job is a failed job, not a crash
        rc = None
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    scaled = None
    if clock is not None:
        clock.stop()
        wall, scaled = clock.wall, clock.scaled
    if rc not in (0, None):
        error = f"exit code {rc}"
    summary = None
    if error is None:
        try:
            summary = (summarize_optimize(out, counter)
                       if command == "optimize" else summarize_dof(out))
        except (OSError, ValueError, KeyError) as exc:
            error = f"unreadable output: {type(exc).__name__}: {exc}"
    size = sum(p.stat().st_size for p in out.rglob("*") if p.is_file()) \
        if out.is_dir() else 0
    return Job(command, wall, error is None, summary, error, size, scaled)


# --- correctness gate -------------------------------------------------------


def _report_summary(report: dict) -> dict:
    keys = ("dof_h", "dof_g_effective", "port_mode_upper", "lower_bound",
            "gamma_matrix_rank", "h_strict_rank", "g_strict_rank")
    out = {k: report[k] for k in keys}
    out["h_singulars"] = report["h_singulars"]
    out["g_singulars"] = report["g_singulars"][:N_G_SINGULARS]
    return out


def summarize_dof(out: Path) -> dict:
    report = json.loads((out / "dof_report.json").read_text("utf-8"))
    return _report_summary(report)


def summarize_optimize(out: Path, counter: EvalCounter) -> dict:
    best = json.loads((out / "best_config.json").read_text("utf-8"))
    log = [json.loads(line) for line in
           (out / "ga_log.jsonl").read_text("utf-8").splitlines()]
    return {
        "best_phi_hex": best["phi_hex"],
        "unique_evals": len(counter.keys),
        "degenerate": len(counter.degenerate),
        "history": [rec["best_fitness"] for rec in log],
        "report": None if best["report"] is None
        else _report_summary(best["report"]),
    }


def _is_number_list(x) -> bool:
    return isinstance(x, list) and all(
        isinstance(v, (int, float)) or v is None for v in x)


def mismatches(got, ref, path: str = "") -> list[str]:
    """Differences between a job summary and its reference.

    Strings, integers and None must match exactly; floats and float lists
    to RTOL times the largest reference magnitude in the same vector.
    """
    if isinstance(ref, dict):
        if not isinstance(got, dict):
            return [f"{path}: expected an object"]
        out = []
        for key in ref:
            out += mismatches(got.get(key), ref[key], f"{path}.{key}")
        return out
    if isinstance(ref, float) or (
            _is_number_list(ref) and any(isinstance(v, float) for v in ref)):
        ref_list = ref if isinstance(ref, list) else [ref]
        got_list = got if isinstance(got, list) else [got]
        if not _is_number_list(got_list) or len(got_list) != len(ref_list):
            return [f"{path}: shape differs"]
        scale = max((abs(v) for v in ref_list if v is not None), default=0.0)
        for i, (g, r) in enumerate(zip(got_list, ref_list)):
            if (g is None) != (r is None) or (
                    r is not None and abs(g - r) > RTOL * scale):
                return [f"{path}[{i}]: {g!r} != {r!r}"]
        return []
    return [] if got == ref else [f"{path}: {got!r} != {ref!r}"]


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text("utf-8"))


def check(job: Job, reference: dict, ga_seed: int) -> Job:
    """Fail the job when its outputs differ from the reference."""
    if job.ok:
        ref = (reference["dof"] if job.command == "dof"
               else reference["optimize"][str(ga_seed)])
        bad = mismatches(job.summary, ref)
        if bad:
            job.ok = False
            job.error = "output differs from reference: " + "; ".join(bad[:3])
    return job


# --- set-up time ------------------------------------------------------------


def measure_setup(root: Path, command: str, values: dict,
                  work: Path) -> float:
    """Seconds from starting a fresh interpreter to its first pipeline call.

    The child imports the CLI, loads the config and builds the problem;
    setup_probe.py reports the monotonic clock (shared by all processes of
    the machine) when the CLI first calls into the GA or evaluation.
    """
    work.mkdir(parents=True, exist_ok=True)
    cfg_path = work / "setup.ini"
    cfg_path.write_text(config_text(values), encoding="utf-8")
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(root),
         command, str(cfg_path)],
        capture_output=True, text=True, timeout=120)
    marks = [line for line in proc.stdout.splitlines()
             if line.startswith("FIRST_PIPELINE_CALL ")]
    if proc.returncode != 0 or not marks:
        raise RuntimeError(f"setup probe failed (exit {proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return float(marks[0].split()[1]) - t0


# --- metrics ----------------------------------------------------------------


def describe(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it,
    and the sample count."""
    xs = sorted(samples)
    n = len(xs)
    out = {"n": n, "median": statistics.median(xs) if xs else None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            rank = min(n - 1, int(round(pct / 100.0 * (n - 1))))
            out[f"p{pct:g}"] = xs[rank]
            break
    return out


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest waited child.

    Children are the set-up probes and, on the pool workload, the GA
    workers; ru_maxrss is in KiB on Linux.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def pickled_bytes(problem) -> tuple[int, float]:
    """(pickled size of the whole result cache, mean size of one result)."""
    cache = problem.cache
    sizes = [len(pickle.dumps(v, protocol=pickle.HIGHEST_PROTOCOL))
             for v in cache.values()]
    total = len(pickle.dumps(cache, protocol=pickle.HIGHEST_PROTOCOL))
    return total, (statistics.fmean(sizes) if sizes else 0.0)


# --- environment record -----------------------------------------------------


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, keyed by library file."""
    import ctypes

    import numpy
    import scipy

    out = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / \
            f"{pkg.__name__}.libs"
        for path in sorted(glob.glob(str(libs / "*openblas*"))):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    out[Path(path).name] = fn()
                    break
    return out


def _blas_info(pkg) -> dict | None:
    deps = getattr(pkg.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas")
    return None if blas is None else {
        "name": blas.get("name"), "version": blas.get("version")}


def git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():  # keep git from finding an outer repo
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "cmadof").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(root: Path, cleared: dict, load_at_start) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_numpy": _blas_info(numpy),
        "blas_scipy": _blas_info(scipy),
        "blas_threads": _blas_threads(),
        "cleared_thread_vars": cleared,
        "loadavg_start": list(load_at_start),
        "git_commit": git_commit(root),
        "source_sha256_16": source_digest(root),
    }


def clean(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
