"""Command-line driver for the antenna DoF pipeline.

Five commands share one configuration schema (see config.py):

  modes        analyze one plate, write the mode report CSV + curve SVG
  dof          analyze a link, write the DoF report JSON + spectrum SVG
  optimize     run the GA, write logs, best config, convergence + spectra
  sweep        repeat the dof/optimize analysis over ports/separation/gamma
  export-mesh  write the transmit plate mesh as text or JSON

Every artifact is reproducible byte-for-byte from (config, seed) on one
machine, NumPy/BLAS build and BLAS thread count (BLAS sums in an order
that depends on its thread count); the only timestamp lives in
run_meta.json. Exit codes: 0 success, 2 configuration error, 3 geometry
error, 4 numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .channel import effective_rank
from .config import RunConfig, load_run_config
from .errors import (ConfigError, GeometryError, NumericalError)
from .ga import (PixelProblem, PlateModel, analyze_plate, evaluate,
                 link_report, phi_from_hex, phi_to_hex, run_ga)
from .mesh import PlateSpec, build_plate_mesh, mesh_to_json, mesh_to_text
from .svgplot import LinePlot, write_atomic, write_plot

__all__ = ["main"]

logger = logging.getLogger(__name__)

_DB_FLOOR = 1e-10  # spectra are clipped here before the dB conversion


def _plate_spec(cfg: RunConfig, side: str) -> PlateSpec:
    px = cfg.effective_pixel_size()
    rows = getattr(cfg, f"{side}_ports")
    cols = getattr(cfg, f"{side}_pixels_per_port")
    return PlateSpec(width=cols * px, height=rows * px,
                     pixel_rows=rows, pixel_cols=cols, ports=rows)


def _plate_bits(cfg: RunConfig, side: str, spec: PlateSpec) -> np.ndarray:
    text = getattr(cfg, f"{side}_bits")
    if text == "ones":
        return np.ones(spec.n_bits, dtype=np.uint8)
    if text == "zeros":
        return np.zeros(spec.n_bits, dtype=np.uint8)
    # RunConfig.validate has already matched the length to the plate
    return np.array([int(c) for c in text], dtype=np.uint8)


def _make_problem(cfg: RunConfig) -> PixelProblem:
    return PixelProblem(
        tx_spec=_plate_spec(cfg, "tx"),
        rx_spec=_plate_spec(cfg, "rx"),
        frequency=cfg.frequency,
        separation=cfg.separation,
        gamma=cfg.gamma,
        n_keep=cfg.n_keep,
    )


def _write_meta(cfg: RunConfig, command: str) -> None:
    meta = {
        "command": command,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "config": dataclasses.asdict(cfg),
    }
    write_atomic(os.path.join(cfg.out, "run_meta.json"),
                 json.dumps(meta, indent=2) + "\n")


def _spectrum_db(singulars: np.ndarray) -> np.ndarray:
    """20 log10(sigma_l / sigma_1), clipped far below any threshold."""
    s = np.asarray(singulars, dtype=float)
    top = s[0] if s.size and s[0] > 0 else 1.0
    return 20.0 * np.log10(np.maximum(s / top, _DB_FLOOR))


def cmd_modes(cfg: RunConfig) -> None:
    """Analyze one plate, write the mode report CSV + curve SVG."""
    spec = _plate_spec(cfg, "tx")
    bits = _plate_bits(cfg, "tx", spec)
    plate = analyze_plate(PlateModel.build(spec, cfg.frequency), bits,
                          cfg.n_keep)
    sig = np.abs(plate.modes.significances)
    v_mag = np.abs(plate.v)

    lines = ["mode,eigenvalue," + "significance," +
             ",".join(f"v_mag_port{p}" for p in range(spec.ports))]
    for i in range(plate.modes.n_kept):
        row = [str(i), repr(float(plate.modes.eigenvalues[i])),
               repr(float(sig[i]))]
        row += [repr(float(v_mag[i, p])) for p in range(spec.ports)]
        lines.append(",".join(row))
    write_atomic(os.path.join(cfg.out, "modes.csv"), "\n".join(lines) + "\n")

    plot = LinePlot(title="Modal significance",
                    xlabel="mode index (sorted)", ylabel="|m|")
    plot.add_series("|m|", np.arange(1, sig.size + 1), sig)
    plot.add_hline(1.0 / np.sqrt(2.0), "3 dB")
    write_plot(os.path.join(cfg.out, "modal_significance"), plot)


def cmd_dof(cfg: RunConfig) -> None:
    """Analyze a link, write the DoF report JSON + spectrum SVG."""
    problem = _make_problem(cfg)
    phi = np.concatenate([
        _plate_bits(cfg, "tx", problem.tx_spec),
        _plate_bits(cfg, "rx", problem.rx_spec),
    ])
    fit = evaluate(problem, phi).fitness
    report = link_report(problem, phi)
    if report is None:
        raise NumericalError(
            "configured link is degenerate (no usable modes or ports)"
        )
    write_atomic(os.path.join(cfg.out, "dof_report.json"),
                 report.to_json() + "\n")

    plot = LinePlot(title="Equivalent channel spectrum",
                    xlabel="subchannel index",
                    ylabel="relative power (dB)")
    h_db = _spectrum_db(report.h_singulars)
    plot.add_series("H", np.arange(1, h_db.size + 1), h_db)
    plot.add_hline(10.0 * np.log10(cfg.gamma), "gamma cutoff")
    write_plot(os.path.join(cfg.out, "spectrum"), plot)
    logger.info("dof_h=%d dof_g_effective=%d fitness=%.6g",
                report.dof_h, report.dof_g_effective, fit)


def cmd_optimize(cfg: RunConfig) -> None:
    """Run the GA, write logs, best config, convergence + spectra."""
    problem = _make_problem(cfg)
    log_path = os.path.join(cfg.out, "ga_log.jsonl")
    ckpt_path = os.path.join(cfg.out, "ga_checkpoint.json")
    run = run_ga(problem, cfg.generations, cfg.population, cfg.parents,
                 cfg.mutation_rate, cfg.seed, log_path=log_path,
                 checkpoint_path=ckpt_path,
                 resume_from=ckpt_path if cfg.resume else None)

    best = run.best
    best_report = link_report(problem, best.phi)
    payload = {
        "phi_hex": phi_to_hex(best.phi),
        "n_bits": int(best.phi.size),
        "fitness": best.fitness if np.isfinite(best.fitness) else None,
        "report": None if best_report is None
        else json.loads(best_report.to_json()),
    }
    write_atomic(os.path.join(cfg.out, "best_config.json"),
                 json.dumps(payload, indent=2) + "\n")

    history = np.array(run.best_history, dtype=float)
    finite = np.isfinite(history)
    conv = LinePlot(title="GA convergence",
                    xlabel="generation",
                    ylabel="singular-value spread (-fitness)")
    conv.add_series("best", np.flatnonzero(finite), -history[finite])
    write_plot(os.path.join(cfg.out, "convergence"), conv)

    spect = LinePlot(title="Spectrum before and after optimization",
                     xlabel="subchannel index",
                     ylabel="relative power (dB)")
    with open(log_path, encoding="utf-8") as fh:
        first = json.loads(fh.readline())
    # the initial best's spectrum is its cached score's: no second report
    h0 = evaluate(problem, phi_from_hex(first["best_phi_hex"],
                                        problem.bit_length)).h_singulars
    if h0 is not None:
        db0 = _spectrum_db(h0)
        spect.add_series("initial best", np.arange(1, db0.size + 1), db0)
    if best_report is not None:
        db1 = _spectrum_db(best_report.h_singulars)
        spect.add_series("optimized", np.arange(1, db1.size + 1), db1)
    if spect.series:
        spect.add_hline(10.0 * np.log10(cfg.gamma), "gamma cutoff")
        write_plot(os.path.join(cfg.out, "spectrum_optimized"), spect)
    logger.info("best fitness %.6g after %d generations",
                best.fitness, run.generation)


def _sweep_point_config(cfg: RunConfig, axis: str, value: float) -> RunConfig:
    if axis == "ports":
        # nan and inf have no nearest integer: refused as 0
        ports = round(value) if math.isfinite(value) else 0
        if abs(value - ports) > 1e-9 or ports < 1:
            raise ConfigError(f"ports sweep values must be positive "
                              f"integers, got {value!r}")
        return dataclasses.replace(cfg, tx_ports=ports, rx_ports=ports,
                                   tx_bits="ones", rx_bits="ones")
    if axis == "separation":
        return dataclasses.replace(cfg, separation=float(value))
    return dataclasses.replace(cfg, gamma=float(value))


def cmd_sweep(cfg: RunConfig) -> None:
    """Repeat the dof/optimize analysis over ports/separation/gamma."""
    if cfg.sweep_axis is None or cfg.sweep_values is None:
        raise ConfigError("sweep needs sweep_axis and sweep_values")
    header = (f"{cfg.sweep_axis},dof_g_effective,dof_h_all_on,"
              "dof_h_random_mean,dof_h_optimized,port_mode_upper,lower_bound")
    rows = [header]
    # every point is checked before the first one runs
    points = []
    for value in cfg.sweep_values:
        point = _sweep_point_config(cfg, cfg.sweep_axis, value)
        point.validate()
        points.append((value, point, _make_problem(point)))
    # a gamma sweep is one link, its spectra counted at each point's gamma;
    # the points of a separation sweep share the first point's parents
    first = points[0][2]
    for index, (value, point, problem) in enumerate(points):
        if index and cfg.sweep_axis == "gamma":
            problem = first
        else:
            if index and cfg.sweep_axis == "separation":
                problem.models = first.models
            ones = np.ones(problem.bit_length, dtype=np.uint8)
            report = link_report(problem, ones)
            if report is None:
                raise NumericalError(f"sweep point {value!r} is degenerate "
                                     "for the all-on plates")
            ga = run_ga(problem, point.generations, point.population,
                        point.parents, point.mutation_rate, point.seed)
        rng = np.random.default_rng([point.seed, index])
        random_dofs = []
        for _ in range(point.random_count):
            phi = rng.integers(0, 2, problem.bit_length, dtype=np.uint8)
            h = evaluate(problem, phi).h_singulars
            if h is not None:
                random_dofs.append(effective_rank(h, point.gamma))
        random_mean = (float(np.mean(random_dofs)) if random_dofs
                       else float("nan"))
        best = evaluate(problem, ga.best.phi).h_singulars
        opt_dof = ("" if best is None
                   else str(effective_rank(best, point.gamma)))
        rows.append(
            f"{float(value)!r},"
            f"{effective_rank(report.g_singulars, point.gamma)},"
            f"{effective_rank(report.h_singulars, point.gamma)},"
            f"{random_mean!r},{opt_dof},{report.port_mode_upper},"
            f"{report.lower_bound}"
        )
    write_atomic(os.path.join(cfg.out, "sweep.csv"), "\n".join(rows) + "\n")


def cmd_export_mesh(cfg: RunConfig) -> None:
    """Write the transmit plate mesh as text or JSON."""
    spec = _plate_spec(cfg, "tx")
    bits = _plate_bits(cfg, "tx", spec)
    mesh = build_plate_mesh(spec, bits)
    if cfg.mesh_format == "json":
        write_atomic(os.path.join(cfg.out, "mesh.json"), mesh_to_json(mesh))
    else:
        write_atomic(os.path.join(cfg.out, "mesh.txt"), mesh_to_text(mesh))


_COMMANDS = {
    "modes": cmd_modes,
    "dof": cmd_dof,
    "optimize": cmd_optimize,
    "sweep": cmd_sweep,
    "export-mesh": cmd_export_mesh,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmadof",
        description="Characteristic-mode antenna analysis and DoF "
                    "optimization for pixelated plate pairs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="key=value run configuration file")
        p.add_argument("--seed", type=int, help="override the RNG seed")
        p.add_argument("--out", help="override the output directory")
        p.add_argument("--gamma", type=float,
                       help="override the DoF threshold")
        p.add_argument("--n-keep", type=int, dest="n_keep",
                       help="override the kept-mode count")
        p.add_argument("--verbose", action="store_true",
                       help="log progress to stderr")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verbose:
        logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
    overrides = {
        "seed": args.seed,
        "out": args.out,
        "gamma": args.gamma,
        "n_keep": args.n_keep,
    }
    try:
        cfg = load_run_config(args.config, overrides)
        made = not os.path.isdir(cfg.out)
        try:
            os.makedirs(cfg.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory {cfg.out!r}: "
                              f"{exc.strerror or exc}") from None
        try:
            _COMMANDS[args.command](cfg)
        except Exception:
            # a command that fails before its first write leaves no out
            if made and not os.listdir(cfg.out):
                os.rmdir(cfg.out)
            raise
        _write_meta(cfg, args.command)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
