"""Strict flat key=value run configuration.

One `key = value` pair per line; blank lines and `#` comments are ignored.
Every key must belong to the schema below and parse to its declared type,
otherwise a ConfigError pointing at the offending line is raised; nothing
is written before the whole file validates. Strictness is deliberate: the
defaults, stated once on `RunConfig`, encode the reference operating point,
and a silently ignored typo would drift results away from it. Each key is
one `RunConfig` field, which carries its default and its file parser.

Schema:
  frequency            Hz
  pixel_size           meters; "auto" = 0.24 c/frequency
  gamma                DoF threshold in (0,1)
  n_keep               modes kept per plate
  separation           plate separation along z in meters
  seed                 RNG seed, non-negative
  jobs                 accepted for compatibility; evaluation is serial
  out                  output directory
  tx_ports, rx_ports   ports = pixel rows per plate
  tx_pixels_per_port   pixel columns per plate; same for rx_
  tx_bits, rx_bits     configuration: "ones", "zeros", or a 0/1 string of
                       exactly rows*cols bits
  generations          GA generation budget
  population           GA population size
  parents              GA parents drawn per generation by tournament, even
  mutation_rate        per-bit probability; "auto" = 1/bit_length
  resume               continue from the checkpoint in `out`
  sweep_axis           "ports" | "separation" | "gamma"
  sweep_values         comma-separated numbers
  random_count         random baseline configurations per sweep point
  mesh_format          "text" | "json" for export-mesh
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .efie import C0
from .errors import ConfigError

__all__ = ["RunConfig", "parse_config_file", "load_run_config"]


def _parse_int(text: str) -> int:
    return int(text, 0)


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_auto_float(text: str):
    return None if text.strip().lower() == "auto" else float(text)


def _parse_bits(text: str) -> str:
    low = text.strip().lower()
    if low in ("ones", "zeros"):
        return low
    if low and set(low) <= {"0", "1"}:
        return low
    raise ValueError(
        f"bits must be 'ones', 'zeros', or a 0/1 string, got {text!r}"
    )


def _parse_choice(*options: str):
    def parse(text: str) -> str:
        low = text.strip().lower()
        if low not in options:
            raise ValueError(f"expected one of {options}, got {text!r}")
        return low
    return parse


def _parse_values(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("empty value list")
    return tuple(float(p) for p in parts)


def _key(default, parse):
    """A RunConfig field whose file value `parse` turns into its type."""
    return field(default=default, metadata={"parse": parse})


@dataclass
class RunConfig:
    """Typed, validated run parameters (one instance per invocation)."""

    frequency: float = _key(27e9, float)
    pixel_size: float | None = _key(None, _parse_auto_float)
    gamma: float = _key(0.5, float)
    n_keep: int = _key(20, _parse_int)
    separation: float = _key(0.3, float)
    seed: int = _key(0, _parse_int)
    jobs: int = _key(1, _parse_int)
    out: str = _key(".", str)
    tx_ports: int = _key(4, _parse_int)
    rx_ports: int = _key(4, _parse_int)
    tx_pixels_per_port: int = _key(8, _parse_int)
    rx_pixels_per_port: int = _key(8, _parse_int)
    tx_bits: str = _key("ones", _parse_bits)
    rx_bits: str = _key("ones", _parse_bits)
    generations: int = _key(10, _parse_int)
    population: int = _key(10, _parse_int)
    parents: int = _key(6, _parse_int)
    mutation_rate: float | None = _key(None, _parse_auto_float)
    resume: bool = _key(False, _parse_bool)
    sweep_axis: str | None = _key(
        None, _parse_choice("ports", "separation", "gamma"))
    sweep_values: tuple[float, ...] | None = _key(None, _parse_values)
    random_count: int = _key(5, _parse_int)
    mesh_format: str = _key("text", _parse_choice("text", "json"))

    def effective_pixel_size(self) -> float:
        if self.pixel_size is not None:
            return self.pixel_size
        return 0.24 * C0 / self.frequency

    def validate(self) -> None:
        for name in ("frequency", "pixel_size", "separation"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        if self.frequency <= 0:
            raise ConfigError("frequency must be positive")
        if not 0.0 < self.gamma < 1.0:
            raise ConfigError("gamma must lie in (0, 1)")
        if self.n_keep < 1:
            raise ConfigError("n_keep must be at least 1")
        if self.pixel_size is not None and self.pixel_size <= 0:
            raise ConfigError("pixel_size must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        if self.jobs < 1:
            raise ConfigError("jobs must be at least 1")
        for name in ("tx_ports", "rx_ports",
                     "tx_pixels_per_port", "rx_pixels_per_port"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        for side in ("tx", "rx"):
            bits = getattr(self, f"{side}_bits")
            n = getattr(self, f"{side}_ports") * \
                getattr(self, f"{side}_pixels_per_port")
            if bits not in ("ones", "zeros") and len(bits) != n:
                raise ConfigError(
                    f"{side}_bits has {len(bits)} bits, plate needs {n}"
                )
        if self.population < 2:
            raise ConfigError("population must be at least 2")
        if self.parents < 2 or self.parents % 2:
            raise ConfigError("parents must be even and at least 2")
        if self.generations < 0:
            raise ConfigError("generations must be non-negative")
        if self.mutation_rate is not None and not 0 <= self.mutation_rate <= 1:
            raise ConfigError("mutation_rate must lie in [0, 1]")
        if self.random_count < 1:
            raise ConfigError("random_count must be at least 1")
        if (self.sweep_values is not None and self.sweep_axis is None) or \
                (self.sweep_axis is not None and self.sweep_values is None):
            raise ConfigError(
                "sweep_axis and sweep_values must be given together"
            )


# key -> file parser, read off the fields
_PARSERS = {f.name: f.metadata["parse"] for f in fields(RunConfig)}


def parse_config_file(path: str) -> dict:
    """Parse one key=value file into typed values; strict on every line."""
    values: dict = {}
    seen_lines: dict[str, int] = {}
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ConfigError(
            f"cannot read config file {path!r}: {exc.strerror or exc}") from None
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in _PARSERS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in seen_lines:
                raise ConfigError(
                    f"{path}:{lineno}: duplicate key {key!r} "
                    f"(first set on line {seen_lines[key]})"
                )
            try:
                values[key] = _PARSERS[key](value)
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"{path}:{lineno}: bad value for {key!r}: {exc}"
                ) from None
            seen_lines[key] = lineno
    return values


def load_run_config(path: str | None = None, overrides: dict | None = None) -> RunConfig:
    """RunConfig from defaults, then the file, then explicit overrides."""
    values = dict(parse_config_file(path)) if path else {}
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in _PARSERS:
                raise ConfigError(f"unknown override {key!r}")
            values[key] = val
    cfg = RunConfig(**values)
    cfg.validate()
    return cfg
