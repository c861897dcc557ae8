"""Genetic optimization of pixel-antenna pairs for achievable DoF.

A configuration is one bit vector phi = [phi_T ; phi_R] over the transmit
and receive pixel grids (spine pixels are always metal and sit outside the
encoding, so every configuration keeps all its ports). Each evaluation runs
the physics pipeline

    impedance -> characteristic modes -> port excitation/patterns
              -> transmit/receive maps -> free-space channel G -> H -> sigma(H)

where the impedance, the face sampler and the port columns of a
configuration are gathered by its face and edge maps from its plate's
all-metal parent (`PlateModel`, built once per plate spec and frequency),
in the parent's face and edge order, and G from the channel between the
two parents (assembled once per problem). No configuration is meshed.
The fitness is the negated standard deviation of the singular values of
H: flat spectra score 0 (the maximum), lopsided spectra score negative,
so maximizing the score pushes toward more usable subchannels.

`evaluate` keeps only what the GA needs of a configuration, a `Score` of
sigma(H), the achievable DoF and the fitness. `link_report` builds the full
`DofReport` (G's spectrum, the Gamma decomposition and the rank bounds) for
the few configurations that reach an artifact.

The evolutionary loop is a plain binary GA: tournament-2 selection with
replacement, uniform crossover over consecutive parent pairs, independent
per-bit mutation (default rate 1/bit_length), and elitist truncation of the
merged parent and child pool, which makes the best-so-far fitness exactly
non-decreasing. All randomness flows from one seeded generator owned by the
evolution loop; evaluations are deterministic, run one at a time in the
calling process, and their scores are kept in a bounded cache keyed by
configuration bytes.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import ChannelOperator, assemble_channel
from .cma import (SIGNIFICANCE_FLOOR, ModeBasis, excitation_matrix,
                  mode_patterns, solve_modes)
from .dofcore import (DofReport, EquivalentChannel, achievable_dof,
                      build_report, equivalent_channel, gamma_decomposition,
                      receiver_map, transmitter_map)
from .efie import (C0, ImpedanceOperator, assemble_impedance,
                   delta_gap_excitation)
from .errors import (CheckpointError, DegenerateStructureError, GeometryError,
                     NumericalError, RankDeficiencyError)
from .mesh import (PlateSpec, RwgBasis, build_plate_mesh, extract_rwg,
                   face_rows, face_sampling_operator, locate_port_edges)
from .svgplot import write_atomic

__all__ = [
    "NEG_INF",
    "PixelProblem",
    "PlateModel",
    "PlateAnalysis",
    "Score",
    "Individual",
    "GaRun",
    "analyze_plate",
    "evaluate",
    "link_report",
    "fitness",
    "select_parents",
    "crossover_mutate",
    "run_ga",
    "phi_to_hex",
    "phi_from_hex",
]

logger = logging.getLogger(__name__)

#: fitness sentinel for configurations the pipeline cannot analyze
NEG_INF = float("-inf")

CHECKPOINT_FORMAT = "cmadof-ga-checkpoint-v2"
#: earlier format, read on resume: a DofReport per individual, no problem
_CHECKPOINT_V1 = "cmadof-ga-checkpoint-v1"

#: scores the result cache keeps before it drops the least recently used
CACHE_SIZE = 10_000


@dataclass
class PlateModel:
    """The all-metal parent of one plate spec at one frequency.

    A configuration's metal is a subset of the parent's: the same grid
    nodes, the same row-major faces (two per pixel), and so the same plus
    and minus faces and free vertices on every edge they share. A
    configuration is therefore its face map f, the parent faces of its
    metal pixels, and its edge map e (`RwgBasis.edge_map`), the parent
    edges whose two faces are both in f, both in parent order. Face-pair
    moments depend only on the two faces, so each configuration operator
    is exactly a sub-block of the parent's:

        Z(config) = Z[e][:, e]        impedance, a principal sub-block
        S(config) = S[rows(f)][:, e]  face sampler, three rows per face
        B(config) = B[e]              delta-gap port columns

    A mesh built for the configuration would number the same edges in
    another order; its Z, S and B are these up to that permutation. The
    parent is meshed and assembled once, and every configuration of the
    spec is then analyzed by gather. The face map f gathers the
    configuration's channel from the parents' in the same way
    (`PixelProblem.channel`).
    """

    spec: PlateSpec
    frequency: float
    basis: RwgBasis         # parent mesh and edge basis
    impedance: ImpedanceOperator
    sampler: np.ndarray     # (3 n_faces, n_edges) parent face sampler
    excitation: np.ndarray  # (n_edges, L) parent delta-gap columns

    @classmethod
    def build(cls, spec: PlateSpec, frequency: float) -> "PlateModel":
        mesh = build_plate_mesh(spec, np.ones(spec.n_bits, dtype=np.uint8))
        basis = extract_rwg(mesh)
        return cls(
            spec=spec,
            frequency=frequency,
            basis=basis,
            impedance=assemble_impedance(basis, frequency),
            sampler=face_sampling_operator(basis),
            excitation=delta_gap_excitation(
                basis, locate_port_edges(spec, mesh)),
        )

    def gather(self, bits) -> tuple[ImpedanceOperator, np.ndarray,
                                    np.ndarray, np.ndarray]:
        """(impedance, sampler, port columns, parent faces f) of one
        configuration, all taken from the parent by index.

        Pixel t owns parent faces 2t and 2t + 1, so the configuration's
        faces f, and with them its edges, keep the parent's order. The
        all-metal configuration keeps every face and edge: it gets the
        parent's own impedance operator, sampler and port columns, not
        copies.
        """
        f = (2 * self.spec.metal_pixels(bits)[:, None] + np.arange(2)).ravel()
        if f.size == self.basis.mesh.n_faces:
            return self.impedance, self.sampler, self.excitation, f
        e = self.basis.edge_map(f)
        rows = face_rows(f)
        op = ImpedanceOperator(z=self.impedance.z[np.ix_(e, e)],
                               frequency=self.frequency)
        return op, self.sampler[np.ix_(rows, e)], self.excitation[e], f


@dataclass
class PlateAnalysis:
    """What one plate contributes to the link model: its modes, the modal
    excitation matrix V, the unit-norm mode patterns, and the parent face
    of each of its faces."""

    modes: ModeBasis
    v: np.ndarray
    patterns: np.ndarray
    faces: np.ndarray


def analyze_plate(model: PlateModel, bits, n_keep: int = 20) -> PlateAnalysis:
    """Run gather -> modes -> (V, patterns) for one plate configuration.

    Modes are truncated to |m| >= SIGNIFICANCE_FLOOR
    (`ModeBasis.significant`) before any map is built. The patterns come
    first, so a mode `mode_patterns` drops never reaches V. Raises
    DegenerateStructureError when nothing significant radiates.
    """
    op, sampler, ports, faces = model.gather(bits)
    modes = solve_modes(op, n_keep=n_keep).significant()
    if modes.n_kept == 0:
        raise DegenerateStructureError(
            "no mode reaches the significance floor "
            f"{SIGNIFICANCE_FLOOR:g} on this configuration"
        )
    patterns = mode_patterns(modes, sampler)
    return PlateAnalysis(modes=modes, v=excitation_matrix(modes, ports),
                         patterns=patterns, faces=faces)


@dataclass
class PixelProblem:
    """One transmit/receive pixel-antenna link to optimize.

    The receive plate sits broadside to the transmit plate, displaced by
    `separation` along +z, so any positive separation keeps the apertures
    disjoint. The configuration bit vector concatenates the transmit grid
    (row-major) followed by the receive grid. The parent plate models and
    the channel between them are built on the first evaluation, one shared
    model when both plates have the same spec. `cache` holds the `Score`
    of at most CACHE_SIZE configurations, least recently used dropped
    first. For `link_report`, `best_link` holds (key, LinkAnalysis,
    fitness) of the fittest configuration evaluated so far.
    """

    tx_spec: PlateSpec
    rx_spec: PlateSpec
    frequency: float
    separation: float
    gamma: float = 0.5
    n_keep: int = 20
    cache: OrderedDict = field(default_factory=OrderedDict, repr=False,
                               compare=False)
    cache_hits: int = field(default=0, repr=False, compare=False)
    evaluations: int = field(default=0, repr=False, compare=False)
    best_link: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.frequency <= 0:
            raise ValueError("frequency must be positive")
        if self.separation <= 0:
            raise GeometryError(
                "separation must be positive so the apertures are disjoint"
            )
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    @property
    def bit_length(self) -> int:
        return self.tx_spec.n_bits + self.rx_spec.n_bits

    @property
    def wavenumber(self) -> float:
        return 2.0 * np.pi * self.frequency / C0

    @cached_property
    def models(self) -> tuple[PlateModel, PlateModel]:
        """(transmit, receive) parent plate models, built on first use."""
        tx = PlateModel.build(self.tx_spec, self.frequency)
        rx = tx if self.rx_spec == self.tx_spec else \
            PlateModel.build(self.rx_spec, self.frequency)
        return tx, rx

    @cached_property
    def channel(self) -> ChannelOperator:
        """Channel between the all-metal parents, built on first use."""
        tx, rx = self.models
        rx_mesh = rx.basis.mesh.translated((0.0, 0.0, self.separation))
        return assemble_channel(tx.basis.mesh, rx_mesh, self.wavenumber)

    def fingerprint(self) -> dict:
        """The problem's defining values, as a checkpoint stores them."""
        # through JSON, so that it compares equal to a loaded fingerprint
        # (the specs' tuples come back as lists)
        return json.loads(json.dumps({
            "tx_spec": dataclasses.asdict(self.tx_spec),
            "rx_spec": dataclasses.asdict(self.rx_spec),
            "frequency": self.frequency,
            "separation": self.separation,
            "gamma": self.gamma,
            "n_keep": self.n_keep,
            "significance_floor": SIGNIFICANCE_FLOOR,
        }))

    def split(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        phi = np.asarray(phi)
        return phi[: self.tx_spec.n_bits], phi[self.tx_spec.n_bits:]


def phi_to_hex(phi: np.ndarray) -> str:
    """Bit vector -> hex string (bits packed MSB-first, zero padded)."""
    return np.packbits(np.asarray(phi, dtype=np.uint8)).tobytes().hex()


def phi_from_hex(text: str, n_bits: int) -> np.ndarray:
    raw = np.frombuffer(bytes.fromhex(text), dtype=np.uint8)
    bits = np.unpackbits(raw)
    if bits.size < n_bits:
        raise ValueError(f"hex string holds {bits.size} bits, need {n_bits}")
    return bits[:n_bits].copy()


def fitness(ch: EquivalentChannel) -> float:
    """Negated standard deviation of the leading min(L_T, L_R) singular
    values; 0 is the best possible score (perfectly flat spectrum)."""
    l_m = min(ch.matrix.shape)
    sing = ch.singulars[:l_m]
    return float(-np.sqrt(np.mean((sing - sing.mean()) ** 2)))


class Score(NamedTuple):
    """What the GA keeps of one configuration: the singular values of H,
    its achievable DoF and the fitness. A configuration the pipeline
    cannot analyze scores DEGENERATE."""

    h_singulars: np.ndarray | None
    dof_h: int | None
    fitness: float


DEGENERATE = Score(None, None, NEG_INF)


@dataclass
class LinkAnalysis:
    """One configuration's analyzed link, from both plates to H."""

    tx: PlateAnalysis
    rx: PlateAnalysis
    g: ChannelOperator
    channel: EquivalentChannel


def _key(phi: np.ndarray) -> bytes:
    return np.packbits(phi).tobytes()


def _analyze_link(problem: PixelProblem,
                  phi: np.ndarray) -> tuple[LinkAnalysis, Score]:
    """gather -> modes -> maps -> G -> H -> sigma(H) for one configuration.

    Raises DegenerateStructureError, RankDeficiencyError or NumericalError
    when the configuration cannot be analyzed.
    """
    phi_t, phi_r = problem.split(phi)
    tx_model, rx_model = problem.models
    try:
        tx = analyze_plate(tx_model, phi_t, problem.n_keep)
        # one shared parent and the same bits: the same analysis
        same = rx_model is tx_model and np.array_equal(phi_r, phi_t)
        rx = tx if same else analyze_plate(rx_model, phi_r, problem.n_keep)
        u_t = transmitter_map(tx.patterns, tx.modes.significances, tx.v)
        u_r = receiver_map(rx.v, rx.modes.significances, rx.patterns)
        g = problem.channel.gather(rx.faces, tx.faces)
        ch = equivalent_channel(u_r, g, u_t)
        if not np.all(np.isfinite(ch.matrix)):
            raise NumericalError("equivalent channel is not finite")
        score = Score(ch.singulars, achievable_dof(ch, problem.gamma),
                      fitness(ch))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear algebra failed: {exc}") from exc
    return LinkAnalysis(tx=tx, rx=rx, g=g, channel=ch), score


def evaluate(problem: PixelProblem, phi) -> Score:
    """The Score of one configuration.

    Scores are cached on the problem by configuration bytes; a repeat
    request counts as a cache hit. A configuration the pipeline cannot
    analyze (nothing radiates, the receive ports cannot be separated, or
    the numerics fail) scores DEGENERATE and is logged. The analyzed link
    of the fittest configuration so far stays in `problem.best_link` for
    `link_report`.
    """
    phi = np.asarray(phi, dtype=np.uint8).ravel()
    if phi.size != problem.bit_length:
        raise ValueError(
            f"configuration has {phi.size} bits, problem wants "
            f"{problem.bit_length}"
        )
    if np.any(phi > 1):
        raise ValueError("configuration bits must be 0 or 1")
    key = _key(phi)
    hit = problem.cache.get(key)
    if hit is not None:
        problem.cache.move_to_end(key)
        problem.cache_hits += 1
        return hit
    problem.evaluations += 1
    try:
        link, score = _analyze_link(problem, phi)
        if problem.best_link is None or score.fitness > problem.best_link[2]:
            problem.best_link = (key, link, score.fitness)
    except (DegenerateStructureError, RankDeficiencyError, NumericalError) as exc:
        logger.warning("degenerate configuration %s: %s", phi_to_hex(phi), exc)
        score = DEGENERATE
    problem.cache[key] = score
    if len(problem.cache) > CACHE_SIZE:
        problem.cache.popitem(last=False)
    return score


def link_report(problem: PixelProblem, phi) -> DofReport | None:
    """The full DofReport of one configuration, None when it is degenerate.

    Adds G's spectrum, the Gamma decomposition and the rank bounds to what
    `evaluate` computes. The link analysis of `evaluate`'s fittest
    configuration is reused, which is every command's first report; any
    other configuration is analyzed again.
    """
    if evaluate(problem, phi).h_singulars is None:
        return None
    phi = np.asarray(phi, dtype=np.uint8).ravel()
    key = _key(phi)
    kept = problem.best_link
    if kept is not None and kept[0] == key:
        link = kept[1]
    else:
        link, _ = _analyze_link(problem, phi)
    try:
        tx, rx = link.tx, link.rx
        gm = gamma_decomposition(link.g, rx.patterns, tx.patterns)
        return build_report(link.channel, link.g.singulars, rx.v, tx.v,
                            gm.gamma, problem.gamma)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"linear algebra failed: {exc}") from exc


@dataclass
class Individual:
    phi: np.ndarray
    fitness: float
    dof_h: int | None


@dataclass
class GaRun:
    """State and history of one GA run.

    pop_size, n_parents, and k_max are the population size, parents drawn
    per generation, and generation budget; best_history[g] is the best
    fitness after generation g (index 0 is the initial population) and is
    non-decreasing because replacement is elitist.
    """

    population: list[Individual]
    generation: int
    k_max: int
    pop_size: int
    n_parents: int
    mutation_rate: float
    rng_seed: int
    best_history: list[float] = field(default_factory=list)

    @property
    def best(self) -> Individual:
        return max(self.population, key=lambda ind: ind.fitness)


def select_parents(run: GaRun, rng: np.random.Generator) -> list[np.ndarray]:
    """n_parents configurations by size-2 tournament with replacement.

    Each tournament draws two population indices and keeps the fitter
    individual; on ties the first-drawn wins. Returns copies.
    """
    if not run.population:
        raise ValueError("population is empty")
    fits = [ind.fitness for ind in run.population]
    out = []
    for _ in range(run.n_parents):
        i, j = rng.integers(0, len(fits), size=2)
        winner = int(i) if fits[int(i)] >= fits[int(j)] else int(j)
        out.append(run.population[winner].phi.copy())
    return out


def crossover_mutate(
    parents: list[np.ndarray],
    mutation_rate: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Uniform crossover over consecutive pairs, then per-bit mutation.

    Parents (p0, p1) produce two complementary children: each bit comes
    from p0 in one child and p1 in the other, chosen by a fair coin per
    position. Every child bit then flips independently with probability
    mutation_rate. len(children) == len(parents).
    """
    if len(parents) % 2:
        raise ValueError("need an even number of parents")
    if not 0.0 <= mutation_rate <= 1.0:
        raise ValueError("mutation rate must lie in [0, 1]")
    children = []
    for a, b in zip(parents[0::2], parents[1::2]):
        mask = rng.integers(0, 2, size=a.size).astype(bool)
        c1 = np.where(mask, a, b).astype(np.uint8)
        c2 = np.where(mask, b, a).astype(np.uint8)
        for child in (c1, c2):
            flips = rng.random(child.size) < mutation_rate
            child[flips] ^= 1
            children.append(child)
    return children


def _make_individual(problem: PixelProblem, phi: np.ndarray) -> Individual:
    score = evaluate(problem, phi)
    return Individual(phi=np.asarray(phi, dtype=np.uint8).copy(),
                      fitness=score.fitness, dof_h=score.dof_h)


def _json_float(x: float):
    return None if not np.isfinite(x) else float(x)


def _log_record(run: GaRun) -> dict:
    fits = np.array([ind.fitness for ind in run.population])
    finite = fits[np.isfinite(fits)]
    best = run.best
    return {
        "generation": run.generation,
        "best_fitness": _json_float(best.fitness),
        "mean_fitness": _json_float(float(finite.mean())) if finite.size else None,
        "best_dof_h": best.dof_h,
        "best_phi_hex": phi_to_hex(best.phi),
    }


def _write_checkpoint(path, run: GaRun, rng: np.random.Generator,
                      problem: PixelProblem) -> None:
    state = {
        "format": CHECKPOINT_FORMAT,
        "problem": problem.fingerprint(),
        "generation": run.generation,
        "k_max": run.k_max,
        "pop_size": run.pop_size,
        "n_parents": run.n_parents,
        "mutation_rate": run.mutation_rate,
        "rng_seed": run.rng_seed,
        "best_history": [_json_float(f) for f in run.best_history],
        "rng_state": rng.bit_generator.state,
        "population": [
            {
                "phi_hex": phi_to_hex(ind.phi),
                "n_bits": int(ind.phi.size),
                "fitness": _json_float(ind.fitness),
                "dof_h": ind.dof_h,
            }
            for ind in run.population
        ],
    }
    write_atomic(path, json.dumps(state))


def _checkpoint_dof_h(rec: dict) -> int | None:
    if "dof_h" in rec:
        return rec["dof_h"]
    # v1 stores the individual's DofReport as a JSON string
    return None if rec["report"] is None else json.loads(rec["report"])["dof_h"]


def _load_checkpoint(path) -> tuple[GaRun, np.random.Generator, dict | None]:
    """(run, generator, problem fingerprint) of a checkpoint.

    A v1 checkpoint has no fingerprint; it loads with None. A file that
    cannot be read, does not decode or parse, has another format tag, or
    lacks or mangles a field raises CheckpointError.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            state = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"unreadable GA checkpoint {path}: {exc}") \
            from exc
    if not isinstance(state, dict) or \
            state.get("format") not in (CHECKPOINT_FORMAT, _CHECKPOINT_V1):
        raise CheckpointError(f"not a GA checkpoint: {path}")
    try:
        population = [
            Individual(
                phi=phi_from_hex(rec["phi_hex"], rec["n_bits"]),
                fitness=NEG_INF if rec["fitness"] is None
                else float(rec["fitness"]),
                dof_h=_checkpoint_dof_h(rec),
            )
            for rec in state["population"]
        ]
        run = GaRun(
            population=population,
            generation=int(state["generation"]),
            k_max=int(state["k_max"]),
            pop_size=int(state["pop_size"]),
            n_parents=int(state["n_parents"]),
            mutation_rate=float(state["mutation_rate"]),
            rng_seed=int(state["rng_seed"]),
            best_history=[NEG_INF if f is None else float(f)
                          for f in state["best_history"]],
        )
        rng = np.random.default_rng()
        rng.bit_generator.state = state["rng_state"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(
            f"malformed GA checkpoint {path}: {exc!r}") from exc
    return run, rng, state.get("problem")


def _truncate_log(path, generation: int) -> None:
    """Drop the log records after `generation`.

    `run_ga` writes a generation's log line before its checkpoint, so a run
    stopped between the two has logged one generation more than it saved,
    and a run stopped while writing a line leaves it torn. The first line
    that is incomplete or does not parse is taken as past the checkpoint;
    a parsed line that is not a record with an integer generation raises
    CheckpointError, and so does a log that is missing or keeps no record
    up to `generation`, which the resumed run's history would lack.
    """
    try:
        fh = open(path, "rb+")
    except OSError as exc:
        raise CheckpointError(f"cannot resume the GA log {path}: {exc}") \
            from exc
    with fh:
        end = 0
        for line in fh:
            if not line.endswith(b"\n"):
                break
            try:
                record = json.loads(line)
            except ValueError:
                break
            if not isinstance(record, dict) or \
                    type(record.get("generation")) is not int:
                text = line.decode(errors="replace").strip()
                raise CheckpointError(
                    f"malformed GA log record in {path}: {text[:80]!r}")
            if record["generation"] > generation:
                break
            end += len(line)
        if end == 0:
            raise CheckpointError(
                f"GA log {path} has no record up to the checkpoint's "
                f"generation {generation}")
        fh.truncate(end)


def run_ga(
    problem: PixelProblem,
    k_max: int,
    pop_size: int,
    n_parents: int,
    mutation_rate: float | None = None,
    seed: int = 0,
    log_path=None,
    checkpoint_path=None,
    resume_from=None,
) -> GaRun:
    """Evolve configurations for k_max generations and return the run.

    Each generation draws n_parents by tournament, produces n_parents
    children by crossover and mutation, evaluates them, then keeps the
    best pop_size individuals of the merged old population and children
    (ties keep incumbents). k_max = 0 just evaluates and ranks the random
    initial population. The same (problem, k_max, pop_size, n_parents,
    mutation_rate, seed) always produces the same run. With resume_from,
    the run continues from that checkpoint toward this call's k_max; the
    problem (when the checkpoint records it) and the other GA parameters
    must match, and every checkpoint configuration must have the problem's
    bit length. Log records after the checkpoint's generation are dropped
    first, so the log reads as an uninterrupted run's; with log_path, the
    log must exist and keep a record up to that generation.
    """
    if pop_size < 2:
        raise ValueError("population size must be at least 2")
    if n_parents < 2 or n_parents % 2:
        raise ValueError("parent count must be even and at least 2")
    if k_max < 0:
        raise ValueError("generation budget must be non-negative")
    rate = 1.0 / problem.bit_length if mutation_rate is None else float(mutation_rate)
    if not 0.0 <= rate <= 1.0:
        raise ValueError("mutation rate must lie in [0, 1]")

    if resume_from is not None:
        run, rng, fingerprint = _load_checkpoint(resume_from)
        if fingerprint is not None and fingerprint != problem.fingerprint():
            raise CheckpointError(
                "checkpoint was written for a different problem")
        if (run.pop_size, run.n_parents) != (pop_size, n_parents) or \
                abs(run.mutation_rate - rate) > 1e-15:
            raise CheckpointError(
                "checkpoint GA parameters do not match this call")
        if any(ind.phi.size != problem.bit_length for ind in run.population):
            raise CheckpointError(
                "checkpoint configurations do not have the problem's "
                f"{problem.bit_length} bits")
        run.k_max = k_max
        if log_path:
            _truncate_log(log_path, run.generation)
    log_fh = open(log_path, "a", encoding="utf-8") if log_path else None

    def emit(run: GaRun) -> None:
        if log_fh is not None:
            log_fh.write(json.dumps(_log_record(run)) + "\n")
            log_fh.flush()
        if checkpoint_path is not None:
            _write_checkpoint(checkpoint_path, run, rng, problem)

    try:
        if resume_from is None:
            rng = np.random.default_rng(seed)
            phis = rng.integers(0, 2, size=(pop_size, problem.bit_length),
                                dtype=np.uint8)
            population = [_make_individual(problem, phi) for phi in phis]
            run = GaRun(
                population=population,
                generation=0,
                k_max=k_max,
                pop_size=pop_size,
                n_parents=n_parents,
                mutation_rate=rate,
                rng_seed=seed,
                best_history=[max(ind.fitness for ind in population)],
            )
            logger.info("generation 0: best fitness %.6g", run.best_history[-1])
            emit(run)

        while run.generation < run.k_max:
            parents = select_parents(run, rng)
            child_phis = crossover_mutate(parents, run.mutation_rate, rng)
            children = [_make_individual(problem, phi) for phi in child_phis]
            merged = run.population + children
            merged.sort(key=lambda ind: ind.fitness, reverse=True)
            run.population = merged[: run.pop_size]
            run.generation += 1
            run.best_history.append(run.population[0].fitness)
            logger.info("generation %d: best fitness %.6g",
                        run.generation, run.best_history[-1])
            emit(run)
        return run
    finally:
        if log_fh is not None:
            log_fh.close()
