"""Characteristic-mode antenna analysis and achievable MIMO degrees of
freedom for pixelated plate antennas.

The pipeline: mesh a binary pixel configuration into triangles
(:mod:`cmadof.mesh`), assemble the electric-field integral-equation
impedance matrix over the edge basis (:mod:`cmadof.efie`), solve the
characteristic-mode eigenproblem (:mod:`cmadof.cma`), couple transmit and
receive plates through the free-space dyadic Green channel
(:mod:`cmadof.channel`), reduce to the port-level equivalent channel and
count its usable subchannels (:mod:`cmadof.dofcore`), and search the
configuration space with a genetic algorithm (:mod:`cmadof.ga`). The
``cmadof`` command line (:mod:`cmadof.cli`) orchestrates all of it from
flat key=value run configs.
"""

from .channel import (ChannelOperator, assemble_channel, dof_g,
                      effective_rank, green_dyadic, strict_rank)
from .cma import (ModeBasis, excitation_matrix, mode_patterns, solve_modes,
                  SIGNIFICANCE_FLOOR)
from .dofcore import (ConventionalModel, DofReport, ElementAnalysis,
                      EquivalentChannel, GammaMatrix, achievable_dof,
                      block_leakage, build_report, conventional_reduce,
                      dof_bounds, equivalent_channel, gamma_decomposition,
                      matrix_rank, point_source_channel, receiver_map,
                      transmitter_map)
from .efie import ImpedanceOperator, assemble_impedance, delta_gap_excitation
from .errors import (CmadofError, ConfigError, DegenerateStructureError,
                     GeometryError, NumericalError, RankDeficiencyError,
                     ReductionError, SingularityError)
from .ga import (GaRun, Individual, PixelProblem, PlateAnalysis, PlateModel,
                 Score, analyze_plate, crossover_mutate, evaluate, fitness,
                 link_report, phi_from_hex, phi_to_hex, run_ga,
                 select_parents)
from .mesh import (PlateSpec, RwgBasis, TriMesh,
                   build_plate_mesh, extract_rwg, face_sampling_operator,
                   locate_port_edges, mesh_from_json, mesh_from_text,
                   mesh_to_json, mesh_to_text)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # mesh
    "PlateSpec", "TriMesh", "RwgBasis",
    "build_plate_mesh", "extract_rwg", "face_sampling_operator",
    "locate_port_edges", "mesh_to_text", "mesh_from_text",
    "mesh_to_json", "mesh_from_json",
    # efie
    "ImpedanceOperator", "assemble_impedance",
    "delta_gap_excitation",
    # cma
    "ModeBasis", "solve_modes", "excitation_matrix", "mode_patterns",
    "SIGNIFICANCE_FLOOR",
    # channel
    "ChannelOperator", "green_dyadic", "assemble_channel",
    "effective_rank", "strict_rank", "dof_g",
    # dofcore
    "EquivalentChannel", "DofReport", "GammaMatrix", "ElementAnalysis",
    "ConventionalModel", "transmitter_map", "receiver_map",
    "equivalent_channel", "achievable_dof", "gamma_decomposition",
    "dof_bounds", "build_report", "matrix_rank", "conventional_reduce",
    "point_source_channel", "block_leakage",
    # ga
    "PixelProblem", "PlateModel", "PlateAnalysis", "Score", "Individual",
    "GaRun", "analyze_plate", "evaluate", "link_report", "fitness",
    "select_parents",
    "crossover_mutate", "run_ga", "phi_to_hex", "phi_from_hex",
    # errors
    "CmadofError", "ConfigError", "GeometryError", "NumericalError",
    "RankDeficiencyError", "DegenerateStructureError", "SingularityError",
    "ReductionError",
]
