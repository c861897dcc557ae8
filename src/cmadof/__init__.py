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

Every public name is imported from its module, for example
``from cmadof.ga import PixelProblem``; the package root holds only
``__version__``.
"""

__version__ = "0.1.0"
