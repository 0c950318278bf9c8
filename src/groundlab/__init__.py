"""groundlab: lattice models with programmable zero-temperature behaviour.

Submodules:
  tiles        Wang tiles, patches, local rules, pattern matching, patch counting
  robinson     hierarchical aperiodic tileset and its macro-tiles
  render       deterministic SVG pictures of patches
  markers      marker sets: non-overlap verification, covering window side
  layers       layered construction: schedules, frozen fractions, interval scans
  machines     Turing machines, canonical codes, embedded word generators
  measures     exact measures on binary words and their weak-star calculus
  logdomain    exact interval arithmetic for base-2 logarithms
  thermo       temperature windows and configuration-count bookkeeping
  gibbs        pattern potentials, exact Boltzmann laws, Metropolis sampling
  perturbation selector rules and perturbed measure flows
  sequences    dyadic measure sequences with controlled accumulation sets
"""

__version__ = "0.1.0"

from .tiles import (  # noqa: F401
    BudgetExceeded,
    EdgeLabel,
    ForbiddenPattern,
    InputError,
    Patch,
    Tile,
    Tileset,
    Violation,
    check_patch,
    count_admissible,
)
