"""Stability region of two interacting queues under slotted random access
with collision-feedback priority.

The package computes the region in closed form (dominant-system analysis
plus a quasi-birth-death solver), certifies the formulas against a
truncated-chain oracle built from the same slot dynamics, and checks both
against Monte Carlo simulation.

The root holds the names of the README's library example; every other name
is imported from its module, e.g. ``aloha_priority.simulate.run`` and
``aloha_priority.errors.AlohaError``.
"""

from .model import AccessProbabilities, ArrivalRates
from .qbd import ds2_stationary, rate_matrix_closed_form, spectral_radius
from .stability import ds1_stationary, optimal_p2, priority_boundary, union_region_contains

__version__ = "0.1.0"
