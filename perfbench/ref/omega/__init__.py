"""Element-order spectra of finite groups of Lie type, checked by brute force.

Closed-form descriptors live in `spectra`, number theory in `arith`, the
exhaustive matrix-group oracle in `oracle`, and the cross-checking claim
catalog in `claims`.
"""

from .arith import r_part, zsigmondy
from .claims import CATALOG, run_claim, run_suite
from .groups import group_order, parse_group_spec
from .spectra import (
    SpectrumDescriptor,
    canonicalize,
    d43_mixed_spectrum,
    e6_semisimple_spectrum,
    e7_semisimple_spectrum,
    pg_nonadjacency_witnesses,
    prime_graph,
    symplectic_torus_spectrum,
)

__all__ = [
    "CATALOG",
    "SpectrumDescriptor",
    "canonicalize",
    "d43_mixed_spectrum",
    "e6_semisimple_spectrum",
    "e7_semisimple_spectrum",
    "group_order",
    "parse_group_spec",
    "pg_nonadjacency_witnesses",
    "prime_graph",
    "r_part",
    "run_claim",
    "run_suite",
    "symplectic_torus_spectrum",
    "zsigmondy",
]
