"""Brute-force oracle: exhaustive matrix-group enumeration over small fields."""

from .action import (
    ModuleAction,
    min_poly_degree,
    permutation_module,
    semidirect_spectrum,
)
from .cache import cached_spectrum_table, load_table, save_table
from .field import Field, build_field
from .frobenius import (
    FrobeniusVerdict,
    FrobeniusWitness,
    WitnessSearchError,
    frobenius_witness,
    verify_frobenius,
)
from .matgroup import (
    CapExceeded,
    DEFAULT_CAP,
    ElementTable,
    Matrix,
    MatrixGroup,
    classical_generators,
    enumerate_group,
    spectrum_table,
)

__all__ = [
    "Field",
    "build_field",
    "CapExceeded",
    "DEFAULT_CAP",
    "ElementTable",
    "Matrix",
    "MatrixGroup",
    "ModuleAction",
    "classical_generators",
    "enumerate_group",
    "spectrum_table",
    "min_poly_degree",
    "permutation_module",
    "semidirect_spectrum",
    "cached_spectrum_table",
    "load_table",
    "save_table",
    "FrobeniusVerdict",
    "FrobeniusWitness",
    "WitnessSearchError",
    "frobenius_witness",
    "verify_frobenius",
]
