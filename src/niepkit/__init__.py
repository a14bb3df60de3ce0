"""niepkit: constructive realizations of complex spectra by nonnegative,
mostly permutative, matrices.

The package assembles explicit matrices whose eigenvalue lists are
prescribed unions of circulant and skew circulant spectra, provides the
closed-form 4x4 family, a sufficient-condition search over
pairing-preserving reorderings, and a rank-one Perron shift pipeline.
Every construction can be cross-checked with the independent eigenvalue
oracle in :mod:`niepkit.oracle`.
"""

from .blocks import (
    BlockBuildSpec,
    build_circ_skew,
    build_even,
    build_odd,
    split_spectrum_even,
    split_spectrum_odd,
)
from .dft import (
    circulant_eigenvalues,
    circulant_row_from_spectrum,
    dft_matrix,
    skew_dft_matrix,
    skew_eigenvalues,
    skew_row_from_spectrum,
)
from .errors import (
    EigensolveError,
    EnumerationCapError,
    MajorizationError,
    NiepError,
    PairingError,
    RealizabilityError,
    StructureError,
    VerificationError,
)
from .oracle import SpectrumMatchReport, match_spectra, spectrum
from .realize import (
    BrauerPlan,
    ConditionReport,
    ConditionWitness,
    RegionPoint,
    SpectrumPair,
    brauer_augment,
    brauer_plan,
    build_from_witness,
    check_conditions,
    circulant_head_bound,
    in_gamma_region,
    realize_four,
    realize_region,
    region_check,
    skew_row_bound,
)
from .spectra import (
    PairingPermutation,
    enumerate_circulant_permutations,
    enumerate_skew_permutations,
    satisfies_circulant_pairing,
    satisfies_skew_pairing,
)
from .structured import (
    AbsCirculant,
    PermutativityReport,
    abs_circulant,
    circulant,
    is_permutative,
    skew_circulant,
)

__version__ = "0.1.0"

__all__ = [
    "AbsCirculant",
    "BlockBuildSpec",
    "BrauerPlan",
    "ConditionReport",
    "ConditionWitness",
    "EigensolveError",
    "EnumerationCapError",
    "MajorizationError",
    "NiepError",
    "PairingError",
    "PairingPermutation",
    "PermutativityReport",
    "RealizabilityError",
    "RegionPoint",
    "SpectrumMatchReport",
    "SpectrumPair",
    "StructureError",
    "VerificationError",
    "abs_circulant",
    "brauer_augment",
    "brauer_plan",
    "build_circ_skew",
    "build_even",
    "build_from_witness",
    "build_odd",
    "check_conditions",
    "circulant",
    "circulant_eigenvalues",
    "circulant_head_bound",
    "circulant_row_from_spectrum",
    "dft_matrix",
    "enumerate_circulant_permutations",
    "enumerate_skew_permutations",
    "in_gamma_region",
    "is_permutative",
    "match_spectra",
    "realize_four",
    "realize_region",
    "region_check",
    "satisfies_circulant_pairing",
    "satisfies_skew_pairing",
    "skew_circulant",
    "skew_dft_matrix",
    "skew_eigenvalues",
    "skew_row_bound",
    "skew_row_from_spectrum",
    "spectrum",
    "split_spectrum_even",
    "split_spectrum_odd",
]
