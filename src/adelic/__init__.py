"""Exact local and global potential theory for effective divisors over Q.

The package computes chordal and disk based pairing kernels, weighted
Mahler measures, pairwise Fekete sums, and adelic heights for divisors
cut out by integer polynomials, keeping every finite-place quantity as
an exact rational multiple of log p and every archimedean quantity as a
float with a tracked error bound.
"""

from .berkovich import INF_POINT, BerkPoint, chordal_arch, gauss_point, hsia_kernel
from .certify import Certificate, Refusal, lemma43_certify
from .divisors import EffectiveDivisor, divisor_from_poly
from .exact import (
    INF,
    DomainError,
    IntPoly,
    LogValue,
    discriminant,
    float_sum,
    newton_polygon,
    resultant,
    squarefree_decomposition,
    val_p,
)
from .heights import GlobalReport, HeightInterval, PlaceRow, global_fekete, height
from .local import (
    fekete_sum,
    fekete_sum_arch_identity,
    integral_against,
    mahler_g,
    mahler_sharp,
)
from .places import ARCH, Place, log_abs, product_formula_check, relevant_places
from .roots import arch_support, certified_roots
from .sequences import ExperimentResult, SequenceSpec, experiment_run, generate
from .weights import (
    ArchWeight,
    FiniteWeight,
    Radii,
    Weight,
    equilibrium_energy,
    ex5_weight,
    normalize,
    potential_kernel,
    radii,
    std_weight,
    trivial_weight,
    weight_eval,
    zero_weight,
)

__version__ = "0.1.0"

__all__ = [
    "ARCH",
    "ArchWeight",
    "BerkPoint",
    "Certificate",
    "DomainError",
    "EffectiveDivisor",
    "ExperimentResult",
    "FiniteWeight",
    "GlobalReport",
    "HeightInterval",
    "INF",
    "INF_POINT",
    "IntPoly",
    "LogValue",
    "Place",
    "PlaceRow",
    "Radii",
    "Refusal",
    "SequenceSpec",
    "Weight",
    "arch_support",
    "certified_roots",
    "chordal_arch",
    "discriminant",
    "divisor_from_poly",
    "equilibrium_energy",
    "ex5_weight",
    "experiment_run",
    "fekete_sum",
    "fekete_sum_arch_identity",
    "float_sum",
    "gauss_point",
    "generate",
    "global_fekete",
    "height",
    "hsia_kernel",
    "integral_against",
    "lemma43_certify",
    "log_abs",
    "mahler_g",
    "mahler_sharp",
    "newton_polygon",
    "normalize",
    "potential_kernel",
    "product_formula_check",
    "radii",
    "relevant_places",
    "resultant",
    "squarefree_decomposition",
    "std_weight",
    "trivial_weight",
    "val_p",
    "weight_eval",
    "zero_weight",
]
