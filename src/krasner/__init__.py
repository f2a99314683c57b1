"""Finite Krasner hyperrings: validated tables, hyperideal lattices,
hypermodules, primitive ideals and the topology they carry.

Everything is exhaustive and exact over small finite carriers.  Start
with `catalog.standard_rings()` or the `.khr` text format in `dsl`, and
see the `khr` command for the same machinery at the shell.
"""

from .catalog import cyclic_ring, hyperfield_k, standard_rings, zero_mul_ring
from .core import (
    BoundExceededError,
    ElementSet,
    HyperRing,
    NotValidatedError,
    TheoremViolationError,
    hypersum,
    neg_set,
)
from .corpus import generate_corpus
from .dsl import ParseError, emit_ring, parse_file, parse_text
from .hypermodules import (
    HyperModule,
    ModuleHom,
    annihilator,
    is_simple,
    quotient_module,
    regular_module,
    verify_hypermodule,
)
from .ideals import (
    HyperIdeal,
    IdealLattice,
    generated_ideal,
    ideal_intersection,
    ideal_product,
    ideal_sum,
    is_hyperideal,
    is_prime,
    maximal_above,
    nil_radical,
    quotient_ring,
)
from .morphisms import (
    RingHom,
    enumerate_ring_homs,
    induced_map,
    kernel_ideal,
    verify_strong_hom,
)
from .primitivity import (
    PrimitiveCertificate,
    prim_certificates,
    prim_from_maximal_right,
    prim_set,
)
from .spectrum import SpectrumSpace, verify_kuratowski
from .suite import run_theorem_suite

__version__ = "0.1.0"

__all__ = [
    "BoundExceededError",
    "ElementSet",
    "HyperIdeal",
    "HyperModule",
    "HyperRing",
    "IdealLattice",
    "ModuleHom",
    "NotValidatedError",
    "ParseError",
    "PrimitiveCertificate",
    "RingHom",
    "SpectrumSpace",
    "TheoremViolationError",
    "annihilator",
    "cyclic_ring",
    "emit_ring",
    "enumerate_ring_homs",
    "generate_corpus",
    "generated_ideal",
    "hyperfield_k",
    "hypersum",
    "ideal_intersection",
    "ideal_product",
    "ideal_sum",
    "induced_map",
    "is_hyperideal",
    "is_prime",
    "is_simple",
    "kernel_ideal",
    "maximal_above",
    "neg_set",
    "nil_radical",
    "parse_file",
    "parse_text",
    "prim_certificates",
    "prim_from_maximal_right",
    "prim_set",
    "quotient_module",
    "quotient_ring",
    "regular_module",
    "run_theorem_suite",
    "standard_rings",
    "verify_hypermodule",
    "verify_kuratowski",
    "verify_strong_hom",
    "zero_mul_ring",
]
