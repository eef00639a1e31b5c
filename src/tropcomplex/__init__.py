"""Tropical complexes: Delta-complexes with dual structure constants,
divisors of piecewise-linear functions, balanced curves, intersection
numbers, embedded imports, and degeneration data."""

from .errors import (DegenerateCut, DimensionExceeded, Disconnected,
                     DiscontinuousInput, InconsistentData, InconsistentSheets,
                     IndexMismatch, InputError, MissingAlpha, NoSolution,
                     NonUnimodular, NotBalanced, NotQCartierNearCurve,
                     PreconditionFailed, SchemaError,
                     SimplicialIdentityViolation, UnknownName,
                     UnsupportedDimension, WrongDimension)
from .delta import DeltaComplex, LinkElement, build_complex
from .structure import (ClassifyResult, Inertia, LocalIntersectionMatrix,
                        TropicalStructure, WeakReport, check_weak, classify,
                        local_matrix)
from .divisors import (CartierVerdict, ClassGroupPresentation, Divisor,
                       FacetPiece, LocalGerm, TwoPieceFunction, WitnessResult,
                       chip_matrix, class_group, div_two_piece,
                       div_vertex_function, lin_equiv_witness,
                       local_cartier_test, ridge_multiplicity, weil_test)
from .curves import (BalanceResult, BreakpointFunction, Curve, GermSpace,
                     IntersectResult, PointSum, germ_space, intersect_degree,
                     is_balanced, restrict_divisor)
from .embedded import (BalancingSolution, EmbeddedComplex, PushResult,
                       RobustResult, UnboundedCell, alpha_from_balancing,
                       derive_structure, duplicate_sheets, embedded_weights,
                       load_embedded, push_forward_and_compare,
                       robustness_check)
from .degeneration import (DegenerationData, SpecializeResult, VerifyResult,
                           build_structure_from_degeneration,
                           load_degeneration, specialize, verify_theorem)
from .serialize import (Fixture, canonical_json, load_fixture,
                        load_fixture_file)
from .cli import main

__version__ = "0.1.0"

__all__ = [
    "BalanceResult", "BalancingSolution", "BreakpointFunction",
    "CartierVerdict", "ClassGroupPresentation", "ClassifyResult", "Curve",
    "DegenerateCut", "DegenerationData", "DeltaComplex", "DimensionExceeded",
    "Disconnected", "DiscontinuousInput", "Divisor", "EmbeddedComplex",
    "FacetPiece", "Fixture", "GermSpace", "InconsistentData",
    "InconsistentSheets", "IndexMismatch", "Inertia", "InputError",
    "IntersectResult", "LinkElement", "LocalGerm", "LocalIntersectionMatrix",
    "MissingAlpha", "NoSolution", "NonUnimodular", "NotBalanced",
    "NotQCartierNearCurve",
    "PointSum", "PreconditionFailed", "PushResult", "RobustResult",
    "SchemaError", "SimplicialIdentityViolation", "SpecializeResult",
    "TropicalStructure", "TwoPieceFunction", "UnboundedCell", "UnknownName",
    "UnsupportedDimension", "VerifyResult", "WeakReport", "WitnessResult",
    "WrongDimension", "alpha_from_balancing", "build_complex",
    "build_structure_from_degeneration", "canonical_json", "check_weak",
    "chip_matrix", "class_group", "classify", "derive_structure",
    "div_two_piece", "div_vertex_function", "duplicate_sheets",
    "embedded_weights", "germ_space", "intersect_degree",
    "is_balanced", "lin_equiv_witness", "load_degeneration",
    "load_embedded", "load_fixture", "load_fixture_file", "local_cartier_test",
    "local_matrix", "main", "push_forward_and_compare",
    "restrict_divisor", "ridge_multiplicity", "robustness_check",
    "specialize", "verify_theorem", "weil_test",
]
