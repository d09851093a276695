"""Exact-arithmetic workbench for cyclotomic Birman-Murakami-Wenzl algebras.

Construct the finite-dimensional quotients from their presentation by
rewriting completion, verify the structural dimension formulas, analyze
radicals and Wedderburn blocks, and enumerate the simple-module index
sets (Kleshchev multipartitions, aperiodic multisegments) that the
structure theory predicts.
"""

from .fields import GF, QQ, Field, FieldElement, multiplicative_order
from .params import (AdmissibilityReport, ParameterSet, admissible_rho, check_admissible,
                     gamma_weights, omega, omega_vanishing_report,
                     parse_parameter_file, render_parameter_file)
from .presentation import (StructureAlgebra, build_algebra, canonical_relations,
                           check_omega_relations, corner_algebra, dump_algebra,
                           ideal_generated_by, load_algebra,
                           semi_admissibility_degree, truncation_idempotent)
from .repn import (ModuleRep, WedderburnReport, functor_grading_check, radical,
                   simple_modules, truncate_module, wedderburn)
from .combinatorics import (IndexPair, IndexPoset, Multicharge, classify_affine,
                            classify_cyclotomic, dominates, enumerate_aperiodic,
                            enumerate_index_poset, enumerate_multipartitions,
                            is_aperiodic, is_kleshchev, partitions)

__all__ = [
    "GF", "QQ", "Field", "FieldElement", "multiplicative_order",
    "AdmissibilityReport", "ParameterSet", "admissible_rho", "check_admissible", "gamma_weights",
    "omega", "omega_vanishing_report", "parse_parameter_file",
    "render_parameter_file",
    "StructureAlgebra", "build_algebra", "canonical_relations",
    "check_omega_relations", "corner_algebra", "dump_algebra",
    "ideal_generated_by", "load_algebra", "semi_admissibility_degree",
    "truncation_idempotent",
    "ModuleRep", "WedderburnReport", "functor_grading_check",
    "radical", "simple_modules", "truncate_module", "wedderburn",
    "IndexPair", "IndexPoset", "Multicharge", "classify_affine",
    "classify_cyclotomic", "dominates", "enumerate_aperiodic",
    "enumerate_index_poset", "enumerate_multipartitions", "is_aperiodic",
    "is_kleshchev", "partitions",
]

__version__ = "0.1.0"
