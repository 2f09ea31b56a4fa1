"""Workbench for finite additively idempotent semirings.

Table validation, identity satisfaction, syntactic satisfaction criteria for
distinguished small semirings, structural constructions, isomorphism and
subdirect-product searches, nonfinite-basis witness checks, derivation
certificates, and a census of all ai-semirings of small order up to
isomorphism.
"""

from .census import CensusResult, enumerate_ai_semirings, enumerate_semilattices
from .core import (
    FiniteAiSemiring,
    InvalidSemiringError,
    MalformedTableError,
    Morphism,
    NaturalOrder,
    ValidationReport,
    additive_height,
    canonical_form,
    direct_product,
    dual,
    find_embedding,
    find_isomorphism,
    generated_subalgebra,
    is_subdirect_embedding,
    natural_order,
    validate,
)
from .evaluate import (
    BasisReport,
    BudgetExceededError,
    check_basis,
    counterexample,
    eval_term,
    satisfies,
)
from .terms import (
    Identity,
    SimpleIdentity,
    Term,
    TermSyntaxError,
    Word,
    parse_identity,
    parse_term,
    substitute,
    word,
)

__version__ = "0.1.0"

__all__ = [
    "CensusResult",
    "FiniteAiSemiring",
    "Identity",
    "InvalidSemiringError",
    "MalformedTableError",
    "Morphism",
    "NaturalOrder",
    "SimpleIdentity",
    "Term",
    "TermSyntaxError",
    "ValidationReport",
    "Word",
    "BasisReport",
    "BudgetExceededError",
    "additive_height",
    "canonical_form",
    "check_basis",
    "counterexample",
    "direct_product",
    "dual",
    "enumerate_ai_semirings",
    "enumerate_semilattices",
    "eval_term",
    "find_embedding",
    "find_isomorphism",
    "generated_subalgebra",
    "is_subdirect_embedding",
    "natural_order",
    "parse_identity",
    "parse_term",
    "satisfies",
    "substitute",
    "validate",
    "word",
]
