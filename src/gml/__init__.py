"""Graph-model semantics for the untyped lambda calculus.

Interpret terms exactly in finite partial pairs, approximate interpretations
in free completions rank by rank, semi-decide memberships and refute
inequations with re-checkable certificates, and search the prime-coded union
of all finite partial pairs, whose completion realizes the minimum graph
theory componentwise.
"""

from .approximation import (
    ApproximationInfeasible,
    MemberResult,
    Verdict,
    approx_interpret,
    check_equation,
    check_inequation,
    extract_witness_subpair,
    member,
)
from .completion import (
    CeilingExceeded,
    CompletionCoding,
    CompletionElement,
    apply_coding,
    base,
    canonical_morphism,
    element_str,
    elements_up_to,
    lift_automorphism,
    pair_of,
    parse_element,
    rank,
    restrict,
)
from .minmodel import (
    PRIME_CODED,
    component_of,
    element_code,
    element_decode,
    encode_pair,
    enumerate_pair,
    is_in_P,
    kth_prime,
    relocate,
    relocation_morphism,
    restriction_property_check,
    search_counterexample,
)
from .pairs import (
    Morphism,
    PairCoding,
    PairConflictError,
    PartialPair,
    SizeBoundExceeded,
    ValidationReport,
    automorphisms,
    generate_subgraphmodel,
    is_subpair,
    orbits,
    union,
    validate,
)
from .semantics import Environment, interpret, omega_characterization
from .terms import (
    Abs,
    App,
    LambdaTerm,
    ParseError,
    ReductionResult,
    ReductionStatus,
    Var,
    alpha_eq,
    closed_term_texts,
    enumerate_closed_terms,
    godel_decode,
    godel_encode,
    normalize,
    parse,
    print_term,
)

__version__ = "0.1.0"
