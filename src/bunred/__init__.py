"""Exact-arithmetic reduction certificates for moduli stacks of vector
bundles on curves: Euler-form arithmetic, weight bookkeeping, the
window-equation solver, the recursive reduction tree, and an independent
certificate verifier."""

from .affine import DegreeAffineMap, compose_det
from .diophantine import LemmaSolution, solve_lemma, solve_lemma_bruteforce
from .errors import (
    BaseCaseReached,
    BaseMismatch,
    BunredError,
    CertificateInvalid,
    DomainError,
    HypothesisNotMet,
    InternalInvariantViolation,
    InvalidArgument,
    InvalidSplitting,
    InvalidType,
    NotCovered,
    ParseError,
    TheoremContradicted,
)
from .euler import bun_stack_dim, euler_form, ext_relative_dim, ext_stack_dim
from .generic_hom import (
    GenericHomReport,
    MorphismKind,
    SplittingScanReport,
    excess_identity,
    generic_hom,
    generic_morphism_kind,
    no_bad_splitting_scan,
)
from .grassmann import (
    HeckeRoute,
    check_gr_rational,
    check_map_precondition,
    hecke_det_shift,
    parabolic_dim,
)
from .reduction import (
    BaseStep,
    CheckResult,
    CompositeStep,
    ReductionTrace,
    StepNode,
    VerificationReport,
    node_affine_total,
    node_composite_det,
    node_depth,
    reduce,
    verify_trace,
)
from .serialize import SCHEMA_VERSION, dump, dumps, load, loads, trace_from_dict, trace_to_dict
from .types import (
    GenusContext,
    SheafType,
    ZERO_TYPE,
    add_types,
    hcf_of_type,
    scale_type,
)
from .weights import (
    WeightedBundleDescriptor,
    fixed_bundle,
    minimal_rank_divisor,
    universal_fiber,
    weight_of_dual,
    weight_of_hom,
)

__version__ = "0.1.0"
