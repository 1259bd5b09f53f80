"""Exact-arithmetic reduction certificates for moduli stacks of vector
bundles on curves: Euler-form arithmetic, the window-equation solver, the
reduction tree, an independent certificate verifier, and the minimal
weight-1 rank, quasiparabolic dimensions and splitting scan that the
reduction relies on."""

from .affine import DegreeAffineMap
from .diophantine import LemmaSolution, solve_lemma, solve_lemma_bruteforce
from .errors import (
    BaseCaseReached,
    BunredError,
    CertificateInvalid,
    DomainError,
    HypothesisNotMet,
    ParseError,
    TheoremContradicted,
)
from .euler import bun_stack_dim, euler_form
from .generic_hom import (
    GenericHomReport,
    MorphismKind,
    SplittingScanReport,
    generic_hom,
    generic_morphism_kind,
    no_bad_splitting_scan,
)
from .grassmann import HeckeRoute, parabolic_dim
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
    trace_ok,
    verify_trace,
)
from .serialize import SCHEMA_VERSION, dump, dumps, load, loads, trace_from_dict, trace_to_dict
from .types import GenusContext, SheafType, add_types, hcf_of_type
from .weights import minimal_rank_divisor

__version__ = "0.1.0"
