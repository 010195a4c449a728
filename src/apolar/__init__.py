"""Exact apolarity toolkit: catalecticants, annihilator slices, and certified
Waring-rank bounds for homogeneous polynomials over the rationals."""

from .apolarity import (
    Catalecticant,
    EssentialSpace,
    HilbertFn,
    ann_slice,
    catalecticant,
    concise_dim,
    contract,
    hilbert_function,
)
from .ideals import (
    IdealSlice,
    MembershipCertificate,
    generated_slice,
    macaulay_bound,
    membership,
    quotient_hilbert,
    saturation_witness,
)
from .linalg import QMatrix
from .parsing import ParseError, parse_poly
from .poly import DUAL, PRIMAL, Poly, TableMismatchError, VarTable, linear_form, monomials
from .ranks import (
    Deduction,
    InconsistentEvidenceError,
    RankReport,
    SylvesterResult,
    aggregate,
    catalecticant_lower_bound,
    quadric_rank,
    sylvester_binary,
    tameness_rule,
)
from .wildcert import (
    LocusShapeError,
    ProductLocus,
    WildPresentation,
    WildReport,
    cactus_lower_via_slice,
    extract_square_pairs,
    forced_square_check,
    gamma_space,
    power_sum_certificate,
    product_locus,
    rank9_lower_cert,
    theorem2_report,
    transform_presentation,
    wild_cubic,
    wild_cubic_tangent_witness,
    wild_presentation,
    wild_table,
)
from .witness import (
    DoublePointCertificate,
    TangentDatum,
    direct_sum_extend,
    direct_summands,
    double_point_span,
    tangent_limit_family,
)

__version__ = "0.1.0"
