"""Exact apolarity toolkit: catalecticants, annihilator slices, and certified
Waring-rank bounds for homogeneous polynomials over the rationals.

Each exported name is imported from its module on first use (PEP 562), so
`import apolar` loads no submodule and a command-line process loads only the
modules its command calls.  Nothing is stored here: `apolar.X` is always the
current attribute of X's module.
"""

import importlib

__version__ = "0.1.0"

# the names each module exports through the package
_EXPORTS = {
    "apolarity": "EssentialSpace FormFacts HilbertFn ann_slice catalecticant concise_dim"
                 " contract hilbert_function",
    "ideals": "IdealSlice MembershipCertificate generated_slice macaulay_bound membership"
              " quotient_hilbert saturation_witness",
    "parsing": "ParseError parse_poly",
    "poly": "DUAL PRIMAL Poly TableMismatchError VarTable linear_form monomials",
    "ranks": "Deduction InconsistentEvidenceError RankReport SylvesterResult aggregate"
             " sylvester_binary",
    "wildcert": "LocusShapeError ProductLocus WildPresentation WildReport cactus_lower_via_slice"
                " extract_square_pairs forced_square_check gamma_space power_sum_certificate"
                " product_locus rank9_lower_cert theorem2_report transform_presentation"
                " wild_cubic wild_presentation wild_table",
    "witness": "DoublePointCertificate TangentDatum direct_sum_extend direct_summands"
               " double_point_span tangent_limit_family",
}
_MODULE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = list(_MODULE)


def __getattr__(name):
    module = _MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
