"""Command-line interface: parse polynomials, run the certified computations,
emit a machine-readable JSON report.

The certificate commands print the records their builders return, verified
or not; a builder's ValueError on malformed input is an input error.

Exit codes: 0 success, 1 certificate failure, 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, linalg
from .apolarity import (
    FormFacts,
    ann_slice,
    catalecticant,
    concise_dim,
    essential_form,
    hilbert_function,
)
from .ideals import macaulay_bound
from .parsing import ParseError, parse_poly
from .poly import DUAL, PRIMAL, Poly, monomials
from .ranks import sylvester_binary
from .wildcert import (
    cactus_lower_via_slice,
    classical_report,
    extract_square_pairs,
    limit_family_certificate,
    rank9_lower_cert,
    theorem2_report,
)
from .witness import direct_sum_extend, double_point_span


class InputError(ValueError):
    pass


def _parse_input_poly(args) -> Poly:
    if not args.poly:
        raise InputError("--poly is required for this command")
    vars_ = args.vars.split(",") if args.vars else None
    duals = args.dual_names.split(",") if args.dual_names else None
    p = parse_poly(args.poly, vars=vars_, dual_names=duals)
    if p.is_zero():
        raise InputError("the zero polynomial is not a valid input here")
    if not p.is_homogeneous():
        raise InputError("rank computations need a homogeneous polynomial")
    return p


def _parse_form(args) -> Poly:
    """The input polynomial, for commands that need its essential variables."""
    p = _parse_input_poly(args)
    if p.homogeneous_degree() == 0:
        raise InputError("a constant has no essential variables; give a form of positive degree")
    return p


def _cert_dicts(records) -> list:
    """The printed part of each record; its basis and bounds stay out."""
    return [{"kind": c.kind, "stage_log": c.stage_log, "verified": c.verified} for c in records]


def _cmd_hilbert(args):
    p = _parse_input_poly(args)
    h = hilbert_function(p)
    return {"hilbert": list(h.values), "degree": h.top_degree}, [], True


def _slice_degree(build, p, degree):
    """build(p, degree), with a slice degree outside 0..deg p an input error."""
    try:
        return build(p, degree)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_annihilator(args):
    p = _parse_input_poly(args)
    if args.degree is None:
        raise InputError("--degree is required")
    sl = _slice_degree(ann_slice, p, args.degree)
    return {
        "degree": sl.degree,
        "dimension": sl.dim,
        "basis": [str(b) for b in sl.basis],
    }, [], True


def _labels(table, ring, degree) -> list:
    """The degree-`degree` monomials of `ring`, each printed as a Poly, so
    the monomial 1 is "1"."""
    return [str(Poly(table, ring, {m: 1})) for m in monomials(table.n, degree)]


def _cmd_catalecticant(args):
    p = _parse_input_poly(args)
    if args.degree is None:
        raise InputError("--degree is required")
    rows = _slice_degree(catalecticant, p, args.degree)
    return {
        "source_degree": args.degree,
        "rank": linalg.rank(rows),
        "rows": len(rows),
        "cols": len(rows[0]),
        "row_labels": _labels(p.table, PRIMAL, p.homogeneous_degree() - args.degree),
        "col_labels": _labels(p.table, DUAL, args.degree),
        "entries": [[str(c) for c in row] for row in rows],
    }, [], True


def _cmd_concise(args):
    p = _parse_form(args)
    es = concise_dim(p)
    return {"dimension": es.dim, "basis": [str(b) for b in es.basis]}, [], True


def _cmd_macaulay(args):
    if args.dim is None or args.degree is None:
        raise InputError("--dim and --degree are required")
    try:
        bound = macaulay_bound(args.dim, args.degree)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {"dim": args.dim, "degree": args.degree, "bound": bound}, [], True


def _cmd_sylvester(args):
    p = _parse_form(args)
    try:
        res = sylvester_binary(p)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    return {
        "d1": res.d1,
        "d2": res.d2,
        "border": res.border,
        "rank": res.rank,
        "smoothable": res.border,
        "cactus": res.border,
    }, [], True


def _cmd_rank_bounds(args):
    conciseness, report = classical_report(_parse_form(args))
    return {"bounds": report.as_dict(), "conciseness": conciseness}, [], True


def _cmd_witness_verify(args):
    _, g = essential_form(_parse_form(args))
    pairs = extract_square_pairs(g)
    fam, cert = limit_family_certificate(g, pairs)
    if fam is None:
        return {"verified": False, "reason": cert.stage_log[0]}, [cert], False
    ok = cert.verified
    return {"verified": ok, "r": fam.r, "k": 1, "border_upper": fam.r if ok else None}, [cert], ok


def _parse_pairs(args, table):
    if not args.pairs:
        raise InputError("--pairs is required, e.g. \"x0,y0;x0+x1,-1*y1;x1,y2\"")
    pairs = []
    for chunk in args.pairs.split(";"):
        sides = chunk.split(",")
        if len(sides) != 2:
            raise InputError(f"bad pair {chunk!r}: expected \"l,m\"")
        pairs.append((parse_poly(sides[0].strip(), table=table),
                      parse_poly(sides[1].strip(), table=table)))
    return pairs


def _cmd_double_points(args):
    p = _parse_form(args)
    pairs = _parse_pairs(args, p.table)
    try:
        dps, cert = double_point_span(p, pairs)
    except ValueError as exc:
        raise InputError(f"bad pair: {exc}") from exc
    if dps is None:
        return {"verified": False}, [cert], False
    return {
        "verified": True,
        "cactus_upper": dps.cactus_upper,
        "point_coeffs": [str(c) for c in dps.point_coeffs],
        "jet_coeffs": [str(c) for c in dps.jet_coeffs],
        "curvilinear": dps.curvilinear,
    }, [cert], True


def _cmd_wild_cert(args):
    facts = FormFacts(_parse_form(args))
    g = facts.form
    try:
        csl, saturation = cactus_lower_via_slice(g, facts)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _, counting = rank9_lower_cert(g, args.rmax, extract_square_pairs(g), facts)
    results = {
        "cactus_lower": csl.bound if csl else None,
        "rank_lower": args.rmax + 1 if counting.verified else None,
        "rmax": args.rmax,
    }
    return results, [saturation, counting], saturation.verified and counting.verified


def _cmd_theorem2(args):
    p = _parse_form(args)
    rep = theorem2_report(p, r_max=args.rmax)
    results = {
        "final": rep.final(),
        "bounds": rep.report.as_dict(),
        "conciseness": rep.conciseness,
        "hilbert": list(rep.hilbert),
        "slice2_dim": rep.slice2_dim,
        "saturation_gammas": list(rep.saturation_gammas),
        "border_witness_rank": rep.border_witness_rank,
        "notes": list(rep.notes),
    }
    return results, rep.certificates, all(c.verified for c in rep.certificates)


def _cmd_direct_sum(args):
    p = _parse_form(args)
    if not args.poly2:
        raise InputError("--poly2 is required for direct-sum")
    vars2 = args.vars2.split(",") if args.vars2 else None
    q = parse_poly(args.poly2, vars=vars2)
    if not q.is_homogeneous() or q.is_zero():
        raise InputError("--poly2 must be homogeneous and nonzero")
    try:
        rep = direct_sum_extend(p, q)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    pipeline = theorem2_report(rep.combined, r_max=args.rmax)
    certificates = list(pipeline.certificates)
    if pipeline.direct_sum and certificates[0].verified and pipeline.conciseness == rep.combined.table.n:
        # the pipeline checked the same concise sum over its variable-disjoint
        # components, which refine the two summands; equality there implies it here
        cert = certificates[0]
    else:
        cert = rep.certificate
        if cert not in certificates:
            certificates.insert(0, cert)
    results = {
        "conciseness": {
            "left": rep.concise_left,
            "right": rep.concise_right,
            "total": rep.concise_total,
        },
        "slice_intersection_equal": cert.verified,
        "final": pipeline.final(),
    }
    return results, certificates, all(c.verified for c in certificates)


def _length(text: str) -> int:
    """A decomposition length for --rmax: an integer of at least 1."""
    try:
        r = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if r < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {r}")
    return r


# every option, in the order --help lists them
_OPTIONS = {
    "--poly": {"help": "polynomial expression"},
    "--vars": {"help": "comma-separated variable order"},
    "--degree": {"type": int, "help": "slice degree / growth degree"},
    "--rmax": {"type": _length, "default": 8, "help": "decomposition length to exclude"},
    "--json": {"dest": "json_path", "help": "also write the report to this path ('-' for stdout only)"},
    "--dual-names": {"dest": "dual_names", "help": "comma-separated dual variable names"},
    "--dim": {"type": int, "help": "current graded dimension"},
    "--pairs": {"help": "semicolon-separated l,m pairs"},
    "--poly2": {"help": "second summand (disjoint variables)"},
    "--vars2": {"help": "variable order for the second summand"},
}

_FORM = ("--poly", "--vars", "--dual-names", "--json")  # read by every command on a form

# each command's handler and the options it reads
_COMMANDS = {
    "hilbert": (_cmd_hilbert, _FORM),
    "annihilator": (_cmd_annihilator, _FORM + ("--degree",)),
    "catalecticant": (_cmd_catalecticant, _FORM + ("--degree",)),
    "concise": (_cmd_concise, _FORM),
    "macaulay": (_cmd_macaulay, ("--dim", "--degree", "--json")),
    "sylvester": (_cmd_sylvester, _FORM),
    "rank-bounds": (_cmd_rank_bounds, _FORM),
    "witness-verify": (_cmd_witness_verify, _FORM),
    "double-points": (_cmd_double_points, _FORM + ("--pairs",)),
    "wild-cert": (_cmd_wild_cert, _FORM + ("--rmax",)),
    "theorem2": (_cmd_theorem2, _FORM + ("--rmax",)),
    "direct-sum": (_cmd_direct_sum, _FORM + ("--rmax", "--poly2", "--vars2")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused: every default is
    immutable, and argparse reads sys.stdout/sys.stderr only when it prints.
    Each command's parser is stored as its `command_parser` default, so an
    option the command does not read is reported with the command's usage."""
    top = argparse.ArgumentParser(
        prog="apolar",
        description="exact apolarity computations and certified rank bounds",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, reads) in _COMMANDS.items():
        sp = sub.add_parser(name)
        sp.set_defaults(command_parser=sp)
        for flag, spec in _OPTIONS.items():
            if flag in reads:
                sp.add_argument(flag, **spec)
    return top


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
        if extra:
            args.command_parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    doc = {
        "command": args.command,
        "input": {
            "poly": getattr(args, "poly", None),
            "vars": args.vars.split(",") if getattr(args, "vars", None) else None,
        },
        "version": __version__,
    }
    try:
        results, certs, ok = _COMMANDS[args.command][0](args)
    except (InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc["results"] = results
    doc["certificates"] = _cert_dicts(certs)
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.json_path and args.json_path != "-":
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.json_path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
