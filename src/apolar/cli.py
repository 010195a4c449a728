"""Command-line interface: parse polynomials, run the certified computations,
emit a machine-readable JSON report.

Each handler returns its results and the records it prints.  The
certificate commands print the records their builders return, verified or
not.  A library ValueError on malformed input is an input error: a handler
makes a library call that can raise one through `_checked`, except
`double-points`, which prefixes its message with "bad pair:".  `theorem2` reads its printed
witnesses off the report's own records, the only ones that hold a witness;
the two lower-bound records of the wild cubic (cactus >= 6 from slice
saturation, rank >= 9 from counting) are among them.

`_OPTIONS` marks the options a command cannot run without as required, so
argparse rejects a missing one with the command's usage.  A value that
starts with a sign (`--poly -x^3`) is attached to its option before
argparse reads the words.

Each handler imports the library modules it calls when it runs, so
`import apolar.cli` loads only the parser, and a process loads only what its
command needs.

Exit codes: 0 success, 1 certificate failure (a printed record is
unverified), 2 input error, 3 standard output closed by its reader before
the report was written.  A certificate failure keeps 1 when the pipe is
closed too.  After a closed pipe, file descriptor 1 points at os.devnull for
the rest of the process.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .parsing import ParseError, parse_poly


class InputError(ValueError):
    pass


def _parse_input_poly(args):
    vars_ = args.vars.split(",") if args.vars else None
    duals = args.dual_names.split(",") if args.dual_names else None
    p = parse_poly(args.poly, vars=vars_, dual_names=duals)
    if p.is_zero():
        raise InputError("the zero polynomial is not a valid input here")
    if not p.is_homogeneous():
        raise InputError("rank computations need a homogeneous polynomial")
    return p


def _parse_form(args):
    """The input polynomial, for commands that need its essential variables."""
    p = _parse_input_poly(args)
    if p.homogeneous_degree() == 0:
        raise InputError("a constant has no essential variables; give a form of positive degree")
    return p


def _cert_dicts(records) -> list:
    """The printed part of each record; its basis, bounds and witness stay out."""
    return [{"kind": c.kind, "stage_log": c.stage_log, "verified": c.verified} for c in records]


def _cmd_hilbert(args):
    from .apolarity import hilbert_function

    p = _parse_input_poly(args)
    h = hilbert_function(p)
    return {"hilbert": list(h.values), "degree": h.top_degree}, []


def _checked(call, *args):
    """call(*args), with the library's ValueError on malformed input an input error."""
    try:
        return call(*args)
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _cmd_annihilator(args):
    from .apolarity import ann_slice

    p = _parse_input_poly(args)
    sl = _checked(ann_slice, p, args.degree)
    return {
        "degree": sl.degree,
        "dimension": sl.dim,
        "basis": [str(b) for b in sl.basis],
    }, []


def _labels(table, ring, degree) -> list:
    """The degree-`degree` monomials of `ring`, each printed as a Poly, so
    the monomial 1 is "1"."""
    from .poly import Poly, monomials

    return [str(Poly(table, ring, {m: 1})) for m in monomials(table.n, degree)]


def _cmd_catalecticant(args):
    from . import linalg
    from .apolarity import catalecticant
    from .poly import DUAL, PRIMAL

    p = _parse_input_poly(args)
    rows = _checked(catalecticant, p, args.degree)
    return {
        "source_degree": args.degree,
        "rank": linalg.rank(rows),
        "rows": len(rows),
        "cols": len(rows[0]),
        "row_labels": _labels(p.table, PRIMAL, p.homogeneous_degree() - args.degree),
        "col_labels": _labels(p.table, DUAL, args.degree),
        "entries": [[str(c) for c in row] for row in rows],
    }, []


def _cmd_concise(args):
    from .apolarity import concise_dim

    p = _parse_form(args)
    es = concise_dim(p)
    return {"dimension": es.dim, "basis": [str(b) for b in es.basis]}, []


def _cmd_macaulay(args):
    from .ideals import macaulay_bound

    bound = _checked(macaulay_bound, args.dim, args.degree)
    return {"dim": args.dim, "degree": args.degree, "bound": bound}, []


def _cmd_sylvester(args):
    from .apolarity import FormFacts
    from .ranks import sylvester_binary

    res = _checked(sylvester_binary, FormFacts(_parse_form(args)))
    return {
        "d1": res.d1,
        "d2": res.d2,
        "border": res.d1,
        "rank": res.rank,
        "smoothable": res.d1,
        "cactus": res.d1,
    }, []


def _cmd_rank_bounds(args):
    from .wildcert import classical_report

    conciseness, report = classical_report(_parse_form(args))
    return {"bounds": report.as_dict(), "conciseness": conciseness}, []


def _cmd_witness_verify(args):
    from .apolarity import FormFacts
    from .wildcert import extract_square_pairs, limit_family_certificate

    facts = FormFacts(_parse_form(args))
    cert = limit_family_certificate(facts.form, extract_square_pairs(facts))
    fam = cert.witness
    if fam is None:
        return {"verified": False, "reason": cert.stage_log[0]}, [cert]
    ok = cert.verified
    return {"verified": ok, "r": fam.r, "k": 1, "border_upper": fam.r if ok else None}, [cert]


def _parse_pairs(args, table):
    pairs = []
    for chunk in args.pairs.split(";"):
        sides = chunk.split(",")
        if len(sides) != 2:
            raise InputError(f"bad pair {chunk!r}: expected \"l,m\"")
        pairs.append((parse_poly(sides[0].strip(), table=table),
                      parse_poly(sides[1].strip(), table=table)))
    return pairs


def _cmd_double_points(args):
    from .witness import double_point_span

    p = _parse_form(args)
    pairs = _parse_pairs(args, p.table)
    try:
        cert = double_point_span(p, pairs)
    except ValueError as exc:
        raise InputError(f"bad pair: {exc}") from exc
    dps = cert.witness
    if dps is None:
        return {"verified": False}, [cert]
    return {
        "verified": True,
        "cactus_upper": dps.cactus_upper,
        "point_coeffs": [str(c) for c in dps.point_coeffs],
        "jet_coeffs": [str(c) for c in dps.jet_coeffs],
        "curvilinear": True,
    }, [cert]


def _cmd_theorem2(args):
    from .poly import monomial_count
    from .wildcert import theorem2_report

    p = _parse_form(args)
    rep = theorem2_report(p)
    facts = rep.facts
    # a summand's records in a sum's report hold no witness: these are the report's own
    own = {c.kind: c for c in rep.certificates if c.verified and c.witness is not None}
    saturation, family = own.get("cactus-slice-saturation"), own.get("border-limit-family")
    results = {
        "final": rep.final(),
        "bounds": rep.report.as_dict(),
        "conciseness": rep.conciseness,
        "hilbert": list(facts.hilbert.values),
        # rank-nullity on the degree-2 catalecticant, whose rank is H(2)
        "slice2_dim": (monomial_count(facts.form.table.n, 2) - facts.hilbert(2)
                       if p.homogeneous_degree() >= 2 else None),
        "saturation_gammas": [str(gamma) for gamma in saturation.witness] if saturation else [],
        "border_witness_rank": family.witness.r if family else None,
        "notes": list(rep.notes),
    }
    return results, rep.certificates


def _cmd_direct_sum(args):
    from .apolarity import concise_dim
    from .wildcert import theorem2_report
    from .witness import direct_sum_extend, slice_intersection_certificate

    p = _parse_form(args)
    vars2 = args.vars2.split(",") if args.vars2 else None
    q = parse_poly(args.poly2, vars=vars2)
    if not q.is_homogeneous() or q.is_zero():
        raise InputError("--poly2 must be homogeneous and nonzero")
    summands = _checked(direct_sum_extend, p, q)
    total = summands[0] + summands[1]
    pipeline = theorem2_report(total)
    certificates = list(pipeline.certificates)
    if pipeline.direct_sum and certificates[0].verified and pipeline.conciseness == total.table.n:
        # the pipeline checked the same concise sum over its variable-disjoint
        # components, which refine the two summands; equality there implies it here
        cert = certificates[0]
    else:
        cert = slice_intersection_certificate(summands, total)
        if cert not in certificates:
            certificates.insert(0, cert)
    left, right = (concise_dim(s).dim for s in summands)
    results = {
        "conciseness": {"left": left, "right": right, "total": pipeline.conciseness},
        "slice_intersection_equal": cert.verified,
        "final": pipeline.final(),
    }
    return results, certificates


# every option, in the order --help lists them
_OPTIONS = {
    "--poly": {"required": True, "help": "polynomial expression"},
    "--vars": {"help": "comma-separated variable order"},
    "--degree": {"type": int, "required": True, "help": "slice degree / growth degree"},
    "--json": {"dest": "json_path", "help": "also write the report to this path ('-' for stdout only)"},
    "--dual-names": {"dest": "dual_names", "help": "comma-separated dual variable names"},
    "--dim": {"type": int, "required": True, "help": "current graded dimension"},
    "--pairs": {"required": True, "help": "semicolon-separated l,m pairs, e.g. \"x0,y0;x0+x1,-1*y1;x1,y2\""},
    "--poly2": {"required": True, "help": "second summand (disjoint variables)"},
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
    "theorem2": (_cmd_theorem2, _FORM),
    "direct-sum": (_cmd_direct_sum, _FORM + ("--poly2", "--vars2")),
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


def _attach_signed_values(argv) -> list:
    """argv with each value that starts with a sign attached to its option
    (`--poly -x^3` -> `--poly=-x^3`), which argparse would otherwise read as
    an option.  A word that is itself an option (`-h` or any `--` word,
    argparse's own abbreviations included) is left to argparse."""
    out = []
    for word in argv:
        if (out and out[-1] in _OPTIONS and word.startswith("-")
                and not word.startswith("--") and word != "-h"):
            out[-1] += "=" + word
        else:
            out.append(word)
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    argv = _attach_signed_values(sys.argv[1:] if argv is None else argv)
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
        results, certs = _COMMANDS[args.command][0](args)
    except (InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc["results"] = results
    doc["certificates"] = _cert_dicts(certs)
    text = json.dumps(doc, indent=2, sort_keys=True)
    code = 0 if all(c.verified for c in certs) else 1
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # stdout goes to devnull, so the interpreter's flush at exit cannot
        # raise again; the --json file is still written
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if code == 0:
            code = 3
    if args.json_path and args.json_path != "-":
        try:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            print(f"error: cannot write {args.json_path}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
