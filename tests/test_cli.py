import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from apolar import parse_poly, theorem2_report
from apolar.apolarity import FormFacts
from apolar.cli import _COMMANDS, _OPTIONS, _build_parser, _cert_dicts, main
from apolar.wildcert import (
    cactus_lower_via_slice,
    extract_square_pairs,
    limit_family_certificate,
    rank9_lower_cert,
)
from apolar.witness import double_point_span

WILD = "x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2"
WILD_VARS = "x0,x1,y0,y1,y2"
ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "perfbench" / "golden" / "theorem2_wild.json"
SRC = ROOT / "src"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_hilbert_command(capsys):
    code, doc = run(capsys, "hilbert", "--poly", "x^3")
    assert code == 0
    assert doc["results"]["hilbert"] == [1, 1, 1, 1]
    assert doc["command"] == "hilbert"
    assert set(doc) == {"command", "input", "results", "certificates", "version"}


def test_sylvester_command(capsys):
    code, doc = run(capsys, "sylvester", "--poly", "x^2*y")
    assert code == 0
    r = doc["results"]
    assert (r["border"], r["rank"], r["d1"], r["d2"]) == (2, 3, 2, 3)


def test_theorem2_command(capsys):
    code, doc = run(capsys, "theorem2", "--poly", WILD, "--vars", WILD_VARS)
    assert code == 0
    assert doc["results"]["final"] == {
        "border": 5, "smoothable": 6, "cactus": 6, "rank": 9
    }
    kinds = {c["kind"] for c in doc["certificates"]}
    assert "rank-lower-counting" in kinds
    assert all(c["verified"] for c in doc["certificates"])


def test_theorem2_exit_code_reports_an_unverified_certificate(capsys):
    # excluding length 9 is beyond the counting certificate: its record is
    # printed unverified, and that is a certificate failure
    code, doc = run(capsys, "theorem2", "--poly", WILD, "--vars", WILD_VARS, "--rmax", "9")
    assert code == 1
    counting = [c for c in doc["certificates"] if c["kind"] == "rank-lower-counting"]
    assert len(counting) == 1 and counting[0]["verified"] is False


@pytest.mark.parametrize("command", ["theorem2", "wild-cert", "direct-sum"])
@pytest.mark.parametrize("rmax", ["0", "-1", "-5"])
def test_rmax_below_one_is_an_input_error(capsys, command, rmax):
    # no decomposition has length below 1, so there is nothing to exclude
    extra = ["--poly2", "u^3"] if command == "direct-sum" else []
    code = main([command, "--poly", WILD, "--vars", WILD_VARS, *extra, "--rmax", rmax])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"error: argument --rmax: must be at least 1, got {int(rmax)}" in captured.err


def test_annihilator_command(capsys):
    code, doc = run(capsys, "annihilator", "--poly", WILD, "--vars", WILD_VARS,
                    "--degree", "2")
    assert code == 0
    assert doc["results"]["dimension"] == 10


def test_annihilator_with_custom_dual_names(capsys):
    code, doc = run(capsys, "annihilator", "--poly", WILD, "--vars", WILD_VARS,
                    "--degree", "1", "--dual-names", "a0,a1,b0,b1,b2")
    assert code == 0
    assert doc["results"]["basis"] == []


def test_catalecticant_command(capsys):
    code, doc = run(capsys, "catalecticant", "--poly", WILD, "--vars", WILD_VARS,
                    "--degree", "1")
    assert code == 0
    assert doc["results"]["rank"] == 5
    assert doc["results"]["cols"] == 5
    assert doc["results"]["rows"] == 15


CUBIC_LABELS = ["x^3", "x^2*y", "x^2*z", "x*y^2", "x*y*z", "x*z^2", "y^3", "y^2*z", "y*z^2", "z^3"]


@pytest.mark.parametrize("degree, results", [
    (0, {"source_degree": 0, "rank": 1, "rows": 10, "cols": 1,
         "row_labels": CUBIC_LABELS, "col_labels": ["1"],
         "entries": [["0"], ["1"], ["0"], ["0"], ["0"], ["0"], ["0"], ["0"], ["0"], ["3/2"]]}),
    (1, {"source_degree": 1, "rank": 3, "rows": 6, "cols": 3,
         "row_labels": ["x^2", "x*y", "x*z", "y^2", "y*z", "z^2"],
         "col_labels": ["d_x", "d_y", "d_z"],
         "entries": [["0", "1", "0"], ["2", "0", "0"], ["0", "0", "0"], ["0", "0", "0"],
                     ["0", "0", "0"], ["0", "0", "9/2"]]}),
    (3, {"source_degree": 3, "rank": 1, "rows": 1, "cols": 10,
         "row_labels": ["1"],
         "col_labels": ["d_x^3", "d_x^2*d_y", "d_x^2*d_z", "d_x*d_y^2", "d_x*d_y*d_z",
                        "d_x*d_z^2", "d_y^3", "d_y^2*d_z", "d_y*d_z^2", "d_z^3"],
         "entries": [["0", "2", "0", "0", "0", "0", "0", "0", "0", "9"]]}),
], ids=["0", "1", "3"])
def test_catalecticant_command_document(capsys, degree, results):
    # the unit monomial is labelled "1": the one column at slice degree 0,
    # the one row at slice degree d
    code, doc = run(capsys, "catalecticant", "--poly", "x^2*y + 3/2*z^3", "--degree", str(degree))
    assert code == 0
    assert doc["results"] == results


def test_concise_command(capsys):
    code, doc = run(capsys, "concise", "--poly", "x0^3", "--vars", WILD_VARS)
    assert code == 0
    assert doc["results"]["dimension"] == 1
    assert doc["results"]["basis"] == ["x0"]


def test_macaulay_command(capsys):
    code, doc = run(capsys, "macaulay", "--dim", "5", "--degree", "3")
    assert code == 0
    assert doc["results"]["bound"] == 6


def test_rank_bounds_command(capsys):
    code, doc = run(capsys, "rank-bounds", "--poly", "x0^3 + x1^3 + x2^3")
    assert code == 0
    assert doc["results"]["bounds"]["rank"]["lower"] == 3


@pytest.mark.parametrize("poly", ["x^2+y^2+z^2", "x^2*y"])
def test_rank_bounds_takes_the_theorem2_route(capsys, poly):
    code, doc = run(capsys, "rank-bounds", "--poly", poly)
    assert code == 0
    assert doc["results"]["bounds"] == theorem2_report(parse_poly(poly)).report.as_dict()


def test_witness_verify_command(capsys):
    code, doc = run(capsys, "witness-verify", "--poly", WILD, "--vars", WILD_VARS)
    assert code == 0
    assert doc["results"]["verified"] is True
    assert doc["results"]["border_upper"] == 5


def test_witness_verify_failure_exit_code(capsys):
    code, doc = run(capsys, "witness-verify", "--poly", "x0*x1*x2")
    assert code == 1
    assert doc["results"]["verified"] is False
    # the reason is the certificate's own first stage-log line
    assert doc["results"]["reason"] == doc["certificates"][0]["stage_log"][0]
    assert doc["results"]["reason"] == "no squares-times-lines shape found"


def test_double_points_command(capsys):
    code, doc = run(capsys, "double-points", "--poly", WILD, "--vars", WILD_VARS,
                    "--pairs", "x0,y0;x0+x1,-y1;x1,y2")
    assert code == 0
    assert doc["results"]["cactus_upper"] == 6


@pytest.mark.parametrize("pairs", ["x,y;y,x^2", "x^2,y;y,x", "0,y;y,x", "x,1;y,x"])
def test_double_points_rejects_pairs_that_are_not_linear(capsys, pairs):
    # a quadratic m used to be dropped from its column and reported verified
    code = main(["double-points", "--poly", "x^2*y+y^3", "--pairs", pairs])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: bad pair")


def test_double_points_accepts_a_zero_jet(capsys):
    code, doc = run(capsys, "double-points", "--poly", "x^2*y+y^3", "--pairs", "x,y;y,0")
    assert code == 0
    assert doc["results"]["cactus_upper"] == 4


def test_wild_cert_command(capsys):
    code, doc = run(capsys, "wild-cert", "--poly", WILD, "--vars", WILD_VARS)
    assert code == 0
    assert doc["results"]["cactus_lower"] == 6
    assert doc["results"]["rank_lower"] == 9


def test_direct_sum_command(capsys):
    code, doc = run(capsys, "direct-sum", "--poly", WILD, "--vars", WILD_VARS,
                    "--poly2", "u^3")
    assert code == 0
    assert doc["results"]["conciseness"]["total"] == 6
    assert doc["results"]["slice_intersection_equal"] is True
    assert doc["results"]["final"]["border"] == 6


def test_direct_sum_honours_rmax_and_reports_an_unverified_certificate(capsys):
    # the pipeline on the combined form runs at the requested r_max: excluding
    # length 9 for the wild summand is beyond the counting certificate, as in
    # theorem2, and an unverified printed record is a certificate failure
    code, doc = run(capsys, "direct-sum", "--poly", WILD, "--vars", WILD_VARS,
                    "--poly2", "u^3", "--rmax", "9")
    assert code == 1
    counting = [c for c in doc["certificates"] if c["kind"] == "rank-lower-counting"]
    assert len(counting) == 1 and counting[0]["verified"] is False
    assert doc["results"]["slice_intersection_equal"] is True
    _, ref = run(capsys, "theorem2", "--poly", WILD, "--vars", WILD_VARS, "--rmax", "9")
    assert counting[0] in ref["certificates"]


def test_direct_sum_checks_the_slice_intersection_once(capsys, monkeypatch):
    from apolar import wildcert, witness

    calls = []
    original = witness.slice_intersection_certificate

    def counted(summands, total):
        calls.append(len(summands))
        return original(summands, total)

    monkeypatch.setattr(witness, "slice_intersection_certificate", counted)
    monkeypatch.setattr(wildcert, "slice_intersection_certificate", counted)
    code, doc = run(capsys, "direct-sum", "--poly", WILD, "--vars", WILD_VARS,
                    "--poly2", "u^3")
    assert code == 0 and calls == [2]  # the pipeline's check over the two components
    assert doc["results"]["slice_intersection_equal"] is True
    kinds = [c["kind"] for c in doc["certificates"]]
    assert kinds.count("direct-sum-slice-intersection") == 1
    # z is not essential, so the pipeline checks the sum in other variables
    # and this sum gets its own check
    calls.clear()
    code, doc = run(capsys, "direct-sum", "--poly", "x^3+y^3", "--vars", "x,y,z",
                    "--poly2", "u^3")
    assert code == 0 and calls == [3, 2]
    assert doc["results"]["slice_intersection_equal"] is True
    # quadrics take no direct-sum branch in the pipeline, so the check runs here
    calls.clear()
    code, doc = run(capsys, "direct-sum", "--poly", "x^2", "--poly2", "u^2")
    assert code == 1 and calls == [2]
    assert doc["results"]["slice_intersection_equal"] is False
    assert doc["certificates"][0]["kind"] == "direct-sum-slice-intersection"


def test_parse_error_exit_code(capsys):
    code = main(["hilbert", "--poly", "2x"])
    err = capsys.readouterr().err
    assert code == 2
    assert "column" in err


@pytest.mark.parametrize("argv, bad", [
    (["double-points", "--poly", "x^2*y", "--pairs", "x,2y"], "y"),
    (["direct-sum", "--poly", WILD, "--vars", WILD_VARS, "--poly2", "2u"], "u"),
])
def test_parse_errors_in_pairs_and_poly2_are_input_errors(capsys, argv, bad):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: line 1, column 2: trailing input {bad!r}\n"


@pytest.mark.parametrize("argv", [
    ["hilbert", "--poly", "x^3", "--rmax", "3"],
    ["theorem2", "--poly", "x^3", "--degree", "2"],
    ["macaulay", "--dim", "5", "--degree", "3", "--poly", "x"],
])
def test_a_command_rejects_an_option_it_does_not_read(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: apolar {argv[0]} ")
    assert f"error: unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err


@pytest.mark.parametrize("command, flag", [(command, flag) for command, (_, reads) in _COMMANDS.items()
                                           for flag in reads])
def test_a_command_accepts_every_option_it_reads(command, flag):
    value = {"--degree": "1", "--rmax": "9", "--dim": "3"}.get(flag, "x")
    args = _build_parser().parse_args([command, flag, value])
    dest = _OPTIONS[flag].get("dest", flag[2:])
    assert str(getattr(args, dest)) == value


def test_the_parser_has_only_the_options_each_command_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help")]
               for name, sp in sub.choices.items()}
    assert options == {name: [f for f in _OPTIONS if f in reads]
                       for name, (_, reads) in _COMMANDS.items()}
    assert sum(map(len, options.values())) == 55
    assert [name for name, flags in options.items() if "--degree" in flags] == [
        "annihilator", "catalecticant", "macaulay"]
    assert [name for name, flags in options.items() if "--rmax" in flags] == [
        "wild-cert", "theorem2", "direct-sum"]


def test_inhomogeneous_rejected(capsys):
    code = main(["hilbert", "--poly", "x^2 + x"])
    assert code == 2


@pytest.mark.parametrize("command", ["rank-bounds", "theorem2", "concise", "witness-verify",
                                     "wild-cert"])
def test_constant_input_is_an_input_error(capsys, command):
    code = main([command, "--poly", "3"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and "constant" in err


@pytest.mark.parametrize("command, degree", [("annihilator", "-1"), ("catalecticant", "7")])
def test_slice_degree_outside_the_form_is_an_input_error(capsys, command, degree):
    code = main([command, "--poly", "x^3", "--degree", degree])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: slice degree {degree} outside 0..3\n"


@pytest.mark.parametrize("argv", [
    ["direct-sum", "--poly", "x", "--poly2", "y"],
    ["direct-sum", "--poly", "x+z", "--vars", "x,z", "--poly2", "y"],
])
def test_direct_sum_of_linear_forms_is_an_input_error(capsys, argv):
    # the slice-intersection check compares degree-2 annihilator slices
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["theorem2", "--poly", "x^2*y+z^2*w"],
    ["direct-sum", "--poly", "x^2*y", "--poly2", "z^3"],
], ids=["theorem2", "direct-sum"])
def test_inconsistent_evidence_is_a_hard_error_not_an_input_error(monkeypatch, argv):
    from apolar import wildcert
    from apolar.ranks import InconsistentEvidenceError

    def contradict(report, degree):
        raise InconsistentEvidenceError("border: lower 3 > upper 2")

    monkeypatch.setattr(wildcert, "tameness_rule", contradict)
    with pytest.raises(InconsistentEvidenceError):
        main(argv)


def test_unknown_command_exit_code(capsys):
    code = main(["does-not-exist"])
    assert code == 2


def test_the_parser_is_built_once_and_reused(capsys, monkeypatch):
    # each request in one process gets the exit code and the output it gets
    # in a process of its own
    assert _build_parser() is _build_parser()
    monkeypatch.setenv("COLUMNS", "100")  # help text wraps at the terminal width
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    first = ["hilbert", "--poly", "x^2*y - 3*z^3"]
    requests = [
        (first, 0),
        (["does-not-exist"], 2),
        (["theorem2", "--poly", WILD, "--vars", WILD_VARS, "--rmax", "0"], 2),
        (["concise", "--poly", "x^2", "--vars", "x,x"], 2),
        (["hilbert", "--poly", "2x"], 2),
        (["hilbert", "--help"], 0),
        (first, 0),
    ]
    outputs = []
    for argv, code in requests:
        assert main(argv) == code
        captured = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "apolar.cli", *argv], env=env,
                               capture_output=True, text=True)
        assert (alone.returncode, alone.stdout, alone.stderr) == (code, captured.out, captured.err)
        outputs.append(captured.out)
    assert outputs[-2].startswith("usage: apolar hilbert")
    assert outputs[-1] == outputs[0] and json.loads(outputs[0])["results"]["hilbert"] == [1, 3, 3, 1]


def test_json_output_is_byte_stable(capsys):
    argv = ["theorem2", "--poly", WILD, "--vars", WILD_VARS]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_json_file_output(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, doc = run(capsys, "hilbert", "--poly", "x^3", "--json", str(path))
    assert code == 0
    on_disk = json.loads(path.read_text())
    assert on_disk == doc


def test_json_to_an_unwritable_path_is_an_input_error(tmp_path, capsys):
    # a missing directory and a directory in place of the file
    for path in (tmp_path / "missing" / "out.json", tmp_path):
        code = main(["hilbert", "--poly", "x^2*y", "--json", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot write {path}: ")


@pytest.mark.parametrize("argv", [
    ["concise", "--poly", "x^2", "--vars", "x,x"],
    ["hilbert", "--poly", "x^2", "--dual-names", "x"],
    ["hilbert", "--poly", "x^2*y", "--vars", "x,y", "--dual-names", "a"],
    ["hilbert", "--poly", "x^2*y", "--vars", "x,,y"],
    ["theorem2", "--poly", WILD, "--vars", "x0,x1,y0,y1,y1"],
    ["direct-sum", "--poly", "x^3", "--poly2", "u^3", "--vars2", "u,u"],
])
def test_bad_variable_lists_are_input_errors(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["hilbert", "--poly", "x^\u00b2"], "error: line 1, column 3: unexpected character '\u00b2'"),
    (["hilbert", "--poly", "x^2+y^2", "--vars", "x, y"],
     "error: variable name ' y' is not an identifier"),
])
def test_non_ascii_text_and_non_identifier_names_are_input_errors(capsys, argv, message):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == message + "\n"


def test_theorem2_stdout_matches_golden(capsys):
    assert main(["theorem2", "--poly", WILD, "--vars", WILD_VARS]) == 0
    assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv, reference", [
    (["witness-verify", "--poly", WILD, "--vars", WILD_VARS], (WILD, WILD_VARS)),
    (["double-points", "--poly", WILD, "--vars", WILD_VARS,
      "--pairs", "x0,y0;x0+x1,-y1;x1,y2"], (WILD, WILD_VARS)),
    (["wild-cert", "--poly", WILD, "--vars", WILD_VARS], (WILD, WILD_VARS)),
    (["direct-sum", "--poly", WILD, "--vars", WILD_VARS, "--poly2", "u^3"],
     (WILD + " + u^3", WILD_VARS + ",u")),
], ids=["witness-verify", "double-points", "wild-cert", "direct-sum"])
def test_certificates_match_theorem2(capsys, argv, reference):
    code, doc = run(capsys, *argv)
    assert code == 0
    _, ref = run(capsys, "theorem2", "--poly", reference[0], "--vars", reference[1])
    for cert in doc["certificates"]:
        assert cert in ref["certificates"]


def test_direct_sum_prints_each_certificate_once(capsys):
    code, doc = run(capsys, "direct-sum", "--poly", WILD, "--vars", WILD_VARS, "--poly2", "u^3")
    assert code == 0
    certs = doc["certificates"]
    assert [c["kind"] for c in certs].count("direct-sum-slice-intersection") == 1
    assert all(a != b for i, a in enumerate(certs) for b in certs[i + 1:])


@pytest.mark.parametrize("argv, code", [
    (["witness-verify", "--poly", WILD, "--vars", WILD_VARS], 0),
    (["witness-verify", "--poly", "x0*x1*x2"], 1),
    (["double-points", "--poly", WILD, "--vars", WILD_VARS,
      "--pairs", "x0,y0;x0+x1,-y1;x1,y2"], 0),
    (["double-points", "--poly", WILD, "--vars", WILD_VARS, "--pairs", "x0,y0;x1,y2"], 1),
    (["wild-cert", "--poly", WILD, "--vars", WILD_VARS], 0),
    (["wild-cert", "--poly", "x^3"], 1),
    (["theorem2", "--poly", WILD, "--vars", WILD_VARS], 0),
    (["direct-sum", "--poly", WILD, "--vars", WILD_VARS, "--poly2", "u^3"], 0),
], ids=["witness-verify", "witness-verify-failure", "double-points", "double-points-failure",
        "wild-cert", "wild-cert-failure", "theorem2", "direct-sum"])
def test_certificates_print_kind_stage_log_and_verified_only(capsys, argv, code):
    # the records also carry a basis and certified bounds; neither is printed
    got, doc = run(capsys, *argv)
    assert got == code
    assert doc["certificates"]
    for cert in doc["certificates"]:
        assert set(cert) == {"kind", "stage_log", "verified"}


def _wild_pairs(text):
    table = parse_poly(WILD, vars=WILD_VARS.split(",")).table
    return [tuple(parse_poly(side, table=table) for side in chunk.split(","))
            for chunk in text.split(";")]


def _wild_cert_records(poly):
    facts = FormFacts(parse_poly(poly))
    g = facts.form
    return [cactus_lower_via_slice(g, facts)[1],
            rank9_lower_cert(g, 8, extract_square_pairs(g), facts)[1]]


@pytest.mark.parametrize("argv, records", [
    (["witness-verify", "--poly", "x0*x1*x2"],
     lambda: [limit_family_certificate(parse_poly("x0*x1*x2"), None)[1]]),
    (["double-points", "--poly", WILD, "--vars", WILD_VARS, "--pairs", "x0,y0;x1,y2"],
     lambda: [double_point_span(parse_poly(WILD, vars=WILD_VARS.split(",")),
                                _wild_pairs("x0,y0;x1,y2"))[1]]),
    (["wild-cert", "--poly", "x^3"], lambda: _wild_cert_records("x^3")),
], ids=["witness-verify", "double-points", "wild-cert"])
def test_failure_records_are_the_builders_own(capsys, argv, records):
    # the commands print the unverified records their builders return
    code, doc = run(capsys, *argv)
    assert code == 1
    expected = records()
    assert not all(r.verified for r in expected)
    assert doc["certificates"] == json.loads(json.dumps(_cert_dicts(expected)))
