import argparse
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from apolar import apolarity, parse_poly, ranks, theorem2_report
from apolar.apolarity import FormFacts
from apolar.cli import _COMMANDS, _OPTIONS, _build_parser, _cert_dicts, main
from apolar.poly import monomials
from apolar.wildcert import limit_family_certificate
from apolar.witness import double_point_span

WILD = "x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2"
WILD_VARS = "x0,x1,y0,y1,y2"
SIGNED_WILD = "x1^2*y2 - (x1-x0)^2*y0 + x0^2*y1"  # WILD in signed-permuted coordinates
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
    for poly in (WILD, SIGNED_WILD):
        code, doc = run(capsys, "theorem2", "--poly", poly, "--vars", WILD_VARS)
        assert code == 0
        assert doc["results"]["final"] == {
            "border": 5, "smoothable": 6, "cactus": 6, "rank": 9
        }
        kinds = {c["kind"] for c in doc["certificates"]}
        assert {"cactus-slice-saturation", "rank-lower-counting"} <= kinds
        assert all(c["verified"] for c in doc["certificates"])


@pytest.mark.parametrize("poly, vars_, gammas, border_rank", [
    (WILD + " + u^3", WILD_VARS + ",u", ["d_y0", "d_y1", "d_y2"], None),
    ("x*y*z + w^3", "x,y,z,w", ["d_x", "d_y", "d_z"], None),
])
def test_theorem2_prints_the_witnesses_of_its_own_records(capsys, poly, vars_, gammas, border_rank):
    code, doc = run(capsys, "theorem2", "--poly", poly, "--vars", vars_)
    assert code == 0
    assert doc["results"]["saturation_gammas"] == gammas
    assert doc["results"]["border_witness_rank"] == border_rank


def _seeded_forms(seed, count):
    """(text, vars) for forms of degree 2-5 in 2-6 variables with fractional
    coefficients: sparse sums of monomials, some variables of the list
    unused, and one in three plus the power of a linear form."""
    rng = random.Random(seed)
    names = ("a", "b", "c", "d", "e", "f")
    out = []
    for k in range(count):
        n, d = rng.randint(2, 6), rng.randint(2, 5)
        monos = list(monomials(n, d))
        terms = [f"{rng.choice((3, 1, 2))}/{rng.randint(1, 4)}*"
                 + "*".join(f"{v}^{e}" for v, e in zip(names, m) if e)
                 for m in rng.sample(monos, rng.randint(1, min(len(monos), 6)))]
        if k % 3 == 0:
            terms.append(f"({names[0]} - {rng.randint(1, 3)}*{names[n - 1]})^{d}")
        text = terms[0] + "".join(rng.choice((" + ", " - ")) + t for t in terms[1:])
        out.append((text, ",".join(names[:n])))
    return out


def test_theorem2_slice2_dim_is_the_degree_two_annihilator_dimension(capsys):
    for text, vars_ in _seeded_forms(3502, 120):
        code, doc = run(capsys, "theorem2", "--poly", text, "--vars", vars_)
        assert code in (0, 1) and doc["results"]["slice2_dim"] is not None, text
        f = parse_poly(text, vars=vars_.split(","))
        assert doc["results"]["slice2_dim"] == FormFacts(f).slice2.dim, text


@pytest.mark.parametrize("poly, vars_, dim", [
    ("x^2+y^2+z^2", None, 5),
    ("x^2 + 2*x*y + y^2 + z^2", "x,y,z,w", 2),
    ("x*y", None, 2),
])
def test_a_quadric_theorem2_request_builds_no_annihilator_slice(capsys, monkeypatch, poly, vars_, dim):
    def refuse(*args):
        raise AssertionError("ann_slice called")

    monkeypatch.setattr(apolarity, "ann_slice", refuse)
    monkeypatch.setattr(ranks, "ann_slice", refuse)
    code, doc = run(capsys, "theorem2", "--poly", poly, *(("--vars", vars_) if vars_ else ()))
    assert code == 0 and doc["results"]["slice2_dim"] == dim


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


def test_macaulay_command_at_degree_one_and_a_large_dimension(capsys):
    code, doc = run(capsys, "macaulay", "--dim", "1000000000", "--degree", "1")
    assert code == 0
    assert doc["results"]["bound"] == 500000000500000000


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


def test_direct_sum_command(capsys):
    code, doc = run(capsys, "direct-sum", "--poly", WILD, "--vars", WILD_VARS,
                    "--poly2", "u^3")
    assert code == 0
    assert doc["results"]["conciseness"]["total"] == 6
    assert doc["results"]["slice_intersection_equal"] is True
    assert doc["results"]["final"]["border"] == 6


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
    ["hilbert", "--poly", "x^3", "--dim", "3"],
    ["theorem2", "--poly", "x^3", "--degree", "2"],
    ["macaulay", "--dim", "5", "--degree", "3", "--poly", "x"],
    # the counting certificate always excludes length 8; no command reads --rmax
    ["theorem2", "--poly", WILD, "--vars", WILD_VARS, "--rmax", "8"],
    ["direct-sum", "--poly", WILD, "--vars", WILD_VARS, "--poly2", "u^3", "--rmax", "8"],
])
def test_a_command_rejects_an_option_it_does_not_read(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: apolar {argv[0]} ")
    assert f"error: unrecognized arguments: {argv[-2]} {argv[-1]}" in captured.err


_VALUES = {"--degree": "1", "--dim": "3"}


def _required_argv(command, but=None) -> list:
    """The command's required options with a value each, all but `but`."""
    return [word for flag in _COMMANDS[command][1] if _OPTIONS[flag].get("required") and flag != but
            for word in (flag, _VALUES.get(flag, "x"))]


@pytest.mark.parametrize("command, flag", [(command, flag) for command, (_, reads) in _COMMANDS.items()
                                           for flag in reads])
def test_a_command_accepts_every_option_it_reads(command, flag):
    value = _VALUES.get(flag, "x")
    args = _build_parser().parse_args([command, flag, value] + _required_argv(command, but=flag))
    dest = _OPTIONS[flag].get("dest", flag[2:])
    assert str(getattr(args, dest)) == value


@pytest.mark.parametrize("command, flag", [(command, flag) for command, (_, reads) in _COMMANDS.items()
                                           for flag in reads if _OPTIONS[flag].get("required")])
def test_a_command_without_a_required_option_prints_its_usage(capsys, command, flag):
    code = main([command] + _required_argv(command, but=flag))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"usage: apolar {command} ")
    usage = " ".join(captured.err.split(f"apolar {command}: error: ")[0].split())
    assert f" {flag} {flag[2:].upper()} " in usage + " "  # shown required, not [bracketed]
    assert captured.err.endswith(f"error: the following arguments are required: {flag}\n")
    assert "Traceback" not in captured.err


def test_the_required_options_are_those_every_reader_needs():
    required = [flag for flag, spec in _OPTIONS.items() if spec.get("required")]
    assert required == ["--poly", "--degree", "--dim", "--pairs", "--poly2"]
    assert sum(flag in reads for _, reads in _COMMANDS.values() for flag in required) == 16


@pytest.mark.parametrize("argv", [
    ["hilbert", "--poly", "-x^3"],
    ["direct-sum", "--poly", "x^3", "--poly2", "-y^3"],
    ["double-points", "--poly", "x^2*y", "--pairs", "-x,y"],
])
def test_an_option_value_may_start_with_a_sign(capsys, argv):
    attached = main(argv[:-2] + [f"{argv[-2]}={argv[-1]}"])
    expected = capsys.readouterr()
    code = main(argv)
    captured = capsys.readouterr()
    assert code == attached == 0
    assert captured.out == expected.out and json.loads(captured.out)["results"]
    assert captured.err == expected.err == ""


@pytest.mark.parametrize("argv", [
    ["hilbert", "--poly", "-h"],
    ["hilbert", "--poly", "--vars", "x"],
    ["direct-sum", "--poly", "x^3", "--poly2", "--vars2=y"],
])
def test_an_option_is_not_taken_for_the_value_before_it(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "error: argument " in captured.err and ": expected one argument" in captured.err


def test_the_parser_has_only_the_options_each_command_reads():
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: [o for a in sp._actions for o in a.option_strings if o not in ("-h", "--help")]
               for name, sp in sub.choices.items()}
    assert options == {name: [f for f in _OPTIONS if f in reads]
                       for name, (_, reads) in _COMMANDS.items()}
    assert sum(map(len, options.values())) == 48
    assert [name for name, flags in options.items() if "--degree" in flags] == [
        "annihilator", "catalecticant", "macaulay"]
    assert not [name for name, flags in options.items() if "--rmax" in flags]


def test_inhomogeneous_rejected(capsys):
    code = main(["hilbert", "--poly", "x^2 + x"])
    assert code == 2


@pytest.mark.parametrize("command", ["rank-bounds", "theorem2", "concise", "witness-verify"])
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


def test_direct_sum_merges_the_variable_tables_by_name(capsys):
    # f's table names y, but only g uses it: x^3 + y^3 is a direct sum
    code, doc = run(capsys, "direct-sum", "--poly", "x^3", "--vars", "x,y", "--poly2", "y^3")
    assert code == 0
    assert doc["results"]["conciseness"] == {"left": 1, "right": 1, "total": 2}
    assert doc["results"]["final"]["rank"] == 2


@pytest.mark.parametrize("argv", [
    ["--poly", "x^3", "--poly2", "x^3"],
    ["--poly", "x^3", "--poly2", "x^3", "--vars2", "x,y"],
    ["--poly", "x^3+y^3", "--vars", "x,y,z", "--poly2", "y^3", "--vars2", "y,u"],
], ids=["equal-tables", "g-table-longer", "f-table-longer"])
def test_summands_that_both_use_a_variable_are_an_input_error(capsys, argv):
    code = main(["direct-sum", *argv])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: summands share variables\n"


@pytest.mark.parametrize("argv", [
    ["theorem2", "--poly", "x^2*y+z^2*w"],
    ["direct-sum", "--poly", "x^2*y", "--poly2", "z^3"],
], ids=["theorem2", "direct-sum"])
def test_inconsistent_evidence_is_a_hard_error_not_an_input_error(monkeypatch, argv):
    from apolar import wildcert
    from apolar.ranks import InconsistentEvidenceError

    def contradict(facts, evidence):
        raise InconsistentEvidenceError("border: lower 3 > upper 2")

    monkeypatch.setattr(wildcert, "aggregate", contradict)
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
        (["annihilator", "--poly", WILD, "--vars", WILD_VARS, "--degree", "two"], 2),
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


# one accepted request per command
COLD_REQUESTS = {
    "hilbert": ["--poly", "x^2*y - 3*z^3"],
    "annihilator": ["--poly", "x^2*y - 3*z^3", "--degree", "2"],
    "catalecticant": ["--poly", "x^2*y - 3*z^3", "--degree", "1"],
    "concise": ["--poly", "(x+y)^3 + (x-y)^3", "--vars", "x,y,z"],
    "macaulay": ["--dim", "5", "--degree", "3"],
    "sylvester": ["--poly", "x^2*y"],
    "rank-bounds": ["--poly", "x^2*y + (x+z)^2*w"],
    "witness-verify": ["--poly", WILD, "--vars", WILD_VARS],
    "double-points": ["--poly", WILD, "--vars", WILD_VARS, "--pairs", "x0,y0;x0+x1,-y1;x1,y2"],
    "theorem2": ["--poly", "x^2*y"],
    "direct-sum": ["--poly", "x^3", "--poly2", "u^3"],
}


def test_cold_requests_cover_every_command():
    assert set(COLD_REQUESTS) == set(_COMMANDS)


@pytest.mark.parametrize("command", list(COLD_REQUESTS))
def test_each_command_run_cold_matches_main(capsys, command):
    # a handler imports the modules it calls, so the first request of a
    # process takes its own path; it must print what main() prints in-process
    argv = [command, *COLD_REQUESTS[command]]
    assert main(argv) == 0
    captured = capsys.readouterr()
    alone = subprocess.run([sys.executable, "-m", "apolar.cli", *argv],
                           env={**os.environ, "PYTHONPATH": str(SRC)},
                           capture_output=True, text=True)
    assert (alone.returncode, alone.stdout, alone.stderr) == (0, captured.out, captured.err)


def test_a_closed_stdout_ends_with_exit_code_3_and_no_traceback(tmp_path):
    # the read end is closed before the process starts, so its first write
    # meets a closed pipe; the --json file is still written
    path = tmp_path / "report.json"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "apolar.cli", "theorem2", "--poly", WILD, "--vars", WILD_VARS,
             "--json", str(path)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert "Traceback" not in err and err == ""
    assert proc.returncode == 3
    assert path.read_text() == GOLDEN.read_text()


def test_a_closed_stdout_keeps_exit_code_1_for_an_unverified_certificate():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "apolar.cli", "witness-verify", "--poly", "x0*x1*x2"],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    _, err = proc.communicate(timeout=120)
    assert err == ""
    assert proc.returncode == 1


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
    # and the checks each command makes on the values it reads
    (["hilbert", "--poly", "0"], "error: the zero polynomial is not a valid input here"),
    (["hilbert", "--poly", "x-x"], "error: the zero polynomial is not a valid input here"),
    (["double-points", "--poly", "x^2*y", "--pairs", "x"], "error: bad pair 'x': expected \"l,m\""),
    (["double-points", "--poly", "x^2*y", "--pairs", "x,y,z"],
     "error: bad pair 'x,y,z': expected \"l,m\""),
    (["direct-sum", "--poly", "x^3", "--poly2", "u^2+u"],
     "error: --poly2 must be homogeneous and nonzero"),
    (["direct-sum", "--poly", "x^3", "--poly2", "0"], "error: --poly2 must be homogeneous and nonzero"),
    (["macaulay", "--dim", "-1", "--degree", "2"], "error: dimension must be non-negative"),
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
    (["direct-sum", "--poly", WILD, "--vars", WILD_VARS, "--poly2", "u^3"],
     (WILD + " + u^3", WILD_VARS + ",u")),
], ids=["witness-verify", "double-points", "direct-sum"])
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
    (["theorem2", "--poly", WILD, "--vars", WILD_VARS], 0),
    (["direct-sum", "--poly", WILD, "--vars", WILD_VARS, "--poly2", "u^3"], 0),
], ids=["witness-verify", "witness-verify-failure", "double-points", "double-points-failure",
        "theorem2", "direct-sum"])
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


@pytest.mark.parametrize("argv, records", [
    (["witness-verify", "--poly", "x0*x1*x2"],
     lambda: [limit_family_certificate(parse_poly("x0*x1*x2"), None)]),
    (["double-points", "--poly", WILD, "--vars", WILD_VARS, "--pairs", "x0,y0;x1,y2"],
     lambda: [double_point_span(parse_poly(WILD, vars=WILD_VARS.split(",")),
                                _wild_pairs("x0,y0;x1,y2"))]),
], ids=["witness-verify", "double-points"])
def test_failure_records_are_the_builders_own(capsys, argv, records):
    # the commands print the unverified records their builders return
    code, doc = run(capsys, *argv)
    assert code == 1
    expected = records()
    assert not all(r.verified for r in expected)
    assert doc["certificates"] == json.loads(json.dumps(_cert_dicts(expected)))
