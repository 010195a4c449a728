"""The package namespace: what `apolar` exports, and which modules a fresh
process loads before it computes anything."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apolar

SRC = Path(__file__).resolve().parents[1] / "src"

# every name `apolar` exports, by the module that defines it
EXPORTS = {
    "apolarity": ["EssentialSpace", "FormFacts", "HilbertFn", "ann_slice", "catalecticant",
                  "concise_dim", "contract", "hilbert_function"],
    "ideals": ["IdealSlice", "MembershipCertificate", "generated_slice", "macaulay_bound",
               "membership", "quotient_hilbert", "saturation_witness"],
    "parsing": ["ParseError", "parse_poly"],
    "poly": ["DUAL", "PRIMAL", "Poly", "TableMismatchError", "VarTable", "linear_form",
             "monomials"],
    "ranks": ["Deduction", "InconsistentEvidenceError", "RankReport", "SylvesterResult",
              "aggregate", "sylvester_binary"],
    "wildcert": ["LocusShapeError", "ProductLocus", "WildPresentation", "WildReport",
                 "cactus_lower_via_slice", "extract_square_pairs", "forced_square_check",
                 "gamma_space", "power_sum_certificate", "product_locus", "rank9_lower_cert",
                 "theorem2_report", "transform_presentation", "wild_cubic",
                 "wild_presentation", "wild_table"],
    "witness": ["DoublePointCertificate", "TangentDatum", "direct_sum_extend", "direct_summands",
                "double_point_span", "tangent_limit_family"],
}
NAMES = [(module, name) for module, names in EXPORTS.items() for name in names]


def _fresh_modules(code: str, packages=("apolar",)) -> set:
    """The modules of the given top-level packages that a new interpreter
    holds after running `code`."""
    script = (f"import json, sys\n{code}\n"
              f"print(json.dumps([m for m in sys.modules if m.split('.')[0] in {packages!r}]))")
    proc = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_importing_the_cli_loads_only_the_parser():
    assert _fresh_modules("import apolar.cli") == {
        "apolar", "apolar.cli", "apolar.parsing", "apolar.poly"}


@pytest.mark.parametrize("argv, unused", [
    (["hilbert", "--poly", "x^2*y - 3*z^3"], {"apolar.wildcert", "apolar.witness"}),
    (["macaulay", "--dim", "5", "--degree", "3"],
     {"apolar.apolarity", "apolar.ranks", "apolar.wildcert", "apolar.witness"}),
], ids=["hilbert", "macaulay"])
def test_a_fresh_request_loads_only_what_its_command_calls(argv, unused):
    loaded = _fresh_modules(
        "import contextlib, io\n"
        "from apolar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0")
    assert "apolar.cli" in loaded and not loaded & unused


def test_a_cold_theorem2_loads_no_dataclasses_or_source_tools():
    # the value records are plain classes: a cold report on the wild cubic
    # loads nothing a bare interpreter does not already hold of these
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    loaded = _fresh_modules(
        "import contextlib, io\n"
        "from apolar.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['theorem2', '--poly', 'x0^2*y0 - (x0+x1)^2*y1 + x1^2*y2',"
        " '--vars', 'x0,x1,y0,y1,y2']) == 0", heavy)
    assert loaded <= _fresh_modules("pass", heavy)


def test_the_exported_names_are_todays():
    assert len(NAMES) == 52
    assert sorted(apolar.__all__) == sorted(name for _, name in NAMES)


@pytest.mark.parametrize("module, name", NAMES, ids=[name for _, name in NAMES])
def test_each_name_is_its_module_attribute(module, name):
    source = importlib.import_module(f"apolar.{module}")
    value = getattr(apolar, name)
    assert value is getattr(source, name)
    if hasattr(value, "__qualname__"):
        assert value.__module__ == source.__name__
    assert name in dir(apolar)


def test_a_rebound_module_attribute_is_what_the_package_returns(monkeypatch):
    from apolar import apolarity

    def replacement(f):
        return None

    monkeypatch.setattr(apolarity, "hilbert_function", replacement)
    assert apolar.hilbert_function is replacement
    monkeypatch.undo()
    assert apolar.hilbert_function is apolarity.hilbert_function


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        apolar.no_such_name  # noqa: B018
    assert not hasattr(apolar, "classical_report")  # defined in wildcert, not exported


def test_a_submodule_is_still_importable_from_the_package():
    from apolar import wildcert

    assert wildcert is sys.modules["apolar.wildcert"]
    assert wildcert.theorem2_report is apolar.theorem2_report
