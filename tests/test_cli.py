"""CLI dispatch, report schema, exit codes, and output determinism."""

import ast
import importlib
import importlib.util
import itertools
import json
import os
import random
import re
import shlex
import subprocess
import signal
import sys
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from lieforge import algebra, cli, cohomology, esvla, snla, specfile
from lieforge.algebra import Audit, Element, bracket, check_alternating, jacobi_audit
from lieforge.automorphisms import (
    MAX_RECURRENCE_WINDOW,
    automorphism_audit,
    parse_coeff_file,
    product_map_audit,
    recurrence_audit,
)
from lieforge.cohomology import LinearEndo, central_extension, symmetry_audit
from oracles import written_entries

REPO = Path(__file__).resolve().parent.parent
SAMPLES = REPO / "samples"
GOLDEN = Path(__file__).resolve().parent / "golden"
DATA = REPO / "tests" / "data"

H3 = str(SAMPLES / "heisenberg.lie")
WITT = str(SAMPLES / "witt.lie")
H3_EXT = str(SAMPLES / "h3_extension.lie")
SNLA_BAD = str(SAMPLES / "snla_compat_fail.lie")
# a child process does not inherit pytest's `pythonpath`, so hand it src
_PATHS = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, _PATHS))}
# every subcommand that reads a spec; {spec} and {map} are filled in
SPEC_COMMANDS = {
    "check": ["check", "{spec}"],
    "cohomology": ["cohomology", "{spec}"],
    "derivations": ["derivations", "{spec}"],
    "extend": ["extend", "{spec}", "--cocycle", "w"],
    "snla-verify": ["snla", "verify", "{spec}"],
    "aut-verify": ["aut", "verify", "{spec}", "--map", "{map}"],
}


def run_cli(argv, capsys):
    code, report = cli.run(argv)
    out = capsys.readouterr().out
    return code, report, out


def zero_product_doc(tmp_path, n=1024) -> Path:
    """An SNLA document of n generators with a zero product and the standard
    form, written under ``tmp_path``.  At 1,024 generators its H2 system has
    more than ``MAX_UNKNOWNS`` unknowns, so ``snla verify`` refuses it."""
    spec = tmp_path / f"zero{n}.lie"
    spec.write_text(
        f"algebra zero{n} convention plain\nfamily e integer even\n"
        + "".join(f"generator e[{i}]\n" for i in range(1, n + 1))
    )
    return spec


def test_check_pass(capsys):
    code, rep, out = run_cli(["check", H3], capsys)
    assert code == 0
    assert rep.verdict == "pass"
    assert rep.summaries["dim"] == 3
    assert rep.summaries["center_dim"] == 1
    assert rep.summaries["jacobi_violations"] == 0
    assert "verdict: pass" in out
    assert "findings: none" in out


def test_check_rule_doc_needs_window(capsys):
    code, rep, _ = run_cli(["check", WITT], capsys)
    assert code == 2
    assert rep.findings[0].code == "E_INPUT"
    assert "window" in rep.findings[0].detail

    code, rep, _ = run_cli(["check", WITT, "--window", "4"], capsys)
    assert code == 0
    assert rep.summaries["dim"] == 9
    assert rep.summaries["boundary_pairs"] == 16


def test_check_parse_error_carries_line(tmp_path, capsys):
    bad = tmp_path / "bad.lie"
    bad.write_text("algebra x convention plain\nfamly e integer even\n")
    code, rep, _ = run_cli(["check", str(bad)], capsys)
    assert code == 2
    f = rep.findings[0]
    assert f.code == "E_PARSE"
    assert f.location == "bad.lie:2"
    assert "unknown directive" in f.detail


def test_check_refuses_entry_repeating_a_rule_pair(tmp_path, capsys):
    dup = tmp_path / "dup.lie"
    dup.write_text(
        "algebra w convention plain\n"
        "family L integer even\n"
        "rule L[m] L[n] => (n - m) L[m+n]\n"
        "entry L[1] L[2] => 1 L[3]\n"
    )
    code, _, out = run_cli(["check", str(dup), "--window", "3"], capsys)
    assert code == 2
    assert out.splitlines()[2:] == [
        "verdict: error",
        "findings (1):",
        "  [error] E_INPUT w: duplicate bracket entry for (L[1], L[2])",
    ]


def test_check_missing_file(capsys):
    code, rep, _ = run_cli(["check", "/no/such/file.lie"], capsys)
    assert code == 2
    assert rep.findings[0].code == "E_INPUT"


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "{bad}"],
        ["aut", "verify", H3, "--map", "{bad}"],
        ["aut", "recurrences", "--file", "{bad}"],
    ],
    ids=["spec", "map", "recurrences"],
)
def test_non_utf8_input_is_an_input_error(argv, tmp_path, capsys):
    bad = tmp_path / "bad.lie"
    bad.write_bytes(b"algebra x\n\xff\n")
    code, rep, _ = run_cli([a.format(bad=bad) for a in argv], capsys)
    assert code == 2
    assert rep.verdict == "error"
    [f] = rep.findings
    assert (f.code, f.location) == ("E_INPUT", "bad.lie")
    assert "not UTF-8" in f.detail


def test_cohomology_heisenberg(capsys):
    code, rep, _ = run_cli(["cohomology", H3], capsys)
    assert code == 0
    assert rep.summaries == {"dim": 3, "z2": 3, "b2": 1, "h2": 2}


def test_cohomology_of_one_odd_generator(tmp_path, capsys):
    # the even graded-symmetric form on one odd generator is closed and no
    # bracket makes it a coboundary, so h2 is 1, as h2_dimension counts it
    spec = tmp_path / "odd1.lie"
    spec.write_text(
        "algebra odd1 convention super\nfamily Y integer odd\ngenerator Y[0]\n"
    )
    code, rep, _ = run_cli(["cohomology", str(spec)], capsys)
    assert code == 0
    assert rep.summaries == {"dim": 1, "z2": 1, "b2": 0, "h2": 1}
    A = specfile.instantiate(specfile.parse(spec.read_text()))
    assert cohomology.h2_dimension(A) == 1


def test_derivations_heisenberg(capsys):
    code, rep, _ = run_cli(["derivations", H3], capsys)
    assert code == 0
    assert rep.summaries == {"dim": 3, "derivations": 6, "inner": 2, "outer": 4}


@pytest.mark.parametrize("window", ["1", "3"])
@pytest.mark.parametrize("command", ["check", "cohomology", "derivations"])
def test_window_leaves_a_document_without_rules_as_declared(command, window, capsys):
    # a window truncates the grids of rule documents; it adds no generator
    # to a declared table, and drops none of it
    spec = str(DATA / "heisenberg.lie")
    code, rep, _ = run_cli([command, spec], capsys)
    code_w, rep_w, _ = run_cli([command, spec, "--window", window], capsys)
    assert code_w == code == 0
    assert rep_w.summaries == rep.summaries
    assert rep_w.findings == rep.findings
    assert rep.summaries["dim"] == 3
    if command == "cohomology":
        assert rep.summaries == {"dim": 3, "z2": 3, "b2": 1, "h2": 2}
    if command == "check":
        assert rep.summaries["center_dim"] == 1


def test_extend_named_cocycle(capsys):
    code, rep, _ = run_cli(["extend", H3_EXT, "--cocycle", "w"], capsys)
    assert code == 0
    assert rep.summaries["dim"] == 3
    assert rep.summaries["extended_dim"] == 4
    assert rep.summaries["jacobi_violations"] == 0
    assert rep.summaries["center_dim"] == 1


def test_extend_cocycle_from_file(tmp_path, capsys):
    side = tmp_path / "side.lie"
    side.write_text(
        "algebra side convention plain\n"
        "family e integer even\n"
        "generator e[1]\n"
        "cocycle w e[m] e[n] => (n - m) when m + n - 4 = 0\n"
    )
    code, rep, _ = run_cli(["extend", H3, "--cocycle", str(side)], capsys)
    assert code == 0
    assert rep.summaries["extended_dim"] == 4
    assert len(rep.inputs) == 2


def test_extend_unknown_cocycle(capsys):
    code, rep, _ = run_cli(["extend", H3, "--cocycle", "nope"], capsys)
    assert code == 2
    assert rep.findings[0].code == "E_INPUT"


FINITE_HEAD = "algebra {name} convention plain\nfamily e integer even\n"
# half the sl2 bracket as a product on e1..e3, with e4 central
HALF_SL2 = (
    FINITE_HEAD.format(name="half_sl2")
    + "".join(f"generator e[{i}]\n" for i in range(1, 5))
    + "product e[1] e[2] => 1 e[2]\nproduct e[2] e[1] => -1 e[2]\n"
    + "product e[1] e[3] => -1 e[3]\nproduct e[3] e[1] => 1 e[3]\n"
    + "product e[2] e[3] => 1/2 e[1]\nproduct e[3] e[2] => -1/2 e[1]\n"
)
POWERS2 = (DATA / "cli" / "powers2.coef").read_text()
# sl2 with each bracket given one way, and a cochain given both ways on
# (x[-1],x[1]) with values that break the skew sign
SL2X = (
    "algebra sl2x convention plain\nfamily x integer even\n"
    + "".join(f"generator x[{i}]\n" for i in (-1, 0, 1))
    + "entry x[1] x[-1] => 1 x[0]\nentry x[0] x[1] => 2 x[1]\n"
    + "entry x[0] x[-1] => -2 x[-1]\ncocycle w x[m] x[n] => 1 when m + n = 0\n"
)
FILE = "{file}"  # the test writes `text` to it
SYM_RESIDUAL = "stored values contradict the convention's symmetry: residual 2"


@pytest.mark.parametrize(
    "name, text, argv, code, summaries, findings",
    [
        pytest.param(
            "solv.lie", HALF_SL2, ["snla", "verify", FILE], 1,
            {"two_step_solvable_violations": 1},
            [("V_SOLV", "bracket", "derived subalgebra is not abelian")],
            id="V_SOLV",
        ),
        pytest.param(
            "sym.lie",
            FINITE_HEAD.format(name="side") + "generator e[1]\n"
            "cocycle w e[m] e[n] => 1\n",
            ["extend", H3, "--cocycle", FILE], 1, {},
            [
                ("V_SYM", f"(e[{i}],e[{j}])", SYM_RESIDUAL)
                for i in (1, 2, 3) for j in (1, 2, 3) if i <= j
            ],
            id="V_SYM",
        ),
        pytest.param(
            "sl2x.lie", SL2X, ["extend", FILE, "--cocycle", "w"], 1,
            {"jacobi_violations": 1},
            [
                ("V_JACOBI", "(x[-1],x[0],x[1])", "residual 5*Z[0]"),
                ("V_SYM", "(x[-1],x[1])", SYM_RESIDUAL),
                ("V_SYM", "(x[0],x[0])", SYM_RESIDUAL),
            ],
            id="extend-reads-the-cochain-as-given",
        ),
        pytest.param(
            "rec.coef",
            POWERS2.replace("\ncoef b 0 0\n", "\ncoef b 0 1\n").replace(
                "\ncoef c 1 0\n", "\ncoef c 1 3\n"
            ),
            ["aut", "recurrences", "--file", FILE], 1,
            {"b_violations": 13, "c_violations": 7, "violations": 20},
            [],
            id="V_REC-b-c",
        ),
        pytest.param(
            "form.lie",
            FINITE_HEAD.format(name="f") + "generator e[1]\ngenerator e[2]\n"
            "form e[1] e[2] => 1\nform e[2] e[1] => 1\n",
            ["snla", "verify", FILE], 2, {},
            [("E_INPUT", "f", "conflicting form entries at (2,1)")],
            id="conflicting-forms",
        ),
    ],
)
def test_verdicts_outside_the_golden_transcript(
    name, text, argv, code, summaries, findings, tmp_path, capsys
):
    (tmp_path / name).write_text(text)
    argv = [str(tmp_path / name) if a == FILE else a for a in argv]
    exit_code, rep, _ = run_cli(argv, capsys)
    assert exit_code == code
    assert {k: rep.summaries[k] for k in summaries} == summaries
    codes = {c for c, _, _ in findings}
    shown = [(f.code, f.location, f.detail) for f in rep.findings if f.code in codes]
    assert shown == findings


def test_extension_reads_the_cochain_as_the_cocycle_audit_does():
    doc = specfile.parse(SL2X)
    A = specfile.instantiate(doc)
    w = specfile.instantiate_cocycle(doc.cocycles[0], A)
    assert [v.residual for v in cohomology.cocycle_audit(A, w, "all").violations] == [5]
    # the extension's z column is w's reading on all 9 ordered pairs
    ext = central_extension(A, w)
    z = ext.generators[-1]
    for g in A.generators:
        for h in A.generators:
            value, _ = bracket(ext, Element.of(g), Element.of(h))
            assert value.terms.get(z, 0) == w.value(g, h)


def test_esvla_audit_matches_golden(capsys):
    argv = ["esvla", "audit", "--window", "4", "--n-index", "extended", "--json"]
    outs = []
    for _ in range(3):
        code, _, out = run_cli(argv, capsys)
        assert code == 1
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    golden = (GOLDEN / "esvla_audit_w4_extended.json").read_text()
    assert outs[0] == golden


def test_esvla_audit_plain_matches_golden(capsys):
    # the plain convention takes the distinct-triple path of Jacobi and of
    # the cocycle audits; the other golden covers the super (repeats) path
    argv = ["esvla", "audit", "--window", "6", "--convention", "plain"]
    code, _, out = run_cli(argv, capsys)
    assert code == 1
    assert out == (GOLDEN / "esvla_audit_w6_plain.txt").read_text()


def test_esvla_audit_default_matches_golden(capsys):
    # the default configuration (super, strict)
    code, _, out = run_cli(["esvla", "audit", "--window", "5"], capsys)
    assert code == 1
    assert out == (GOLDEN / "esvla_audit_w5.txt").read_text()


@pytest.mark.parametrize(
    "convention, golden",
    [("super", "esvla_audit_w8.txt"), ("plain", "esvla_audit_w8_plain.txt")],
)
def test_esvla_audit_w8_matches_golden(convention, golden, capsys):
    # the benchmark's window: thousands of findings per code, of which the
    # report shows the first 100 by location
    argv = ["esvla", "audit", "--window", "8", "--convention", convention]
    code, _, out = run_cli(argv, capsys)
    assert code == 1
    assert out == (GOLDEN / golden).read_text()


# Fixed invocations, run from the repository root: every subcommand on
# samples/ and tests/data/, one --json, and every kind of refusal.
CLI_INVOCATIONS = [
    "check samples/heisenberg.lie",
    "check samples/witt.lie --window 4",
    "check samples/witt.lie",
    "check tests/data/sl2.lie --json",
    "check tests/data/no_such_file.lie",
    "check tests/data/cli/latin1.lie",
    "check tests/data/corrupt/c06_missing_arrow.lie",
    "cohomology tests/data/heisenberg.lie",
    "cohomology tests/data/witt.lie --grade-zero --window 6",
    "derivations samples/heisenberg.lie",
    "derivations tests/data/abelian4.lie",
    "derivations tests/data/witt.lie --window 4",
    "extend samples/h3_extension.lie --cocycle w",
    "extend samples/heisenberg.lie --cocycle samples/h3_extension.lie",
    "extend samples/heisenberg.lie --cocycle samples/witt.lie",
    "extend samples/heisenberg.lie --cocycle nope",
    "esvla audit --window 3",
    "esvla audit --window 1",
    "snla verify samples/snla_compat_fail.lie",
    "snla verify tests/data/heisenberg.lie",
    "snla search --dim 2 --coeffs=1,0,-1,0",
    "snla search --dim 2 --coeffs 0,1 --budget 10",
    "snla search --dim 2 --coeffs 1/0",
    "snla search --dim 2 --coeffs=,",
    "aut verify samples/heisenberg.lie --map tests/data/cli/scale3.map",
    "aut verify samples/heisenberg.lie --map tests/data/cli/singular3.map",
    "aut verify samples/heisenberg.lie --map tests/data/cli/diag2.map",
    "aut verify tests/data/witt.lie --map tests/data/cli/scale3.map --window 1",
    "aut verify samples/snla_compat_fail.lie --map tests/data/cli/diag2.map",
    "aut recurrences --file tests/data/cli/powers2.coef",
    "aut recurrences --file tests/data/cli/powers2.coef --window 1",
    "aut recurrences --file tests/data/cli/powers2.coef --window 9",
    "aut recurrences --file tests/data/cli/powers2.coef --window 0",
]


def cli_transcript(capsys) -> str:
    """Each invocation followed by its report and exit code."""
    parts = []
    for line in CLI_INVOCATIONS:
        code, _, out = run_cli(shlex.split(line), capsys)
        parts.append(f"$ lieforge {line}\n{out}exit {code}\n")
    return "\n".join(parts)


def test_cli_reports_match_golden(monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    assert cli_transcript(capsys) == (GOLDEN / "cli_reports.txt").read_text()


def test_esvla_audit_json_schema(capsys):
    _, _, out = run_cli(
        ["esvla", "audit", "--window", "4", "--n-index", "extended", "--json"],
        capsys,
    )
    doc = json.loads(out)
    assert list(doc.keys()) == [
        "version",
        "command",
        "verdict",
        "summaries",
        "findings",
    ]
    assert all(isinstance(v, int) for v in doc["summaries"].values())
    for f in doc["findings"]:
        assert list(f.keys()) == ["severity", "code", "location", "detail"]
    locs = [(f["code"], f["location"]) for f in doc["findings"]]
    assert locs == sorted(locs)


def test_esvla_audit_truncates_large_finding_groups(capsys):
    _, rep, _ = run_cli(
        ["esvla", "audit", "--window", "4", "--n-index", "extended"], capsys
    )
    jac = [f for f in rep.findings if f.code == "V_JACOBI"]
    trunc = [f for f in rep.findings if f.code == "I_TRUNCATED"]
    assert len(jac) == 100
    assert len(trunc) == 1
    assert trunc[0].location == "V_JACOBI"
    assert "258" in trunc[0].detail
    assert rep.summaries["jacobi_violations"] == 258


def test_esvla_audit_plain_convention_fails(capsys):
    code, rep, _ = run_cli(
        ["esvla", "audit", "--window", "3", "--convention", "plain"], capsys
    )
    assert code == 1
    assert rep.summaries["alternating_violations"] == 17
    assert any(f.code == "V_ALT" for f in rep.findings)


def test_esvla_audit_bad_window(capsys):
    code, rep, _ = run_cli(["esvla", "audit", "--window", "1"], capsys)
    assert code == 2
    assert rep.findings[0].code == "E_INPUT"


def test_snla_verify_compat_failure(capsys):
    code, rep, _ = run_cli(["snla", "verify", SNLA_BAD], capsys)
    assert code == 1
    assert rep.summaries["compat_violations"] == 1
    assert [f.code for f in rep.findings] == ["V_COMPAT"]
    assert rep.findings[0].location == "(1,1,1)"


def test_snla_verify_pass(tmp_path, capsys):
    good = tmp_path / "good.lie"
    good.write_text(
        "algebra good convention plain\n"
        "family e integer even\n"
        "generator e[1]\n"
        "generator e[2]\n"
        "form e[1] e[2] => 1\n"
    )
    code, rep, _ = run_cli(["snla", "verify", str(good)], capsys)
    assert code == 0
    assert rep.summaries["center_dim"] == 2
    assert rep.summaries["h2_dim"] == 1


def dense_snla_document(n: int) -> str:
    """A seeded dense product on n generators, two terms in every product,
    with the standard form; it breaks every SNLA identity."""
    rng = random.Random(23)
    lines = ["algebra dense convention plain", "family e integer even"]
    lines += [f"generator e[{i}]" for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            k, l = rng.sample(range(1, n + 1), 2)
            a, b = rng.choice((-2, -1, 1, 3)), rng.choice((1, 2))
            sign = rng.choice("+-")
            lines.append(f"product e[{i}] e[{j}] => {a} e[{k}] {sign} {b} e[{l}]")
    return "\n".join(lines) + "\n"


def test_snla_verify_renders_only_the_findings_it_shows(tmp_path, capsys, monkeypatch):
    # a seeded dense product on 16 generators breaks every SNLA identity
    # hundreds of times; only the 100 shown per code are built as violation
    # objects, and the report is the one that rendering and sorting every
    # violation gives
    spec = tmp_path / "dense.lie"
    spec.write_text(dense_snla_document(16))
    built = []
    real = Audit.violation
    monkeypatch.setattr(
        Audit, "violation", lambda self, e: built.append(e) or real(self, e)
    )
    code, rep, out = run_cli(["snla", "verify", str(spec)], capsys)
    assert code == 1
    totals = {
        code: rep.summaries[f"{check}_violations"]
        for check, (code, _) in cli._SNLA_CODES.items()
    }
    assert min(totals.values()) > cli.MAX_PER_CODE
    assert len(built) == len(totals) * cli.MAX_PER_CODE
    s = snla.snla_from_doc(specfile.parse(spec.read_text()))
    verdict = snla.verify_snla(s)
    every = []
    for check, (code, shown) in cli._SNLA_CODES.items():
        for v in verdict.audits[check].violations:
            t = tuple(int(g.index) for g in v.at)
            location, detail = cli._loc(t), shown.format(t, v.residual)
            every.append(cli.ReportFinding("violation", code, location, detail))
    assert len(every) == sum(totals.values())
    if not verdict.solvable:
        detail = "derived subalgebra is not abelian"
        every.append(cli.ReportFinding("violation", "V_SOLV", "bracket", detail))
    expected = cli._finalize(rep.command, rep.inputs, cli.Findings(every), rep.summaries)
    assert out == expected.to_text()


@pytest.mark.parametrize(
    "line, bad",
    [
        ("entry e[1] e[2] => 1 e[5]", "e[5]"),
        ("entry e[3] e[2] => 1 e[1]", "e[3]"),
        ("product e[1] e[2] => 1 e[4]", "e[4]"),
        ("form e[1] e[3] => 1", "e[3]"),
        ("form e[1] f[2] => 1", "f[2]"),
    ],
)
def test_snla_verify_undeclared_generator(line, bad, tmp_path, capsys):
    spec = tmp_path / "undeclared.lie"
    spec.write_text(
        "algebra u convention plain\n"
        "family e integer even\n"
        "family f integer even\n"
        "generator e[1]\n"
        "generator e[2]\n"
        f"{line}\n"
    )
    code, rep, _ = run_cli(["snla", "verify", str(spec)], capsys)
    assert code == 2
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        (
            "E_PARSE",
            "undeclared.lie:6",
            f"line 6, col 1: {bad} is not a declared generator",
        )
    ]


@pytest.mark.parametrize("command", ["check", "cohomology", "snla verify"])
def test_undeclared_generator_is_one_parse_error(command, capsys):
    spec = DATA / "corrupt" / "c13_undeclared_generator.lie"
    code, rep, _ = run_cli([*command.split(), str(spec)], capsys)
    assert code == 2
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        (
            "E_PARSE",
            "c13_undeclared_generator.lie:5",
            "line 5, col 1: e[5] is not a declared generator",
        )
    ]


SNLA_HEAD = (
    "algebra s convention plain\n"
    "family e integer even\n"
    "generator e[1]\n"
    "generator e[2]\n"
)


def test_snla_verify_sums_repeated_entry_terms(tmp_path, capsys):
    # the terms cancel, as they do for check: the bracket is abelian
    spec = tmp_path / "cancel.lie"
    spec.write_text(SNLA_HEAD + "entry e[1] e[2] => 1 e[1] -1 e[1]\n")
    code, rep, _ = run_cli(["snla", "verify", str(spec)], capsys)
    assert code == 0
    dims = [rep.summaries[k] for k in ("center_dim", "derived_dim", "h2_dim")]
    assert dims == [2, 0, 1]
    code, rep, _ = run_cli(["check", str(spec)], capsys)
    assert (code, rep.summaries["center_dim"]) == (0, 2)


def test_snla_verify_sums_repeated_product_terms(tmp_path, capsys):
    spec = tmp_path / "twice.lie"
    spec.write_text(SNLA_HEAD + "product e[1] e[1] => 1 e[2] 1 e[2]\n")
    code, rep, _ = run_cli(["snla", "verify", str(spec)], capsys)
    assert code == 1
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        ("V_COMPAT", "(1,1,1)", "(1, 1, 1) left -2 right 2")
    ]


@pytest.mark.parametrize(
    "command, extra",
    [("snla verify", ""), ("aut verify", ""), ("aut verify", "form e[1] e[2] => 1\n")],
    ids=["snla-verify", "aut-verify-rule-and-product", "aut-verify-rule-and-form"],
)
def test_snla_documents_with_rules_are_refused(command, extra, tmp_path, capsys):
    spec = tmp_path / "rule.lie"
    product = "" if extra else "product e[1] e[1] => 0 e[1]\n"
    spec.write_text(SNLA_HEAD + "rule e[m] e[n] => (n - m) e[m+n]\n" + product + extra)
    write_map(tmp_path / "id.map", [[1, 0], [0, 1]])
    argv = [*command.split(), str(spec)]
    if command == "aut verify":
        argv += ["--map", str(tmp_path / "id.map"), "--window", "2"]
    code, rep, _ = run_cli(argv, capsys)
    assert code == 2
    assert [(f.code, f.detail) for f in rep.findings] == [
        ("E_INPUT", "snla documents take no rule lines")
    ]


def test_snla_verify_builds_one_bracket(monkeypatch, capsys):
    from lieforge import algebra, snla

    built = {"instances": 0, "commutators": 0}
    init, commutator = algebra.AlgebraInstance.__init__, snla.commutator_bracket

    def counting_init(self, *args, **kwargs):
        built["instances"] += 1
        init(self, *args, **kwargs)

    def counting_commutator(p):
        built["commutators"] += 1
        return commutator(p)

    monkeypatch.setattr(algebra.AlgebraInstance, "__init__", counting_init)
    monkeypatch.setattr(snla, "commutator_bracket", counting_commutator)
    code, _, _ = run_cli(["snla", "verify", SNLA_BAD], capsys)
    assert code == 1
    assert built == {"instances": 1, "commutators": 1}


@pytest.mark.parametrize("command", ["snla verify", "aut verify"])
def test_snla_half_integer_generators_are_refused(command, tmp_path, capsys):
    # e[3/2], e[5/2] are not e[1], e[2]: the indices are compared exactly
    spec = tmp_path / "half.lie"
    spec.write_text(
        "algebra half convention plain\n"
        "family e half even\n"
        "generator e[3/2]\n"
        "generator e[5/2]\n"
        "form e[3/2] e[5/2] => 1\n"
    )
    write_map(tmp_path / "id.map", [[1, 0], [0, 1]])
    argv = [*command.split(), str(spec)]
    if command == "aut verify":
        argv += ["--map", str(tmp_path / "id.map")]
    code, rep, _ = run_cli(argv, capsys)
    assert code == 2
    assert [(f.code, f.detail) for f in rep.findings] == [
        ("E_INPUT", "generator indices must be exactly 1..dim")
    ]


def check_rule_within_a_second(tmp_path, capsys, coefficient):
    spec = tmp_path / "rule.lie"
    spec.write_text(
        "algebra w convention plain\n"
        "family L integer even\n"
        f"rule L[m] L[n] => {coefficient} L[m+n]\n"
    )

    def too_slow(signum, frame):
        raise TimeoutError("the run did not end within a second")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return run_cli(["check", str(spec), "--window", "3"], capsys)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_rule_exponent_limit_ends_quickly(tmp_path, capsys):
    code, rep, _ = check_rule_within_a_second(tmp_path, capsys, "(n - m)^99999999")
    assert code == 2
    assert [f.code for f in rep.findings] == ["E_PARSE"]


def test_nested_constant_powers_end_quickly(tmp_path, capsys):
    code, rep, _ = check_rule_within_a_second(
        tmp_path, capsys, "((((9^16)^16)^16)^16)^16"
    )
    assert code == 2
    assert [f.code for f in rep.findings] == ["E_PARSE"]
    assert "more than 1000 digits" in rep.findings[0].detail


def test_oversized_integer_literal_is_a_parse_error(tmp_path, capsys):
    code, rep, _ = check_rule_within_a_second(tmp_path, capsys, "9" * 5000)
    assert code == 2
    assert [f.code for f in rep.findings] == ["E_PARSE"]
    assert "integer with more than 1000 digits" in rep.findings[0].detail


@pytest.mark.parametrize(
    "coefficient",
    [
        "(" * 200 + "n - m" + ")" * 200,
        "(" * 3000 + "n - m" + ")" * 3000,
        "- " * 200 + "m",
        "- " * 3000 + "m",
    ],
    ids=["parentheses-200", "parentheses-3000", "minus-200", "minus-3000"],
)
def test_deep_nesting_is_a_parse_error(coefficient, tmp_path, capsys):
    code, rep, _ = check_rule_within_a_second(tmp_path, capsys, coefficient)
    assert code == 2
    assert [f.code for f in rep.findings] == ["E_PARSE"]
    assert "nested deeper than 32 levels" in rep.findings[0].detail


def test_nesting_at_the_limit_is_accepted(tmp_path, capsys):
    coefficient = "(" * 32 + "n - m" + ")" * 32
    code, rep, _ = check_rule_within_a_second(tmp_path, capsys, coefficient)
    assert (code, rep.findings) == (0, [])
    assert rep.summaries["dim"] == 7


def test_rule_degree_limit_covers_juxtaposition(tmp_path):
    # 3,000 juxtaposed factors: no power, no long literal, but m^3000
    # evaluated in the window would exceed the int-to-str digit limit
    spec = tmp_path / "deg.lie"
    spec.write_text(
        "algebra w convention plain\n"
        "family L integer even\n"
        f"rule L[m] L[n] => {' '.join(['m'] * 3000)} L[m+n]\n"
    )
    proc = subprocess.run(
        [sys.executable, "-m", "lieforge", "check", str(spec), "--window", "8"]
        + ["--json"],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    findings = json.loads(proc.stdout)["findings"]
    assert [f["code"] for f in findings] == ["E_PARSE"]
    assert "polynomial of degree 17 exceeds the limit 16" in findings[0]["detail"]


def test_rule_degree_at_the_limit_is_accepted(tmp_path, capsys):
    spec = tmp_path / "deg16.lie"
    spec.write_text(
        "algebra w convention plain\n"
        "family L integer even\n"
        f"rule L[m] L[n] => {' '.join(['m'] * 8 + ['n'] * 8)} L[m+n]\n"
    )
    code, rep, _ = run_cli(["check", str(spec), "--window", "8"], capsys)
    assert code in (0, 1)
    assert "E_PARSE" not in [f.code for f in rep.findings]
    assert rep.summaries["dim"] == 17


@pytest.mark.parametrize("command", [c for c in SPEC_COMMANDS if c != "snla-verify"])
def test_ill_kinded_terms_are_reported(command, tmp_path, capsys):
    # every bracket term lands on an integer index of the half family Y, so
    # each of the 6 pairs with n != m in window 1 is dropped as E_KIND; the
    # verdict stays pass
    spec = tmp_path / "ik.lie"
    spec.write_text(
        "algebra ik convention plain\n"
        "family L integer even\n"
        "family Y half even\n"
        "rule L[m] L[n] => (n - m) Y[m+n]\n"
        "cocycle w L[m] L[n] => m when m + n = 0\n"
    )
    write_map(tmp_path / "id.map", [[int(i == j) for j in range(5)] for i in range(5)])
    argv = [a.format(spec=spec, map=tmp_path / "id.map") for a in SPEC_COMMANDS[command]]
    code, rep, out = run_cli([*argv, "--window", "1"], capsys)
    assert (code, rep.verdict) == (0, "pass")
    assert [(f.severity, f.code) for f in rep.findings] == [("info", "E_KIND")] * 6
    assert rep.findings[0].location == "rule@4 [L[-1],L[0]]"
    assert rep.findings[0].detail == "result index -1 invalid for half family 'Y'"
    assert "[info] E_KIND rule@4 [L[-1],L[0]]" in out


def test_instantiation_findings_are_held_bounded(tmp_path, monkeypatch):
    # every L pair's term lands on an integer index of the half family Y:
    # 16,641 E_KIND findings at W = 64.  Rendered as findings before 100
    # were kept, they peaked at 6.2 MiB traced
    text = (
        "algebra kind convention plain\n"
        "family L integer even\n"
        "family Y half even\n"
        "rule L[m] L[n] => 1 Y[m+n]\n"
    )
    spec = tmp_path / "kind.lie"
    spec.write_text(text)
    rendered = Counter()

    class Counted(cli.ReportFinding):
        __slots__ = ()

        def __new__(cls, *fields):
            rendered[fields[1]] += 1
            return super().__new__(cls, *fields)

    monkeypatch.setattr(cli, "ReportFinding", Counted)
    tracemalloc.start()
    try:
        code, rep = cli.run(["cohomology", str(spec), "--grade-zero", "--window", "64"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert rendered["E_KIND"] == 100
    assert rep.findings[-1] == (
        "info",
        "I_TRUNCATED",
        "E_KIND",
        "showing 100 of 16641 findings; exact counts are in summaries",
    )
    assert peak < 3 * 2**20
    every = specfile.instantiate(specfile.parse(text), window=64).findings
    assert [("info", *f) for f in sorted(every, key=lambda f: f.location)[:100]] == [
        f for f in rep.findings if f.code == "E_KIND"
    ]


def test_snla_search_frozen_catalog(capsys):
    code, rep, _ = run_cli(
        ["snla", "search", "--dim", "2", "--coeffs=-1,0,1"], capsys
    )
    assert code == 0
    assert rep.command == "snla search --dim 2 --coeffs -1,0,1"
    assert rep.summaries["candidates"] == 3**8
    assert rep.summaries["examined"] == 3**8
    assert rep.summaries["instances"] == 1
    assert rep.summaries["partial"] == 0
    inst = [f for f in rep.findings if f.code == "I_INSTANCE"]
    assert len(inst) == 1
    assert inst[0].detail == "zero product"


def test_snla_search_budget_partial(capsys):
    code, rep, _ = run_cli(
        ["snla", "search", "--dim", "2", "--coeffs", "0,1", "--budget", "100"],
        capsys,
    )
    assert code == 0
    assert rep.summaries["examined"] == 100
    assert rep.summaries["partial"] == 1
    assert any(f.code == "I_PARTIAL" for f in rep.findings)


def test_snla_search_bad_coeffs(capsys):
    code, rep, _ = run_cli(
        ["snla", "search", "--dim", "2", "--coeffs", "1/0"], capsys
    )
    assert code == 2
    assert rep.findings[0].code == "E_INPUT"


def test_snla_search_dim4_complete_catalog(capsys):
    code, rep, _ = run_cli(
        ["snla", "search", "--dim", "4", "--coeffs=-1,0,1"], capsys
    )
    assert code == 0
    assert rep.summaries["candidates"] == 3**64
    assert rep.summaries["examined"] == 3**64
    assert rep.summaries["instances"] == 1
    assert rep.summaries["partial"] == 0
    assert [(f.code, f.detail) for f in rep.findings] == [
        ("I_INSTANCE", "zero product")
    ]


def test_snla_search_dim4_budget(capsys):
    code, rep, _ = run_cli(
        ["snla", "search", "--dim", "4", "--coeffs=-1,0,1", "--budget", "5"],
        capsys,
    )
    assert code == 0
    assert rep.summaries["examined"] == 5
    assert rep.summaries["instances"] == 0
    assert rep.summaries["partial"] == 1
    assert [f.code for f in rep.findings] == ["I_PARTIAL"]


def test_cli_import_starts_no_process_pool():
    # every module the import adds costs start-up time and memory on every
    # command: 16 on Python 3.11.7.  Records are NamedTuples or plain
    # classes, so neither dataclasses nor the inspect, ast and dis modules it
    # imports are loaded; json is imported by the --json report alone, and
    # hashlib (with OpenSSL) only where an input is digested.
    probe = (
        "import sys; before = set(sys.modules); import lieforge.cli; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing', "
        "'dataclasses', 'inspect', 'json', 'hashlib', '_hashlib') if m in sys.modules)); "
        "print(len(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    loaded, added = proc.stdout.split("\n", 1)
    assert loaded == "[]"
    assert int(added) <= 16


@pytest.mark.parametrize(
    "flags, code, modules",
    [
        # without `site`, which may load importlib.resources for a .pth file
        (["-S"], "import lieforge.cli", ("importlib.resources", "hashlib", "json")),
        # a search reads no file, so it digests none
        (
            [],
            "from lieforge import cli; "
            "cli.run(['snla', 'search', '--dim', '2', '--coeffs=-1,0,1'])",
            ("hashlib", "_hashlib"),
        ),
    ],
    ids=["import-without-site", "snla-search"],
)
def test_modules_load_only_when_used(flags, code, modules):
    probe = f"{code}; import sys; print([m for m in {modules} if m in sys.modules])"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", probe],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_trace_layers_name_callables():
    # perfbench/trace_run.py records a binding it cannot find as unmeasured;
    # every (module, attribute) in its LAYERS must still name a callable
    path = REPO / "perfbench" / "trace_run.py"
    tree = ast.parse(path.read_text())
    [node] = [
        n
        for n in tree.body
        if isinstance(n, ast.AnnAssign) and getattr(n.target, "id", None) == "LAYERS"
    ]
    layers = eval(compile(ast.Expression(node.value), str(path), "eval"), {})
    sites = [site for sites in layers.values() for site in sites]
    assert sites
    missing = [
        f"{mod}.{attr}"
        for mod, attr in sites
        if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []


def test_trace_run_times_every_esvla_audit_layer(monkeypatch, capsys):
    # a layer whose wrapped call moved reads 0 s in the benchmark without any
    # error, so run perfbench's own wrappers over a command that reaches them
    bench = REPO / "perfbench"

    def snapshot():
        return {p: p.read_bytes() for p in sorted(bench.rglob("*")) if p.is_file()}

    before = snapshot()
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(bench))  # trace_run imports workloads
    spec = importlib.util.spec_from_file_location("perfbench_trace_run", bench / "trace_run.py")
    trace_run = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(trace_run)
    finally:
        sys.modules.pop("workloads", None)
    bindings, tracer = trace_run.Bindings(), trace_run.Tracer()
    bindings.install(tracer)
    try:
        code = cli.main(["esvla", "audit", "--window", "4"])
    finally:
        bindings.remove()
    assert code == 1 and "verdict: fail" in capsys.readouterr().out
    assert bindings.unmeasured == {}
    layers = {
        "specfile.instantiate",
        "esvla.cocycles",
        "algebra.jacobi",
        "algebra.center",
        "algebra.alternating",
        "cohomology.cocycle_audit",
        "cohomology.assembly",
        "linalg.eliminate",
    }
    assert layers - {span[0] for span in tracer.spans} == set()
    assert snapshot() == before


def write_map(path, rows):
    lines = [f"dim {len(rows)}"]
    lines += [" ".join(str(x) for x in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def test_aut_verify_identity(tmp_path, capsys):
    m = tmp_path / "id.map"
    write_map(m, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    code, rep, _ = run_cli(["aut", "verify", H3, "--map", str(m)], capsys)
    assert code == 0
    assert rep.summaries["bracket_violations"] == 0


def test_aut_verify_center_scaling_fails(tmp_path, capsys):
    m = tmp_path / "scale.map"
    write_map(m, [[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    code, rep, _ = run_cli(["aut", "verify", H3, "--map", str(m)], capsys)
    assert code == 1
    assert rep.findings[0].code == "V_BRACKET"
    assert rep.findings[0].location == "(e[1],e[2])"


def test_aut_verify_snla_document(tmp_path, capsys):
    m = tmp_path / "diag.map"
    write_map(m, [["2", "0"], ["0", "1/2"]])
    good = tmp_path / "good.lie"
    good.write_text(
        "algebra good convention plain\n"
        "family e integer even\n"
        "generator e[1]\n"
        "generator e[2]\n"
        "form e[1] e[2] => 1\n"
    )
    code, rep, _ = run_cli(["aut", "verify", str(good), "--map", str(m)], capsys)
    assert code == 0
    assert rep.summaries["form_preserved"] == 1

    bad = tmp_path / "double.map"
    write_map(bad, [[2, 0], [0, 2]])
    code, rep, _ = run_cli(["aut", "verify", str(good), "--map", str(bad)], capsys)
    assert code == 1
    assert any(f.code == "V_FORM" for f in rep.findings)


def test_aut_verify_singular_map(tmp_path, capsys):
    m = tmp_path / "sing.map"
    write_map(m, [[1, 0, 0], [2, 0, 0], [0, 0, 1]])
    code, rep, _ = run_cli(["aut", "verify", H3, "--map", str(m)], capsys)
    assert code == 2
    assert rep.findings[0].code == "E_SINGULAR"
    assert "rank" in rep.findings[0].detail


def coeff_file(tmp_path, window, a):
    lines = [f"window {window}"]
    for n in range(-window, window + 1):
        lines.append(f"coef a {n} {a(n)}")
        lines.append(f"coef b {n} 0")
        lines.append(f"coef c {n} 0")
    for k in range(-2 * window, 2 * window + 1):
        lines.append(f"coef d {Fraction(k, 2)} 0")
    p = tmp_path / "fam.coef"
    p.write_text("\n".join(lines) + "\n")
    return p


def test_aut_recurrences_pass(tmp_path, capsys):
    p = coeff_file(tmp_path, 2, lambda n: Fraction(2) ** n)
    code, rep, _ = run_cli(["aut", "recurrences", "--file", str(p)], capsys)
    assert code == 0
    assert rep.summaries["violations"] == 0


def test_aut_recurrences_fail(tmp_path, capsys):
    p = coeff_file(tmp_path, 2, lambda n: Fraction(n))
    code, rep, _ = run_cli(["aut", "recurrences", "--file", str(p)], capsys)
    assert code == 1
    assert rep.summaries["a_violations"] > 0
    assert all(f.code == "V_REC" for f in rep.findings)
    assert any(f.location == "a@(1,1)" for f in rep.findings)


def test_aut_recurrences_window_restriction(tmp_path, capsys):
    p = coeff_file(tmp_path, 3, lambda n: Fraction(2) ** n)
    code, rep, _ = run_cli(
        ["aut", "recurrences", "--file", str(p), "--window", "2"], capsys
    )
    assert code == 0
    assert rep.summaries["window"] == 2

    code, rep, _ = run_cli(
        ["aut", "recurrences", "--file", str(p), "--window", "9"], capsys
    )
    assert code == 2
    assert "cannot widen" in rep.findings[0].detail


def test_aut_recurrences_narrowed_file_reads_as_one_written_at_the_window(
    tmp_path, capsys
):
    # seeded W = 4 values, d on integer and half-integer indices, most of
    # them failing; --window W must audit exactly the data a file written at
    # window W holds (every index within W, d's doubled index within 2W)
    rng = random.Random(4)
    values = ["0", "1", "-1", "2", "1/2", "-3/2"]
    data = {rel: {k: rng.choice(values) for k in range(-4, 5)} for rel in "abc"}
    data["d"] = {k: rng.choice(values) for k in range(-8, 9)}

    def written(window):
        lines = [f"window {window}"]
        for rel, stored in data.items():
            reach = 2 * window if rel == "d" else window
            key = (lambda k: Fraction(k, 2)) if rel == "d" else str
            lines += [f"coef {rel} {key(k)} {v}" for k, v in stored.items() if abs(k) <= reach]
        path = tmp_path / f"w{window}.coef"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    wide = written(4)
    seen = []
    for window in (1, 2, 3):
        argv = ["aut", "recurrences", "--file", wide, "--window", str(window)]
        code, narrowed, _ = run_cli(argv, capsys)
        direct = run_cli(["aut", "recurrences", "--file", written(window)], capsys)[1]
        assert code == 1
        # the reports differ only in their command lines and inputs
        assert narrowed._replace(command="", inputs=[]) == direct._replace(
            command="", inputs=[]
        )
        seen.append(narrowed.summaries["violations"])
    assert seen == sorted(seen) and seen[0] > 0


@pytest.mark.parametrize("window", ["0", "-1"])
def test_aut_recurrences_window_below_one_is_an_input_error(window, tmp_path, capsys):
    p = coeff_file(tmp_path, 2, lambda n: Fraction(2) ** n)
    code, rep, out = run_cli(
        ["aut", "recurrences", "--file", str(p), "--window", window], capsys
    )
    assert code == 2
    assert [(f.code, f.location) for f in rep.findings] == [("E_INPUT", "fam.coef")]
    assert "window must be >= 1" in rep.findings[0].detail
    assert out.startswith(f"lieforge {rep.tool_version} :: aut recurrences")


@pytest.mark.parametrize("window", [10**6, 10**9])
def test_aut_recurrences_wide_window_refusal_is_bounded(window, tmp_path, capsys):
    # the missing indices are counted, not listed: the report stays small
    p = tmp_path / "wide.coef"
    p.write_text(f"window {window}\ncoef a 0 1\n")
    t0 = time.perf_counter()
    code, rep, out = run_cli(["aut", "recurrences", "--file", str(p)], capsys)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert [(f.code, f.location) for f in rep.findings] == [("E_INPUT", "wide.coef")]
    first = ", ".join(str(n) for n in range(-window, -window + 8))
    assert rep.findings[0].detail == (
        f"a undefined at indices [{first}] and {2 * window - 8} more"
    )
    assert len(out.encode()) < 4096


def test_aut_recurrences_window_bound(tmp_path, capsys):
    bound = MAX_RECURRENCE_WINDOW
    p = coeff_file(tmp_path, bound, lambda n: 1)
    code, rep, _ = run_cli(["aut", "recurrences", "--file", str(p)], capsys)
    assert (code, rep.summaries["window"]) == (0, bound)

    p = coeff_file(tmp_path, bound + 1, lambda n: 1)
    t0 = time.perf_counter()
    code, rep, _ = run_cli(["aut", "recurrences", "--file", str(p)], capsys)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        ("E_INPUT", "fam.coef", f"window {bound + 1} exceeds the bound {bound}")
    ]


@pytest.mark.parametrize("command", ["aut verify", "aut recurrences", "snla search"])
def test_oversized_rational_literal_is_an_input_error(command, tmp_path, capsys):
    huge = "1e5000"  # over the literal bound; rendered, past 4,300 digits
    write_map(tmp_path / "huge.map", [[1, 0, 0], [0, 1, 0], [0, 0, huge]])
    coefs = coeff_file(tmp_path, 2, lambda n: huge if n == -1 else 1)
    argv = {
        "aut verify": ["aut", "verify", H3, "--map", str(tmp_path / "huge.map")],
        "aut recurrences": ["aut", "recurrences", "--file", str(coefs)],
        "snla search": ["snla", "search", "--dim", "2", f"--coeffs=0,{huge}"],
    }[command]
    code, rep, out = run_cli(argv, capsys)
    assert (code, [f.code for f in rep.findings]) == (2, ["E_INPUT"])
    assert out.startswith(f"lieforge {rep.tool_version} :: {command}")


def test_huge_exponent_is_refused_within_a_second():
    # Fraction would build 10^999999999 in C, where no Python alarm handler
    # runs; in a child the default SIGALRM action ends the run instead
    probe = (
        "import signal, sys; from lieforge import cli; "
        "signal.setitimer(signal.ITIMER_REAL, 1.0); "
        "sys.exit(cli.main(['snla', 'search', '--dim', '2', '--coeffs=0,1e999999999']))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, env=CHILD_ENV, timeout=30
    )
    assert (proc.returncode, proc.stderr) == (2, b"")
    assert b"E_INPUT" in proc.stdout


def test_usage_error_exit_2(capsys):
    code, rep = cli.run([])
    capsys.readouterr()
    assert code == 2
    assert rep is None
    code, rep = cli.run(["snla", "search", "--dim", "2"])
    capsys.readouterr()
    assert code == 2


def test_text_report_shape(capsys):
    _, _, out = run_cli(["check", H3], capsys)
    lines = out.splitlines()
    assert lines[0].startswith("lieforge 0.1.0 :: check ")
    assert lines[1].startswith("input: heisenberg.lie sha256=")
    assert "/" not in lines[0]


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lieforge", "check", H3],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert "verdict: pass" in proc.stdout


# stdout is block-buffered in a child whose environment lacks
# PYTHONUNBUFFERED, so a report left unflushed at exit would be lost; COLUMNS
# fixes the width of argparse's help
PROCESS_ENV = {
    **{k: v for k, v in CHILD_ENV.items() if k != "PYTHONUNBUFFERED"},
    "COLUMNS": "80",
}


@pytest.mark.parametrize(
    "argv, code, stdout_holds, stderr_holds",
    [
        # a 49 kB report, several times the pipe's buffer
        (["esvla", "audit", "--window", "8", "--json"], 1, '"verdict": "fail"', ""),
        (["check", H3], 0, "verdict: pass", ""),
        (["check", "{tmp}/missing.lie"], 2, "E_INPUT missing.lie: cannot read", ""),
        (["snla", "search", "--dim", "2"], 2, "", "required: --coeffs"),
        (["--help"], 0, "usage: lieforge", ""),
    ],
    ids=["esvla-json", "check", "missing-file", "usage-error", "help"],
)
def test_process_writes_what_run_writes(
    argv, code, stdout_holds, stderr_holds, tmp_path, capsys, monkeypatch
):
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "lieforge", *argv],
        capture_output=True,
        text=True,
        cwd=str(REPO),
        env=PROCESS_ENV,
    )
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.run(argv)[0] == code
    captured = capsys.readouterr()
    assert (proc.stdout, proc.stderr, proc.returncode) == (
        captured.out,
        captured.err,
        code,
    )
    assert stdout_holds in proc.stdout and stderr_holds in proc.stderr
    assert bool(proc.stdout) != bool(proc.stderr)


@pytest.mark.parametrize(
    "argv",
    [["check", H3], ["esvla", "audit", "--window", "3"]],
    # a failed flush keeps the 262 bytes of the first report in the pipe's
    # 4 kB buffer, but discards the 6.9 kB of the second, after which the
    # interpreter's own flush at exit succeeds
    ids=["report-within-the-buffer", "report-over-the-buffer"],
)
def test_report_into_a_closed_pipe_exits_120(argv):
    # the status the interpreter gives when its flush at exit fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lieforge", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            cwd=str(REPO),
            env=PROCESS_ENV,
        )
    finally:
        os.close(write)
    assert proc.returncode == 120, proc.stderr


def test_reports_have_no_absolute_paths(tmp_path, capsys):
    spec = tmp_path / "deep.lie"
    spec.write_text(H3_TEXT)
    _, rep, out = run_cli(["check", str(spec)], capsys)
    assert str(tmp_path) not in out
    assert rep.command == "check deep.lie"


H3_TEXT = (
    "algebra h3 convention plain\n"
    "family e integer even\n"
    "generator e[1]\n"
    "generator e[2]\n"
    "generator e[3]\n"
    "entry e[1] e[2] => 1 e[3]\n"
)


UNUSABLE = {p.name: str(p) for p in sorted((DATA / "corrupt").glob("*.lie"))}
UNUSABLE["missing"] = str(DATA / "no_such_file.lie")
UNUSABLE["directory"] = str(DATA)


@pytest.mark.parametrize(
    "argv",
    [
        [a.format(spec=spec, map=DATA / "cli" / "scale3.map") for a in cmd]
        for cmd in SPEC_COMMANDS.values()
        for spec in UNUSABLE.values()
    ]
    + [["extend", H3, "--cocycle", str(DATA)]],
    ids=[f"{c}-{s}" for c in SPEC_COMMANDS for s in UNUSABLE] + ["extend-cocycle-directory"],
)
def test_unusable_spec_is_refused(argv, capsys):
    # the refusal contract: exit 2 with one error finding, never an exception
    code, rep, _ = run_cli(argv, capsys)
    assert (code, rep.verdict) == (2, "error")
    assert [f.severity for f in rep.findings] == ["error"]
    assert rep.findings[0].code in ("E_INPUT", "E_PARSE")


# Seeded fuzzing: random bytes and mutated spec documents through every
# command that reads a spec, in process.
FUZZ_SEEDS = [
    p.read_bytes()
    for p in [
        *sorted(SAMPLES.glob("*.lie")),
        *sorted(DATA.rglob("*.lie")),
        *sorted((REPO / "src" / "lieforge" / "data").glob("*.lie")),
    ]
]
FUZZ_TOKEN = re.compile(rb"\s+|[A-Za-z_]\w*|\d+|=>|.")
FUZZ_VOCAB = (
    b"algebra family generator rule entry product form cocycle when convention"
    b" plain super integer half even odd L Y e w m n 0 1 2 1/2 -1 + - * / ^ ="
    b" => [ ] ( ) m+n \xff #"
).split()
FUZZ_COMMANDS = list(SPEC_COMMANDS.values())
FUZZ_COMMANDS.append(["cohomology", "{spec}", "--grade-zero"])
# Integer literals that are not a generator's index or part of a name:
# coefficients, offsets, `when` constants and denominators.
FUZZ_VALUE = re.compile(rb"(?<![\[\w])\d+")
FUZZ_VALUES = (b"0", b"1", b"2", b"3", b"5", b"12")


def _parses(text: bytes) -> bool:
    try:
        specfile.parse(text.decode("utf-8"))
    except (UnicodeDecodeError, specfile.ParseError):
        return False
    return True


FUZZ_VALID = [seed for seed in FUZZ_SEEDS if _parses(seed)]


def fuzz_values(rng: random.Random, text: bytes) -> bytes:
    """A valid seed with about a quarter of its values rewritten: the text
    stays well formed, so most such inputs reach the audits."""
    return FUZZ_VALUE.sub(
        lambda m: rng.choice(FUZZ_VALUES) if rng.random() < 0.25 else m.group(), text
    )


def fuzz_document(rng: random.Random) -> bytes:
    """Random bytes, a seed document with some values rewritten, or a seed
    document after one to three token swaps, insertions, deletions,
    duplicated lines or truncations."""
    if rng.random() < 0.1:
        return rng.randbytes(rng.randrange(120))
    if rng.random() < 0.5:
        return fuzz_values(rng, rng.choice(FUZZ_VALID))
    text = rng.choice(FUZZ_SEEDS)
    for _ in range(rng.randint(1, 3)):
        toks = FUZZ_TOKEN.findall(text)
        i, j = rng.randrange(len(toks) + 1), rng.randrange(len(toks) + 1)
        op = rng.randrange(5)
        if op == 0 and max(i, j) < len(toks):
            toks[i], toks[j] = toks[j], toks[i]
        elif op == 1:
            toks.insert(i, rng.choice(FUZZ_VOCAB) + b" ")
        elif op == 2:
            del toks[i:i + 1]
        elif op == 3:
            lines = text.splitlines(keepends=True)
            k = i % max(len(lines), 1)
            toks = lines[: k + 1] + lines[k:]
        else:
            toks = [text[: rng.randrange(len(text) + 1)]]
        text = b"".join(toks)
    return text


def fuzz_map(rng: random.Random, text: bytes, window) -> str:
    """A map file for ``aut verify`` on the document ``text``: the identity,
    a random rational map of the document's dimension (a random dimension
    when that cannot be read), one of the wrong dimension, or a singular
    one."""
    try:
        doc = specfile.parse(text.decode("utf-8"))
        snla_doc = doc.products or doc.forms
        dim = len(doc.generators) if snla_doc else specfile.dimension(doc, window)
    except (UnicodeDecodeError, specfile.ParseError, ValueError):
        dim = rng.randint(1, 4)
    dim = max(dim, 1)
    kind = rng.choice(["identity", "random", "wrong-dimension", "singular"])
    if kind == "wrong-dimension":
        dim += 1
    rows = [[int(a == b) for b in range(dim)] for a in range(dim)]
    if kind != "identity":
        # a few random rational entries keep the map cheap to check
        for _ in range(rng.randint(1, 3)):
            a, b = rng.randrange(dim), rng.randrange(dim)
            rows[a][b] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    if kind == "singular":
        rows[rng.randrange(dim)] = [0] * dim
    lines = [f"dim {dim}"] + [" ".join(str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def test_fuzzed_specs_end_in_a_report(tmp_path, capsys):
    rng = random.Random(20241)
    spec, map_file = tmp_path / "fuzz.lie", tmp_path / "fuzz.map"
    audited = 0
    for _ in range(1200):
        text = fuzz_document(rng)
        spec.write_bytes(text)
        argv = [a.format(spec=spec, map=map_file) for a in rng.choice(FUZZ_COMMANDS)]
        if argv[0] != "snla" and rng.random() < 0.8:
            argv += ["--window", str(rng.randint(1, 4))]
        if argv[0] == "aut":
            window = int(argv[-1]) if argv[-2] == "--window" else None
            map_file.write_text(fuzz_map(rng, text, window))
        t0 = time.perf_counter()
        code, rep, out = run_cli(argv, capsys)
        assert time.perf_counter() - t0 < 1, argv
        assert code in (0, 1, 2), argv
        assert out.startswith(f"lieforge {rep.tool_version} :: "), argv
        assert f"verdict: {rep.verdict}" in out, argv
        audited += code < 2
    # the value mutator keeps a share of the inputs past the parser (359 of
    # 1,200 with this seed, 43 of them `aut verify`; 46 before it was added)
    assert audited >= 200


# Seeded fuzzing of the commands that read no spec: mutated coefficient
# files through `aut recurrences --file`, and `snla search` arguments.
FUZZ_COEF = (DATA / "cli" / "powers2.coef").read_bytes()
# rationals, which keep a file usable, and values that do not
FUZZ_COEF_RATIONALS = (b"0", b"1", b"-1", b"2", b"1/2", b"-3/4", b"1e-999", b"1e999")
FUZZ_COEF_VALUES = (*FUZZ_COEF_RATIONALS, b"1/0", b"0.5", b"x", b"")
FUZZ_COEF_INDICES = (
    b"0", b"-3", b"3", b"1/2", b"-3/2", b"5/2", b"2.5", b"-0", b"1000000", b"x",
)
FUZZ_COEF_WINDOWS = (
    b"-1", b"0", b"1", b"2", b"3", b"1/2", b"129", b"1000000", b"x", b"",
)
FUZZ_COEF_LISTS = (
    "0,1", "-1,0,1", "1/2,-3/4", "0,1/3,2", "1/0", "1e-999", "0,1e-999", "1e999",
    "", ",", " , ,", "x", "0.5,1", ",".join(map(str, range(-40, 41))),
    ",".join(f"1/{k}" for k in range(1, 61)),
)


def fuzz_coef_file(rng: random.Random) -> bytes:
    """Random bytes, ``powers2.coef`` with about a quarter of its values
    rewritten as rationals, or ``powers2.coef`` after one to three rewritten
    values or indices, rewritten or added window lines, deleted or
    duplicated lines, or truncations."""
    if rng.random() < 0.1:
        return rng.randbytes(rng.randrange(120))
    lines = FUZZ_COEF.splitlines(keepends=True)
    if rng.random() < 0.5:
        for k, line in enumerate(lines):
            line = line.split()
            if len(line) == 4 and rng.random() < 0.25:
                line[3] = rng.choice(FUZZ_COEF_RATIONALS)
                lines[k] = b" ".join(line) + b"\n"
        return b"".join(lines)
    for _ in range(rng.randint(1, 3)):
        k = rng.randrange(len(lines) + 1)
        line = lines[k].split() if k < len(lines) else []
        op = rng.randrange(6)
        if op == 0 and len(line) == 4:
            line[3] = rng.choice(FUZZ_COEF_VALUES)
            lines[k] = b" ".join(line) + b"\n"
        elif op == 1 and len(line) == 4:
            line[2] = rng.choice(FUZZ_COEF_INDICES)
            lines[k] = b" ".join(line) + b"\n"
        elif op == 2:
            lines.insert(k, b"window " + rng.choice(FUZZ_COEF_WINDOWS) + b"\n")
        elif op == 3:
            del lines[k : k + 1]
        elif op == 4:
            lines[k:k] = lines[k : k + 1]
        else:
            text = b"".join(lines)
            lines = [text[: rng.randrange(len(text) + 1)]]
    return b"".join(lines)


def fuzz_search_args(rng: random.Random) -> list[str]:
    """``snla search`` with a dimension from -1 to 5, a coefficient list
    that may be empty, long or not rational, and maybe a budget."""
    argv = ["snla", "search", "--dim", str(rng.randint(-1, 5))]
    argv.append("--coeffs=" + rng.choice(FUZZ_COEF_LISTS))
    budget = rng.choice([None, -1, 0, 5, 10**6])
    return argv if budget is None else [*argv, "--budget", str(budget)]


def test_fuzzed_recurrences_and_search_end_in_a_report(tmp_path, capsys):
    rng = random.Random(20242)
    coef = tmp_path / "fuzz.coef"
    audited = Counter()
    for _ in range(600):
        if rng.random() < 0.5:
            coef.write_bytes(fuzz_coef_file(rng))
            argv = ["aut", "recurrences", "--file", str(coef)]
            if rng.random() < 0.5:
                argv += ["--window", str(rng.randint(-1, 4))]
        else:
            argv = fuzz_search_args(rng)
        t0 = time.perf_counter()
        code, rep, out = run_cli(argv, capsys)
        assert time.perf_counter() - t0 < 1, argv
        assert code in (0, 1, 2), argv
        assert out.startswith(f"lieforge {rep.tool_version} :: "), argv
        assert f"verdict: {rep.verdict}" in out, argv
        audited[argv[1], code] += 1
    # with this seed 92 of 290 coefficient files reach a verdict (91 exit
    # 1), and 54 of 310 searches exit 0; the rest are designed refusals
    assert audited["recurrences", 0] + audited["recurrences", 1] >= 30
    assert audited["search", 0] >= 30


# Huge windows and dimensions: refused before any family grid is built.
@pytest.mark.parametrize("window", [10**6, 10**9])
@pytest.mark.parametrize(
    "argv, location, dim",
    [
        (["check", WITT], "witt", lambda w: 2 * w + 1),
        (["cohomology", WITT], "witt", lambda w: 2 * w + 1),
        (["esvla", "audit"], "config", lambda w: 8 * w + 3),
        (["esvla", "audit", "--n-index", "extended"], "config", lambda w: 10 * w + 3),
    ],
    ids=["check", "cohomology", "esvla-strict", "esvla-extended"],
)
def test_huge_window_is_refused_quickly(argv, location, dim, window, capsys):
    t0 = time.perf_counter()
    code, rep, _ = run_cli([*argv, "--window", str(window)], capsys)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    detail = f"dimension {dim(window)} exceeds the limit {specfile.MAX_DIM}"
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        ("E_INPUT", location, detail)
    ]


# Accepted dimensions whose whole-window systems are too large: refused
# before the instance is built (building it alone takes tens of seconds).
@pytest.mark.parametrize("command", ["cohomology", "derivations"])
def test_whole_window_system_over_the_unknown_limit_is_refused_quickly(
    command, capsys
):
    t0 = time.perf_counter()
    code, rep, _ = run_cli([command, WITT, "--window", "1023"], capsys)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    detail = f"the system has more than {cohomology.MAX_UNKNOWNS} unknowns"
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        ("E_INPUT", "witt", detail)
    ]


def test_snla_verify_over_the_unknown_limit_is_refused(tmp_path, capsys):
    # 258 generators, zero product, standard form: its H2 cochain system
    # has 33,153 unknowns.  Refused before the identity checks, which take
    # minutes at this dimension.
    spec = tmp_path / "big.lie"
    spec.write_text(
        "algebra big convention plain\nfamily e integer even\n"
        + "".join(f"generator e[{i}]\n" for i in range(1, 259))
    )
    t0 = time.perf_counter()
    code, rep, _ = run_cli(["snla", "verify", str(spec)], capsys)
    assert time.perf_counter() - t0 < 10
    assert code == 2
    detail = f"the system has more than {cohomology.MAX_UNKNOWNS} unknowns"
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        ("E_INPUT", "big", detail)
    ]


DEGENERATE_FORMS = ["form e[1] e[2] => 1", "form e[3] e[4] => 0"]


@pytest.mark.parametrize(
    "lines, detail",
    [
        (["form e[1] e[2] => 0", "form e[2] e[1] => 1"], "conflicting form entries at (2,1)"),
        (
            ["form e[1] e[1] => 1", "form e[1] e[2] => 1"],
            "diagonal form entry at (1,1) must be 0",
        ),
        (["generator e[3]", "form e[1] e[2] => 1"], "symplectic form needs even dimension"),
        (["generator e[3]"], "odd dimension admits no symplectic form"),
        (["generator e[3]", "generator e[4]", *DEGENERATE_FORMS], "form is degenerate"),
    ],
    ids=["zero-against-reverse", "diagonal", "odd-with-form", "odd-without-form", "degenerate"],
)
def test_snla_verify_form_refusals(lines, detail, tmp_path, capsys):
    # an explicit zero is compared with its reverse before zeros are dropped
    spec = tmp_path / "f.lie"
    spec.write_text(
        FINITE_HEAD.format(name="f")
        + "".join(f"{line}\n" for line in ["generator e[1]", "generator e[2]", *lines])
    )
    code, rep, out = run_cli(["snla", "verify", str(spec)], capsys)
    assert code == 2
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        ("E_INPUT", "f", detail)
    ]
    assert f"[error] E_INPUT f: {detail}\n" in out


def test_snla_verify_wide_refusal_is_bounded(tmp_path, capsys):
    # 1,024 generators, zero product, standard form: the form must be built
    # from its 1,024 nonzeros, not checked cell by cell over n^2 = 1,048,576
    # cells, for the H2 unknown count to be reached within the bound
    t0 = time.perf_counter()
    code, rep, _ = run_cli(["snla", "verify", str(zero_product_doc(tmp_path))], capsys)
    assert time.perf_counter() - t0 < 1
    assert code == 2
    detail = f"the system has more than {cohomology.MAX_UNKNOWNS} unknowns"
    assert [(f.code, f.location, f.detail) for f in rep.findings] == [
        ("E_INPUT", "zero1024", detail)
    ]


def test_snla_verify_wide_refusal_counts_its_unknowns_once(tmp_path, monkeypatch, capsys):
    # the H2 system's unknowns are counted before any is numbered, so the
    # limit is checked once, and the report is the one frozen here
    refused = []
    real = cohomology._refuse_unknowns
    monkeypatch.setattr(cohomology, "_refuse_unknowns", lambda c: refused.append(c) or real(c))
    code, _, out = run_cli(["snla", "verify", str(zero_product_doc(tmp_path))], capsys)
    assert code == 2 and refused == [1024 * 1023 // 2]
    assert out == (
        "lieforge 0.1.0 :: snla verify zero1024.lie\n"
        "input: zero1024.lie sha256=d1876055f0d8afb8\n"
        "verdict: error\n"
        "findings (1):\n"
        "  [error] E_INPUT zero1024: the system has more than 32768 unknowns\n"
    )


def test_snla_verify_refusal_builds_no_center_or_derived(tmp_path, monkeypatch, capsys):
    # the fingerprint's H2 count is refused first, so a refused document
    # pays for neither of the two results its report never shows; one that
    # is verified builds its derived subalgebra once, for the fingerprint
    # and the two-step solvability check alike
    calls = Counter()
    for module, name in (
        (snla, "center"),
        (snla, "derived_subalgebra"),
        (algebra, "derived_subalgebra"),
    ):

        def counting(A, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(A)

        monkeypatch.setattr(module, name, counting)
    code, _, _ = run_cli(["snla", "verify", SNLA_BAD], capsys)
    assert (code, calls) == (1, Counter(center=1, derived_subalgebra=1))
    calls.clear()
    code, rep, _ = run_cli(["snla", "verify", str(zero_product_doc(tmp_path))], capsys)
    assert (code, [f.code for f in rep.findings]) == (2, ["E_INPUT"])
    assert calls == Counter()


def test_snla_verify_of_a_zero_product_reads_only_its_support(tmp_path, capsys):
    # 256 generators, zero product, standard form: the Novikov,
    # associativity and compatibility checks visit the n^2 pairs and no
    # triple.  Checking all 16.8 million triples ran for minutes.
    t0 = time.perf_counter()
    code, rep, _ = run_cli(["snla", "verify", str(zero_product_doc(tmp_path, 256))], capsys)
    assert time.perf_counter() - t0 < 10
    assert (code, rep.verdict, rep.findings) == (0, "pass", [])
    assert rep.summaries["dim"] == 256


SEEDED_VALUES = (1, -1, 2, -2, Fraction(1, 2), Fraction(-2, 3))


def _terms(rng: random.Random, n: int, count: int) -> str:
    """``count`` terms with distinct generators and nonzero seeded values."""
    ks = rng.sample(range(1, n + 1), count)
    return " ".join(f"{rng.choice(SEEDED_VALUES)} e[{k}]" for k in sorted(ks))


def _seeded_form(rng: random.Random, n: int, way: str) -> list[str]:
    """Form lines of a seeded rational form: a random perfect matching, so
    the form is nondegenerate unless the extra pairs cancel it, plus extra
    pairs i < j.  Each pair is written as (i, j), as (j, i) with the value
    negated, both ways, or, with ``way`` "mixed", any of the three."""
    order = rng.sample(range(1, n + 1), n)
    values = {tuple(sorted(order[a : a + 2])): rng.choice(SEEDED_VALUES) for a in range(0, n, 2)}
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if rng.random() < 0.2:
            values[(i, j)] = rng.choice(SEEDED_VALUES)
    lines = []
    for (i, j), v in sorted(values.items()):
        w = rng.choice(["one", "other", "both"]) if way == "mixed" else way
        if w != "other":
            lines.append(f"form e[{i}] e[{j}] => {v}")
        if w != "one":
            lines.append(f"form e[{j}] e[{i}] => {-v}")
    return lines


def _seeded_entries(rng: random.Random, n: int) -> list[str]:
    """Explicit bracket lines: diagonal entries, and pairs written one way,
    the other way, or both ways, skew or not."""
    lines = []
    for i, j in itertools.combinations_with_replacement(range(1, n + 1), 2):
        if rng.random() >= 0.3:
            continue
        value = _terms(rng, n, 1)
        way = "one" if i == j else rng.choice(["one", "other", "skew", "any"])
        if way != "other":
            lines.append(f"entry e[{i}] e[{j}] => {value}")
        if way == "other":
            lines.append(f"entry e[{j}] e[{i}] => {value}")
        elif way == "skew":
            c, g = value.split()
            lines.append(f"entry e[{j}] e[{i}] => {-Fraction(c)} {g}")
        elif way == "any":
            lines.append(f"entry e[{j}] e[{i}] => {_terms(rng, n, rng.randint(1, 2))}")
    return lines


def seeded_snla_documents() -> list[tuple[str, str]]:
    """(name, text) of seeded ``snla verify`` documents: sparse products at
    n = 2..8 under every way of writing a form (none, one way, the other
    way, both ways, mixed), each with and without explicit brackets; dense
    8-generator products with two terms per product; zero products; and
    refusals."""
    rng = random.Random(3000)
    docs = []

    def add(name, n, lines):
        gens = [f"generator e[{i}]" for i in range(1, n + 1)]
        docs.append((name, FINITE_HEAD.format(name=name) + "".join(f"{x}\n" for x in gens + lines)))

    for n in (2, 4, 6, 8):
        for way in ("standard", "one", "other", "both", "mixed"):
            for entries in (False, True):
                products = [
                    f"product e[{i}] e[{j}] => {_terms(rng, n, rng.randint(1, min(2, n)))}"
                    for i, j in itertools.product(range(1, n + 1), repeat=2)
                    if rng.random() < 1 / n
                ]
                form = [] if way == "standard" else _seeded_form(rng, n, way)
                bracket = _seeded_entries(rng, n) if entries else []
                add(f"s{n}_{way}{'_entries' if entries else ''}", n, products + form + bracket)
    for way, entries in [("one", False), ("mixed", True)]:
        products = [
            f"product e[{i}] e[{j}] => {_terms(rng, 8, 2)}"
            for i, j in itertools.product(range(1, 9), repeat=2)
        ]
        bracket = _seeded_entries(rng, 8) if entries else []
        add(f"dense8_{way}", 8, products + _seeded_form(rng, 8, way) + bracket)
    for way in ("one", "other", "both", "mixed"):
        add(f"zero6_{way}", 6, _seeded_form(rng, 6, way))  # these pass
    refusals = {
        "conflict": (4, ["form e[1] e[2] => 1", "form e[2] e[1] => 1", "form e[3] e[4] => 1"]),
        "diagonal": (2, ["form e[1] e[2] => 1", "form e[2] e[2] => 1/2"]),
        "odd": (3, ["form e[1] e[2] => 1"]),
        "odd_standard": (5, ["product e[1] e[2] => 1 e[3]"]),
        "degenerate": (4, ["form e[1] e[2] => 1", "form e[3] e[4] => 0", "form e[1] e[3] => 2"]),
        "rank2_of_6": (6, ["form e[1] e[2] => 1", "form e[3] e[4] => 1/2", "form e[1] e[4] => 1"]),
    }
    for name, (n, lines) in refusals.items():
        add(name, n, lines)
    # indices outside 1..dim: a generator line that skips one, and a form
    # pair naming an undeclared generator
    gap = ["generator e[1]", "generator e[2]", "generator e[4]", "form e[1] e[4] => 1"]
    docs.append(("gap", FINITE_HEAD.format(name="gap") + "".join(f"{x}\n" for x in gap)))
    add("outside", 2, ["form e[1] e[3] => 1"])
    return docs


def snla_verify_transcript(tmp_path, capsys, docs) -> str:
    """``snla verify`` of each (name, text) document, text and ``--json``,
    each followed by its exit code, as ``cli_transcript`` writes it."""
    parts = []
    for name, text in docs:
        spec = tmp_path / f"{name}.lie"
        spec.write_text(text)
        for extra in ([], ["--json"]):
            code, _, out = run_cli(["snla", "verify", str(spec), *extra], capsys)
            line = " ".join(["snla verify", spec.name, *extra])
            parts.append(f"$ lieforge {line}\n{out}exit {code}\n")
    return "\n".join(parts)


def test_snla_verify_seeded_documents_match_golden(tmp_path, capsys):
    # forms written every way, non-alternating explicit brackets (the form
    # check's repeated triples), dense products and refusals, byte for byte
    golden = (GOLDEN / "snla_verify_seeded.txt").read_text()
    assert snla_verify_transcript(tmp_path, capsys, seeded_snla_documents()) == golden


def test_snla_verify_dense_document_matches_golden(tmp_path, capsys):
    # 12 generators: every code is truncated and indices reach 10, so which
    # 100 findings are shown depends on "(1,10,1)" sorting before "(1,2,1)";
    # the seeded golden stops at 8 generators and cannot see that order
    golden = (GOLDEN / "snla_verify_dense12.txt").read_text()
    docs = [("dense12", dense_snla_document(12))]
    assert snla_verify_transcript(tmp_path, capsys, docs) == golden


WITT_TEXT = (SAMPLES / "witt.lie").read_text()


def doubling(dim: int) -> list[list[int]]:
    """The rows of the map 2·I on ``dim`` generators."""
    return [[2 * (i == j) for j in range(dim)] for i in range(dim)]


def aut_verify_transcript(tmp_path, capsys) -> str:
    """``aut verify`` with the map 2·I, text and ``--json``, each followed
    by its exit code, on Witt at W = 12 (dim 25) and on the dense
    12-generator SNLA document."""
    runs = [
        ("witt", WITT_TEXT, 25, ["--window", "12"]),
        ("dense12", dense_snla_document(12), 12, []),
    ]
    parts = []
    for name, text, dim, extra in runs:
        spec, m = tmp_path / f"{name}.lie", tmp_path / f"double{dim}.map"
        spec.write_text(text)
        write_map(m, doubling(dim))
        for json_flag in ([], ["--json"]):
            argv = ["aut", "verify", str(spec), "--map", str(m), *extra, *json_flag]
            code, _, out = run_cli(argv, capsys)
            line = " ".join(["aut verify", spec.name, "--map", m.name, *extra, *json_flag])
            parts.append(f"$ lieforge {line}\n{out}exit {code}\n")
    return "\n".join(parts)


def test_aut_verify_truncated_pairs_match_golden(tmp_path, capsys):
    # 228 V_BRACKET on Witt, and 66 V_BRACKET plus 144 V_PRODUCT on the
    # dense document, whose indices reach 12: which 100 pairs are shown
    # depends on "(e[1],e[10])" sorting before "(e[1],e[2])" and on
    # "(1,10)" before "(1,2)"; cli_reports.txt shows one pair of each
    golden = (GOLDEN / "aut_verify_truncated.txt").read_text()
    assert aut_verify_transcript(tmp_path, capsys) == golden


@pytest.mark.parametrize("case", ["witt30", "dense12"])
def test_aut_verify_renders_only_the_findings_it_shows(case, tmp_path, capsys, monkeypatch):
    # the map 2·I breaks every nonzero bracket and product; only the
    # findings shown are built as violation objects, and the report is the
    # one that rendering and sorting every violation gives
    if case == "witt30":
        spec, dim, extra = tmp_path / "witt.lie", 61, ["--window", "30"]
        spec.write_text(WITT_TEXT)
    else:
        spec, dim, extra = tmp_path / "dense12.lie", 12, []
        spec.write_text(dense_snla_document(12))
    m = tmp_path / "double.map"
    write_map(m, doubling(dim))
    built = []
    real = Audit.violation
    monkeypatch.setattr(Audit, "violation", lambda self, e: built.append(e) or real(self, e))
    code, rep, out = run_cli(["aut", "verify", str(spec), "--map", str(m), *extra], capsys)
    monkeypatch.undo()
    assert code == 1
    phi = LinearEndo(doubling(dim))
    doc = specfile.parse(spec.read_text())
    if case == "witt30":
        A, s = specfile.instantiate(doc, window=30), None
    else:
        s = snla.snla_from_doc(doc)
        A = s.bracket
    every = [
        cli.ReportFinding(
            "violation",
            "V_BRACKET",
            cli._loc(v.at),
            f"{cli._loc(v.at)}: phi[x,y] = {v.residual[0]} != [phi x, phi y] = {v.residual[1]}",
        )
        for v in automorphism_audit(A, phi).violations
    ]
    assert len(every) == rep.summaries["bracket_violations"]
    if s is None:
        assert len(every) > cli.MAX_PER_CODE and len(built) == cli.MAX_PER_CODE
    else:
        products = product_map_audit(s.product, phi).violations
        assert len(products) == rep.summaries["product_violations"] > cli.MAX_PER_CODE
        assert len(built) == len(every) + cli.MAX_PER_CODE
        for v in products:
            loc = cli._loc(int(g.index) for g in v.at)
            detail = f"{loc}: phi(x.y) = {v.residual[0]} != phi(x).phi(y) = {v.residual[1]}"
            every.append(cli.ReportFinding("violation", "V_PRODUCT", loc, detail))
        [form] = [f for f in rep.findings if f.code == "V_FORM"]
        every.append(form)
    expected = cli._finalize(rep.command, rep.inputs, cli.Findings(every), rep.summaries)
    assert out == expected.to_text()


def coef_file_text(window: int, a: dict, b: dict, c: dict, d: dict) -> str:
    """A coefficient file of the families a, b and c, keyed by integer
    index, and d, keyed by doubled index."""
    lines = [f"window {window}"]
    for name, family in (("a", a), ("b", b), ("c", c)):
        lines += [f"coef {name} {n} {v}" for n, v in family.items()]
    lines += [f"coef d {Fraction(k, 2)} {v}" for k, v in d.items()]
    return "\n".join(lines) + "\n"


def failing_family(window: int) -> str:
    """a = 2 and b = c = 1 on the window's integers and d = 1 on its
    half-integers only: every a, b and c pair fails, and every d pair reads
    d at an integer index the file does not store."""
    grid = range(-window, window + 1)
    half = range(-2 * window + 1, 2 * window, 2)
    ones = dict.fromkeys(grid, 1)
    return coef_file_text(window, dict.fromkeys(grid, 2), ones, ones, dict.fromkeys(half, 1))


def mixed_family() -> str:
    """Window 3: a_n = 3^n but a_-3 = 1/26, b_n = n 3^n but b_1 = 7/2,
    c = 0 but c_-2 = -1/3, and d = k/4 at doubled index k but unset at
    index -3 and 3: 69 findings over all four relations, 12 of them d pairs
    that cannot be evaluated."""
    grid = range(-3, 4)
    a = {n: Fraction(3) ** n for n in grid}
    a[-3] = Fraction(1, 26)
    b = {n: n * Fraction(3) ** n for n in grid}
    b[1] = Fraction(7, 2)
    c = dict.fromkeys(grid, 0)
    c[-2] = Fraction(-1, 3)
    d = {k: Fraction(k, 4) for k in range(-5, 6)}
    return coef_file_text(3, a, b, c, d)


def aut_recurrences_transcript(tmp_path, capsys) -> str:
    """Text and ``--json``, each followed by its exit code, of
    ``aut recurrences`` on the failing family at W = 128, whole and at
    ``--window 10``, and on the mixed family; then of ``extend`` at
    ``--window 40`` of Witt by a cocycle whose stored values break the
    symmetry on all 3,321 pairs."""
    spec = tmp_path / "witt_sym.lie"
    spec.write_text(WITT_TEXT + "cocycle w L[m] L[n] => 1\n")
    runs = []
    for name, text, extra in (
        ("failing128", failing_family(128), []),
        ("failing128", failing_family(128), ["--window", "10"]),
        ("mixed3", mixed_family(), []),
    ):
        f = tmp_path / f"{name}.coef"
        f.write_text(text)
        runs.append((["aut", "recurrences", "--file", str(f), *extra], f.name))
    runs.append((["extend", str(spec), "--cocycle", "w", "--window", "40"], spec.name))
    parts = []
    for argv, name in runs:
        for json_flag in ([], ["--json"]):
            code, _, out = run_cli([*argv, *json_flag], capsys)
            line = " ".join(name if os.path.isabs(w) else w for w in [*argv, *json_flag])
            parts.append(f"$ lieforge {line}\n{out}exit {code}\n")
    return "\n".join(parts)


def test_aut_recurrences_truncated_findings_match_golden(tmp_path, capsys):
    # 198,019 V_REC findings with negative indices and d pairs that cannot
    # be evaluated, where which 100 are shown depends on "a@(-1,-10)"
    # sorting before "a@(-1,-2)"; the same file at window 10; a mixed
    # family of 69; and 3,321 V_SYM findings of an extension
    golden = (GOLDEN / "aut_recurrences_truncated.txt").read_text()
    assert aut_recurrences_transcript(tmp_path, capsys) == golden


@pytest.mark.parametrize("case", ["recurrences", "extend"])
def test_recurrences_and_symmetry_render_only_the_findings_they_show(
    case, tmp_path, capsys, monkeypatch
):
    # every a, b, c and d pair of the failing family at W = 20 fails (5,023
    # V_REC), as does every stored pair of the W = 40 Witt cochain (3,321
    # V_SYM); only the findings shown are built as violation objects, and
    # the report is the one that rendering and sorting every violation gives
    if case == "recurrences":
        coef = tmp_path / "failing20.coef"
        coef.write_text(failing_family(20))
        argv = ["aut", "recurrences", "--file", str(coef)]
    else:
        spec = tmp_path / "witt_sym.lie"
        spec.write_text(WITT_TEXT + "cocycle w L[m] L[n] => 1\n")
        argv = ["extend", str(spec), "--cocycle", "w", "--window", "40"]
    built = []
    real = Audit.violation
    monkeypatch.setattr(Audit, "violation", lambda self, e: built.append(e) or real(self, e))
    code, rep, out = run_cli(argv, capsys)
    monkeypatch.undo()
    assert code == 1 and len(built) == cli.MAX_PER_CODE
    if case == "recurrences":
        unread = "right side reads d at an integer index the family does not store"
        every = [
            cli.ReportFinding(
                "violation",
                "V_REC",
                f"{rel}@{cli._loc(v.at)}",
                f"{v.residual[0]} != {v.residual[1]}" if len(v.residual) == 2 else unread,
            )
            for rel, aud in recurrence_audit(parse_coeff_file(coef.read_text())).items()
            for v in aud.violations
        ]
        assert len(every) == rep.summaries["violations"] == 5023
    else:
        doc = specfile.parse(spec.read_text())
        A = specfile.instantiate(doc, window=40)
        omega = specfile.instantiate_cocycle(doc.cocycles[0], A)
        shown = "stored values contradict the convention's symmetry: residual"
        every = [
            cli.ReportFinding("violation", "V_SYM", cli._loc(v.at), f"{shown} {v.residual}")
            for v in symmetry_audit(omega, A).violations
        ]
        assert rep.summaries["jacobi_violations"] == 0
    assert len(every) > cli.MAX_PER_CODE
    expected = cli._finalize(rep.command, rep.inputs, cli.Findings(every), rep.summaries)
    assert out == expected.to_text()


def test_aut_recurrences_holds_a_bounded_number_of_findings(tmp_path):
    # the failing family at W = 64 has 49,859 violations; rendered as
    # findings before 100 were kept, they peaked at 18.4 MiB traced
    coef = tmp_path / "failing64.coef"
    coef.write_text(failing_family(64))
    tracemalloc.start()
    try:
        code, rep = cli.run(["aut", "recurrences", "--file", str(coef)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, rep.summaries["violations"]) == (1, 49_859)
    assert peak < 4 * 2**20


def test_recurrence_sink_order_is_location_order():
    # an index is a name that may be a proper prefix of another ("-1" of
    # "-10"); in a location it is followed by ',' or ')', which sort below
    # every digit.  For every window the command accepts, the indices order
    # by name rank as they order followed by either character, so a
    # location "(m,n)" orders as the pair of ranks; each part's prefix
    # "a@" to "d@" orders the relations before a name is read.  Whole
    # locations are compared at a few windows, the widest included.
    for W in range(1, MAX_RECURRENCE_WINDOW + 1):
        grid = range(-W, W + 1)
        rank = cli._name_ranks(grid)
        by_rank = sorted(grid, key=lambda m: rank[m + W])
        for end in (",", ")"):
            assert by_rank == sorted(grid, key=lambda m: f"{m}{end}")
    for W in (1, 2, 9, 10, 11, 99, 100, MAX_RECURRENCE_WINDOW):
        grid = range(-W, W + 1)
        key = cli._sink(grid).key
        entries = [
            (f"{rel}@", ((p, q), None))
            for rel in "abcd"
            for p in range(len(grid))
            for q in range(len(grid))
        ]
        by_parts = sorted(entries, key=lambda e: (e[0], key(e[1])))
        by_location = sorted(entries, key=lambda e: e[0] + cli._loc(grid[p] for p in e[1][0]))
        assert by_parts == by_location


def test_esvla_audit_arguments_end_in_a_report(capsys):
    # every window from -2 to 6, huge and non-integer ones, under both
    # conventions and both --n-index modes; seeded draws leave an option
    # out, misspell it, or ask for JSON
    rng = random.Random(2019)
    audited = Counter()
    windows = [str(w) for w in range(-2, 7)]
    windows += ["1000000", "1000000000", str(10**30), "9" * 4300]
    windows += ["2.5", "1e3", "x", "", "3/2", "-", "0x10"]
    for window in windows:
        for convention in ("plain", "super"):
            for mode in ("strict", "extended"):
                argv = ["esvla", "audit", f"--window={window}"]
                for option, value, wrong in (
                    ("--convention", convention, convention.upper()),
                    ("--n-index", mode, mode + "2"),
                ):
                    draw = rng.random()
                    if draw < 0.8:
                        argv += [option, value]
                    elif draw < 0.9:
                        argv += [option, wrong]
                if rng.random() < 0.2:
                    argv.append("--json")
                code, rep = cli.run(argv)
                captured = capsys.readouterr()
                assert code in (0, 1, 2), argv
                assert "Traceback" not in captured.err, argv
                if rep is None:  # a usage error, reported by argparse
                    assert code == 2 and "usage:" in captured.err, argv
                    continue
                assert code == rep.exit_code(), argv
                assert rep.command.startswith("esvla audit --window"), argv
                if code < 2:
                    audited[rep.command.split(" --", 2)[2]] += 1
    # each of the four configurations reached the audits (17 runs in all)
    assert len(audited) == 4 and sum(audited.values()) >= 15


ESVLA_DOC = str(REPO / "src" / "lieforge" / "data" / "esvla.lie")


def _located(code: str, violations, prefix: str = "") -> list[tuple[str, str, str]]:
    return [
        (code, prefix + cli._loc(v.at), f"residual {v.residual}")
        for v in violations
    ]


def _every_finding(case: str) -> list[tuple[str, str, str]]:
    """Every finding of the case's command, rendered from the library's
    violation objects, in the order the command adds them.  A case name is
    the command, then for esvla the convention, then the window if not 8,
    then the n-index mode if not strict."""
    words = case.split("-")
    if words[0] == "esvla":
        window = int(words[2]) if len(words) > 2 else 8
        mode = words[3] if len(words) > 3 else "strict"
        cfg = esvla.EsvlaConfig(window, words[1], mode)
        rep = esvla.audit_esvla(cfg)
        out = [(f.code, f.location, f.detail) for f in esvla.build_esvla(cfg).findings]
        out += _located("V_ALT", rep.alternating.violations)
        out += _located("V_JACOBI", rep.jacobi.violations)
        for name, aud in sorted(rep.cocycles.items()):
            out += _located("V_COCYCLE", aud.violations, f"{name}:")
        return out
    doc = specfile.parse(Path(ESVLA_DOC).read_text())
    A = specfile.instantiate(doc, window=int(words[1]) if len(words) > 1 else 8)
    out = [(f.code, f.location, f.detail) for f in A.findings]
    if words[0] == "check":
        out += _located("V_ALT", check_alternating(A).violations)
        return out + _located("V_JACOBI", jacobi_audit(A).violations)
    [w1] = [c for c in doc.cocycles if c.name == "w1"]
    ext = central_extension(A, specfile.instantiate_cocycle(w1, A))
    return out + _located("V_JACOBI", jacobi_audit(ext).violations)


PICK_CASES = {
    "esvla-super": ["esvla", "audit", "--window", "8"],
    "esvla-plain": ["esvla", "audit", "--window", "8", "--convention", "plain"],
    "check": ["check", ESVLA_DOC, "--window", "8"],
    "extend": ["extend", ESVLA_DOC, "--cocycle", "w1", "--window", "8"],
    "esvla-super-12-extended": ["esvla", "audit", "--window", "12", "--n-index", "extended"],
    "esvla-plain-12-extended": (
        ["esvla", "audit", "--window", "12", "--convention", "plain", "--n-index", "extended"]
    ),
    "check-12": ["check", ESVLA_DOC, "--window", "12"],
    "extend-12": ["extend", ESVLA_DOC, "--cocycle", "w1", "--window", "12"],
}


@pytest.mark.parametrize("case", PICK_CASES)
def test_picked_findings_are_the_first_of_the_full_sort(case, capsys):
    # each code's shown findings are the first MAX_PER_CODE of all of its
    # findings rendered and sorted by (code, location), a stable sort
    every = sorted(_every_finding(case), key=lambda f: f[:2])
    total = Counter(code for code, _, _ in every)
    rank = Counter()
    want = []
    for f in every:
        rank[f[0]] += 1
        if rank[f[0]] <= cli.MAX_PER_CODE:
            want.append(f)
    _, rep, _ = run_cli(PICK_CASES[case], capsys)
    shown = [(f.code, f.location, f.detail) for f in rep.findings]
    assert [f for f in shown if f[0] != "I_TRUNCATED"] == want
    truncated = {f[1]: f[2] for f in shown if f[0] == "I_TRUNCATED"}
    assert truncated == {
        code: f"showing {cli.MAX_PER_CODE} of {n} findings; exact counts are in summaries"
        for code, n in total.items()
        if n > cli.MAX_PER_CODE
    }
    assert "V_JACOBI" in truncated


@pytest.mark.parametrize("length", [0, 99, 100, 101, 1000, 1001, 5000])
def test_picked_keeps_the_first_of_a_stable_sort(length):
    # seeded keys with many duplicates; each item carries its arrival number,
    # so the kept items show the order among equal keys as well
    rng = random.Random(f"picked-{length}")
    for spread in (3, 50, 10**6):
        items = [(rng.randrange(spread), serial) for serial in range(length)]
        picked = cli.Picked(lambda item: item[0])
        for item in items:
            picked.append(item)
            assert len(picked.held) < cli.MERGE_AT
        assert len(picked) == length
        assert picked.first() == sorted(items, key=lambda item: item[0])[: cli.MAX_PER_CODE]


def test_esvla_audit_holds_a_bounded_number_of_findings(monkeypatch, capsys):
    # at window 24 Jacobi fails on about 100,000 triples; no code's sink
    # ever holds more than MERGE_AT of them, and the counts stay exact
    peak = Counter()

    class Watched(cli.Picked):
        __slots__ = ()

        def append(self, item):
            super().append(item)
            peak[id(self)] = max(peak[id(self)], len(self.held))

    monkeypatch.setattr(cli, "Picked", Watched)
    code, rep, _ = run_cli(["esvla", "audit", "--window", "24"], capsys)
    assert code == 1
    # the sinks of Jacobi, the three cocycles and the instantiation findings
    assert len(peak) == 5 and max(peak.values()) < cli.MERGE_AT
    A = esvla.build_esvla(esvla.EsvlaConfig(24))
    want = len(jacobi_audit(A).found)
    assert rep.summaries["jacobi_violations"] == want > 50 * cli.MERGE_AT


def test_name_rank_order_is_location_order():
    # a pair or triple location compares as the tuple of its generators'
    # name ranks, over every generator of the esvla window-8 instance and
    # its extension
    doc = specfile.parse(Path(ESVLA_DOC).read_text())
    A = specfile.instantiate(doc, window=8)
    [w1] = [c for c in doc.cocycles if c.name == "w1"]
    ext = central_extension(A, specfile.instantiate_cocycle(w1, A))
    rng = random.Random(8)
    for gens in (A.generators, ext.generators):
        rank, n = cli._name_ranks(gens), len(gens)
        for i in range(n):
            for j in range(n):
                for size, shared in ((2, 0), (2, 1), (3, 0), (3, 1), (3, 2)):
                    head = [rng.randrange(n) for _ in range(shared)]
                    tail = size - 1 - shared
                    s = head + [i] + [rng.randrange(n) for _ in range(tail)]
                    t = head + [j] + [rng.randrange(n) for _ in range(tail)]
                    by_name = cli._loc([gens[p] for p in s]) < cli._loc(
                        [gens[p] for p in t]
                    )
                    assert by_name == ([rank[p] for p in s] < [rank[p] for p in t])
    # a cocycle location orders by its prefix "name:", not by the bare name
    names = ["w", "w1", "w10", "w2", "w_1"]
    loc = "(L[0],L[1],L[2])"
    for p in names:
        for q in names:
            assert (f"{p}:" < f"{q}:") == (f"{p}:{loc}" < f"{q}:{loc}")
    assert "w1" < "w10" and "w10:" < "w1:"


def _written_out(A) -> str:
    """An explicit document declaring A's generators and its pairs as
    written, under the bundled esvla document's families."""
    lines = [f"algebra {A.name}_table convention {A.convention}"]
    lines += [f"family {f.symbol} {f.kind} {f.parity}" for f in esvla._bundled_doc().families]
    lines += [f"generator {g}" for g in A.generators]
    for (g, h), value in written_entries(A).items():
        lines.append(f"entry {g} {h} => " + " ".join(f"{c} {t}" for t, c in value.items()))
    return "\n".join(lines) + "\n"


def _explicit_documents() -> dict[str, str]:
    docs = {
        f"{p.parent.name}/{p.stem}": p.read_text()
        for folder in (SAMPLES, DATA)
        for p in sorted(folder.glob("*.lie"))
        if not specfile.parse(p.read_text()).rules
    }
    # a table with thousands of Jacobi violations, odd generators included
    docs["esvla-3-table"] = _written_out(esvla.build_esvla(esvla.EsvlaConfig(3)))
    return docs


EXPLICIT = _explicit_documents()


def _order_free_facts(text: str, tmp_path, capsys):
    """The summaries of check, cohomology and derivations, and the Jacobi
    violations as a multiset of (generator names, residual up to sign)."""
    spec = tmp_path / "shuffled.lie"
    spec.write_text(text)
    summaries = {}
    for command in ("check", "cohomology", "derivations"):
        _, rep, _ = run_cli([command, str(spec)], capsys)
        summaries[command] = rep.summaries
    violations = Counter()
    for v in jacobi_audit(specfile.instantiate(specfile.parse(text))).violations:
        names = tuple(sorted(map(str, v.at)))
        violations[names, frozenset((str(v.residual), str(v.residual.scale(-1))))] += 1
    return summaries, violations


@pytest.mark.parametrize("name", EXPLICIT)
def test_declaration_order_changes_no_count(name, tmp_path, capsys):
    # an explicit table with its family, generator and entry lines in any
    # order is the same algebra up to the order of its basis
    head, *body = [
        line for line in EXPLICIT[name].splitlines() if line and not line.startswith("#")
    ]
    want = _order_free_facts(EXPLICIT[name], tmp_path, capsys)
    rng = random.Random(name)
    for _ in range(3):
        rng.shuffle(body)
        text = "\n".join([head, *body]) + "\n"
        assert _order_free_facts(text, tmp_path, capsys) == want, text
    if name == "esvla-3-table":
        assert want[0]["check"]["jacobi_violations"] > 100


# Relabelling an explicit document: its family lines permuted, each family's
# indices renamed by a permutation, and its generator lines shuffled.  An
# instance orders its generators by family line, then by index, so the
# first two move every position, while permuting the generator lines alone
# moves none.  Every count is basis-free, and each finding names the
# renamed generators, so the audits' entries agree once the names are read
# back; this runs TripleScan's sorted rotations, narrowing,
# extend_as_written and the Picked sinks on position orders the sample
# documents never use.


def _random_table_text(rng: random.Random, families, both_ways=False) -> str:
    """An explicit table over ``families``, (symbol, odd, count) triples,
    generator s[i] for i = 1..count, under super when a family is odd: each
    pair, odd diagonals included, brackets into generators of its parity
    with probability 0.6.  With ``both_ways`` about half the pairs are
    written both ways, the reverse half the time by the convention's
    symmetry and otherwise drawn afresh, and one even diagonal is written;
    no pair is written twice in the same order."""
    convention = "super" if any(odd for _, odd, _ in families) else "plain"
    lines = [f"algebra random convention {convention}"]
    lines += [f"family {f} integer {'odd' if odd else 'even'}" for f, odd, _ in families]
    gens = [(f"{f}[{i}]", odd) for f, odd, count in families for i in range(1, count + 1)]
    lines += [f"generator {g}" for g, _ in gens]

    def terms(odd):
        targets = [g for g, o in gens if o == odd]
        picked = rng.sample(targets, min(len(targets), rng.randint(1, 2)))
        return [(rng.choice([-3, -2, -1, 1, 2, 3]), t) for t in picked]

    def entry(g, h, value):
        lines.append(f"entry {g} {h} => " + " ".join(f"{c} {t}" for c, t in value))

    for a, (g, g_odd) in enumerate(gens):
        for h, h_odd in gens[a:]:
            if g == h and not g_odd or rng.random() > 0.6:
                continue
            value = terms(g_odd != h_odd)
            entry(g, h, value)
            if both_ways and g != h and rng.random() < 0.5:
                s = 1 if g_odd and h_odd else -1
                agrees = rng.random() < 0.5
                entry(h, g, [(s * c, t) for c, t in value] if agrees else terms(g_odd != h_odd))
    if both_ways:
        g = gens[0][0]
        entry(g, g, [(1, gens[1][0])])
    return "\n".join(lines) + "\n"


def _relabelling_documents() -> dict[str, str]:
    docs = {
        "heisenberg": (
            "algebra heisenberg convention plain\nfamily e integer even\n"
            "generator e[1]\ngenerator e[2]\ngenerator e[3]\n"
            "entry e[1] e[2] => 1 e[3]\n"
        ),
        "sl2": (
            "algebra sl2 convention plain\nfamily e integer even\n"
            "family f integer even\nfamily h integer even\n"
            "generator e[0]\ngenerator f[0]\ngenerator h[0]\n"
            "entry e[0] f[0] => 1 h[0]\nentry h[0] e[0] => 2 e[0]\n"
            "entry h[0] f[0] => -2 f[0]\n"
        ),
        "heisenberg-super": (
            "algebra sh convention super\nfamily Y half odd\nfamily Z integer even\n"
            "generator Y[1/2]\ngenerator Z[0]\nentry Y[1/2] Y[1/2] => 1 Z[0]\n"
        ),
    }
    for seed in range(3):
        rng = random.Random(seed)
        docs[f"plain-{seed}"] = _random_table_text(rng, [("e", 0, 4), ("f", 0, 3)])
        docs[f"super-{seed}"] = _random_table_text(rng, [("e", 0, 3), ("o", 1, 3)])
    return docs


RELABELLING = _relabelling_documents()


def _move_lines(lines: list[str], prefix: str, rng: random.Random, key=None) -> None:
    """Permute the lines starting with ``prefix`` among their places, in
    the order of ``key`` or at random."""
    at = [i for i, line in enumerate(lines) if line.startswith(prefix)]
    moved = [lines[i] for i in at]
    moved = sorted(moved, key=key) if key else rng.sample(moved, len(moved))
    for i, line in zip(at, moved):
        lines[i] = line


def _relabelled(text: str, rng: random.Random, family_order=None) -> tuple[str, dict]:
    """``text`` relabelled, its family lines in ``family_order`` (their
    symbols) or shuffled, and each new generator name's old name."""
    lines = text.splitlines()
    key = family_order and (lambda line: family_order.index(line.split()[1]))
    _move_lines(lines, "family ", rng, key)
    indices: dict[str, list[str]] = {}
    for line in lines:
        if line.startswith("generator "):
            family, _, index = line.split()[1][:-1].partition("[")
            indices.setdefault(family, []).append(index)
    rename = {}
    for family, old in indices.items():
        new = rng.sample(old, len(old))
        rename.update({f"{family}[{a}]": f"{family}[{b}]" for a, b in zip(old, new)})
    lines = [re.sub(r"\w+\[[^\]]*\]", lambda m: rename[m[0]], line) for line in lines]
    _move_lines(lines, "generator ", rng)
    return "\n".join(lines) + "\n", {new: old for old, new in rename.items()}


def _summaries(text: str, tmp_path, capsys) -> dict:
    spec = tmp_path / "relabelled.lie"
    spec.write_text(text)
    out = {}
    for argv in (["check"], ["cohomology"], ["cohomology", "--grade-zero"], ["derivations"]):
        code, rep, _ = run_cli([*argv, str(spec)], capsys)
        out[" ".join(argv)] = (code, rep.summaries)
    return out


def _named_entries(A, old=None) -> Counter:
    """The Jacobi and alternating entries of A by generator names, read
    back through ``old`` (new name to old) and each put in name order.
    With s(p, q) the swap sign, a pair's residual [q,p] - s[p,q] becomes
    -s(p, q) times itself when p and q trade places.  A triple's residual
    J(x, y, z) is invariant under rotation, and (-1)^{|x||z|} J(x, y, z)
    changes by s(p, q) when two adjacent generators p, q trade places, so
    the triple is read through that factor (plain: s = -1)."""
    odd = A.view.odd
    names = [str(g) for g in A.generators]
    names = [old[g] for g in names] if old else names
    entries = Counter()
    for tag, audit in (("jacobi", jacobi_audit(A)), ("alternating", check_alternating(A))):
        for entry in audit.found:
            order, sign, pair = list(entry[0]), 1, len(entry[0]) == 2
            if not pair:
                sign = -1 if odd[order[0]] and odd[order[2]] else 1
            for end in range(len(order) - 1, 0, -1):
                for k in range(end):
                    p, q = order[k], order[k + 1]
                    if names[p] > names[q]:
                        order[k], order[k + 1] = q, p
                        s = algebra.swap_sign(A.convention, odd[p], odd[q])
                        sign *= -s if pair else s
            residual = audit.violation(entry).residual.terms.items()
            residual = frozenset((names[A.position(t)], sign * c) for t, c in residual)
            entries[tag, tuple(names[p] for p in order), residual] += 1
    return entries


def _instance(text: str):
    return specfile.instantiate(specfile.parse(text))


@pytest.mark.parametrize("name", RELABELLING)
def test_relabelling_changes_no_count_and_maps_every_finding(name, tmp_path, capsys):
    text = RELABELLING[name]
    want = _summaries(text, tmp_path, capsys)
    entries = _named_entries(_instance(text))
    rng = random.Random(name)
    orders = set()
    for _ in range(4):
        moved, old = _relabelled(text, rng)
        B = _instance(moved)
        orders.add(tuple(old[str(g)] for g in B.generators))
        assert _summaries(moved, tmp_path, capsys) == want, moved
        assert _named_entries(B, old) == entries, moved
    assert len(orders) > 1  # the relabellings moved generators
    if name.startswith(("plain-", "super-")):
        assert want["check"][1]["jacobi_violations"] > 0


@pytest.mark.parametrize("seed", range(3))
def test_relabelling_maps_alternating_findings(seed):
    # pairs written both ways, some against the symmetry: the entries of the
    # alternating audit map to the relabelled pairs with the swap sign
    for families in ([("e", 0, 3), ("f", 0, 2)], [("e", 0, 3), ("o", 1, 3)]):
        text = _random_table_text(random.Random(seed), families, both_ways=True)
        A = _instance(text)
        want = Counter(k for k in _named_entries(A).elements() if k[0] == "alternating")
        assert len(check_alternating(A).found) == sum(want.values()) > 0
        rng = random.Random(seed)
        for _ in range(4):
            moved, old = _relabelled(text, rng)
            got = _named_entries(_instance(moved), old)
            assert Counter(k for k in got.elements() if k[0] == "alternating") == want


@pytest.mark.parametrize("family_order", ["ae", "ea"])
def test_relabelled_report_shows_the_first_findings_by_location(family_order, tmp_path, capsys):
    # more Jacobi violations than a sink holds (MERGE_AT): with a[1] first,
    # the triples that locate first arrive after a hundred others but before
    # the sink's first cut; the report must still show the MAX_PER_CODE first
    # by location among all of them, each as rendered
    text = _random_table_text(random.Random(7), [("a", 0, 1), ("e", 0, 23)])
    rng = random.Random(7)
    for _ in range(2):
        moved, _ = _relabelled(text, rng, family_order)
        audit = jacobi_audit(_instance(moved))
        every = sorted((cli._loc(v.at), f"residual {v.residual}") for v in audit.violations)
        assert len(every) > cli.MERGE_AT
        spec = tmp_path / "many.lie"
        spec.write_text(moved)
        code, rep, _ = run_cli(["check", str(spec)], capsys)
        shown = [(f.location, f.detail) for f in rep.findings if f.code == "V_JACOBI"]
        assert code == 1
        assert shown == every[: cli.MAX_PER_CODE]
        assert rep.summaries["jacobi_violations"] == len(every)


# The exit-code contract at the CLI boundary: an exception a command does not
# refuse is reported, never a traceback with exit 1.  Each binding is patched
# where its caller binds it, and every command listed reaches it.


def _fault_sites(tmp_path) -> dict[tuple[object, str], list[list[str]]]:
    m = tmp_path / "id.map"
    write_map(m, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    coef = coeff_file(tmp_path, 2, lambda n: Fraction(2) ** n)
    check, cohom = ["check", H3], ["cohomology", H3]
    extend = ["extend", H3_EXT, "--cocycle", "w"]
    audit = ["esvla", "audit", "--window", "3"]
    aut = ["aut", "verify", H3, "--map", str(m)]
    verify = ["snla", "verify", SNLA_BAD]
    return {
        (cli, "jacobi_audit"): [check, extend],
        (cli, "parse_map_file"): [aut],
        (cli, "recurrence_audit"): [["aut", "recurrences", "--file", str(coef)]],
        (cohomology, "echelon"): [cohom, ["cohomology", H3, "--grade-zero"], audit, verify],
        (specfile, "instantiate"): [check, cohom, ["derivations", H3], extend, aut, audit],
        (snla, "verify_snla"): [verify],
    }


def _raising(exc):
    def fail(*args, **kwargs):
        raise exc("injected")

    return fail


@pytest.mark.parametrize(
    "exc, code",
    [(MemoryError, "E_LIMIT"), (RecursionError, "E_LIMIT"), (ZeroDivisionError, "E_INTERNAL")],
)
def test_an_unexpected_exception_is_an_error_report(exc, code, tmp_path, monkeypatch, capsys):
    for (module, name), commands in _fault_sites(tmp_path).items():
        with monkeypatch.context() as patch:
            patch.setattr(module, name, _raising(exc))
            for argv in commands:
                for json_flag in ([], ["--json"]):
                    got, rep = cli.run(argv + json_flag)
                    out, err = capsys.readouterr()
                    words = " ".join(argv[: 2 if argv[0] in ("esvla", "snla", "aut") else 1])
                    finding = cli.ReportFinding("error", code, words, f"{exc.__name__}: injected")
                    assert (got, rep.verdict, rep.findings) == (2, "error", [finding]), argv
                    assert err == ""
                    assert out == (rep.to_json() if json_flag else rep.to_text())


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_interrupt_and_exit_pass_through_the_cli(exc, monkeypatch, capsys):
    monkeypatch.setattr(cli, "jacobi_audit", _raising(exc))
    with pytest.raises(exc):
        cli.run(["check", H3])
    assert capsys.readouterr().out == ""


def test_running_out_of_address_space_is_an_error_report():
    # the cap holds in the child only; compiling the 2,047-generator window
    # fails to allocate within about a second, long before any triple
    import resource

    cap = 100 * 2**20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lieforge", "check", WITT, "--window", "1023"],
        capture_output=True,
        env=CHILD_ENV,
        preexec_fn=limit,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr.decode()[-2000:]
    assert b"verdict: error" in proc.stdout
    assert b"[error] E_LIMIT check: MemoryError" in proc.stdout
    assert time.perf_counter() - start < 5
