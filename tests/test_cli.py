"""CLI dispatch, report schema, exit codes, and output determinism."""

import ast
import importlib
import json
import os
import shlex
import subprocess
import signal
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from lieforge import cli

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


def test_derivations_heisenberg(capsys):
    code, rep, _ = run_cli(["derivations", H3], capsys)
    assert code == 0
    assert rep.summaries == {"dim": 3, "derivations": 6, "inner": 2, "outer": 4}


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
    assert [f.code for f in rep.findings] == ["E_INPUT"]
    assert f"line 6: {bad} is not a declared generator" in rep.findings[0].detail


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
    probe = (
        "import lieforge.cli, sys; "
        "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing') "
        "if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=CHILD_ENV
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
