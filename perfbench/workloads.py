"""The benchmark's three CLI workloads: seeded inputs and known answers.

Each workload turns a seed into the arguments of one ``lieforge`` command
(writing a spec file into the work directory when it needs one) and checks
the text report that command prints against an answer known in advance.
README.md in this directory says why these three were chosen.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb
from pathlib import Path
from typing import Callable, NamedTuple, Optional

# The default seed runs the inputs the workloads are described with:
# c = 1 for witt_cohomology and s = 1, coefficients {-1, 0, 1, 2}, for
# snla_search.
DEFAULT_SEED = 0

ESVLA_WINDOW = 8
ESVLA_MARGIN = 2  # AlgebraInstance.interior_margin, the default the CLI uses

# Summaries block of `lieforge esvla audit --window 8`, frozen from the
# commit that introduced this benchmark.  The bundled algebra fails graded
# Jacobi and its displayed cocycles fail the cyclic identity by design, so
# the run exits 1 with verdict fail.
ESVLA_SUMMARIES = {
    "dim": 67,
    "boundary_pairs": 332,
    "dropped_terms": 332,
    "instantiation_findings": 272,
    "alternating_violations": 0,
    "jacobi_examined": 19464,
    "jacobi_skipped": 3962,
    "jacobi_violations": 2965,
    "center_dim": 2,
    "derivations_grade0": 5,
    "inner_grade0": 0,
    "outer_grade0": 5,
    "z2_grade0": 3,
    "b2_grade0": 3,
    "h2_grade0": 0,
    "w1_examined": 20060,
    "w1_skipped": 3366,
    "w1_violations": 60,
    "w2_examined": 20060,
    "w2_skipped": 3366,
    "w2_violations": 78,
    "w3_examined": 20060,
    "w3_skipped": 3366,
    "w3_violations": 116,
}

WITT_WINDOW = 28
# Every nonzero c gives an algebra isomorphic to the Witt truncation
# (rescale L[m] by c), so the answer does not depend on the seed.
WITT_SUMMARIES = {"dim": 57, "z2": 242, "b2": 57, "h2": 185}

# The seed picks a nonzero integer s and the coefficient set {-s, 0, s, 2s}.
# Every check in the search is homogeneous in the structure constants, so
# scaling the set by s keeps which candidates pass each check, and with it
# the work done; integers keep Fraction arithmetic equally cheap.
SNLA_SCALES = (-5, -4, -3, -2, -1, 1, 2, 3, 4, 5)
SNLA_CANDIDATES = 4 ** 8  # four coefficients over the 2^3 structure constants
# With 0 among the coefficients the only survivor is the zero product:
# compatibility with the standard form forces every constant to vanish.
SNLA_SUMMARIES = {
    "dim": 2,
    "coefficients": 4,
    "candidates": SNLA_CANDIDATES,
    "examined": SNLA_CANDIDATES,
    "instances": 1,
    "partial": 0,
}


class Report(NamedTuple):
    verdict: str
    summaries: dict[str, int]
    findings: list[str]


class Prepared(NamedTuple):
    argv: list[str]  # arguments after `lieforge`
    seed_input: str  # what the seed chose, or that it does not apply
    check: Callable[[int, str], list[str]]  # (exit code, stdout) -> problems


def parse_report(text: str) -> Optional[Report]:
    """Verdict, summaries and finding lines of a text report, or None."""
    verdict = None
    summaries: dict[str, int] = {}
    findings: list[str] = []
    section = None
    for line in text.splitlines():
        if line.startswith("verdict: "):
            verdict = line[len("verdict: "):]
        elif line == "summaries:":
            section = summaries
        elif line.startswith("findings"):
            section = findings
        elif line.startswith("  ") and section is summaries:
            key, _, value = line.strip().partition(": ")
            try:
                summaries[key] = int(value)
            except ValueError:
                return None
        elif line.startswith("  ") and section is findings:
            findings.append(line.strip())
    if verdict is None:
        return None
    return Report(verdict, summaries, findings)


def _expect(code: int, text: str, want_code: int, want_verdict: str,
            want_summaries: dict[str, int]) -> tuple[list[str], Optional[Report]]:
    problems = []
    if code != want_code:
        problems.append(f"exit code {code}, expected {want_code}")
    rep = parse_report(text)
    if rep is None:
        return problems + ["report could not be parsed"], None
    if rep.verdict != want_verdict:
        problems.append(f"verdict {rep.verdict!r}, expected {want_verdict!r}")
    if rep.summaries != want_summaries:
        diff = sorted(
            k for k in set(rep.summaries) | set(want_summaries)
            if rep.summaries.get(k) != want_summaries.get(k)
        )
        problems.append(f"summaries differ in {', '.join(diff)}")
    return problems, rep


def _check_esvla(code: int, text: str) -> list[str]:
    problems, rep = _expect(code, text, 1, "fail", ESVLA_SUMMARIES)
    if rep is None:
        return problems
    # Independent count: integer families L, M, N have 2h + 1 interior
    # indices and the half-integer family Y has 2h, with h = W - margin.
    # Super-convention audits cover triples with repetition.
    h = ESVLA_WINDOW - ESVLA_MARGIN
    n_int = 3 * (2 * h + 1) + 2 * h
    triples = comb(n_int + 2, 3)
    for audit in ("jacobi", "w1", "w2", "w3"):
        covered = rep.summaries.get(f"{audit}_examined", 0) + rep.summaries.get(
            f"{audit}_skipped", 0
        )
        if covered != triples:
            problems.append(f"{audit} covers {covered} triples, expected {triples}")
    return problems


def _check_witt(code: int, text: str) -> list[str]:
    problems, rep = _expect(code, text, 0, "pass", WITT_SUMMARIES)
    if rep is not None and rep.findings:
        problems.append(f"{len(rep.findings)} findings, expected none")
    return problems


def _check_snla(code: int, text: str) -> list[str]:
    problems, rep = _expect(code, text, 0, "pass", SNLA_SUMMARIES)
    if rep is not None and rep.findings != ["[info] I_INSTANCE instance 0001: zero product"]:
        problems.append("instances differ from the single zero product")
    return problems


def _esvla_audit(seed: int, workdir: Path) -> Prepared:
    return Prepared(
        ["esvla", "audit", "--window", str(ESVLA_WINDOW)],
        "none: esvla_audit reads the bundled document, the seed does not apply",
        _check_esvla,
    )


def _witt_cohomology(seed: int, workdir: Path) -> Prepared:
    if seed == DEFAULT_SEED:
        c = Fraction(1)
    else:
        rng = random.Random(seed)
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))
    spec = workdir / "witt_seeded.lie"
    spec.write_text(
        "algebra witt convention plain\n"
        "family L integer even\n"
        f"rule L[m] L[n] => {c}*(n - m) L[m+n]\n"
    )
    return Prepared(
        ["cohomology", str(spec), "--window", str(WITT_WINDOW)],
        f"c = {c}",
        _check_witt,
    )


def _snla_search(seed: int, workdir: Path) -> Prepared:
    scale = 1 if seed == DEFAULT_SEED else random.Random(seed).choice(SNLA_SCALES)
    coeffs = ",".join(str(k * scale) for k in sorted((-1, 0, 1, 2), key=lambda k: k * scale))
    return Prepared(
        ["snla", "search", "--dim", "2", f"--coeffs={coeffs}"],
        f"coeffs = {{{coeffs}}} (s = {scale})",
        _check_snla,
    )


WORKLOADS: dict[str, Callable[[int, Path], Prepared]] = {
    "esvla_audit": _esvla_audit,
    "witt_cohomology": _witt_cohomology,
    "snla_search": _snla_search,
}
