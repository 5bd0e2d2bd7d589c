"""Command-line front end: one subcommand per library capability, with
deterministic reports in text or JSON.

Exit codes separate failure kinds: 0 the checks passed, 1 the math
failed (violation findings), 2 the input failed (error findings or
usage problems).  Reports carry no timestamps and no absolute paths, so
equal inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass
from importlib import resources
from typing import Optional

from . import __version__, esvla, snla, specfile
from .algebra import (
    AlgebraInstance,
    AlternatingViolation,
    Finding,
    JacobiAudit,
    center,
    check_alternating,
    jacobi_audit,
)
from .automorphisms import (
    CoefficientFamily,
    SingularMapError,
    check_automorphism,
    check_product_preserved,
    check_recurrences,
    check_symplectomorphism,
    parse_coeff_file,
    parse_map_file,
)
from .cohomology import (
    central_extension,
    coboundary2_space,
    cocycle2_space,
    derivation_space,
    inner_split,
)
from .linalg import rat

MAX_PER_CODE = 100


@dataclass(frozen=True)
class ReportFinding:
    severity: str  # info | violation | error
    code: str
    location: str
    detail: str


@dataclass
class Report:
    tool_version: str
    command: str
    inputs: list[tuple[str, str]]  # (basename, sha256)
    findings: list[ReportFinding]
    summaries: dict[str, int]
    verdict: str  # pass | fail | error

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "error": 2}[self.verdict]

    def to_json(self) -> str:
        return (
            json.dumps(
                {
                    "version": self.tool_version,
                    "command": self.command,
                    "verdict": self.verdict,
                    "summaries": self.summaries,
                    "findings": [
                        {
                            "severity": f.severity,
                            "code": f.code,
                            "location": f.location,
                            "detail": f.detail,
                        }
                        for f in self.findings
                    ],
                },
                indent=2,
            )
            + "\n"
        )

    def to_text(self) -> str:
        lines = [f"lieforge {self.tool_version} :: {self.command}"]
        for name, digest in self.inputs:
            lines.append(f"input: {name} sha256={digest[:16]}")
        lines.append(f"verdict: {self.verdict}")
        if self.summaries:
            lines.append("summaries:")
            for k, v in self.summaries.items():
                lines.append(f"  {k}: {v}")
        if self.findings:
            lines.append(f"findings ({len(self.findings)}):")
            for f in self.findings:
                lines.append(f"  [{f.severity}] {f.code} {f.location}: {f.detail}")
        else:
            lines.append("findings: none")
        return "\n".join(lines) + "\n"


def _finalize(
    command: str,
    inputs: list[tuple[str, str]],
    findings: list[ReportFinding],
    summaries: dict[str, int],
) -> Report:
    total: dict[str, int] = {}
    for f in findings:
        total[f.code] = total.get(f.code, 0) + 1
    ordered = sorted(findings, key=lambda f: (f.code, f.location))
    shown: dict[str, int] = {}
    kept = []
    for f in ordered:
        shown[f.code] = shown.get(f.code, 0) + 1
        if shown[f.code] <= MAX_PER_CODE:
            kept.append(f)
    for code in sorted(total):
        if total[code] > MAX_PER_CODE:
            kept.append(
                ReportFinding(
                    "info",
                    "I_TRUNCATED",
                    code,
                    f"showing {MAX_PER_CODE} of {total[code]} findings; "
                    "exact counts are in summaries",
                )
            )
    kept.sort(key=lambda f: (f.code, f.location))
    verdict = "pass"
    if any(f.severity == "violation" for f in kept):
        verdict = "fail"
    if any(f.severity == "error" for f in kept):
        verdict = "error"
    return Report(__version__, command, inputs, kept, summaries, verdict)


class Refusal(Exception):
    """Input a command cannot use.  ``run`` reports it as the one error
    finding of an exit-2 report."""

    def __init__(self, code: str, location: str, detail: str):
        super().__init__(f"{code} {location}: {detail}")
        self.finding = ReportFinding("error", code, location, detail)


def _refusing(location: str, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with a ValueError it raises refused at
    ``location``: E_SINGULAR for a singular map, E_INPUT otherwise."""
    try:
        return fn(*args, **kwargs)
    except ValueError as e:
        code = "E_SINGULAR" if isinstance(e, SingularMapError) else "E_INPUT"
        raise Refusal(code, location, str(e)) from None


def _read_input(path: str, inputs: list[tuple[str, str]]) -> str:
    """The file's UTF-8 text; its name and digest join ``inputs`` once it
    is read."""
    name = os.path.basename(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        raise Refusal("E_INPUT", name, f"cannot read file: {e.strerror}") from None
    inputs.append((name, hashlib.sha256(data).hexdigest()))
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        detail = f"not UTF-8 text: {e.reason} at byte {e.start}"
        raise Refusal("E_INPUT", name, detail) from None


def _load_doc(path: str, inputs: list[tuple[str, str]]) -> specfile.AlgebraSpecDoc:
    text = _read_input(path, inputs)
    try:
        return specfile.parse(text)
    except specfile.ParseError as e:
        location = f"{os.path.basename(path)}:{e.line}"
        raise Refusal("E_PARSE", location, str(e)) from None


def _info_findings(found: list[Finding]) -> list[ReportFinding]:
    """Instantiation findings, such as dropped ill-kinded terms, as info."""
    return [ReportFinding("info", f.code, f.location, f.detail) for f in found]


def _instantiate(
    doc: specfile.AlgebraSpecDoc, window: Optional[int]
) -> tuple[AlgebraInstance, list[ReportFinding]]:
    """The document's instance and the info findings of instantiating it."""
    A = _refusing(doc.name, specfile.instantiate, doc, window=window)
    return A, _info_findings(A.findings)


def _pair_loc(g, h) -> str:
    return f"({g},{h})"


def _triple_loc(t) -> str:
    x, y, z = t
    return f"({x},{y},{z})"


def _structure_findings(
    alternating: list[AlternatingViolation], jac: JacobiAudit
) -> list[ReportFinding]:
    out = [
        ReportFinding(
            "violation",
            "V_ALT",
            _pair_loc(v.left, v.right),
            f"residual {v.residual}",
        )
        for v in alternating
    ]
    out.extend(
        ReportFinding(
            "violation", "V_JACOBI", _triple_loc(v.triple), f"residual {v.residual}"
        )
        for v in jac.violations
    )
    return out


def _cmd_check(args, inputs):
    A, findings = _instantiate(_load_doc(args.spec, inputs), args.window)
    alternating = check_alternating(A)
    jac = jacobi_audit(A, scope="interior")
    summaries = {
        "dim": A.dim,
        "boundary_pairs": len(A.boundary_pairs),
        "alternating_violations": len(alternating),
        "jacobi_examined": jac.examined,
        "jacobi_skipped": jac.skipped_boundary,
        "jacobi_violations": len(jac.violations),
        "center_dim": len(center(A)),
    }
    return findings + _structure_findings(alternating, jac), summaries


def _cmd_cohomology(args, inputs):
    A, findings = _instantiate(_load_doc(args.spec, inputs), args.window)
    z2 = len(cocycle2_space(A, grade_zero=args.grade_zero))
    b2 = len(coboundary2_space(A, grade_zero=args.grade_zero))
    return findings, {"dim": A.dim, "z2": z2, "b2": b2, "h2": z2 - b2}


def _cmd_derivations(args, inputs):
    A, findings = _instantiate(_load_doc(args.spec, inputs), args.window)
    ders = derivation_space(A)
    inner, outer = inner_split(A, ders)
    summaries = {
        "dim": A.dim,
        "derivations": len(ders),
        "inner": inner,
        "outer": outer,
    }
    return findings, summaries


def _cmd_extend(args, inputs):
    doc = _load_doc(args.spec, inputs)
    A, findings = _instantiate(doc, args.window)
    decls = {c.name: c for c in doc.cocycles}
    if args.cocycle in decls:
        decl = decls[args.cocycle]
    elif os.path.exists(args.cocycle):
        cocycles = _load_doc(args.cocycle, inputs).cocycles
        if not cocycles:
            name = os.path.basename(args.cocycle)
            raise Refusal("E_INPUT", name, "file declares no cocycle")
        decl = cocycles[0]
    else:
        raise Refusal(
            "E_INPUT",
            args.cocycle,
            "no such cocycle name in the document and no such file",
        )
    omega = esvla.instantiate_cocycle(decl, A)
    findings.extend(
        ReportFinding(
            "violation",
            "V_SYM",
            _pair_loc(g, h),
            f"stored values contradict the convention's symmetry: residual {r}",
        )
        for g, h, r in omega.symmetry_violations()
    )
    ext = central_extension(A, omega)
    jac = jacobi_audit(ext, scope="interior")
    findings.extend(_structure_findings([], jac))
    summaries = {
        "dim": A.dim,
        "extended_dim": ext.dim,
        "jacobi_examined": jac.examined,
        "jacobi_violations": len(jac.violations),
        "center_dim": len(center(ext)),
    }
    return findings, summaries


def _cmd_esvla_audit(args, inputs):
    bundled = resources.files("lieforge").joinpath("data/esvla.lie").read_bytes()
    inputs.append(("esvla.lie", hashlib.sha256(bundled).hexdigest()))
    cfg = _refusing(
        "config",
        esvla.EsvlaConfig,
        window=args.window,
        convention=args.convention,
        n_index_mode=args.n_index,
    )
    rep = esvla.audit_esvla(cfg)
    findings = _info_findings(rep.instantiation_findings)
    findings.extend(_structure_findings(rep.alternating, rep.jacobi))
    for name, aud in sorted(rep.cocycles.items()):
        findings.extend(
            ReportFinding(
                "violation",
                "V_COCYCLE",
                f"{name}:{_triple_loc(v.triple)}",
                f"residual {v.residual}",
            )
            for v in aud.violations
        )
    return findings, rep.summaries()


_SNLA_CODES = {
    "novikov": "V_NOVIKOV",
    "associative": "V_ASSOC",
    "compat": "V_COMPAT",
    "symplectic_cocycle": "V_FORM_COCYCLE",
}


def _cmd_snla_verify(args, inputs):
    doc = _load_doc(args.spec, inputs)
    s = _refusing(doc.name, snla.snla_from_doc, doc)
    rep = snla.verify_snla(s)
    findings = []
    for check, code in _SNLA_CODES.items():
        findings.extend(
            ReportFinding("violation", code, _triple_loc(v.triple), v.describe())
            for v in rep.violations[check]
        )
    findings.extend(
        ReportFinding(
            "violation", "V_SKEW", f"({i},{j})", "form entries are not skew"
        )
        for i, j in rep.violations["skew"]
    )
    findings.extend(
        ReportFinding("violation", "V_NONDEGEN", "form", str(v))
        for v in rep.violations["nondegenerate"]
    )
    findings.extend(
        ReportFinding("violation", "V_SOLV", "bracket", str(v))
        for v in rep.violations["two_step_solvable"]
    )
    fp = snla.snla_fingerprint(s)
    summaries = {"dim": s.dim}
    summaries.update(
        {f"{k}_violations": v for k, v in sorted(rep.counts().items())}
    )
    summaries.update(
        {
            "center_dim": fp["center"],
            "derived_dim": fp["derived"],
            "h2_dim": fp["h2"],
        }
    )
    return findings, summaries


def _coefficients(text: str) -> Optional[list]:
    """The distinct rationals of a comma-separated list, sorted; None when
    an item is not a rational."""
    try:
        return sorted({rat(tok) for tok in text.split(",") if tok.strip()})
    except (ValueError, ZeroDivisionError):
        return None


def _cmd_snla_search(args, inputs):
    coeffs = _coefficients(args.coeffs)
    if coeffs is None:
        raise Refusal("E_INPUT", "--coeffs", "expected comma-separated rationals")
    res = _refusing("search", snla.snla_search, args.dim, coeffs, budget=args.budget)
    findings = []
    for k, inst in enumerate(res.instances, start=1):
        parts = []
        for i in range(1, inst.dim + 1):
            for j in range(1, inst.dim + 1):
                v = inst.product.value(i, j)
                if v:
                    parts.append(f"e[{i}].e[{j}] = {v}")
        findings.append(
            ReportFinding(
                "info",
                "I_INSTANCE",
                f"instance {k:04d}",
                "; ".join(parts) if parts else "zero product",
            )
        )
    if res.partial:
        findings.append(
            ReportFinding(
                "info",
                "I_PARTIAL",
                "budget",
                f"stopped after {res.examined} of {res.total} candidates",
            )
        )
    summaries = {
        "dim": res.dim,
        "coefficients": len(res.coeffs),
        "candidates": res.total,
        "examined": res.examined,
        "instances": len(res.instances),
        "partial": int(res.partial),
    }
    return findings, summaries


def _bracket_findings(
    A: AlgebraInstance, phi, map_name: str
) -> list[ReportFinding]:
    """One V_BRACKET finding per generator pair phi fails to intertwine."""
    return [
        ReportFinding("violation", "V_BRACKET", _pair_loc(*v.pair), v.describe())
        for v in _refusing(map_name, check_automorphism, A, phi)
    ]


def _cmd_aut_verify(args, inputs):
    doc = _load_doc(args.spec, inputs)
    map_name = os.path.basename(args.map)
    phi = _refusing(map_name, parse_map_file, _read_input(args.map, inputs))
    if not (doc.products or doc.forms):
        A, findings = _instantiate(doc, args.window)
        brackets = _bracket_findings(A, phi, map_name)
        return findings + brackets, {"dim": A.dim, "bracket_violations": len(brackets)}
    s = _refusing(doc.name, snla.snla_from_doc, doc)
    findings = _bracket_findings(s.algebra(), phi, map_name)
    products = _refusing(map_name, check_product_preserved, s.product, phi)
    ok, residual = _refusing(map_name, check_symplectomorphism, s.form, phi)
    summaries = {
        "dim": s.dim,
        "bracket_violations": len(findings),
        "product_violations": len(products),
        "form_preserved": int(ok),
    }
    findings.extend(
        ReportFinding("violation", "V_PRODUCT", _pair_loc(*v.pair), v.describe())
        for v in products
    )
    if not ok:
        rows = "; ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in residual
        )
        findings.append(
            ReportFinding(
                "violation",
                "V_FORM",
                "phi^T.Omega.phi",
                f"differs from Omega by {rows}",
            )
        )
    return findings, summaries


def _cmd_aut_recurrences(args, inputs):
    name = os.path.basename(args.file)
    cf = _refusing(name, parse_coeff_file, _read_input(args.file, inputs))
    W = args.window
    if W is not None and W > cf.window:
        detail = f"file defines window {cf.window}, cannot widen to {W}"
        raise Refusal("E_INPUT", name, detail)
    if W is not None and W < cf.window:
        cf = _refusing(
            name,
            CoefficientFamily,
            {k: v for k, v in cf.a.items() if abs(k) <= W},
            {k: v for k, v in cf.b.items() if abs(k) <= W},
            {k: v for k, v in cf.c.items() if abs(k) <= W},
            {k: v for k, v in cf.d.items() if abs(k) <= 2 * W},
            W,
        )
    viols = check_recurrences(cf)
    findings = [
        ReportFinding(
            "violation",
            "V_REC",
            f"{v.relation}@({v.pair[0]},{v.pair[1]})",
            v.note if v.note else f"{v.lhs} != {v.rhs}",
        )
        for v in viols
    ]
    summaries = {"window": cf.window, "violations": len(viols)}
    for rel in ("a", "b", "c", "d"):
        summaries[f"{rel}_violations"] = sum(
            1 for v in viols if v.relation == rel
        )
    return findings, summaries


def _canonical_coefficients(text: str) -> str:
    coeffs = _coefficients(text)
    return ",".join(str(c) for c in coeffs) if coeffs else text


# How a report's command line shows each argument: files by base name, so
# reports hold no absolute paths, and --coeffs as the set it denotes.
_SHOWN_AS = {
    "spec": os.path.basename,
    "cocycle": os.path.basename,
    "map": os.path.basename,
    "file": os.path.basename,
    "coeffs": _canonical_coefficients,
}


def _command_line(args) -> str:
    """The invocation as its report names it: the subcommand, then each
    argument in declaration order; unset options and --json are left out."""
    words = [args.words]
    for action in args.shown:
        value = getattr(args, action.dest)
        if value is None or value is False:
            continue
        words.extend(action.option_strings)
        if value is not True:
            words.append(_SHOWN_AS.get(action.dest, str)(value))
    return " ".join(words)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--json", action="store_true", help="emit the JSON report schema"
    )
    p = argparse.ArgumentParser(
        prog="lieforge",
        description="exact verification of bracket tables, Novikov products, "
        "symplectic forms, cohomology, and coefficient recurrences",
    )
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(group, words, func, help):
        """Add a subcommand; the returned ``arg`` declares its arguments in
        the order its report's command line shows them."""
        c = group.add_parser(words.split()[-1], parents=[common], help=help)
        shown: list[argparse.Action] = []
        c.set_defaults(func=func, words=words, shown=shown)

        def arg(name, **kwargs):
            shown.append(c.add_argument(name, **kwargs))

        return arg

    arg = command(sub, "check", _cmd_check, "alternating + Jacobi + center")
    arg("spec")
    arg("--window", type=int, help="window for rule documents")

    arg = command(sub, "cohomology", _cmd_cohomology, "Z2/B2/H2 dimensions")
    arg("spec")
    arg("--grade-zero", action="store_true")
    arg("--window", type=int)

    arg = command(sub, "derivations", _cmd_derivations, "derivation space + inner split")
    arg("spec")
    arg("--window", type=int)

    arg = command(sub, "extend", _cmd_extend, "one-dimensional central extension")
    arg("spec")
    arg("--cocycle", required=True, help="cocycle name in the document, or a file")
    arg("--window", type=int)

    g = sub.add_parser("esvla", help="bundled four-family algebra")
    gs = g.add_subparsers(dest="esvla_cmd", required=True)
    arg = command(gs, "esvla audit", _cmd_esvla_audit, "full window audit")
    arg("--window", type=int, required=True)
    arg("--convention", choices=["plain", "super"], default="super")
    arg("--n-index", choices=["strict", "extended"], default="strict")

    g = sub.add_parser("snla", help="symplectic Novikov instances")
    gs = g.add_subparsers(dest="snla_cmd", required=True)
    arg = command(gs, "snla verify", _cmd_snla_verify, "all defining identities")
    arg("spec")
    arg = command(gs, "snla search", _cmd_snla_search, "enumerate small instances")
    arg("--dim", type=int, required=True)
    arg("--coeffs", required=True, help="comma-separated rationals")
    arg("--budget", type=int)

    g = sub.add_parser("aut", help="candidate-map verification")
    gs = g.add_subparsers(dest="aut_cmd", required=True)
    arg = command(gs, "aut verify", _cmd_aut_verify, "bracket/product/form preservation")
    arg("spec")
    arg("--map", required=True, help="matrix file: 'dim d' then d rows")
    arg("--window", type=int)
    arg = command(gs, "aut recurrences", _cmd_aut_recurrences, "coefficient recurrences")
    arg("--file", required=True)
    arg("--window", type=int)

    return p


def run(argv: list[str]) -> tuple[int, Optional[Report]]:
    """Dispatch one invocation; prints the report and returns its code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (e.code if isinstance(e.code, int) else 2), None
    command = _command_line(args)
    inputs: list[tuple[str, str]] = []
    try:
        findings, summaries = args.func(args, inputs)
    except Refusal as r:
        findings, summaries = [r.finding], {}
    report = _finalize(command, inputs, findings, summaries)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_code(), report


def main(argv: Optional[list[str]] = None) -> int:
    code, _ = run(sys.argv[1:] if argv is None else argv)
    return code
