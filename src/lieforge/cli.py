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
    JacobiAudit,
    center,
    check_alternating,
    jacobi_audit,
)
from .automorphisms import (
    CoefficientFamily,
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


def _error_report(
    command: str,
    inputs: list[tuple[str, str]],
    code: str,
    location: str,
    detail: str,
) -> Report:
    return _finalize(
        command, inputs, [ReportFinding("error", code, location, detail)], {}
    )


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_input(
    command: str, path: str, inputs: list[tuple[str, str]]
) -> tuple[Optional[str], Optional[Report]]:
    """The file's UTF-8 text, or an E_INPUT report when it cannot be read
    or decoded."""
    name = os.path.basename(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as e:
        detail = f"cannot read file: {e.strerror}"
    else:
        inputs.append((name, _digest_bytes(data)))
        try:
            return data.decode("utf-8"), None
        except UnicodeDecodeError as e:
            detail = f"not UTF-8 text: {e.reason} at byte {e.start}"
    return None, _error_report(command, inputs, "E_INPUT", name, detail)


def _load_doc(
    command: str, path: str, inputs: list[tuple[str, str]]
) -> tuple[Optional[specfile.AlgebraSpecDoc], Optional[Report]]:
    text, err = _read_input(command, path, inputs)
    if err:
        return None, err
    try:
        return specfile.parse(text), None
    except specfile.ParseError as e:
        return None, _error_report(
            command, inputs, "E_PARSE", f"{os.path.basename(path)}:{e.line}", str(e)
        )


def _instantiate(
    command: str,
    doc: specfile.AlgebraSpecDoc,
    window: Optional[int],
    inputs: list[tuple[str, str]],
) -> tuple[Optional[AlgebraInstance], Optional[Report]]:
    try:
        return specfile.instantiate(doc, window=window), None
    except ValueError as e:
        return None, _error_report(command, inputs, "E_INPUT", doc.name, str(e))


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


def _cmd_check(args) -> Report:
    command = f"check {os.path.basename(args.spec)}"
    if args.window is not None:
        command += f" --window {args.window}"
    inputs: list[tuple[str, str]] = []
    doc, err = _load_doc(command, args.spec, inputs)
    if err:
        return err
    A, err = _instantiate(command, doc, args.window, inputs)
    if err:
        return err
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
    return _finalize(
        command, inputs, _structure_findings(alternating, jac), summaries
    )


def _cmd_cohomology(args) -> Report:
    command = f"cohomology {os.path.basename(args.spec)}"
    if args.grade_zero:
        command += " --grade-zero"
    if args.window is not None:
        command += f" --window {args.window}"
    inputs: list[tuple[str, str]] = []
    doc, err = _load_doc(command, args.spec, inputs)
    if err:
        return err
    A, err = _instantiate(command, doc, args.window, inputs)
    if err:
        return err
    z2 = len(cocycle2_space(A, grade_zero=args.grade_zero))
    b2 = len(coboundary2_space(A, grade_zero=args.grade_zero))
    summaries = {"dim": A.dim, "z2": z2, "b2": b2, "h2": z2 - b2}
    return _finalize(command, inputs, [], summaries)


def _cmd_derivations(args) -> Report:
    command = f"derivations {os.path.basename(args.spec)}"
    if args.window is not None:
        command += f" --window {args.window}"
    inputs: list[tuple[str, str]] = []
    doc, err = _load_doc(command, args.spec, inputs)
    if err:
        return err
    A, err = _instantiate(command, doc, args.window, inputs)
    if err:
        return err
    ders = derivation_space(A)
    inner, outer = inner_split(A, ders)
    summaries = {
        "dim": A.dim,
        "derivations": len(ders),
        "inner": inner,
        "outer": outer,
    }
    return _finalize(command, inputs, [], summaries)


def _cmd_extend(args) -> Report:
    command = (
        f"extend {os.path.basename(args.spec)} "
        f"--cocycle {os.path.basename(args.cocycle)}"
    )
    if args.window is not None:
        command += f" --window {args.window}"
    inputs: list[tuple[str, str]] = []
    doc, err = _load_doc(command, args.spec, inputs)
    if err:
        return err
    A, err = _instantiate(command, doc, args.window, inputs)
    if err:
        return err
    decls = {c.name: c for c in doc.cocycles}
    if args.cocycle in decls:
        decl = decls[args.cocycle]
    elif os.path.exists(args.cocycle):
        cdoc, err = _load_doc(command, args.cocycle, inputs)
        if err:
            return err
        if not cdoc.cocycles:
            return _error_report(
                command,
                inputs,
                "E_INPUT",
                os.path.basename(args.cocycle),
                "file declares no cocycle",
            )
        decl = cdoc.cocycles[0]
    else:
        return _error_report(
            command,
            inputs,
            "E_INPUT",
            args.cocycle,
            "no such cocycle name in the document and no such file",
        )
    omega = esvla.instantiate_cocycle(decl, A)
    findings = [
        ReportFinding(
            "violation",
            "V_SYM",
            _pair_loc(g, h),
            f"stored values contradict the convention's symmetry: residual {r}",
        )
        for g, h, r in omega.symmetry_violations()
    ]
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
    return _finalize(command, inputs, findings, summaries)


def _cmd_esvla_audit(args) -> Report:
    command = (
        f"esvla audit --window {args.window} --convention {args.convention} "
        f"--n-index {args.n_index}"
    )
    bundled = resources.files("lieforge").joinpath("data/esvla.lie").read_bytes()
    inputs = [("esvla.lie", _digest_bytes(bundled))]
    try:
        cfg = esvla.EsvlaConfig(
            window=args.window,
            convention=args.convention,
            n_index_mode=args.n_index,
        )
    except ValueError as e:
        return _error_report(command, inputs, "E_INPUT", "config", str(e))
    rep = esvla.audit_esvla(cfg)
    findings = [
        ReportFinding("info", f.code, f.location, f.detail)
        for f in rep.instantiation_findings
    ]
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
    return _finalize(command, inputs, findings, rep.summaries())


_SNLA_CODES = {
    "novikov": "V_NOVIKOV",
    "associative": "V_ASSOC",
    "compat": "V_COMPAT",
    "symplectic_cocycle": "V_FORM_COCYCLE",
}


def _cmd_snla_verify(args) -> Report:
    command = f"snla verify {os.path.basename(args.spec)}"
    inputs: list[tuple[str, str]] = []
    doc, err = _load_doc(command, args.spec, inputs)
    if err:
        return err
    try:
        s = snla.snla_from_doc(doc)
    except ValueError as e:
        return _error_report(command, inputs, "E_INPUT", doc.name, str(e))
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
    return _finalize(command, inputs, findings, summaries)


def _cmd_snla_search(args) -> Report:
    try:
        coeffs = sorted({rat(tok) for tok in args.coeffs.split(",") if tok.strip()})
    except (ValueError, ZeroDivisionError):
        coeffs = None
    canonical = (
        ",".join(str(c) for c in coeffs) if coeffs else args.coeffs
    )
    command = f"snla search --dim {args.dim} --coeffs {canonical}"
    if args.budget is not None:
        command += f" --budget {args.budget}"
    inputs: list[tuple[str, str]] = []
    if coeffs is None:
        return _error_report(
            command, inputs, "E_INPUT", "--coeffs", "expected comma-separated rationals"
        )
    try:
        res = snla.snla_search(args.dim, coeffs, budget=args.budget)
    except ValueError as e:
        return _error_report(command, inputs, "E_INPUT", "search", str(e))
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
    return _finalize(command, inputs, findings, summaries)


def _cmd_aut_verify(args) -> Report:
    command = (
        f"aut verify {os.path.basename(args.spec)} "
        f"--map {os.path.basename(args.map)}"
    )
    if args.window is not None:
        command += f" --window {args.window}"
    inputs: list[tuple[str, str]] = []
    doc, err = _load_doc(command, args.spec, inputs)
    if err:
        return err
    map_name = os.path.basename(args.map)
    map_text, err = _read_input(command, args.map, inputs)
    if err:
        return err
    try:
        phi = parse_map_file(map_text)
    except ValueError as e:
        return _error_report(command, inputs, "E_INPUT", map_name, str(e))
    findings = []
    summaries: dict[str, int] = {}
    if doc.products or doc.forms:
        try:
            s = snla.snla_from_doc(doc)
        except ValueError as e:
            return _error_report(command, inputs, "E_INPUT", doc.name, str(e))
        try:
            bracket_viols = check_automorphism(s.algebra(), phi)
            prod_viols = check_product_preserved(s.product, phi)
            ok, residual = check_symplectomorphism(s.form, phi)
        except ValueError as e:
            code = "E_SINGULAR" if "singular" in str(e) else "E_INPUT"
            return _error_report(command, inputs, code, map_name, str(e))
        findings.extend(
            ReportFinding(
                "violation", "V_BRACKET", _pair_loc(*v.pair), v.describe()
            )
            for v in bracket_viols
        )
        findings.extend(
            ReportFinding(
                "violation",
                "V_PRODUCT",
                f"({v.pair[0]},{v.pair[1]})",
                v.describe(),
            )
            for v in prod_viols
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
        summaries = {
            "dim": s.dim,
            "bracket_violations": len(bracket_viols),
            "product_violations": len(prod_viols),
            "form_preserved": int(ok),
        }
    else:
        A, err = _instantiate(command, doc, args.window, inputs)
        if err:
            return err
        try:
            viols = check_automorphism(A, phi)
        except ValueError as e:
            code = "E_SINGULAR" if "singular" in str(e) else "E_INPUT"
            return _error_report(command, inputs, code, map_name, str(e))
        findings.extend(
            ReportFinding(
                "violation", "V_BRACKET", _pair_loc(*v.pair), v.describe()
            )
            for v in viols
        )
        summaries = {"dim": A.dim, "bracket_violations": len(viols)}
    return _finalize(command, inputs, findings, summaries)


def _cmd_aut_recurrences(args) -> Report:
    command = f"aut recurrences --file {os.path.basename(args.file)}"
    if args.window is not None:
        command += f" --window {args.window}"
    inputs: list[tuple[str, str]] = []
    name = os.path.basename(args.file)
    text, err = _read_input(command, args.file, inputs)
    if err:
        return err
    try:
        cf = parse_coeff_file(text)
    except ValueError as e:
        return _error_report(command, inputs, "E_INPUT", name, str(e))
    if args.window is not None:
        if args.window > cf.window:
            return _error_report(
                command,
                inputs,
                "E_INPUT",
                name,
                f"file defines window {cf.window}, cannot widen to {args.window}",
            )
        if args.window < cf.window:
            W = args.window
            try:
                cf = CoefficientFamily(
                    {k: v for k, v in cf.a.items() if abs(k) <= W},
                    {k: v for k, v in cf.b.items() if abs(k) <= W},
                    {k: v for k, v in cf.c.items() if abs(k) <= W},
                    {k: v for k, v in cf.d.items() if abs(k) <= 2 * W},
                    W,
                )
            except ValueError as e:
                return _error_report(command, inputs, "E_INPUT", name, str(e))
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
    return _finalize(command, inputs, findings, summaries)


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

    c = sub.add_parser("check", parents=[common], help="alternating + Jacobi + center")
    c.add_argument("spec")
    c.add_argument("--window", type=int, help="window for rule documents")
    c.set_defaults(func=_cmd_check)

    c = sub.add_parser("cohomology", parents=[common], help="Z2/B2/H2 dimensions")
    c.add_argument("spec")
    c.add_argument("--grade-zero", action="store_true")
    c.add_argument("--window", type=int)
    c.set_defaults(func=_cmd_cohomology)

    c = sub.add_parser("derivations", parents=[common], help="derivation space + inner split")
    c.add_argument("spec")
    c.add_argument("--window", type=int)
    c.set_defaults(func=_cmd_derivations)

    c = sub.add_parser("extend", parents=[common], help="one-dimensional central extension")
    c.add_argument("spec")
    c.add_argument("--cocycle", required=True, help="cocycle name in the document, or a file")
    c.add_argument("--window", type=int)
    c.set_defaults(func=_cmd_extend)

    g = sub.add_parser("esvla", help="bundled four-family algebra")
    gs = g.add_subparsers(dest="esvla_cmd", required=True)
    c = gs.add_parser("audit", parents=[common], help="full window audit")
    c.add_argument("--window", type=int, required=True)
    c.add_argument("--convention", choices=["plain", "super"], default="super")
    c.add_argument(
        "--n-index", dest="n_index", choices=["strict", "extended"], default="strict"
    )
    c.set_defaults(func=_cmd_esvla_audit)

    g = sub.add_parser("snla", help="symplectic Novikov instances")
    gs = g.add_subparsers(dest="snla_cmd", required=True)
    c = gs.add_parser("verify", parents=[common], help="all defining identities")
    c.add_argument("spec")
    c.set_defaults(func=_cmd_snla_verify)
    c = gs.add_parser("search", parents=[common], help="enumerate small instances")
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--coeffs", required=True, help="comma-separated rationals")
    c.add_argument("--budget", type=int)
    c.set_defaults(func=_cmd_snla_search)

    g = sub.add_parser("aut", help="candidate-map verification")
    gs = g.add_subparsers(dest="aut_cmd", required=True)
    c = gs.add_parser("verify", parents=[common], help="bracket/product/form preservation")
    c.add_argument("spec")
    c.add_argument("--map", required=True, help="matrix file: 'dim d' then d rows")
    c.add_argument("--window", type=int)
    c.set_defaults(func=_cmd_aut_verify)
    c = gs.add_parser("recurrences", parents=[common], help="coefficient recurrences")
    c.add_argument("--file", required=True)
    c.add_argument("--window", type=int)
    c.set_defaults(func=_cmd_aut_recurrences)

    return p


def run(argv: list[str]) -> tuple[int, Optional[Report]]:
    """Dispatch one invocation; prints the report and returns its code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return (e.code if isinstance(e.code, int) else 2), None
    report = args.func(args)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_code(), report


def main(argv: Optional[list[str]] = None) -> int:
    code, _ = run(sys.argv[1:] if argv is None else argv)
    return code
