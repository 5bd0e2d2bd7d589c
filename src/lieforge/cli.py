"""Command-line front end: one subcommand per library capability, with
deterministic reports in text or JSON.

Exit codes separate failure kinds: 0 the checks passed, 1 the math
failed (violation findings), 2 the input failed (error findings or
usage problems).  Reports carry no timestamps and no absolute paths, so
equal inputs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys
from operator import attrgetter
from typing import Callable, Iterable, NamedTuple, NoReturn, Optional, Sequence

from . import __version__, esvla, snla, specfile
from .algebra import (
    AlgebraInstance,
    Audit,
    center,
    check_alternating,
    jacobi_audit,
)
from .automorphisms import (
    CoefficientFamily,
    SingularMapError,
    automorphism_audit,
    check_symplectomorphism,
    parse_coeff_file,
    parse_map_file,
    product_map_audit,
    recurrence_audit,
)
from .cohomology import (
    central_extension,
    coboundary2_space,
    cocycle2_space,
    derivation_space,
    inner_split,
    refuse_whole_window,
    symmetry_audit,
)
from .linalg import rat

MAX_PER_CODE = 100


class ReportFinding(NamedTuple):
    severity: str  # info | violation | error
    code: str
    location: str
    detail: str


class Report(NamedTuple):
    tool_version: str
    command: str
    inputs: list[tuple[str, str]]  # (basename, sha256)
    findings: list[ReportFinding]
    summaries: dict[str, int]
    verdict: str  # pass | fail | error

    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1, "error": 2}[self.verdict]

    def to_json(self) -> str:
        import json  # only --json reads it, so text reports never load it
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


# A code's sink sorts the findings it holds and keeps MAX_PER_CODE of them
# whenever it holds this many.
MERGE_AT = 1000


class Picked:
    """A sink for one code's findings: it counts them and keeps the
    MAX_PER_CODE first of a stable sort of all of them by ``key``, holding
    at most MERGE_AT.  Whenever it holds MERGE_AT it sorts them stably and
    cuts them to MAX_PER_CODE.  They are held in arrival order among equal
    keys, so a finding cut has MAX_PER_CODE that a stable sort of every
    finding puts before it, and what is kept is what that sort puts first.
    A bounded merge, not heapq.nsmallest, which would add two modules to
    every command's start-up."""

    __slots__ = ("key", "held", "count")

    def __init__(self, key: Callable):
        self.key = key
        self.held: list = []
        self.count = 0

    def append(self, item) -> None:
        self.count += 1
        held = self.held
        held.append(item)
        if len(held) == MERGE_AT:
            held.sort(key=self.key)
            del held[MAX_PER_CODE:]

    def __len__(self) -> int:
        return self.count

    def first(self) -> list:
        """The MAX_PER_CODE first findings, in order."""
        self.held.sort(key=self.key)
        del self.held[MAX_PER_CODE:]
        return self.held


class Findings:
    """A report's findings as it shows them: per code, the MAX_PER_CODE
    first by location, picked before they are rendered, and the code's
    exact total."""

    def __init__(self, findings: Iterable[ReportFinding] = ()):
        self.shown: list[ReportFinding] = []
        self.total: dict[str, int] = {}
        self.extend(findings)

    def add(self, code: str, parts: Sequence[tuple[Picked, Callable]]) -> None:
        """Record the findings of ``code``, which no other call adds to:
        ``parts`` pairs each sink of them with the function that renders one
        of its findings, and a part's findings locate before the next
        part's.  Each sink's ``key`` orders its findings as their location
        strings order, and only the picked ones are rendered, in order."""
        assert code not in self.total, code
        self.total[code] = sum(len(picked) for picked, _ in parts)
        room = MAX_PER_CODE
        for picked, render in parts:
            first = picked.first()[:room]
            self.shown.extend(map(render, first))
            room -= len(first)

    def extend(self, findings: Iterable[ReportFinding]) -> None:
        """Record findings already rendered, keyed by their location."""
        by_code: dict[str, Picked] = {}
        for f in findings:
            if f.code not in by_code:
                by_code[f.code] = Picked(attrgetter("location"))
            by_code[f.code].append(f)
        for code, picked in by_code.items():
            self.add(code, [(picked, _as_rendered)])


def _as_rendered(f: ReportFinding) -> ReportFinding:
    return f


def _finalize(
    command: str,
    inputs: list[tuple[str, str]],
    found: Findings,
    summaries: dict[str, int],
) -> Report:
    kept = list(found.shown)
    for code in sorted(found.total):
        if found.total[code] > MAX_PER_CODE:
            kept.append(
                ReportFinding(
                    "info",
                    "I_TRUNCATED",
                    code,
                    f"showing {MAX_PER_CODE} of {found.total[code]} findings; "
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
    import hashlib  # only a read input is digested, so snla search never loads it
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


def _instantiation_findings(kept: Picked) -> Findings:
    """A report's findings, holding as info the instantiation findings
    streamed into ``kept``: the ill-kinded terms dropped, E_KIND, the only
    code ``specfile.instantiate`` finds."""
    found = Findings()
    found.add("E_KIND", [(kept, lambda f: ReportFinding("info", *f))])
    return found


def _instantiate(
    doc: specfile.AlgebraSpecDoc, window: Optional[int]
) -> tuple[AlgebraInstance, Findings]:
    """The document's instance and a report's findings holding those of
    instantiating it."""
    kept = Picked(attrgetter("location"))
    A = _refusing(doc.name, specfile.instantiate, doc, window=window, found=kept)
    return A, _instantiation_findings(kept)


def _refuse_whole_window(doc: specfile.AlgebraSpecDoc, window: Optional[int]):
    """Refuse, before its instance is built, a document whose whole-window
    derivation and 2-cochain systems would exceed MAX_UNKNOWNS.  One over
    MAX_DIM is left to ``specfile.instantiate``, which names that limit."""
    dim = _refusing(doc.name, specfile.dimension, doc, window)
    if dim <= specfile.MAX_DIM:
        _refusing(doc.name, refuse_whole_window, dim)


def _loc(at) -> str:
    return "(" + ",".join(map(str, at)) + ")"


def _name_ranks(generators: Sequence) -> list[int]:
    """Each position's rank among the generators' names.  A name may be a
    proper prefix of another only when both are digits (index 1 of index
    10; a generator's name ends in ']', which appears nowhere else in it),
    and in a location a name is followed by ',' or ')', which sort below
    every digit: pair and triple locations compare name by name, as the
    tuples of their ranks do."""
    order = sorted(range(len(generators)), key=lambda i: str(generators[i]))
    rank = [0] * len(order)
    for r, i in enumerate(order):
        rank[i] = r
    return rank


def _sink(generators: Sequence) -> Picked:
    """A sink for the entries of one audit over ``generators``, ordered as
    their locations order, by the tuple of the generators' name ranks."""
    rank = _name_ranks(generators).__getitem__
    return Picked(lambda entry: tuple(map(rank, entry[0])))


def _add_findings(
    found: Findings,
    code: str,
    audits: list[tuple[str, Audit]],
    shown: str | Callable = "residual {1}",
    indices: bool = False,
) -> None:
    """The violations of ``audits``, (prefix, audit) pairs whose ``found``
    is a ``_sink``, as ``code`` findings located at the prefix and the
    generators' names, or their indices when ``indices``.  The detail is
    ``shown`` formatted with the located tuple, the residual and, as
    ``loc``, the location without its prefix; a ``shown`` that is not a
    string is called with them.  A prefix is empty or ends in ':' or '@',
    which no name holds, so locations order by prefix first."""
    detail_of = shown.format if isinstance(shown, str) else shown

    def part(prefix: str, aud: Audit):
        def render(entry):
            v = aud.violation(entry)
            at = tuple(int(g.index) for g in v.at) if indices else v.at
            loc = _loc(at)
            detail = detail_of(at, v.residual, loc=loc)
            return ReportFinding("violation", code, prefix + loc, detail)

        return aud.found, render

    found.add(code, [part(*a) for a in sorted(audits, key=lambda a: a[0])])


def _cmd_check(args, inputs):
    A, found = _instantiate(_load_doc(args.spec, inputs), args.window)
    alternating = check_alternating(A, _sink(A.generators))
    jac = jacobi_audit(A, scope="interior", found=_sink(A.generators))
    summaries = {
        "dim": A.dim,
        "boundary_pairs": len(A.boundary_pairs),
        "alternating_violations": len(alternating.found),
        "jacobi_examined": jac.examined,
        "jacobi_skipped": jac.skipped_boundary,
        "jacobi_violations": len(jac.found),
        "center_dim": len(center(A)),
    }
    _add_findings(found, "V_ALT", [("", alternating)])
    _add_findings(found, "V_JACOBI", [("", jac)])
    return found, summaries


def _cmd_cohomology(args, inputs):
    doc = _load_doc(args.spec, inputs)
    if not args.grade_zero:
        _refuse_whole_window(doc, args.window)
    A, found = _instantiate(doc, args.window)
    z2 = len(_refusing(doc.name, cocycle2_space, A, grade_zero=args.grade_zero))
    b2 = len(coboundary2_space(A, grade_zero=args.grade_zero))
    return found, {"dim": A.dim, "z2": z2, "b2": b2, "h2": z2 - b2}


def _cmd_derivations(args, inputs):
    doc = _load_doc(args.spec, inputs)
    _refuse_whole_window(doc, args.window)
    A, found = _instantiate(doc, args.window)
    ders = _refusing(doc.name, derivation_space, A)
    inner, outer = inner_split(A, ders)
    summaries = {
        "dim": A.dim,
        "derivations": len(ders),
        "inner": inner,
        "outer": outer,
    }
    return found, summaries


def _cmd_extend(args, inputs):
    doc = _load_doc(args.spec, inputs)
    A, found = _instantiate(doc, args.window)
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
    omega = specfile.instantiate_cocycle(decl, A)
    symmetry = symmetry_audit(omega, A, _sink(A.generators))
    ext = central_extension(A, omega)
    jac = jacobi_audit(ext, scope="interior", found=_sink(ext.generators))
    summaries = {
        "dim": A.dim,
        "extended_dim": ext.dim,
        "jacobi_examined": jac.examined,
        "jacobi_violations": len(jac.found),
        "center_dim": len(center(ext)),
    }
    shown = "stored values contradict the convention's symmetry: residual {1}"
    _add_findings(found, "V_SYM", [("", symmetry)], shown)
    _add_findings(found, "V_JACOBI", [("", jac)])
    return found, summaries


def _cmd_esvla_audit(args, inputs):
    import hashlib
    digest = hashlib.sha256(esvla.bundled_source()).hexdigest()
    inputs.append((esvla.DOC_NAME, digest))
    cfg = _refusing(
        "config",
        esvla.EsvlaConfig,
        window=args.window,
        convention=args.convention,
        n_index_mode=args.n_index,
    )
    kept = Picked(attrgetter("location"))
    rep = _refusing(
        "config",
        esvla.audit_esvla,
        cfg,
        lambda A, name: _sink(A.generators),
        findings=kept,
    )
    found = _instantiation_findings(kept)
    _add_findings(found, "V_ALT", [("", rep.alternating)])
    _add_findings(found, "V_JACOBI", [("", rep.jacobi)])
    cocycles = [(f"{name}:", aud) for name, aud in rep.cocycles.items()]
    _add_findings(found, "V_COCYCLE", cocycles)
    return found, rep.summaries()


# Each SNLA check's code, and how a finding shows its violation: the
# triple of generator indices, then the residual (the two sides for compat).
_SNLA_CODES = {
    "novikov": ("V_NOVIKOV", "{0} residual {1}"),
    "associative": ("V_ASSOC", "{0} residual {1}"),
    "compat": ("V_COMPAT", "{0} left {1[0]} right {1[1]}"),
    "symplectic_cocycle": ("V_FORM_COCYCLE", "{0} cyclic sum {1}"),
}


def _cmd_snla_verify(args, inputs):
    doc = _load_doc(args.spec, inputs)
    s = _refusing(doc.name, snla.snla_from_doc, doc)
    # first, so a cochain system over MAX_UNKNOWNS is refused at once
    fp = _refusing(doc.name, snla.snla_fingerprint, s)
    # the generators are e[1]..e[dim] in order, so their names rank as the
    # indices' strings do
    rep = snla.verify_snla(
        s, {check: _sink(range(1, s.dim + 1)) for check in _SNLA_CODES}
    )
    found = Findings()
    for check, (code, shown) in _SNLA_CODES.items():
        _add_findings(found, code, [("", rep.audits[check])], shown, indices=True)
    if not rep.solvable:
        detail = "derived subalgebra is not abelian"
        found.extend([ReportFinding("violation", "V_SOLV", "bracket", detail)])
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
    return found, summaries


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
    return Findings(findings), summaries


def _cmd_aut_verify(args, inputs):
    doc = _load_doc(args.spec, inputs)
    map_name = os.path.basename(args.map)
    phi = _refusing(map_name, parse_map_file, _read_input(args.map, inputs))
    is_snla = doc.products or doc.forms
    if is_snla:
        s = _refusing(doc.name, snla.snla_from_doc, doc)
        A, found = s.bracket, Findings()
    else:
        A, found = _instantiate(doc, args.window)
    brackets = _refusing(map_name, automorphism_audit, A, phi, _sink(A.generators))
    summaries = {"dim": A.dim, "bracket_violations": len(brackets.found)}
    shown = "{loc}: phi[x,y] = {1[0]} != [phi x, phi y] = {1[1]}"
    _add_findings(found, "V_BRACKET", [("", brackets)], shown)
    if not is_snla:
        return found, summaries
    # the product's generators are e[1]..e[dim], located by their indices
    sink = _sink(range(1, s.dim + 1))
    products = _refusing(map_name, product_map_audit, s.product, phi, sink)
    ok, residual = _refusing(map_name, check_symplectomorphism, s.form, phi)
    summaries.update(product_violations=len(products.found), form_preserved=int(ok))
    shown = "{loc}: phi(x.y) = {1[0]} != phi(x).phi(y) = {1[1]}"
    _add_findings(found, "V_PRODUCT", [("", products)], shown, indices=True)
    if not ok:
        rows = "; ".join(
            "[" + ", ".join(str(x) for x in row) + "]" for row in residual
        )
        detail = f"differs from Omega by {rows}"
        found.extend([ReportFinding("violation", "V_FORM", "phi^T.Omega.phi", detail)])
    return found, summaries


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
    # the audits' generators are the window's integers, located as they are
    sinks = {rel: _sink(range(-cf.window, cf.window + 1)) for rel in "abcd"}
    audits = _refusing(name, recurrence_audit, cf, sinks)
    summaries = {
        "window": cf.window,
        "violations": sum(len(aud.found) for aud in audits.values()),
    }
    summaries.update({f"{rel}_violations": len(aud.found) for rel, aud in audits.items()})
    found = Findings()
    parts = [(f"{rel}@", aud) for rel, aud in audits.items()]
    _add_findings(found, "V_REC", parts, _recurrence_detail)
    return found, summaries


def _recurrence_detail(at, sides, loc) -> str:
    """A recurrence's two sides, or why its right side cannot be read."""
    if len(sides) == 1:
        return "right side reads d at an integer index the family does not store"
    return f"{sides[0]} != {sides[1]}"


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
        found, summaries = args.func(args, inputs)
    except Refusal as r:
        found, summaries = Findings([r.finding]), {}
    report = _finalize(command, inputs, found, summaries)
    sys.stdout.write(report.to_json() if args.json else report.to_text())
    return report.exit_code(), report


def main(argv: Optional[list[str]] = None) -> int:
    code, _ = run(sys.argv[1:] if argv is None else argv)
    return code


def main_and_exit() -> NoReturn:
    """The process entry point: ``main``, then flush stdout and stderr and
    exit with its code at once.  Tearing the interpreter down would only
    free modules (the package registers no atexit handler and writes no
    file but stdout and stderr), yet costs every command a few
    milliseconds.  A flush that fails, as into a closed pipe, ends the
    process as the interpreter ends one whose flush at exit fails: through
    ``sys.exit`` with status 120.  Not with the report's code, because a
    failed flush may discard what it held, and the interpreter's own flush
    at exit would then succeed."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):
        sys.exit(120)
    os._exit(code)
