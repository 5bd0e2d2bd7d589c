"""Windowed build and audit of a four-family graded algebra.

Families L, M, N (integer index) and Y (half-integer index) carry seven
bracket rules and three displayed 2-cocycles, bundled as a spec document
in ``data/esvla.lie``.  Everything here is a statement about the finite
window: audits report what holds on interior triples of the truncation
and never extrapolate to the untruncated algebra.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from . import specfile
from .algebra import (
    AlgebraInstance,
    Audit,
    Element,
    center,
    check_alternating,
    jacobi_audit,
)
from .cohomology import (
    coboundary2_space,
    cocycle2_space,
    cocycle_audit,
    derivation_space,
    inner_split,
)
from .specfile import instantiate_cocycle

# The bundled document's file name, as reports name their inputs.
DOC_NAME = "esvla.lie"


class _EsvlaFields(NamedTuple):
    window: int
    convention: str
    n_index_mode: str


class EsvlaConfig(_EsvlaFields):
    """Window size plus convention and half-index handling for family N,
    checked when built; compared, hashed and printed by value.

    n_index_mode "strict" drops rule results landing on half indices of an
    integer family (each drop is a finding); "extended" widens N to carry
    both integer and half-integer indices.
    """

    __slots__ = ()

    def __new__(
        cls, window: int, convention: str = "super", n_index_mode: str = "strict"
    ):
        if window < 2:
            raise ValueError("window must be >= 2")
        if convention not in ("plain", "super"):
            raise ValueError(f"unknown convention {convention!r}")
        if n_index_mode not in ("strict", "extended"):
            raise ValueError(f"unknown n_index_mode {n_index_mode!r}")
        return super().__new__(cls, window, convention, n_index_mode)


@lru_cache(maxsize=1)
def bundled_source() -> bytes:
    """The bundled document as stored, read once."""
    from importlib import resources  # only the esvla commands read it
    return resources.files("lieforge").joinpath(f"data/{DOC_NAME}").read_bytes()


@lru_cache(maxsize=1)
def _bundled_doc() -> specfile.AlgebraSpecDoc:
    return specfile.parse(bundled_source().decode("utf-8"))


def build_esvla(cfg: EsvlaConfig, found=None) -> AlgebraInstance:
    """Instantiate the bundled document over the window |index| <= W;
    ``found`` is the sink of the instantiation findings, as in
    ``specfile.instantiate``."""
    doc = _bundled_doc()
    if doc.convention != cfg.convention:
        doc = doc._replace(convention=cfg.convention)
    return specfile.instantiate(
        doc, window=cfg.window, kind_mode=cfg.n_index_mode, found=found
    )


class EsvlaAuditReport(NamedTuple):
    """Everything the window-level audit measures, verdicts included: the
    audits, the window's center, and ``summaries``, the counts the report
    prints, in the order it prints them.  Each displayed cocycle's audit is
    keyed by its declaration's name in the bundled document.

    ``h2_grade0`` is dim Z2 - dim B2 on grade-zero cochains of the window;
    when Jacobi fails on the window some coboundaries are not cocycles, so
    the number is bookkeeping, not a cohomology dimension.
    """

    alternating: Audit
    jacobi: Audit
    center_basis: list[Element]
    cocycles: dict[str, Audit]
    summaries: dict[str, int]


def audit_esvla(
    cfg: EsvlaConfig, found: Optional[Callable] = None, findings=None
) -> EsvlaAuditReport:
    """Run every window-level check once and collect the results.

    Covers: as-written alternating audit, graded Jacobi on interior
    triples, the window's center, the cyclic cocycle identity on interior
    triples for each cocycle the bundled document declares (evaluated over
    the window's generators, in document order), grade-zero derivations
    with their inner/outer split against ad of the index-0 generators, and
    the grade-zero Z2/B2/H2 counts.

    ``found(A, name)``, when given, is the sink of the violations of the
    audit ``name`` ("alternating", "jacobi", or a cocycle's name) over the
    window's instance A (see ``algebra.jacobi_audit``); without it each
    audit keeps a list.  ``findings`` is the sink of the instantiation
    findings (see ``build_esvla``).
    """
    A = build_esvla(cfg, findings)

    def sink(name: str):
        return None if found is None else found(A, name)

    ders = derivation_space(A, grade_restriction=0)
    index0 = [g for g in A.generators if g.doubled_index == 0]
    inner0, outer0 = inner_split(A, ders, ad_generators=index0)
    z2 = len(cocycle2_space(A, grade_zero=True))
    b2 = len(coboundary2_space(A, grade_zero=True))
    alternating = check_alternating(A, sink("alternating"))
    jacobi = jacobi_audit(A, scope="interior", found=sink("jacobi"))
    center_basis = center(A)
    cocycles = {
        c.name: cocycle_audit(
            A, instantiate_cocycle(c, A), scope="interior", found=sink(c.name)
        )
        for c in _bundled_doc().cocycles
    }
    summaries = {
        "dim": A.dim,
        "boundary_pairs": len(A.boundary_pairs),
        "dropped_terms": A.dropped_terms,
        "instantiation_findings": len(A.findings),
        "alternating_violations": len(alternating.found),
        "jacobi_examined": jacobi.examined,
        "jacobi_skipped": jacobi.skipped_boundary,
        "jacobi_violations": len(jacobi.found),
        "center_dim": len(center_basis),
        "derivations_grade0": len(ders),
        "inner_grade0": inner0,
        "outer_grade0": outer0,
        "z2_grade0": z2,
        "b2_grade0": b2,
        "h2_grade0": z2 - b2,
    }
    for name, aud in cocycles.items():
        summaries[f"{name}_examined"] = aud.examined
        summaries[f"{name}_skipped"] = aud.skipped_boundary
        summaries[f"{name}_violations"] = len(aud.found)
    return EsvlaAuditReport(alternating, jacobi, center_basis, cocycles, summaries)
