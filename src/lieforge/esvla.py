"""Windowed build and audit of a four-family graded algebra.

Families L, M, N (integer index) and Y (half-integer index) carry seven
bracket rules and three displayed 2-cocycles, bundled as a spec document
in ``data/esvla.lie``.  Everything here is a statement about the finite
window: audits report what holds on interior triples of the truncation
and never extrapolate to the untruncated algebra.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources
from typing import Callable, NamedTuple, Optional

from . import specfile
from .algebra import (
    AlgebraInstance,
    Audit,
    Element,
    Finding,
    center,
    check_alternating,
    jacobi_audit,
)
from .cohomology import (
    Cochain2,
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
    return resources.files("lieforge").joinpath(f"data/{DOC_NAME}").read_bytes()


@lru_cache(maxsize=1)
def _bundled_doc() -> specfile.AlgebraSpecDoc:
    return specfile.parse(bundled_source().decode("utf-8"))


def build_esvla(cfg: EsvlaConfig) -> AlgebraInstance:
    """Instantiate the bundled document over the window |index| <= W."""
    doc = _bundled_doc()
    if doc.convention != cfg.convention:
        doc = doc._replace(convention=cfg.convention)
    return specfile.instantiate(
        doc, window=cfg.window, kind_mode=cfg.n_index_mode
    )


class PaperCocycles(NamedTuple):
    """The three displayed 2-cocycles evaluated over one window's grid."""

    omega1: Cochain2
    omega2: Cochain2
    omega3: Cochain2

    def items(self) -> tuple[tuple[str, Cochain2], ...]:
        return (("w1", self.omega1), ("w2", self.omega2), ("w3", self.omega3))


def _cocycles_for(A: AlgebraInstance) -> PaperCocycles:
    """Evaluate the bundled cocycle declarations over A's generators.

    Entries are stored on every ordered pair the declaration matches, so a
    symmetric display (w1 on Y,Y pairs) stores both orders and one-sided
    displays (w2, w3) extend by the convention on lookup.
    """
    by_name = {c.name: c for c in _bundled_doc().cocycles}
    missing = [k for k in ("w1", "w2", "w3") if k not in by_name]
    if missing:
        raise RuntimeError(f"bundled document lacks cocycles {missing}")
    return PaperCocycles(
        instantiate_cocycle(by_name["w1"], A),
        instantiate_cocycle(by_name["w2"], A),
        instantiate_cocycle(by_name["w3"], A),
    )


class EsvlaAuditReport(NamedTuple):
    """Everything the window-level audit measures, verdicts included.

    ``h2_grade0`` is dim Z2 - dim B2 on grade-zero cochains of the window;
    when Jacobi fails on the window some coboundaries are not cocycles, so
    the number is bookkeeping, not a cohomology dimension.
    """

    config: EsvlaConfig
    dim: int
    boundary_pairs: int
    dropped_terms: int
    instantiation_findings: list[Finding]
    alternating: Audit
    jacobi: Audit
    center_basis: list[Element]
    cocycles: dict[str, Audit]
    derivations0_dim: int
    inner0_dim: int
    outer0_dim: int
    z2_grade0: int
    b2_grade0: int
    h2_grade0: int

    def summaries(self) -> dict[str, int]:
        out = {
            "dim": self.dim,
            "boundary_pairs": self.boundary_pairs,
            "dropped_terms": self.dropped_terms,
            "instantiation_findings": len(self.instantiation_findings),
            "alternating_violations": len(self.alternating.found),
            "jacobi_examined": self.jacobi.examined,
            "jacobi_skipped": self.jacobi.skipped_boundary,
            "jacobi_violations": len(self.jacobi.found),
            "center_dim": len(self.center_basis),
            "derivations_grade0": self.derivations0_dim,
            "inner_grade0": self.inner0_dim,
            "outer_grade0": self.outer0_dim,
            "z2_grade0": self.z2_grade0,
            "b2_grade0": self.b2_grade0,
            "h2_grade0": self.h2_grade0,
        }
        for name, aud in sorted(self.cocycles.items()):
            out[f"{name}_examined"] = aud.examined
            out[f"{name}_skipped"] = aud.skipped_boundary
            out[f"{name}_violations"] = len(aud.found)
        return out


def audit_esvla(cfg: EsvlaConfig, found: Optional[Callable] = None) -> EsvlaAuditReport:
    """Run every window-level check once and collect the results.

    Covers: as-written alternating audit, graded Jacobi on interior
    triples, the window's center, the cyclic cocycle identity for each
    displayed cocycle on interior triples, grade-zero derivations with
    their inner/outer split against ad of the index-0 generators, and the
    grade-zero Z2/B2/H2 counts.

    ``found(A, name)``, when given, is the sink of the violations of the
    audit ``name`` ("alternating", "jacobi", or a cocycle's name) over the
    window's instance A (see ``algebra.jacobi_audit``); without it each
    audit keeps a list.
    """
    A = build_esvla(cfg)

    def sink(name: str):
        return None if found is None else found(A, name)

    pc = _cocycles_for(A)
    ders = derivation_space(A, grade_restriction=0)
    index0 = [g for g in A.generators if g.doubled_index == 0]
    inner0, outer0 = inner_split(A, ders, ad_generators=index0)
    z2 = len(cocycle2_space(A, grade_zero=True))
    b2 = len(coboundary2_space(A, grade_zero=True))
    return EsvlaAuditReport(
        config=cfg,
        dim=A.dim,
        boundary_pairs=len(A.boundary_pairs),
        dropped_terms=A.dropped_terms,
        instantiation_findings=A.findings,
        alternating=check_alternating(A, sink("alternating")),
        jacobi=jacobi_audit(A, scope="interior", found=sink("jacobi")),
        center_basis=center(A),
        cocycles={
            name: cocycle_audit(A, om, scope="interior", found=sink(name))
            for name, om in pc.items()
        },
        derivations0_dim=len(ders),
        inner0_dim=inner0,
        outer0_dim=outer0,
        z2_grade0=z2,
        b2_grade0=b2,
        h2_grade0=z2 - b2,
    )
