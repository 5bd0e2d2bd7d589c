"""Small hand-built algebra instances shared across test modules."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from typing import Iterable, Mapping

from lieforge.algebra import AlgebraInstance, Element, GeneratorId, gid
from lieforge.cohomology import Cochain2
from oracles import written_entries


def finite_instance(
    name: str,
    generators: Iterable[GeneratorId],
    entries: Mapping[tuple[GeneratorId, GeneratorId], Mapping[GeneratorId, object]],
    parity: Mapping[str, int] = (),
    convention: str = "plain",
    **options,
) -> AlgebraInstance:
    """An instance from as-written entries ``{(g, h): {t: c}}``, checked to
    read its nonzero entries back unchanged and in the order given."""
    A = AlgebraInstance(name, generators, entries, 1, parity, convention, **options)
    given = [
        (pair, {t: Fraction(c) for t, c in value.items() if c})
        for pair, value in entries.items()
        if any(value.values())
    ]
    assert list(written_entries(A).items()) == given
    return A


def heisenberg3() -> AlgebraInstance:
    e1, e2, e3 = gid("e", 1), gid("e", 2), gid("e", 3)
    return finite_instance("heisenberg3", [e1, e2, e3], {(e1, e2): {e3: 1}})


def sl2_type() -> AlgebraInstance:
    e, f, h = gid("e", 0), gid("f", 0), gid("h", 0)
    entries = {(e, f): {h: 1}, (h, e): {e: 2}, (h, f): {f: -2}}
    return finite_instance("sl2_type", [e, f, h], entries)


def abelian(n: int) -> AlgebraInstance:
    gens = [gid("e", i + 1) for i in range(n)]
    return finite_instance(f"abelian{n}", gens, {})


def filiform4() -> AlgebraInstance:
    e1, e2, e3, e4 = (gid("e", i) for i in range(1, 5))
    entries = {(e1, e2): {e3: 1}, (e1, e3): {e4: 1}}
    return finite_instance("filiform4", [e1, e2, e3, e4], entries)


def borel2() -> AlgebraInstance:
    h, e = gid("h", 0), gid("e", 0)
    return finite_instance("borel2", [h, e], {(h, e): {e: 2}})


def witt_window(window: int, margin: int = 2) -> AlgebraInstance:
    """[L_m, L_n] = (n-m) L_{m+n} truncated to |index| <= window, with every
    ordered pair assigned as written and out-of-window results dropped."""
    gens = [gid("L", m) for m in range(-window, window + 1)]
    entries = {}
    boundary = set()
    dropped = 0
    for g in gens:
        for h in gens:
            m = g.doubled_index // 2
            n = h.doubled_index // 2
            coeff = n - m
            if coeff == 0:
                continue
            if abs(m + n) > window:
                boundary.add((g, h))
                dropped += 1
                continue
            entries[(g, h)] = {gid("L", m + n): coeff}
    return finite_instance(
        "witt",
        gens,
        entries,
        window=window,
        interior_margin=margin,
        boundary_pairs=boundary,
        dropped_terms=dropped,
    )


def super_pair(same_sign: bool) -> AlgebraInstance:
    """Two generators L_1 (even) and Y_{1/2} (odd) with the symmetric
    diagonal bracket [Y,Y] = 2 L_1; convention plain when same_sign is
    False would reject the diagonal, so parity is carried either way and
    the caller picks the convention."""
    L1, Y = gid("L", 1), gid("Y", Fraction(1, 2))
    convention = "super" if same_sign else "plain"
    return finite_instance("ypair", [L1, Y], {(Y, Y): {L1: 2}}, {"Y": 1}, convention)


def super_heisenberg() -> AlgebraInstance:
    """One odd Y with [Y,Y] = Z, Z even central; graded Jacobi holds."""
    Y, Z = gid("Y", Fraction(1, 2)), gid("Z", 0)
    return finite_instance("superheis", [Y, Z], {(Y, Y): {Z: 1}}, {"Y": 1}, "super")


def super_bad() -> AlgebraInstance:
    """One odd Y with [Y,Y] = Y: graded Jacobi fails on (Y,Y,Y)."""
    Y = gid("Y", Fraction(1, 2))
    return finite_instance("superbad", [Y], {(Y, Y): {Y: 1}}, {"Y": 1}, "super")


def mixed_entries(convention: str) -> AlgebraInstance:
    """Five generators (Y, V odd) whose table holds one-sided entries
    (even-even, even-odd, odd-odd), a pair stored on both sides
    inconsistently, an odd diagonal and one window-flagged pair, which an
    inner bracket [L1, M1] of the Jacobi identity reaches."""
    L0, L1, M1 = gid("L", 0), gid("L", 1), gid("M", 1)
    Yh, Vh = gid("Y", Fraction(1, 2)), gid("V", Fraction(1, 2))
    entries = {
        (L0, L1): {L1: 1},
        (L0, Yh): {Yh: Fraction(1, 2)},
        (Yh, Vh): {L1: 1, M1: -1},
        (L1, M1): {M1: 2},
        (M1, L1): {M1: 1, L0: 1},
        (Yh, Yh): {L1: 3},
        (Vh, L0): {Vh: -1},
    }
    return finite_instance(
        f"mixed_{convention}",
        [L0, L1, M1, Yh, Vh],
        entries,
        {"Y": 1, "V": 1},
        convention,
        window=1,
        interior_margin=0,
        boundary_pairs={(Vh, M1)},
        dropped_terms=1,
    )


def coprime_denominators() -> AlgebraInstance:
    """Four plain generators with structure constants 1/3, 2/5 and 3/7, whose
    denominators are pairwise coprime (common denominator 105); Jacobi fails
    with fractional residuals."""
    e1, e2, e3, e4 = (gid("e", i) for i in range(1, 5))
    entries = {
        (e1, e2): {e3: Fraction(1, 3)},
        (e1, e3): {e4: Fraction(2, 5)},
        (e2, e4): {e1: Fraction(3, 7), e2: Fraction(1, 3)},
        (e3, e4): {e3: Fraction(2, 5)},
    }
    return finite_instance("coprime", [e1, e2, e3, e4], entries)


def sixths_cochain(A: AlgebraInstance) -> Cochain2:
    """A cochain whose entries all have denominator 6, on the first six
    generator pairs (g, h) with g before h."""
    pairs = itertools.combinations(A.generators, 2)
    raw = {pair: Fraction(k, 6) for pair, k in zip(pairs, (1, -5, 7, -11, 13, -1))}
    return Cochain2(A.parity, A.convention, raw)


def random_cochain(rng: random.Random, A: AlgebraInstance) -> Cochain2:
    """Scalars on a random half of the ordered generator pairs, so some
    pairs are stored on one side, some on both (inconsistently) and some on
    the diagonal."""
    raw = {}
    for g in A.generators:
        for h in A.generators:
            if rng.random() < 0.5:
                raw[(g, h)] = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
    return Cochain2(A.parity, A.convention, raw)


def random_table(rng: random.Random, dim: int) -> AlgebraInstance:
    """Random antisymmetric structure constants; Jacobi usually fails."""
    gens = [gid("e", i + 1) for i in range(dim)]
    entries = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            terms = {}
            for k in range(dim):
                if rng.random() < 0.4:
                    c = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
                    if c:
                        terms[gens[k]] = c
            if terms:
                entries[(gens[i], gens[j])] = terms
    return finite_instance(f"random{dim}", gens, entries)


def random_super_table(rng: random.Random, even: int, odd: int) -> AlgebraInstance:
    """Sparse random parity-respecting super table (families e even, o odd),
    each bracket stored on one side; Jacobi usually fails."""
    gens = [gid("e", i + 1) for i in range(even)] + [gid("o", i + 1) for i in range(odd)]
    entries = {}
    for i, g in enumerate(gens):
        for h in gens[i:]:
            if g == h and g.family == "e" or rng.random() < 0.5:
                continue
            family = "o" if (g.family == "o") != (h.family == "o") else "e"
            terms = {
                t: rng.randint(-2, 2) for t in gens if t.family == family and rng.random() < 0.5
            }
            if any(terms.values()):
                entries[(g, h)] = terms
    return finite_instance(f"rsuper{even}_{odd}", gens, entries, {"o": 1}, "super")


def random_element(rng: random.Random, A: AlgebraInstance) -> Element:
    terms = {}
    for g in A.generators:
        if rng.random() < 0.5:
            c = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
            if c:
                terms[g] = c
    return Element(terms)
