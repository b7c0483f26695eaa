import random

import pytest

import froblab.idealops as idealops
from froblab import (
    HypersurfaceRing,
    Ideal,
    Polynomial,
    ideal_colon,
    ideal_equal,
    ideal_product,
    make_ring,
    parse_poly,
)
from froblab.parsing import _TOKEN
from froblab.rings import EXPONENT_LIMIT


def mono_div(a, b):
    """a/b as an exponent tuple, or None when b does not divide a."""
    d = tuple(x - y for x, y in zip(a, b))
    return None if min(d, default=0) < 0 else d


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_divides(a, b):
    """True when a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


@pytest.fixture
def F5xyz():
    return make_ring(5, ["x", "y", "z"])


@pytest.fixture
def F2xyz():
    return make_ring(2, ["x", "y", "z"])


def random_poly(ring, rng, max_deg=3, max_terms=4, nonzero=False):
    """Small random polynomial; used by the seeded property loops."""
    while True:
        terms = []
        for _ in range(rng.randrange(0 if not nonzero else 1, max_terms + 1)):
            m = [0] * ring.nvars
            for _ in range(rng.randrange(0, max_deg + 1)):
                m[rng.randrange(ring.nvars)] += 1
            terms.append((tuple(m), rng.randrange(1, ring.p)))
        f = Polynomial(ring, terms)
        if f or not nonzero:
            return f


def random_ideal(ring, rng, max_gens=3, max_deg=3, max_terms=3):
    gens = [
        random_poly(ring, rng, max_deg=max_deg, max_terms=max_terms, nonzero=True)
        for _ in range(rng.randrange(1, max_gens + 1))
    ]
    return Ideal(ring, gens)


def random_ideal_in_max(ring, rng, **kwargs):
    """random_ideal with constant terms dropped: nonzero, inside (variables)."""
    while True:
        gens = [
            Polynomial(ring, [(m, c) for m, c in g.terms if any(m)])
            for g in random_ideal(ring, rng, **kwargs).gens
        ]
        I = Ideal(ring, gens)
        if not I.is_zero():
            return I


def random_homogeneous(ring, rng):
    """Two or three random forms of degree 1 to 3, up to three terms each."""
    gens = []
    for _ in range(rng.randrange(2, 4)):
        degree = rng.randrange(1, 4)
        terms = []
        for _ in range(rng.randrange(1, 4)):
            m = [0] * ring.nvars
            for _ in range(degree):
                m[rng.randrange(ring.nvars)] += 1
            terms.append((tuple(m), rng.randrange(1, ring.p)))
        gens.append(Polynomial(ring, terms))
    return [g for g in gens if g]


def random_monomial_ideal(ring, rng, max_gens=3, max_deg=3):
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        m = [0] * ring.nvars
        for _ in range(rng.randrange(1, max_deg + 1)):
            m[rng.randrange(ring.nvars)] += 1
        gens.append(Polynomial.monomial(ring, tuple(m)))
    return Ideal(ring, gens)


def rings(p):
    """F_p[x,y,z] under grevlex and lex, and the cones F_p[x,y,z]/(xy - z^k)."""
    for order in ("grevlex", "lex"):
        yield make_ring(p, ["x", "y", "z"], order=order)
    S = make_ring(p, ["x", "y", "z"])
    for k in (2, 3):
        yield HypersurfaceRing(S, parse_poly(S, f"x*y - z^{k}"))


def iterated_colon_saturate(I, by):
    """Reference saturation: colon by `by` until the chain stops; returns
    (ideal, first stable index)."""
    current, steps = I, 0
    for _ in range(idealops.MAX_SATURATION_STEPS):
        nxt = ideal_colon(current, by)
        if ideal_equal(nxt, current):
            return current, steps
        current = nxt
        steps += 1
    raise AssertionError("reference saturation did not stabilize")


def assert_minimal_ascending(I):
    """I is listed as the kernel lists a monomial ideal: its minimal
    generators, monic, in strictly ascending ring order."""
    monos = [g.lead_monomial() for g in I.gens]
    assert all(g.terms == ((m, 1),) for g, m in zip(I.gens, monos)), I
    assert monos == sorted(set(monos), key=I.ring.key), I
    assert not any(a != b and mono_divides(a, b) for a in monos for b in monos), I


def lcm_intersect_reference(I, J):
    """Reference for intersections of monomial ideals, on exponent tuples: the
    minimal pairwise lcms of their generators, monic, in ascending ring order."""
    ring = I.ring
    lcms = {mono_lcm(a.lead_monomial(), b.lead_monomial()) for a in I.gens for b in J.gens}
    minimal = [m for m in lcms if not any(d != m and mono_divides(d, m) for d in lcms)]
    return Ideal(ring, [Polynomial.monomial(ring, m) for m in sorted(minimal, key=ring.key)])


def power_reference(I, n):
    """Reference for idealops.ideal_power, n >= 1: I^n as I^(n-1) * I through
    ideal_product, each factor a fresh Ideal, so nothing is cached."""
    power = Ideal(I.ring, I.gens)
    for _ in range(n - 1):
        power = ideal_product(power, Ideal(I.ring, I.gens))
    return power


def last_escaping_monomial_reference(ring, factors, targets, cap):
    """Reference for groebner._last_escaping_monomial, on the ring's packed
    monomials: each level a set of them, "outside J" a guard-bit test against
    each target, exponents checked once they may pass EXPONENT_LIMIT."""
    packing = ring._packing
    guards = packing.guards
    top = max((max(packing.unpack(m)) for m in factors), default=0)
    safe = EXPONENT_LIMIT // top if top else cap
    level = {0}
    for r in range(1, cap + 1):
        level = {a + g for a in level for g in factors}
        if r > safe:
            for m in level:
                packing.check(m)
        for t in targets:
            level = {m for m in level if (m - t) & guards}
        if not level:
            return r - 1
    return None


def tokens_reference(text):
    """Reference for parsing._Tokens: positions by walking the whitespace
    character by character. Returns (items, end token)."""
    items, line, col, pos = [], 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            break
        ws = text[pos : m.start(1) if m.group(1) else (m.start(2) if m.group(2) else m.start(3))]
        for ch in ws:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        if m.group(1):
            items.append(("num", m.group(1), line, col))
            col += len(m.group(1))
        elif m.group(2):
            items.append(("name", m.group(2), line, col))
            col += len(m.group(2))
        else:
            ch = m.group(3)
            if not ch.isspace():
                items.append(("op", ch, line, col))
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
        pos = m.end()
    return items, ("end", "", line, col)
