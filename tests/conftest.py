import heapq
import itertools
import random

import pytest

import froblab.idealops as idealops
from froblab.idealops import scale_ideal
from froblab import groebner
from froblab import (
    HypersurfaceRing,
    Ideal,
    Ie_maximal,
    Polynomial,
    ideal_colon,
    ideal_equal,
    ideal_member,
    ideal_product,
    ideal_subset,
    make_ring,
    parse_poly,
)
from froblab.errors import BudgetExceeded, ExponentOverflow
from froblab.parsing import _TOKEN
from froblab.rings import EXPONENT_LIMIT, _monic


def mono_div(a, b):
    """a/b as an exponent tuple, or None when b does not divide a."""
    d = tuple(x - y for x, y in zip(a, b))
    return None if min(d, default=0) < 0 else d


def mono_lcm(a, b):
    return tuple(map(max, a, b))


def mono_divides(a, b):
    """True when a | b componentwise."""
    return all(x <= y for x, y in zip(a, b))


def _grevlex_key(m):
    return (sum(m), tuple(-e for e in reversed(m)))


def order_key(ring, m):
    """Sort key of an exponent tuple, ascending in the ring's monomial order:
    the reference that the packed int order is checked against."""
    if ring.order == "grevlex":
        return _grevlex_key(m)
    if ring.order == "lex":
        return m
    ends = list(itertools.accumulate(map(len, ring.blocks)))
    return tuple(_grevlex_key(m[e - len(b):e]) for b, e in zip(ring.blocks, ends))


def sorted_reference(polys):
    """Nonzero polys ascending by leading monomial in the ring's order, then by
    their terms as exponent tuples: the reference for rings.sorted_canonical."""
    return sorted(polys, key=lambda g: (order_key(g.ring, g.lead_monomial()), g.terms))


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
    assert monos == sorted(set(monos), key=lambda m: order_key(I.ring, m)), I
    assert not any(a != b and mono_divides(a, b) for a in monos for b in monos), I


def lcm_intersect_reference(I, J):
    """Reference for intersections of monomial ideals, on exponent tuples: the
    minimal pairwise lcms of their generators, monic, in ascending ring order."""
    ring = I.ring
    lcms = {mono_lcm(a.lead_monomial(), b.lead_monomial()) for a in I.gens for b in J.gens}
    minimal = [m for m in lcms if not any(d != m and mono_divides(d, m) for d in lcms)]
    minimal.sort(key=lambda m: order_key(ring, m))
    return Ideal(ring, [Polynomial.monomial(ring, m) for m in minimal])


def lift_reference(poly, ring2, pad):
    """poly in ring2, whose variables are poly's behind pad new ones in front,
    through exponent tuples: the reference for Polynomial.in_ring."""
    zeros = (0,) * pad
    return Polynomial(ring2, [(zeros + m, c) for m, c in poly.terms])


def drop_reference(poly, ring, pad):
    """poly, free of its first pad variables, in ring, which lacks them."""
    return Polynomial(ring, [(m[pad:], c) for m, c in poly.terms])


def permute_reference(poly, ring2, source):
    """poly in ring2, whose i-th variable is poly's variable source[i]."""
    return Polynomial(ring2, [(tuple(m[i] for i in source), c) for m, c in poly.terms])


def power_reference(I, n):
    """Reference for idealops.ideal_power, n >= 1: I^n as I^(n-1) * I through
    ideal_product, each factor a fresh Ideal, so nothing is cached."""
    power = Ideal(I.ring, I.gens)
    for _ in range(n - 1):
        power = ideal_product(power, Ideal(I.ring, I.gens))
    return power


def trace_colon_reference(J, e):
    """Reference for frobenius.hypersurface_Ie over S/(f): Fedder's trace colon
    ((J_S^[q] + (f^q)) : f^(q-1)), q = p^e, as one colon by f^(q-1) in S."""
    (f,), S = J.ring.relations, J.ring.ambient
    base = Ideal(S, [g.frobenius(e) for g in J.gens] + [f.frobenius(e)])
    return Ideal(J.ring, ideal_colon(base, f ** (S.p**e - 1)).gens)


def recheck_splitting_witness(Q, e, r):
    """Certificate check for a condition-(2) F-purity witness: r*Q inside I_e(Q) and r
    outside I_e(m). I_e(Q) is Fedder's trace colon, built here and not by the recursion."""
    ok, _ = ideal_subset(scale_ideal(r, Q), trace_colon_reference(Q, e))
    return ok and not ideal_member(r, Ie_maximal(Q.ring, e))


def last_escaping_monomial_reference(ring, factors, targets, cap):
    """Largest r < cap with (factors)^r not inside the ideal of targets, else
    None: the reference for nu_e of monomial ideals (targets m^[q]), on the
    ring's packed monomials: each level a set of them, "outside J" a guard-bit
    test against each target, exponents checked once they may pass
    EXPONENT_LIMIT."""
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


def nf_reference(ring, terms, basis):
    """Reference for groebner._nf_terms: the same reduction path on exponent
    tuples in a plain dict. The largest term (by order_key) goes first; the
    first entry of basis, (lm, lc_inv, tail) packed, whose leading monomial
    divides it clears it. An exponent past EXPONENT_LIMIT, given or produced,
    raises ExponentOverflow. Packed terms in, packed terms out."""
    p, unpack, pack = ring.p, ring._packing.unpack, ring._packing.pack
    basis = [(unpack(lm), lc_inv, [(unpack(m), c) for m, c in tail]) for lm, lc_inv, tail in basis]
    work, out = {}, []

    def add(m, c):
        if max(m) > EXPONENT_LIMIT:
            raise ExponentOverflow("reference")
        work[m] = (work.get(m, 0) + c) % p
        if not work[m]:
            del work[m]

    for m, c in terms:
        add(unpack(m), c)
    while work:
        m = max(work, key=lambda e: order_key(ring, e))
        c = work.pop(m)
        for lm, lc_inv, tail in basis:
            q = mono_div(m, lm)
            if q is not None:
                for m2, c2 in tail:
                    add(tuple(map(sum, zip(m2, q))), -c * lc_inv * c2)
                break
        else:
            out.append((pack(m), c))
    return tuple(out)


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


class PairsReference:
    """Reference for groebner._Pairs: the same Gebauer-Moller update on
    exponent tuples, each lcm(i, k) taken for every earlier element as a
    fieldwise max and packed in the ring's order, so that M and F sort the
    new lcms in the ring's order."""

    __slots__ = ("packing", "budget", "lms", "exps", "monomial", "active", "queue", "selected")

    def __init__(self, packing):
        self.packing, self.budget = packing, groebner._scopes.get()[-1]
        self.lms, self.exps, self.monomial, self.active, self.queue = [], [], [], [], []
        self.selected = 0

    def pop(self):
        self.selected += 1
        if self.selected > self.budget.max_pairs:
            raise BudgetExceeded(
                f"Buchberger exceeded {self.budget.max_pairs} S-pairs; raise the budget to proceed"
            )
        return heapq.heappop(self.queue)

    def add(self, lm, monomial):
        packing, lms, active = self.packing, self.lms, self.active
        guards, pack = packing.guards, packing.pack
        k = len(lms)
        exp = packing.unpack(lm)
        lcms = [tuple(map(max, e, exp)) for e in self.exps]
        lcms = [(sum(e), pack(e)) for e in lcms]
        queue = [
            q for q in self.queue
            if (q[1] - lm) & guards or q[1] == lcms[q[2]][1] or q[1] == lcms[q[3]][1]
        ]
        witnesses = []
        for lcm, shared, i in sorted((lcms[i][1], lcms[i][1] != lms[i] + lm, i) for i in active):
            if any(not (lcm - w) & guards for w in witnesses):
                continue
            witnesses.append(lcm)
            if shared and not (monomial and self.monomial[i]):
                queue.append((lcms[i][0], lcm, i, k))
        heapq.heapify(queue)
        self.queue = queue
        self.active = [i for i in active if (lms[i] - lm) & guards] + [k]
        lms.append(lm)
        self.exps.append(exp)
        self.monomial.append(monomial)


def reduced_pair_loop_reference(ring, gens):
    """Reference for groebner._reduce_basis of groebner._pair_loop: the pair
    loop on PairsReference, which keeps every element it adds; the elements
    whose leading monomial another's divides are dropped (of equal ones, all
    but the first) before each tail is reduced by the others."""
    basis = []
    pairs = PairsReference(ring._packing)

    def add(terms):
        basis.append((terms[0][0], 1, terms[1:]))
        pairs.add(terms[0][0], len(terms) == 1)

    for g in gens:
        h = groebner._nf_terms(ring, _monic(ring, g._packed), basis)
        if h:
            add(_monic(ring, h))
    while pairs.queue:
        _, lcm, i, j = pairs.pop()
        spoly = groebner._spoly_terms(ring, basis[i], basis[j], lcm)
        h = groebner._nf_terms(ring, spoly, basis)
        if h:
            add(_monic(ring, h))
    guards = ring._packing.guards
    kept = [b for i, b in enumerate(basis) if not any(
        j != i and not (b[0] - o[0]) & guards and (o[0] != b[0] or j < i)
        for j, o in enumerate(basis))]
    return sorted((lm, 1, groebner._nf_terms(ring, tail, kept[:k] + kept[k + 1:]))
                  for k, (lm, _, tail) in enumerate(kept))
