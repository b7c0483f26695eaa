"""Buchberger's algorithm, normal forms, and the membership decision kernel.

Everything downstream (colon ideals, saturations, Frobenius criteria,
containment reports) reduces to the three decision procedures here:
ideal_member, ideal_subset, ideal_equal. last_escaping_power decides the
containments I^r <= J for all r at once, which is what nu_e asks;
absorbing_exponent, its variant from a given start, gives a saturation's
stabilization exponent. poly_divide_exact is the exact division a colon
ends with.

Each Ideal owns the objects computed from it, so that one check computes each
of them once: its reduced Groebner basis, its preimage in S (the ideal itself
over S, one cached Ideal of S over S/(f); the two hold one shared basis), and
the powers idealops.ideal_power has built of it. Nothing is cached across
ideals.

Implementation notes: the kernel works on packed monomials (see rings: one int
per exponent vector, int order = monomial order). Polynomials are packed once
on the way in -- normal_form's argument, Buchberger's generators, and each
GroebnerBasis's reducers, which the basis keeps -- and unpacked once on the
way out into canonical Polynomials. In between, multiplying monomials is an
int add, divisibility a guard-bit test on a difference, and an exponent past
EXPONENT_LIMIT raises ExponentOverflow instead of wrapping. Reduction keeps the
working polynomial in a dict with a lazy max-heap of negated packed
monomials. Pair selection is the normal strategy (minimal lcm degree first)
with Buchberger's product and chain criteria. Monomial generators are a
Groebner basis already (every S-polynomial is zero), so they skip the pair
loop: the reduced basis is their minimal ones (_minimal_monomials, which also
prunes the monomial intersections of idealops and symbolic). Exact division
runs on the same packed terms and heap. All tie-breaks are canonical, so runs
are reproducible bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import BudgetExceeded, RingMismatch
from .rings import EXPONENT_LIMIT, Polynomial


@dataclass(frozen=True)
class GroebnerBudget:
    """Resource caps; exceeding one raises BudgetExceeded, never truncates."""

    max_pairs: int = 100_000
    max_poly_terms: int = 500_000


DEFAULT_BUDGET = GroebnerBudget()


class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading monomial.

    Keeps its elements packed as reducer triples, built once, for every
    normal form taken against it.
    """

    __slots__ = ("ring", "elements", "_reducers")

    def __init__(self, ring, elements, reducers=None):
        self.ring = ring
        self.elements = tuple(elements)
        self._reducers = reducers

    def _packed_reducers(self):
        if self._reducers is None:
            self._reducers = _as_reducers(self.ring, self.elements)
        return self._reducers

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.ring, self.elements))

    def __repr__(self):
        return f"GroebnerBasis({[str(g) for g in self.elements]})"

    def is_unit(self):
        return len(self.elements) == 1 and self.elements[0].is_constant() and bool(self.elements[0])


class Ideal:
    """Ideal of a ring: a polynomial ring S (a RingDescriptor), or S modulo
    relations (quotient.HypersurfaceRing, S/(f)); ring.ambient is S either way.

    gens are the chosen generators in S, zeros dropped and the relations not
    added, so products and powers do not pile up multiples of f. The ideal is
    carried by its preimage in S, gens plus ring.relations: the cached reduced
    Groebner basis, and with it membership, subset and equality, are the
    preimage's. No gens is the zero ideal, whose preimage is (relations).

    What an ideal owns, each computed at most once: its reduced basis, kept on
    its preimage (which over S is the ideal itself, so one basis serves both);
    over S/(f) its preimage, an Ideal of S made on first use; and the powers
    idealops.ideal_power builds of it (_powers, from the square up).
    """

    __slots__ = ("ring", "gens", "_basis", "_preimage", "_powers")

    def __init__(self, ring, gens=()):
        gens = tuple(gens)
        ambient = ring.ambient
        for g in gens:
            if g.ring != ambient:
                raise RingMismatch("generator from a different ring")
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        self._basis = None
        self._preimage = None
        self._powers = None

    @classmethod
    def unit(cls, ring):
        return cls(ring, (Polynomial.one(ring.ambient),))

    @property
    def preimage_gens(self):
        """Generators of the preimage in S: gens, then the relations not among them."""
        return self.gens + tuple(r for r in self.ring.relations if r not in self.gens)

    @property
    def preimage(self):
        """The preimage as an ideal of S: the ideal itself over S, else one
        Ideal(S, preimage_gens) made on first use. Both hold the same basis."""
        if not self.ring.relations:
            return self
        if self._preimage is None:
            self._preimage = Ideal(self.ring.ambient, self.preimage_gens)
        return self._preimage

    @property
    def _gb(self):
        """The reduced basis once computed, else None; it lives on the preimage."""
        return self.preimage._basis

    def is_zero(self):
        """True for the zero ideal of the ring: each generator reduces to zero
        modulo the relations (none, or the single f, a Groebner basis of (f))."""
        return not any(normal_form(g, self.ring.relations) for g in self.gens)

    def is_proper(self, budget=None):
        return not self.groebner_basis(budget).is_unit()

    def groebner_basis(self, budget=None) -> GroebnerBasis:
        # Computed here, never through preimage.groebner_basis(), so that a
        # wrapper counting calls of this method sees one run per basis.
        preimage = self.preimage
        if preimage._basis is None:
            ambient = self.ring.ambient
            preimage._basis = GroebnerBasis(
                ambient, *_buchberger(ambient, preimage.gens, budget or DEFAULT_BUDGET)
            )
        return preimage._basis

    def with_gb(self, gb: GroebnerBasis):
        """Attach a known basis (e.g. carried through a ring translation); the
        preimage holds it, so the ideal and its preimage stay in step."""
        self.preimage._basis = gb
        return self

    def __repr__(self):
        return f"Ideal({[str(g) for g in self.gens]})" + "".join(
            f" + ({r})" for r in self.ring.relations
        )


# ---------------------------------------------------------------------------
# reduction engine
# ---------------------------------------------------------------------------


def _nf_terms(ring, terms, basis, budget):
    """Full normal form of a packed term stream against [(lm, lc_inv, tail), ...].

    Returns the packed canonical descending term tuple. basis entries need not
    be a Groebner basis; the result is then just *a* remainder along a
    deterministic reduction path. Raises ExponentOverflow when a term, given
    or produced, has an exponent past EXPONENT_LIMIT.
    """
    p = ring.p
    packing = ring._packing
    guards = packing.guards
    work = {}
    get = work.get
    for m, c in terms:
        if m & guards:
            packing.check(m)
        v = (get(m, 0) + c) % p
        if v:
            work[m] = v
        else:
            work.pop(m, None)
    heap = [-m for m in work]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    out = []
    cap = budget.max_poly_terms
    while heap:
        m = -pop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        for lm, lc_inv, tail in basis:
            q = m - lm
            if not q & guards:
                break
        else:
            out.append((m, c))
            continue
        minus = p - (c * lc_inv) % p
        for m2, c2 in tail:
            mm = m2 + q
            if mm & guards:
                packing.check(mm)
            v = get(mm)
            if v is None:
                # a fresh term: minus * c2 is a unit mod p, so never zero
                work[mm] = minus * c2 % p
                push(heap, -mm)
            else:
                v = (v + minus * c2) % p
                if v:
                    work[mm] = v
                else:
                    del work[mm]
        if len(work) > cap:
            raise BudgetExceeded(
                f"normal form exceeded {cap} working terms; raise the budget to proceed"
            )
    return tuple(out)


def _pack_terms(ring, terms):
    pack = ring._packing.pack
    return tuple((pack(m), c) for m, c in terms)


def _as_reducers(ring, polys):
    """Packed (lm, lc_inv, tail) triples for monic-or-not polynomials."""
    p = ring.p
    out = []
    for g in polys:
        if not g:
            continue
        (lm, lc), *tail = _pack_terms(ring, g.terms)
        out.append((lm, pow(lc, p - 2, p), tuple(tail)))
    return out


def normal_form(f: Polynomial, G, budget=None) -> Polynomial:
    """Unique remainder of f modulo a Groebner basis G (idempotent)."""
    ring = f.ring
    if isinstance(G, GroebnerBasis):
        reducers = G._packed_reducers()
    else:
        reducers = _as_reducers(ring, G)
    terms = _nf_terms(ring, _pack_terms(ring, f.terms), reducers, budget or DEFAULT_BUDGET)
    unpack = ring._packing.unpack
    return Polynomial(ring, tuple((unpack(m), c) for m, c in terms), canonical=True)


def poly_divide_exact(f: Polynomial, g: Polynomial) -> Polynomial:
    """f/g when g divides f exactly; raises ArithmeticError otherwise.

    Runs on packed terms, the remainder kept as in _nf_terms: a dict with a
    lazy max-heap of negated packed monomials. No term of an exact quotient
    times g passes EXPONENT_LIMIT, so a guard bit set in a quotient term or in
    its product with g means the division is inexact.
    """
    if f.ring != g.ring:
        raise RingMismatch("polynomials from different rings")
    if not g:
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    p, guards = ring.p, ring._packing.guards
    (lm, lc), *tail = _pack_terms(ring, g.terms)
    inv = pow(lc, p - 2, p)
    work = dict(_pack_terms(ring, f.terms))
    heap = [-m for m in work]
    heapq.heapify(heap)
    out = []
    while heap:
        m = -heapq.heappop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        q = m - lm
        if q & guards or any((m2 + q) & guards for m2, _ in tail):
            raise ArithmeticError("inexact polynomial division (internal bug signal)")
        qc = c * inv % p
        out.append((q, qc))
        for m2, c2 in tail:
            mm = m2 + q
            if mm not in work:
                heapq.heappush(heap, -mm)
            v = (work.pop(mm, 0) - qc * c2) % p
            if v:
                work[mm] = v
    unpack = ring._packing.unpack
    return Polynomial(ring, tuple((unpack(m), c) for m, c in out), canonical=True)


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def _buchberger(ring, gens, budget):
    """Reduced basis of (gens) as (polynomials, packed reducer triples)."""
    packing = ring._packing
    if not any(gens):
        return (), []
    if all(len(g.terms) <= 1 for g in gens):
        return _minimal_monomials(ring, [g.terms[0][0] for g in gens if g])

    basis = []  # packed reducer triples (lm, lc_inv=1, tail); all monic
    lms = []
    exps = []  # leading exponent tuples, for the lcm of each new pair
    pairs = []  # heap of (lcm degree, packed lcm, i, j)
    pending = set()

    def add(terms):
        k = len(basis)
        lm = terms[0][0]
        basis.append((lm, 1, terms[1:]))
        lms.append(lm)
        exp = packing.unpack(lm)
        exps.append(exp)
        for i in range(k):
            lcm = tuple(map(max, exps[i], exp))
            heapq.heappush(pairs, (sum(lcm), packing.pack(lcm), i, k))
            pending.add((i, k))

    for g in gens:
        if g:
            h = _nf_terms(ring, _pack_terms(ring, g.monic().terms), basis, budget)
            if h:
                add(_monic(ring, h))

    guards = packing.guards
    processed = 0
    while pairs:
        _, lcm, i, j = heapq.heappop(pairs)
        if (i, j) not in pending:
            continue
        pending.discard((i, j))
        processed += 1
        if processed > budget.max_pairs:
            raise BudgetExceeded(
                f"Buchberger exceeded {budget.max_pairs} S-pairs; raise the budget to proceed"
            )
        # product criterion: coprime leading monomials
        if lcm == lms[i] + lms[j]:
            continue
        # chain criterion: some lm_k divides the lcm and both side pairs are done
        if _chain(lms, pending, i, j, lcm, guards):
            continue
        s = _spoly_terms(ring, basis[i], basis[j], lcm)
        h = _nf_terms(ring, s, basis, budget)
        if h:
            add(_monic(ring, h))

    return _reduce_basis(ring, basis, budget)


def _minimal_monomials(ring, monos):
    """Reduced basis of a monomial ideal without S-pairs: its minimal
    generators, monic. Ascending packed order puts every divisor of a monomial
    before it, so a monomial is kept when no kept one divides it."""
    packing = ring._packing
    guards = packing.guards
    kept = []
    for m in sorted(set(map(packing.pack, monos))):
        if m & guards:
            packing.check(m)
        if all((m - k) & guards for k in kept):
            kept.append(m)
    unpack = packing.unpack
    polys = tuple(Polynomial(ring, ((unpack(m), 1),), canonical=True) for m in kept)
    return polys, [(m, 1, ()) for m in kept]


def _chain(lms, pending, i, j, lcm, guards):
    for k, lm in enumerate(lms):
        if (lcm - lm) & guards or k == i or k == j:
            continue
        a = (i, k) if i < k else (k, i)
        b = (j, k) if j < k else (k, j)
        if a not in pending and b not in pending:
            return True
    return False


def _spoly_terms(ring, fi, fj, lcm):
    """Packed term stream of the S-polynomial of two monic reducer triples."""
    lmi, _, taili = fi
    lmj, _, tailj = fj
    ui = lcm - lmi
    uj = lcm - lmj
    p = ring.p
    out = [(m + ui, c) for m, c in taili]
    out.extend((m + uj, p - c) for m, c in tailj)
    return out


def _monic(ring, terms):
    lc = terms[0][1]
    if lc == 1:
        return terms
    p = ring.p
    inv = pow(lc, p - 2, p)
    return tuple((m, (c * inv) % p) for m, c in terms)


def _reduce_basis(ring, basis, budget):
    divides = ring._packing.divides
    lms = [b[0] for b in basis]
    keep = []
    for i, lm in enumerate(lms):
        redundant = False
        for j, other in enumerate(lms):
            if i == j:
                continue
            if divides(other, lm) and (other != lm or j < i):
                redundant = True
                break
        if not redundant:
            keep.append(i)

    kept = [basis[i] for i in keep]
    reduced = []
    for idx, (lm, _, tail) in enumerate(kept):
        others = [kept[k] for k in range(len(kept)) if k != idx]
        reduced.append((lm, 1, _nf_terms(ring, tail, others, budget)))

    reduced.sort()
    # a monomial recurs across basis elements: unpack it once, share the tuple
    unpack = ring._packing.unpack
    exps = {}
    polys = []
    for lm, _, tail in reduced:
        terms = ((lm, 1),) + tail
        for m, _ in terms:
            if m not in exps:
                exps[m] = unpack(m)
        polys.append(Polynomial(ring, tuple((exps[m], c) for m, c in terms), canonical=True))
    return tuple(polys), reduced


# ---------------------------------------------------------------------------
# decision procedures
# ---------------------------------------------------------------------------


def groebner_basis(I: Ideal, budget=None) -> GroebnerBasis:
    return I.groebner_basis(budget)


def ideal_member(f: Polynomial, I: Ideal, budget=None) -> bool:
    """f in I (for an ideal of S/(f), the class of f), decided by normal form
    against the cached reduced basis of I's preimage."""
    if f.ring != I.ring.ambient:
        raise RingMismatch("polynomial from a different ring")
    if not f:
        return True
    if not I.preimage_gens:
        return False
    return not normal_form(f, I.groebner_basis(budget), budget)


def ideal_subset(I: Ideal, J: Ideal, budget=None):
    """(True, None) when I is contained in J, else (False, witness generator).

    The relations lie in both preimages, so only I's gens are tested.
    """
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    for g in I.gens:
        if not ideal_member(g, J, budget):
            return False, g
    return True, None


def last_escaping_power(gens, J: Ideal, cap: int, budget=None):
    """Largest r < cap with (gens)^r not inside J; None when (gens)^cap still
    escapes J.

    Frontier scan: a multiple of an element of J is in J, and
    NF(a*b) = NF(NF(a)*b), so level r+1 is built only from the generators of
    (gens)^r still outside J, each replaced by its nonzero monic normal form,
    duplicates dropped. The scan ends at the first empty level. It reduces
    against J's cached reduced basis (for monomial generators of J's preimage,
    relations included, their minimal ones). When gens and that basis are all
    monomials, a level is a set of packed monomials and "outside J" is a
    guard-bit test against each basis monomial.
    """
    ring = J.ring.ambient
    budget = budget or DEFAULT_BUDGET
    basis = J.groebner_basis(budget)._packed_reducers()
    factors = [_pack_terms(ring, g.terms) for g in gens if g]
    if all(len(f) == 1 for f in factors) and not any(tail for _, _, tail in basis):
        return _last_escaping_monomial(ring, [f[0][0] for f in factors], [b[0] for b in basis], cap)
    # level 0 is the packed constant 1, which generates (gens)^0
    depth = _frontier_depth(ring, {((0, 1),)}, factors, basis, cap, budget)
    return None if depth is None else depth - 1


def absorbing_exponent(start, gens, J: Ideal, cap: int, budget=None):
    """Smallest s <= cap with (gens)^s * (start) inside J; None when there is
    none. The frontier scan of last_escaping_power, begun at the normal forms
    of start: for a saturation sat of J by (gens), the stabilization exponent.
    """
    ring = J.ring.ambient
    budget = budget or DEFAULT_BUDGET
    basis = J.groebner_basis(budget)._packed_reducers()
    level = set()
    for h in start:
        nf = _nf_terms(ring, _pack_terms(ring, h.terms), basis, budget)
        if nf:
            level.add(_monic(ring, nf))
    factors = [_pack_terms(ring, g.terms) for g in gens if g]
    return _frontier_depth(ring, level, factors, basis, cap, budget)


def _frontier_depth(ring, level, factors, basis, cap, budget):
    """Index of the first empty level, if it is at most cap, else None. Level
    r+1 holds the nonzero monic normal forms of a*f, a in level r and f in
    factors (packed term tuples), against the packed basis."""
    for r in range(cap + 1):
        if not level:
            return r
        if r == cap:
            break
        nxt = set()
        for a in level:
            for f in factors:
                h = _nf_terms(ring, [(m1 + m2, c1 * c2) for m1, c1 in a for m2, c2 in f], basis, budget)
                if h:
                    nxt.add(_monic(ring, h))
        level = nxt
    return None


def _last_escaping_monomial(ring, factors, targets, cap):
    """last_escaping_power on packed monomials: J is generated by targets."""
    packing = ring._packing
    guards = packing.guards
    # up to level `safe` no exponent can pass EXPONENT_LIMIT
    top = max((max(packing.unpack(m)) for m in factors), default=0)
    safe = EXPONENT_LIMIT // top if top else cap
    level = {0}
    for r in range(1, cap + 1):
        level = {a + g for a in level for g in factors}
        if r > safe:
            for m in level:
                if m & guards:
                    packing.check(m)
        for t in targets:
            level = {m for m in level if (m - t) & guards}
        if not level:
            return r - 1
    return None


def ideal_equal(I: Ideal, J: Ideal, budget=None) -> bool:
    """Equality via identical reduced Groebner bases."""
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    return I.groebner_basis(budget) == J.groebner_basis(budget)
