"""Buchberger's algorithm, normal forms, and the membership decision kernel.

Everything downstream (colon ideals, saturations, Frobenius criteria,
containment reports) reduces to the three decision procedures here:
ideal_member, ideal_subset, ideal_equal. last_escaping_power decides the
containments I^r <= J for all r at once, which is what nu_e asks;
absorbing_exponent, its variant from a given start, gives a saturation's
stabilization exponent. elimination_basis is the elimination step of
intersections and saturations; poly_divide_exact is the exact division a
colon ends with.

Each Ideal owns the objects computed from it, so that one check computes each
of them once: its reduced Groebner basis, its preimage in S (the ideal itself
over S, one cached Ideal of S over S/(f); the two hold one shared basis), and
the powers idealops.ideal_power has built of it. Nothing is cached across
ideals.

The kernel works on packed monomials (see rings: one int per exponent
vector, int order = monomial order), which is how every Polynomial is stored:
it reads a polynomial's packed terms (_packed) and makes its results from
packed terms (Polynomial._from_packed), with no exponent tuple on either
side. Multiplying monomials is an int add, divisibility a guard-bit test on a
difference, and an exponent past EXPONENT_LIMIT raises ExponentOverflow
instead of wrapping. Reduction and exact division keep the working polynomial
in a dict with a lazy max-heap of negated packed monomials.

Monomial ideals never leave packed ints: idealops takes their products here
(_monomial_product: int adds) and intersections (the minimal lcms of
_minimal_monomials), and so colons by a monomial, which divide such an
intersection exactly; against a reduced basis of monomials, membership is a
divisibility test per term.

Three engines compute a reduced basis; _buchberger picks one by the input.
Monomial generators are a Groebner basis already (every S-polynomial is zero):
the reduced basis is their minimal ones (_minimal_monomials). Homogeneous
generators, two or more of them not monomials, go to F4 (_f4): every pair of
the lowest lcm degree is reduced at once, by numpy row reduction mod p. The
rest go to the pair loop (_pair_loop): one S-pair at a time, least lcm first,
each reduced by _nf_terms. It starts from a seed, a set already known to be a
Groebner basis, and queues no pair inside it: the minimal monomial
generators, or what its caller passes as known (a grevlex saturation passes
I's reduced basis). The split is measured on the benchmark's inputs
(perfbench seed 0, 2-core x86, Python 3.11): F4 took determinantal's 30
homogeneous bases (I^n of 2x2 minors; I^3 has 10 generators of ~460 terms)
from 0.45-0.55 s to 0.09-0.12 s, while its fixed cost per degree loses where
xy - z^2 is the only generator not a monomial (script's 60 such bases: 0.009 s
in the pair loop, 0.034 s in F4). The eliminations (Rabinowitsch and t
tricks) are inhomogeneous, most of script's pair-loop time; of their bases
only the part free of the eliminated block is inter-reduced. Both engines
prune pairs by one Gebauer-Moller update (_Pairs) on ints: the exponent fields
of the leading monomials, whose lcms are a guard-bit fieldwise max; a pair
gets its packed lcm, its place in the queue, only once it survives. The pair
loop's active elements are its minimal ones, so _reduce_basis only reduces
their tails. All tie-breaks are canonical, so runs are reproducible bit for
bit.

ideal_subset takes a batch against a homogeneous basis not all monomials
through F4's symbolic preprocessing and column sweep (_sweep), one matrix per
degree: each row left is a generator's normal form. Below BATCH_MIN_TERMS =
256 generator terms the matrix's fixed cost loses to a loop over
ideal_member. Measured per batch on perfbench seed 910 (2-core x86): script's
33 such batches (2-60 terms, monomials against bases with one binomial) took
0.17-1.2 ms in the matrix and 0.03-0.36 ms in the loop; determinantal's took
0.32-0.39 and 0.05-0.31 ms at 57-90 terms, 0.75-1.1 and 0.7-2.4 ms at
700-750, and 3.6-5.3 and 4.4-25 ms at 4350-4580.

_nf_terms finds the first element of its reducer list whose leading monomial
divides a term. On a list of INDEX_MIN_ELEMENTS = 40 or more it asks a
divisor index (_Reducers: per variable, a bitmask of the elements with each
exponent or less; the divisors are the AND of one mask per variable, the
first is the lowest bit), else it scans the list. Both pick the same element,
so the reduction paths, bases and selected pairs are the same. The index is
built on first use and caught up with the elements added since, so the pair
loop's growing basis indexes each element once. The cutoff was measured as
the seconds inside _nf_terms per pass (2-core x86): with scans of up to 104
elements the index cut them by 40% from a cutoff of 20 to 40 and by 15% from
60; on script, whose ~1200 bases average ~10 elements, cutoffs of 30 or 40
cost nothing, 20 cost 8% and 10 cost 50%, where building the index costs more
than the short scans it replaces.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from contextvars import ContextVar
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import and_, getitem, or_

import numpy as np

from .errors import BudgetExceeded, RingMismatch
from .rings import Polynomial, _packing_for


@dataclass(frozen=True)
class GroebnerBudget:
    """Resource caps of each Groebner basis computation; exceeding one raises
    BudgetExceeded, never truncates. max_pairs caps the S-pairs that one run
    of either engine selects for reduction; max_poly_terms caps the working
    terms of one normal form and the columns of one F4 matrix. A budget holds
    in its with scope (`with GroebnerBudget(max_pairs=50):`) for every
    computation started there, and the enclosing one again after, exception
    or not; outside every scope, DEFAULT_BUDGET. The scopes are a ContextVar's
    (PEP 567), so each thread and asyncio task has its own."""

    max_pairs: int = 100_000
    max_poly_terms: int = 500_000

    def __enter__(self):
        _scopes.set(_scopes.get() + (self,))
        return self

    def __exit__(self, *exc):
        _scopes.set(_scopes.get()[:-1])


DEFAULT_BUDGET = GroebnerBudget()
# the budgets of the enclosing with scopes, innermost (the one in force) last
_scopes = ContextVar("groebner_budgets", default=(DEFAULT_BUDGET,))
BATCH_MIN_TERMS = 256  # ideal_subset's smallest batch for a membership matrix
INDEX_MIN_ELEMENTS = 40  # _nf_terms' smallest basis for the divisor index


class _Reducers(list):
    """Packed reducer triples (lm, lc_inv, tail), in the order _nf_terms
    tries them, with a divisor index on their leading monomials. Per
    variable it keeps the sorted distinct exponents, the bits of the elements
    with each one (_exact), and their running ORs (_masks, after a leading 0):
    masks[bisect_right(exps, a)] are the elements whose exponent there is at
    most a. The elements that divide a monomial are the AND of one mask per
    variable. The index is built on first use and caught up with the
    elements appended since."""

    __slots__ = ("_exps", "_exact", "_masks", "_indexed")

    def __init__(self, items=()):
        super().__init__(items)
        self._exps = self._exact = self._masks = None
        self._indexed = 0

    def divisor_index(self, packing):
        """(exponents, masks) per variable, over every element."""
        if self._masks is None or self._indexed < len(self):
            if self._exps is None:
                self._exps, self._exact = [[] for _ in packing.units], [[] for _ in packing.units]
            for i in range(self._indexed, len(self)):
                for a, exps, exact in zip(packing.unpack(self[i][0]), self._exps, self._exact):
                    k = bisect_left(exps, a)
                    if k < len(exps) and exps[k] == a:
                        exact[k] |= 1 << i
                    else:
                        exps.insert(k, a)
                        exact.insert(k, 1 << i)
            self._masks = [[0, *accumulate(exact, or_)] for exact in self._exact]
            self._indexed = len(self)
        return self._exps, self._masks


class GroebnerBasis:
    """Reduced Groebner basis: monic, auto-reduced, sorted by leading monomial.

    Keeps its elements packed as reducer triples, built once, for every
    normal form taken against it; when they are all monomials, their leading
    monomials, for every membership test against it; and when they are
    homogeneous and not all monomials, the basis _sweep reduces by, for every
    batch of memberships that ideal_subset takes in one matrix.
    """

    __slots__ = ("ring", "elements", "_reducers", "_lms", "_matrix")

    def __init__(self, ring, elements, reducers=None):
        self.ring = ring
        self.elements = tuple(elements)
        self._reducers = reducers if reducers is None else _Reducers(reducers)
        self._lms = self._matrix = None

    def _packed_reducers(self):
        if self._reducers is None:
            self._reducers = _as_reducers(self.ring, self.elements)
        return self._reducers

    def _monomial_lms(self):
        """The packed leading monomials of a basis of monomials, else False."""
        if self._lms is None:
            reducers = self._packed_reducers()
            self._lms = not any(tail for _, _, tail in reducers) and [lm for lm, _, _ in reducers]
        return self._lms

    def _matrix_basis(self):
        """_sweep's (lms, monomials, monic coefficient arrays) of a homogeneous
        basis not all monomials, else False."""
        if self._matrix is None:
            p, reducers = self.ring.p, self._packed_reducers()
            homogeneous = all(g.is_homogeneous() for g in self)
            self._matrix = self._monomial_lms() is False and homogeneous and (
                [lm for lm, _, _ in reducers],
                [[lm, *(m for m, _ in tail)] for lm, _, tail in reducers],
                [np.array([1, *(c * inv % p for _, c in tail)]) for _, inv, tail in reducers])
        return self._matrix

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, GroebnerBasis) and (self.ring, self.elements) == (
            other.ring, other.elements)

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
    idealops.ideal_power builds of it (_powers, from I itself up).
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
    def preimage(self):
        """The preimage as an ideal of S: the ideal itself over S, else one
        Ideal of S, generated by gens and then the relations not among them,
        made on first use. Both hold the same basis."""
        if not self.ring.relations:
            return self
        if self._preimage is None:
            extra = tuple(r for r in self.ring.relations if r not in self.gens)
            self._preimage = Ideal(self.ring.ambient, self.gens + extra)
        return self._preimage

    @property
    def _gb(self):
        """The reduced basis once computed, else None; it lives on the preimage."""
        return self.preimage._basis

    def is_zero(self):
        """True for the zero ideal of the ring: each generator reduces to zero
        modulo the relations (none, or the single f, a Groebner basis of (f))."""
        return not any(normal_form(g, self.ring.relations) for g in self.gens)

    def is_proper(self):
        return not self.groebner_basis().is_unit()

    def groebner_basis(self) -> GroebnerBasis:
        # Computed here, never through preimage.groebner_basis(), so that a
        # wrapper counting calls of this method sees one run per basis.
        preimage = self.preimage
        if preimage._basis is None:
            ambient = self.ring.ambient
            preimage._basis = GroebnerBasis(ambient, *_buchberger(ambient, preimage.gens))
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


def _nf_terms(ring, terms, basis):
    """Full normal form of a packed term stream against [(lm, lc_inv, tail), ...].

    Returns the packed canonical descending term tuple. Each term is reduced
    by the first entry whose leading monomial divides it: the divisor index
    finds it in a _Reducers of INDEX_MIN_ELEMENTS or more, a scan elsewhere.
    basis entries need not be a Groebner basis; the result is then just *a*
    remainder along a deterministic reduction path. Raises ExponentOverflow when a term, given
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
    cap = _scopes.get()[-1].max_poly_terms
    indexed = len(basis) >= INDEX_MIN_ELEMENTS and isinstance(basis, _Reducers)
    if indexed:
        exps, masks = basis.divisor_index(packing)
        unpack, mask, nbytes = packing._struct.unpack, packing._mask, packing._nbytes
    while heap:
        m = -pop(heap)
        c = work.pop(m, 0)
        if not c:
            continue
        if indexed:
            # the divisors of m; the first, as a scan would find it, is the lowest bit
            hits = reduce(and_, map(getitem, masks, map(
                bisect_right, exps, unpack((m & mask).to_bytes(nbytes, "big")))))
            if not hits:
                out.append((m, c))
                continue
            lm, lc_inv, tail = basis[(hits & -hits).bit_length() - 1]
            q = m - lm
        else:
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


def _as_reducers(ring, polys):
    """Packed (lm, lc_inv, tail) triples for monic-or-not polynomials."""
    p = ring.p
    packed = [g._packed for g in polys if g]
    return _Reducers((t[0][0], pow(t[0][1], p - 2, p), t[1:]) for t in packed)


def normal_form(f: Polynomial, G) -> Polynomial:
    """Unique remainder of f modulo a Groebner basis G (idempotent)."""
    ring = f.ring
    reducers = G._packed_reducers() if isinstance(G, GroebnerBasis) else _as_reducers(ring, G)
    terms = _nf_terms(ring, f._packed, reducers)
    return Polynomial._from_packed(ring, terms)


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
    (lm, lc), *tail = g._packed
    inv = pow(lc, p - 2, p)
    work = dict(f._packed)
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
    return Polynomial._from_packed(ring, tuple(out))


# ---------------------------------------------------------------------------
# Buchberger
# ---------------------------------------------------------------------------


def _buchberger(ring, gens, front=0, known=()):
    """Reduced basis of (gens, known) as (polynomials, packed reducer triples):
    monomial generators take _minimal_monomials; homogeneous ones, two or more
    of them not monomials, take _f4; the rest, and any with known (a reduced
    basis it starts from), take _pair_loop, then _reduce_basis. With front >
    0, only the elements whose leading monomial avoids the first front
    variables are kept and reduced."""
    gens = [g for g in gens if g]
    if not gens and not known:
        return (), []
    polys = sum(len(g._packed) > 1 for g in gens) + len(known)
    unpack = ring._packing.unpack
    if not polys:
        free = [g for g in gens if not any(unpack(g._packed[0][0])[:front])]
        return _minimal_monomials(ring, free)
    homogeneous = not known and polys > 1 and all(g.is_homogeneous() for g in gens)
    basis = _f4(ring, gens) if homogeneous else _pair_loop(ring, gens, known)
    if front:
        basis = [b for b in basis if not any(unpack(b[0])[:front])]
    if not homogeneous:
        basis = _reduce_basis(ring, basis)
    return _basis_polys(ring, basis), basis


def elimination_basis(ring, gens, known=()):
    """Reduced basis of (gens, known) ∩ F_p[rest] for a ring under the block
    order [front | rest]: by the elimination theorem (Cox-Little-O'Shea §3.1),
    the elements of the reduced basis of (gens, known) whose leading monomial
    avoids the front block. Only rest-block leading monomials divide a
    rest-block monomial, so the other elements are dropped before
    inter-reduction. known must be a reduced basis under this order; the pair
    loop starts from it."""
    return _buchberger(ring, gens, len(ring.blocks[0]), known)[0]


class _Pairs:
    """Critical pairs of a growing basis under the Gebauer-Moller update.

    queue is a heap of (lcm degree, packed lcm, i, j), i < j. seed(lms,
    monomial), before any add, registers a Groebner basis whose leading
    monomials divide none of each other's: all active, and no pair of two of
    them queued, as its S-polynomial reduces to zero. add(lm, monomial)
    registers element k = len(lms) and prunes at once:
      B_k   an old pair (i, j) goes when lm_k divides its lcm and differs from
            lcm(i, k) and lcm(j, k);
      M, F  a new pair (i, k) goes when the lcm of another new pair divides its
            lcm; of new pairs with one lcm the least i stays;
      then the new survivors with coprime leading monomials (the product
      criterion) or two monomials (S-polynomial zero) go too, after serving as
      witnesses for M and F. Elements whose leading monomial lm_k divides get
      no further pairs; active lists the others, ascending. pop() selects a
      pair for reduction; the selections are what max_pairs caps, of the
      budget in force when the run began.

    The update runs on ints: fields keeps lm & mask per element, the lex
    packing of its exponents, on which _Packing.lcm takes lcm(i, k): for each
    active i, and for B_k the two of a queued pair whose lcm lm_k divides. M
    and F sort the new lcms in lex order, not the ring's; a divisor comes
    first in every monomial order, so the same ones are kept. A coprime pair
    never ties: lcm(i, k) = lm_i * lm_k = lcm(j, k) forces lm_i | lm_j, and
    the active leading monomials divide none of each other. So coprimality is
    tested only for the survivors. A pair entering the queue gets its heap
    key by one unpack and one pack.
    """

    __slots__ = ("packing", "budget", "lms", "fields", "monomial", "active", "queue", "selected")

    def __init__(self, packing):
        self.packing, self.budget = packing, _scopes.get()[-1]
        self.lms, self.fields, self.monomial, self.active, self.queue = [], [], [], [], []
        self.selected = 0

    def pop(self):
        self.selected += 1
        if self.selected > self.budget.max_pairs:
            raise BudgetExceeded(
                f"Buchberger exceeded {self.budget.max_pairs} S-pairs; raise the budget to proceed"
            )
        return heapq.heappop(self.queue)

    def seed(self, lms, monomial):
        self.lms, self.monomial, self.active = list(lms), list(monomial), list(range(len(lms)))
        self.fields = [lm & self.packing._mask for lm in lms]

    def add(self, lm, monomial):
        packing, fields, active = self.packing, self.fields, self.active
        guards, mask, lcm = packing.guards, packing._mask, packing.lcm
        k, x = len(fields), lm & mask
        lcms = {i: lcm(fields[i], x) for i in active}
        queue = [q for q in self.queue if (q[1] - lm) & guards
                 or (q[1] & mask) in (lcm(fields[q[2]], x), lcm(fields[q[3]], x))]
        witnesses = []
        for f, i in sorted((lcms[i], i) for i in active):
            if any(not (f - w) & guards for w in witnesses):
                continue
            witnesses.append(f)
            if f != fields[i] + x and not (monomial and self.monomial[i]):
                e = packing.unpack(f)
                queue.append((sum(e), packing.pack(e), i, k))
        heapq.heapify(queue)
        self.queue = queue
        self.active = [i for i in active if (fields[i] - x) & guards] + [k]
        self.lms.append(lm)
        fields.append(x)
        self.monomial.append(monomial)


def _pair_loop(ring, gens, known=()):
    """Buchberger's algorithm, one S-pair at a time under the normal strategy
    (least lcm first), each reduced by _nf_terms. Returns the active elements,
    not yet reduced: each is reduced by the earlier ones on arrival, so they
    are the ones whose leading monomial no other element's divides. They
    start as the seed (_Pairs.seed): known, a reduced basis, when given, else
    the minimal monomials of gens, which then leave gens. Only the elements
    added after it pass the Gebauer-Moller update."""
    if known:
        seed = [(g._packed[0][0], 1, g._packed[1:]) for g in known]
    else:
        seed = _minimal_monomials(ring, [g for g in gens if len(g._packed) == 1])[1]
        gens = [g for g in gens if len(g._packed) > 1]
    basis = _Reducers(seed)  # all monic: lc_inv = 1
    pairs = _Pairs(ring._packing)
    pairs.seed([lm for lm, _, _ in seed], [not tail for _, _, tail in seed])

    def add(terms):
        basis.append((terms[0][0], 1, terms[1:]))
        pairs.add(terms[0][0], len(terms) == 1)

    for g in gens:
        h = _nf_terms(ring, _monic(ring, g._packed), basis)
        if h:
            add(_monic(ring, h))
    while pairs.queue:
        _, lcm, i, j = pairs.pop()
        h = _nf_terms(ring, _spoly_terms(ring, basis[i], basis[j], lcm), basis)
        if h:
            add(_monic(ring, h))
    return [basis[i] for i in pairs.active]


def _f4(ring, gens):
    """Faugere's F4 (J. Pure Appl. Algebra 139, 1999) for homogeneous
    generators, one degree d at a time, lowest first.

    The rows of degree d are the generators of degree d and both multiples
    (lcm/lm)*g of every pair of lcm degree d, one of which is the reducer of
    the lcm's column. _sweep reduces them by the basis so far; the result is
    brought to reduced row echelon form. Each nonzero row left leads at a
    column no reducer covers and becomes a basis element. It is reduced
    against the whole basis: a monomial a basis leading monomial divides is a
    reducer column, the pivot columns are cleared, and a leading monomial of
    degree d divides no monomial of lower degree. So the elements collected
    are the reduced basis.
    """
    todo = {}  # degree -> generators of that degree, packed, not yet used
    for g in gens:
        todo.setdefault(sum(g.lead_monomial()), []).append(g._packed)
    pairs = _Pairs(ring._packing)
    lms = pairs.lms
    monos, coefs = [], []  # per element: packed monomials, coefficient array
    while pairs.queue or todo:
        d = min([*todo, *(q[0] for q in pairs.queue[:1])])
        reducer = {}  # covered monomial -> (shift, element)
        rows = []  # the other (shift, element) multiples
        while pairs.queue and pairs.queue[0][0] == d:
            _, lcm, i, j = pairs.pop()
            for k in (i, j):
                row = (lcm - lms[k], k)
                if reducer.setdefault(lcm, row) != row and row not in rows:
                    rows.append(row)
        filled = [(0, [m for m, _ in t], [c for _, c in t]) for t in todo.pop(d, ())]
        filled += [(u, monos[k], coefs[k]) for u, k in rows]
        A, met = _sweep(ring, (lms, monos, coefs), filled, reducer)
        for row in _row_echelon(A, ring.p):
            nz = np.flatnonzero(row)
            monos.append([met[i] for i in nz.tolist()])
            coefs.append(row[nz])
            pairs.add(monos[-1][0], len(nz) == 1)
        del A, filled  # this degree's matrix and rows go before the next's

    return sorted((ms[0], 1, tuple(zip(ms[1:], cs[1:].tolist()))) for ms, cs in zip(monos, coefs))


def _sweep(ring, basis, rows, reducer):
    """F4's symbolic preprocessing and column sweep: the rows reduced by the
    basis, as a dense int64 matrix mod p (p < 2^31 keeps products below
    2^63) over the monomials met, descending (returned with it).

    basis is (leading monomials, packed monomials, monic coefficient arrays)
    per element; rows are (shift, packed monomials, coefficients); reducer
    maps a monomial to the multiple (shift, element) that clears it. Each
    monomial met gets a column and, when a leading monomial divides it and it
    has none, one reducer multiple leading there, whose monomials are met in
    turn. The reducers, one per leading monomial, clear their columns from
    the rows, largest column first; what is left of a row has only monomials
    no leading monomial divides. Raises ExponentOverflow on a monomial past
    EXPONENT_LIMIT and BudgetExceeded past max_poly_terms columns.
    """
    p = ring.p
    packing = ring._packing
    guards = packing.guards
    lms, monos, coefs = basis
    column, met, pending = {}, [], list(reducer)
    cap = _scopes.get()[-1].max_poly_terms

    def columns(shift, ms):
        ms = [m + shift for m in ms]
        out = [column.get(m) for m in ms]
        if None in out:
            for pos, m in enumerate(ms):
                if out[pos] is not None:
                    continue
                if m & guards:
                    packing.check(m)
                out[pos] = column[m] = len(met)
                met.append(m)
                if len(met) > cap:
                    raise BudgetExceeded(
                        f"F4 matrix exceeded {cap} columns; raise the budget to proceed")
                if m not in reducer:
                    for k, lm in enumerate(lms):
                        if not (m - lm) & guards:
                            reducer[m] = (m - lm, k)
                            pending.append(m)
                            break
        return out

    filled = [(columns(u, ms), cs) for u, ms, cs in rows]
    reducers = []
    while pending:
        m = pending.pop()
        u, k = reducer[m]
        reducers.append((column[m], np.array(columns(u, monos[k]), np.int32), k))

    order = sorted(range(len(met)), key=met.__getitem__, reverse=True)
    final = np.empty(len(met), dtype=np.intp)  # column as met -> descending
    final[order] = np.arange(len(met))
    A = np.zeros((len(filled), len(met)), dtype=np.int64)
    for r, (cols, cs) in enumerate(filled):
        A[r, final[cols]] = cs
    for c, cols, k in sorted((final[c], cols, k) for c, cols, k in reducers):
        f = A[:, c]
        if f.any():
            cols = final[cols]
            A[:, cols] = (A[:, cols] - np.outer(f, coefs[k])) % p
    return A, [met[i] for i in order]


def _row_echelon(A, p):
    """The nonzero rows of the reduced row echelon form of A mod p (A is
    overwritten), by ascending pivot column."""
    n_rows, n_cols = A.shape
    rank = 0
    while rank < n_rows:
        nonzero = A[rank:] != 0
        lead = np.where(nonzero.any(axis=1), nonzero.argmax(axis=1), n_cols)
        r = rank + int(lead.argmin())
        col = int(lead[r - rank])
        if col == n_cols:
            break
        if r != rank:
            A[[rank, r]] = A[[r, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), p - 2, p) % p
        f = A[:, col].copy()
        f[rank] = 0
        hit = np.flatnonzero(f)
        if hit.size:
            A[hit] = (A[hit] - np.outer(f[hit], A[rank])) % p
        rank += 1
    return A[:rank]


def _minimal_monomials(ring, *factors):
    """Reduced basis, as (polynomials, packed reducers), of the intersection
    of the monomial ideals that the factors, lists of monomials, generate; of
    one factor, its minimal monomials, monic. The intersection is generated
    by the lcms of one monomial from each factor (Miller-Sturmfels,
    Combinatorial Commutative Algebra, ch. 1), taken factor by factor with
    only the minimal ones carried on. They are taken and pruned on the
    exponent fields, m & mask, which are the lex packing, and only the result
    is packed in the ring's order. Ascending lex order, as every monomial
    order, puts a divisor before its multiples, so a monomial is kept when no
    kept one divides it; a divisor tends to sit close below, so the kept ones
    are tried from the latest back. No factors give the zero ideal."""
    packing = ring._packing
    lex = _packing_for(ring.nvars, "lex", None)
    kept = None
    for monos in factors:
        packed = [g._packed[0][0] & packing._mask for g in monos]
        if kept is not None:
            packed = [lex.lcm(a, b) for a in kept for b in packed]
        kept = []
        for m in sorted(set(packed)):
            for k in reversed(kept):
                if not (m - k) & lex.guards:
                    break
            else:
                kept.append(m)
    reduced = sorted((packing.pack(lex.unpack(m)), 1, ()) for m in kept or ())
    return tuple(Polynomial._from_packed(ring, ((m, 1),)) for m, _, _ in reduced), reduced


def _monomial_product(ring, A, B):
    """The products a*b, a in A and b in B, of monomials: exact duplicates
    dropped, ascending by (monomial, coefficient); None unless A and B are all
    monomials. An exponent past EXPONENT_LIMIT raises ExponentOverflow."""
    if any(len(g._packed) != 1 for g in (*A, *B)):
        return None
    p, packing = ring.p, ring._packing
    products = sorted({(ma + mb, ca * cb % p) for ((ma, ca),) in (g._packed for g in A)
                       for ((mb, cb),) in (g._packed for g in B)})
    for m, _ in products:
        packing.check(m)
    return [Polynomial._from_packed(ring, (t,)) for t in products]


def _spoly_terms(ring, fi, fj, lcm):
    """Packed term stream of the S-polynomial of two monic reducer triples."""
    ui, uj, p = lcm - fi[0], lcm - fj[0], ring.p
    return [(m + ui, c) for m, c in fi[2]] + [(m + uj, p - c) for m, c in fj[2]]


def _monic(ring, terms):
    lc = terms[0][1]
    if lc == 1:
        return terms
    p = ring.p
    inv = pow(lc, p - 2, p)
    return tuple((m, (c * inv) % p) for m, c in terms)


def _reduce_basis(ring, basis):
    """Reduce each tail by a basis whose leading monomials divide none of
    each other's, as _pair_loop returns it. The whole basis serves: the terms
    met reducing g's tail are below lm(g), so lm(g) divides none of them."""
    basis = _Reducers(basis)
    return sorted((lm, 1, _nf_terms(ring, tail, basis)) for lm, _, tail in basis)


def _basis_polys(ring, reduced):
    """The polynomials of monic reducer triples."""
    return tuple(Polynomial._from_packed(ring, ((lm, 1),) + tail) for lm, _, tail in reduced)


# ---------------------------------------------------------------------------
# decision procedures
# ---------------------------------------------------------------------------


def ideal_member(f: Polynomial, I: Ideal) -> bool:
    """f in I (for an ideal of S/(f), the class of f), decided by normal form
    against the cached reduced basis of I's preimage, or, when that basis is
    all monomials, by divisibility of each term of f."""
    if f.ring != I.ring.ambient:
        raise RingMismatch("polynomial from a different ring")
    if not f:
        return True
    if not I.preimage.gens:
        return False
    G = I.groebner_basis()
    lms = G._monomial_lms()
    if lms is not False:
        return _divisible(f, lms)
    return not normal_form(f, G)


def ideal_subset(I: Ideal, J: Ideal):
    """(True, None) when I is contained in J, else (False, the first generator
    of I, in I.gens order, outside J). When I and J already hold equal reduced
    bases they are equal, and nothing is reduced. The relations lie in both
    preimages, so only I's gens are tested: homogeneous ones with
    BATCH_MIN_TERMS terms or more in all, against a homogeneous basis not all
    monomials, in one matrix per degree, where a row _sweep leaves nonzero is
    the normal form of a generator outside J; any others one by one with
    ideal_member."""
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    if I._gb is not None and I._gb == J._gb:
        return True, None
    gens = I.gens
    big = sum(len(g._packed) for g in gens) >= BATCH_MIN_TERMS
    basis = big and J.preimage.gens and J.groebner_basis()._matrix_basis()
    if basis and all(g.is_homogeneous() for g in gens):
        degrees = {}
        for i, g in enumerate(gens):
            degrees.setdefault(sum(g.lead_monomial()), []).append(i)
        outside = []
        for batch in degrees.values():
            rows = [(0, *zip(*gens[i]._packed)) for i in batch]
            A, _ = _sweep(J.ring.ambient, basis, rows, {})
            outside += [batch[r] for r in np.flatnonzero(A.any(axis=1)).tolist()]
        bad = gens[min(outside)] if outside else None
    else:
        bad = next((g for g in gens if not ideal_member(g, J)), None)
    return bad is None, bad


def _divisible(f, lms):
    """f in the ideal of the packed monomials lms: each term of f has a
    divisor among them."""
    guards = f.ring._packing.guards
    for m, _ in f._packed:
        for lm in lms:
            if not (m - lm) & guards:
                break
        else:
            return False
    return True


def last_escaping_power(gens, J: Ideal, cap: int):
    """Largest r < cap with (gens)^r not inside J; None when (gens)^cap still
    escapes J.

    Frontier scan: a multiple of an element of J is in J, and
    NF(a*b) = NF(NF(a)*b), so level r+1 is built only from the generators of
    (gens)^r still outside J, each replaced by its nonzero monic normal form,
    duplicates dropped. The scan ends at the first empty level. It reduces
    against J's cached reduced basis (for monomial generators of J's preimage,
    relations included, their minimal ones).
    """
    ring = J.ring.ambient
    factors = [g._packed for g in gens if g]
    basis = J.groebner_basis()._packed_reducers()
    # level 0 is the packed constant 1, which generates (gens)^0
    depth = _frontier_depth(ring, {((0, 1),)}, factors, basis, cap)
    return None if depth is None else depth - 1


def absorbing_exponent(start, gens, J: Ideal, cap: int):
    """Smallest s <= cap with (gens)^s * (start) inside J; None when there is
    none. The frontier scan of last_escaping_power, begun at the normal forms
    of start: for a saturation sat of J by (gens), the stabilization exponent.
    """
    ring = J.ring.ambient
    basis = J.groebner_basis()._packed_reducers()
    level = set()
    for h in start:
        nf = _nf_terms(ring, h._packed, basis)
        if nf:
            level.add(_monic(ring, nf))
    factors = [g._packed for g in gens if g]
    return _frontier_depth(ring, level, factors, basis, cap)


def _frontier_depth(ring, level, factors, basis, cap):
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
                h = _nf_terms(ring, [(m1 + m2, c1 * c2) for m1, c1 in a for m2, c2 in f], basis)
                if h:
                    nxt.add(_monic(ring, h))
        level = nxt
    return None


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    """Equality via identical reduced Groebner bases."""
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    return I.groebner_basis() == J.groebner_basis()
