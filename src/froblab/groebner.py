"""Buchberger's algorithm, normal forms, and the membership decision kernel.

Everything downstream (colon ideals, saturations, Frobenius criteria,
containment reports) reduces to the three decision procedures here:
ideal_member, ideal_subset, ideal_equal. last_escaping_power decides the
containments I^r <= J for all r at once, which is what nu_e asks;
absorbing_exponent, its variant from a given start, gives a saturation's
stabilization exponent. elimination_basis is the elimination step of
intersections and saturations; poly_divide_exact is the exact division a
colon ends with.

The kernel works on packed monomials (see rings), which is how every
Polynomial is stored: it reads a polynomial's packed terms (_packed) and makes
its results through Polynomial._from_packed, and monomial ideals never leave
packed ints. All tie-breaks are canonical, so runs are reproducible bit for
bit.
"""

from __future__ import annotations

import heapq
import threading
from bisect import bisect_left, bisect_right
from contextvars import ContextVar
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, combinations_with_replacement, compress
from operator import and_, getitem, or_
from struct import Struct

from .errors import BudgetExceeded, RingMismatch
from .rings import Polynomial, _monic, _packing_for


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

    def __post_init__(self):
        for name in ("max_pairs", "max_poly_terms"):
            if (cap := getattr(self, name)) < 1:
                raise ValueError(f"{name} must be at least 1, not {cap}")

    def __enter__(self):
        _scopes.set(_scopes.get() + (self,))
        return self

    def __exit__(self, *exc):
        _scopes.set(_scopes.get()[:-1])


DEFAULT_BUDGET = GroebnerBudget()
# the budgets of the enclosing with scopes, innermost (the one in force) last
_scopes = ContextVar("groebner_budgets", default=(DEFAULT_BUDGET,))
_local = threading.local()  # per thread: tables, packing -> its F4 _Monomials
# _nf_terms' smallest basis for the divisor index. Measured as the seconds
# inside _nf_terms per pass (2-core x86): with scans of up to 104 elements the
# index cut them by 40% from a cutoff of 20 to 40 and by 15% from 60; on
# script, whose ~1200 bases average ~10 elements, cutoffs of 30 or 40 cost
# nothing, 20 cost 8% and 10 cost 50%, where building the index costs more
# than the short scans it replaces.
INDEX_MIN_ELEMENTS = 40


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
    normal form taken against it; and when they are all monomials, their
    leading monomials, for every membership test against it.
    """

    __slots__ = ("ring", "elements", "_reducers", "_lms")

    def __init__(self, ring, elements, reducers=None):
        self.ring = ring
        self.elements = tuple(elements)
        self._reducers = reducers if reducers is None else _Reducers(reducers)
        self._lms = None

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
    idealops.ideal_power builds of it (_powers: the Ideals asked for, and the
    levels they are made from). Nothing is cached across ideals.
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

    A single term against a scanned basis stays a single term while each
    reducer that fires has at most one tail term, so it is chased in a plain
    loop, with no dict and no heap, until it is irreducible, zero, or meets a
    longer tail; the loop below then takes it on. Both take the same divisor
    and coefficients, and a chain never has more than one working term.
    """
    p = ring.p
    packing = ring._packing
    guards = packing.guards
    indexed = len(basis) >= INDEX_MIN_ELEMENTS and isinstance(basis, _Reducers)
    if len(terms) == 1 and not indexed:
        ((m, c),) = terms
        if m & guards:
            packing.check(m)
        c %= p
        while c:
            for lm, lc_inv, tail in basis:
                q = m - lm
                if not q & guards:
                    break
            else:
                return ((m, c),)
            if len(tail) > 1:
                break
            if not tail:
                return ()
            ((m2, c2),) = tail
            m, c = m2 + q, (p - c * lc_inv % p) * c2 % p
            if m & guards:
                packing.check(m)
        terms = ((m, c),)
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
    # F4 takes two or more generators not monomials: on perfbench seed 0 (2-core
    # x86, Python 3.11) determinantal's 30 bases of I^n of 2x2 minors took
    # 0.09-0.12 s in F4 and 0.45-0.55 s in the pair loop, while F4's fixed cost
    # per degree loses where xy - z^2 is the only one (script's 58 such bases:
    # 0.011 s in F4, 0.004 s in the pair loop)
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
    packing of its exponents, on which _Packing.lcm takes lcm(i, k) and the
    guard bits test divisibility. M and F sort the new (lcm, i) on those ints,
    lex and not the ring's order, and keep each lcm that no lcm kept before it
    divides: a divisor sorts first in every monomial order, so the kept ones
    are the minimal lcms, of equal ones the least i (Gebauer-Moller, J.
    Symbolic Comput. 6, 1988). An add takes one lcm per active element, but a
    monomial add none with a monomial j: lcm(j, k) divides lcm(i, k) iff lm_j
    does, so j witnesses by lm_j, and lcm(j, k) is taken only when it may tie
    with a lesser i. On the F5 cone's I_4(m), 1424 adds against 573 active
    elements and 3.6 kept lcms on average, add took 1.2 of 1.5 s. A pair
    entering the queue gets its heap key by one unpack and one pack.
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
        packing, fields, active, mono = self.packing, self.fields, self.active, self.monomial
        guards, mask, lcm = packing.guards, packing._mask, packing.lcm
        k, x = len(fields), lm & mask
        queue = [q for q in self.queue if (q[1] - lm) & guards
                 or (q[1] & mask) in (lcm(fields[q[2]], x), lcm(fields[q[3]], x))]
        raw = [j for j in active if mono[j]] if monomial else ()
        witnesses = []
        for f, i in sorted([(lcm(fields[i], x), i) for i in active if not (monomial and mono[i])]):
            for w in witnesses:
                if not (f - w) & guards:
                    break
            else:
                for j in raw:
                    if not (f - fields[j]) & guards and (j < i or lcm(fields[j], x) != f):
                        break
                else:
                    witnesses.append(f)
                    if f != fields[i] + x:
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
        seed = _as_reducers(ring, known)
    else:
        lms = [g._packed[0][0] for g in gens if len(g._packed) == 1]
        seed = [(m, 1, ()) for m in _minimal(ring._packing.guards, lms)]
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


class _Monomials(dict):
    """F4's monomial table of one packing (msolve's hashed monomials,
    Berthomieu-Eder-Safey El Din, ISSAC 2021): packed monomial -> id, from 1,
    entered on first lookup after its range check; packed maps an id back,
    and times[v][id] is the id of that monomial times x_v, 0 until asked."""

    __slots__ = ("packing", "packed", "times")

    def __init__(self, packing):
        self.packing, self.packed, self.times = packing, [None], [[0] for _ in packing.units]

    def __missing__(self, m):
        self.packing.check(m)
        self[m] = i = len(self.packed)
        self.packed.append(m)
        for t in self.times:
            t.append(0)
        return i

    def multiple(self, shift, ids):
        """The ids of the monomials of ids times the packed monomial shift: for
        a shift of degree 2 or less, by the times tables, one variable at a
        time; past that one lookup per term, so no partial product enters."""
        exps, packed = self.packing.unpack(shift), self.packed
        if sum(exps) > 2:
            return [self[packed[i] + shift] for i in ids]
        for v, e in enumerate(exps):
            t = self.times[v]
            for _ in range(e):
                ids = [t[i] or self.times_x(v, i) for i in ids]
        return ids

    def times_x(self, v, i):
        """The id of monomial i times x_v, entered and recorded on first use."""
        self.times[v][i] = j = self[self.packed[i] + self.packing.units[v]]
        return j


def _f4(ring, gens):
    """Faugere's F4 (J. Pure Appl. Algebra 139, 1999) for homogeneous
    generators, one degree d at a time, lowest first.

    The rows of degree d are the generators of degree d and both multiples
    (lcm/lm)*g of every pair of lcm degree d, one of which is the reducer of
    the lcm's column. _sweep brings them and the reducers to reduced row
    echelon form; each new row leads at a column no reducer covers and
    becomes a basis element. It is reduced against the whole basis: a
    monomial a basis leading monomial divides is a reducer column, the pivot
    columns are cleared, and a leading monomial of degree d divides no
    monomial of lower degree. So the elements collected are the reduced basis.
    Elements hold ids of a _Monomials table, kept per packing and thread
    across runs; the basis returned is packed. Before each degree, when the
    thread's tables hold more than max_poly_terms monomials together, all
    are dropped and the basis is renumbered in a new one.
    """
    tables = vars(_local).setdefault("tables", {})  # this thread's, by packing
    table = tables.setdefault(ring._packing, _Monomials(ring._packing))
    todo = {}  # degree -> generators of that degree not yet used, packed
    for g in gens:
        todo.setdefault(sum(g.lead_monomial()), []).append(tuple(zip(*g._packed)))
    pairs = _Pairs(ring._packing)
    lms, elements = pairs.lms, []  # per element: monomial ids, coefficients
    while pairs.queue or todo:
        if sum(map(len, tables.values())) > _scopes.get()[-1].max_poly_terms:
            tables.clear()
            old, table = table.packed, tables.setdefault(ring._packing, _Monomials(ring._packing))
            elements = [([table[old[i]] for i in ids], cs) for ids, cs in elements]
        d = min([*todo, *(q[0] for q in pairs.queue[:1])])
        reducer = {}  # covered monomial -> (shift, element)
        rows = [(0, (list(map(table.__getitem__, ms)), cs)) for ms, cs in todo.pop(d, ())]
        while pairs.queue and pairs.queue[0][0] == d:
            _, lcm, i, j = pairs.pop()
            for k in (i, j):
                row = (lcm - lms[k], elements[k])
                if reducer.setdefault(lcm, row) != row and row not in rows:
                    rows.append(row)
        for ids, cs in _sweep(ring, table, lms, elements, rows, reducer):
            elements.append((ids, cs))
            pairs.add(table.packed[ids[0]], len(ids) == 1)
    packed = table.packed
    return sorted((packed[ids[0]], 1, tuple(zip(map(packed.__getitem__, ids[1:]), cs[1:])))
                  for ids, cs in elements)


def _sweep(ring, table, lms, elements, rows, reducer):
    """F4's symbolic preprocessing and elimination for one degree: yields the
    new basis elements, (monomial ids, coefficients), monic, descending.

    lms and elements are the basis so far; rows are (shift, element); reducer
    maps a monomial to the multiple (shift, element) that clears it. Each
    monomial met gets a column and, when a leading monomial divides it and it
    has none, one reducer multiple leading there, whose monomials are met in
    turn. Rows and reducers go to _eliminate as ints, a slot of 64 * words
    bits per column (little-endian words, packed by struct), the largest
    monomial on top; a slot takes all the operations on a row. Raises
    ExponentOverflow past EXPONENT_LIMIT, BudgetExceeded past max_poly_terms
    columns.
    """
    guards, packed, multiple = ring._packing.guards, table.packed, table.multiple
    seen, pending = set(), list(reducer)  # the ids met; the reducers not yet met
    cap = _scopes.get()[-1].max_poly_terms

    def meet(shift, element):
        ids = multiple(shift, element[0])
        if not seen.issuperset(ids):
            new = set(ids) - seen
            seen.update(new)
            if len(seen) > cap:
                raise BudgetExceeded(
                    f"F4 matrix exceeded {cap} columns; raise the budget to proceed")
            for m in map(packed.__getitem__, new):
                if m not in reducer:
                    for k, lm in enumerate(lms):
                        if not (m - lm) & guards:
                            reducer[m] = (m - lm, elements[k])
                            pending.append(m)
                            break
        return ids, element[1]

    rows = [meet(*row) for row in rows]
    pivots = []  # the reducers, each leading at its first monomial
    while pending:
        pivots.append(meet(*reducer[pending.pop()]))
    n = len(seen)
    words = ((n + 1) * ring.p ** 2).bit_length() // 32 + 1
    ascending = sorted(seen, key=packed.__getitem__)
    slot = dict(zip(ascending, range(0, n * words, words)))  # id -> its column's first word
    layout = Struct(f"<{words * n}Q")

    def pack(ids, cs):
        row = [0] * n * words
        for i, c in zip(map(slot.__getitem__, ids), cs):
            row[i] = c
        return int.from_bytes(layout.pack(*row), "little")

    pivots = {slot[ids[0]] // words: pack(ids, cs) for ids, cs in pivots}
    for x in _eliminate(ring.p, 64 * words, n, pivots, [pack(*r) for r in rows]):
        values = layout.unpack(x.to_bytes(layout.size, "little"))[::words]
        yield list(compress(ascending, values))[::-1], list(compress(values, values))[::-1]


def _eliminate(p, w, n, pivots, rows):
    """The new rows of the reduced row echelon form mod p of pivots and rows,
    by descending leading slot. A row is an int of n slots of w bits; pivots
    maps a slot to a row leading there with 1, and gains the new rows.

    Each row is cleared top-down at every pivot slot t by x + c * pivot, c =
    -x_t mod p; a nonzero remainder, made monic, is the pivot of its leading
    slot and is cleared from the new pivots above it. w must keep a slot below
    2^k, k = w/2 - 1, through a row's operations (each adds less than p^2);
    then one Barrett step x - p * (((x * M) >> s) & qmask), M = ceil(2^s / p),
    s = k + bits(p - 1), takes each slot mod p: its quotient is exact, and
    x_t * M < 2^w keeps the slots apart (Dumas-Fousse-Salvy, J. Symbolic
    Comput. 46, 2011).
    """
    s = w // 2 - 1 + (p - 1).bit_length()
    M, full = -(-(1 << s) // p), (1 << w) - 1
    qmask = ((1 << w * n) - 1) // full * ((1 << (w - s)) - 1)
    mask = sum(full << t * w for t in pivots)  # every pivot slot
    new = []

    def clear(x, slots):
        """x mod p, zero at slots (descending) and the pivot slots below."""
        cut = (slots[0] + 1) * w if slots else 0
        hi, x = x >> cut, x & ((1 << cut) - 1)
        for t in slots:
            c = -(x >> t * w & full) % p
            if c:
                x += c * pivots[t]
        x = hi << cut | x & ~mask
        return x - p * ((x * M >> s) & qmask)

    for x in rows:
        x = clear(x, sorted(pivots, reverse=True))
        if x:
            t = (x.bit_length() - 1) // w
            pivots[t] = clear(x * pow(x >> t * w, p - 2, p), [])
            mask |= full << t * w
            for r in new:
                if r > t:
                    pivots[r] = clear(pivots[r], [t])
            new.append(t)
    return [pivots[t] for t in sorted(new, reverse=True)]


def _minimal_monomials(ring, *factors):
    """Reduced basis, as (polynomials, packed reducers), of the intersection
    of the monomial ideals that the factors, lists of monomials, generate; of
    one factor, its minimal monomials, monic. The intersection is generated
    by the lcms of one monomial from each factor (Miller-Sturmfels,
    Combinatorial Commutative Algebra, ch. 1), met one factor at a time."""
    mask = ring._packing._mask
    factors = [[g._packed[0][0] & mask for g in monos] for monos in factors]
    return _carry(ring, factors, lambda lex, kept, ms: [lex.lcm(a, b) for a in kept for b in ms])


def _intersect_variable_powers(ring, variable_sets, n):
    """Reduced basis, as (polynomials, packed reducers), of the intersection
    of the P^n, each P generated by the variables of one set of indices:
    (u) ∩ P^n is u times the monomials of degree max(0, n - deg_P(u)) in P's
    variables, int sums of their units, so no P^n is ever listed."""
    def meet(lex, kept, indices):
        units, completions, out = [lex.units[i] for i in sorted(indices)], {}, []
        for u in kept:
            e = lex.unpack(u)
            k = max(0, n - sum(e[i] for i in indices))
            if k not in completions:  # the monomials of degree k in P's variables
                completions[k] = list(map(sum, combinations_with_replacement(units, k)))
            out += [u + w for w in completions[k]]
        return out
    return _carry(ring, variable_sets, meet)


def _carry(ring, steps, meet):
    """The reduced basis of the monomial ideal reached from the unit ideal
    by meet(lex, kept, step) per step, which lists generators of the next
    ideal from the kept minimal monomials, on the exponent fields (m & mask:
    the lex packing); only the result is packed in the ring's order."""
    lex = _packing_for(ring.nvars, "lex", None)
    kept = [0]  # the unit ideal
    for step in steps:
        kept = _minimal(lex.guards, meet(lex, kept, step))
    reduced = sorted((ring._packing.pack(lex.unpack(m)), 1, ()) for m in kept)
    return _basis_polys(ring, reduced), reduced


def _minimal(guards, monomials):
    """The packed monomials no other of them divides, once each, ascending. A
    divisor comes first in every monomial order, and tends to sit close
    below, so the kept ones are tried from the latest back."""
    kept = []
    for m in sorted(set(monomials)):
        for k in reversed(kept):
            if not (m - k) & guards:
                break
        else:
            kept.append(m)
    return kept


def _monomial_colon(ring, I, J):
    """Reduced basis, as (polynomials, packed reducers), of (I : J) for the
    ideals of the lists of monomials I and J: the intersection of the (I : g),
    g in J, each generated by the lcm(a, g)/g, a in I, met one g at a time."""
    mask = ring._packing._mask
    fields = [a._packed[0][0] & mask for a in I]
    return _carry(ring, [g._packed[0][0] & mask for g in J], lambda lex, kept, g: [
        lex.lcm(k, u) for u in [lex.lcm(a, g) - g for a in fields] for k in kept])


def _monomial_product(ring, A, B):
    """The products a*b, a in A and b in B, of monomials: exact duplicates
    dropped, ascending by (monomial, coefficient); None unless A and B are all
    monomials. An exponent past EXPONENT_LIMIT raises ExponentOverflow."""
    if any(len(g._packed) != 1 for g in (*A, *B)):
        return None
    terms = _term_products(ring, [g._packed[0] for g in A], [g._packed[0] for g in B])
    return [Polynomial._from_packed(ring, (t,)) for t in terms]


def _monomial_power(ring, gens, levels, n):
    """The generators of I^n, n >= 2, for monomial gens: the products of
    I^(n-1)'s with gens, as _monomial_product lists them. levels holds the
    packed terms of I^2, I^3, ... as far as built, and gains those up to I^n."""
    base = [g._packed[0] for g in gens]
    while len(levels) < n - 1:
        levels.append(_term_products(ring, levels[-1] if levels else base, base))
    return [Polynomial._from_packed(ring, (t,)) for t in levels[n - 2]]


def _term_products(ring, A, B):
    """The distinct products of the packed terms in A and B, ascending; an
    exponent past EXPONENT_LIMIT, a guard bit in any, raises ExponentOverflow."""
    p, packing = ring.p, ring._packing
    products = sorted({(ma + mb, ca * cb % p) for ma, ca in A for mb, cb in B})
    packing.check(reduce(or_, (m for m, _ in products), 0))
    return products


def _spoly_terms(ring, fi, fj, lcm):
    """Packed term stream of the S-polynomial of two monic reducer triples."""
    ui, uj, p = lcm - fi[0], lcm - fj[0], ring.p
    return [(m + ui, c) for m, c in fi[2]] + [(m + uj, p - c) for m, c in fj[2]]


def _reduce_basis(ring, basis):
    """Reduce each tail by a basis whose leading monomials divide none of
    each other's, as _pair_loop returns it. The whole basis serves: the terms
    met reducing g's tail are below lm(g), so lm(g) divides none of them."""
    basis = _Reducers(basis)
    return sorted((lm, 1, tail and _nf_terms(ring, tail, basis)) for lm, _, tail in basis)


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
    return (_first_outside((f,), G) is None if G._monomial_lms() is not False
            else not normal_form(f, G))


def ideal_subset(I: Ideal, J: Ideal):
    """(True, None) when I is contained in J, else (False, the first generator
    of I, in I.gens order, outside J). When I and J already hold equal reduced
    bases they are equal, and nothing is reduced. The relations lie in both
    preimages, so only I's gens are tested, and J's basis is computed only
    when I has some: against a reduced basis of monomials in one
    divisibility pass, else by the normal form of each generator in turn
    against J's packed reducers, fetched once, up to the first nonzero one
    (against the empty basis of the zero ideal, the first)."""
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    if I._gb is not None and I._gb == J._gb or not I.gens:
        return True, None
    G = J.groebner_basis()
    ring, reducers = J.ring.ambient, G._packed_reducers()
    bad = _first_outside(I.gens, G) if G._monomial_lms() else next(
        (g for g in I.gens if _nf_terms(ring, g._packed, reducers)), None)
    return bad is None, bad


def _first_outside(polys, G):
    """The first of polys outside the ideal of G, a reduced basis of
    monomials: one with a term none of them divides; None when there is none.
    From INDEX_MIN_ELEMENTS monomials up, the divisor index of G's reducers,
    built once per basis, finds the divisors of a term, below them a scan."""
    lms, packing = G._monomial_lms(), G.ring._packing
    guards = packing.guards
    if indexed := len(lms) >= INDEX_MIN_ELEMENTS:
        exps, masks = G._packed_reducers().divisor_index(packing)
        unpack, mask, nbytes = packing._struct.unpack, packing._mask, packing._nbytes
    for f in polys:
        for m, _ in f._packed:
            if indexed:
                if not reduce(and_, map(getitem, masks, map(
                        bisect_right, exps, unpack((m & mask).to_bytes(nbytes, "big"))))):
                    return f
                continue
            for lm in lms:
                if not (m - lm) & guards:
                    break
            else:
                return f


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
