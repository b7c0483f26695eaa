"""Ideal-level algebra: sums, products, powers, bracket powers, intersections,
colons, saturations, elimination, matrix minors, and an independent
linear-algebra membership oracle.

Each operation is defined once for ideals of S and of S/(f): sums, products,
powers, bracket powers and scalings act on the generators and keep the ring,
so the relations ride along in the preimage; intersections, colons and
saturations work on preimages in S, which contain the relations. Each
elimination is one groebner.elimination_basis, on a block ring that
Polynomial.in_ring moves polynomials to and from by variable name. When every
generator an operation works on is a monomial, the kernel computes it on
packed monomials, with the same result. Only the membership oracle, the
independent check, works on exponent tuples (mono_mul).
"""

from __future__ import annotations

import functools
import itertools

from .errors import BudgetExceeded, ExponentOverflow, RingMismatch, _int_str_digits
from .groebner import (
    GroebnerBasis,
    Ideal,
    _minimal_monomials,
    _monomial_colon,
    _monomial_power,
    _monomial_product,
    absorbing_exponent,
    elimination_basis,
    poly_divide_exact,
)
from .rings import EXPONENT_LIMIT, Polynomial, RingDescriptor, mono_mul, sorted_canonical


def _dedup(gens):
    """The nonzero gens, each kept at its first occurrence."""
    return list(dict.fromkeys(g for g in gens if g))


def maximal_ideal(ring) -> Ideal:
    """The irrelevant maximal ideal (all variables)."""
    ambient = ring.ambient
    return Ideal(ring, [Polynomial.variable(ambient, v) for v in ambient.variables])


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    return Ideal(I.ring, _dedup(I.gens + J.gens))


def ideal_product(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    ring = I.ring.ambient
    gens = _monomial_product(ring, I.gens, J.gens)
    if gens is None:
        gens = sorted_canonical(_dedup(a * b for a in I.gens for b in J.gens))
    return Ideal(I.ring, gens)


def ideal_power(I: Ideal, n: int) -> Ideal:
    """n-fold product; I^0 is the unit ideal by convention and I^1 is I.

    I keeps the powers asked of it, so a later call returns the same object,
    with any basis computed for it, and the levels below them, none with an
    Ideal unless asked for. I^n is generated by the products g^α over the
    multisets α of n generators, each made once, as g^(α - e_i) * g_i for the
    largest index i in α; the distinct ones are listed as ideal_product lists
    I^(n-1) * I. Monomial ideals take that product itself, on packed terms.
    I^n holds each g^n: n times g's largest exponent (its degree, as products
    check, unless I is monomial) past EXPONENT_LIMIT raises ExponentOverflow
    at once.
    """
    if n < 0:
        raise ValueError("ideal power needs n >= 0")
    if n == 0:
        return Ideal.unit(I.ring)
    if n == 1:
        return I
    monomial = all(g.is_monomial() for g in I.gens)
    top = max((max(g.lead_monomial()) if monomial else g.degree() for g in I.gens), default=0)
    if n * top > EXPONENT_LIMIT:
        shown = n if n < 10 ** _int_str_digits() else "n"
        raise ExponentOverflow(f"I^{shown} has an exponent beyond {EXPONENT_LIMIT}")
    # I^k by k once asked; per k from 2, I^k's packed terms or {multiset of gens indices: product}
    made, levels = I._powers = I._powers or ({}, [])
    if n not in made:
        ring, gens = I.ring.ambient, I.gens
        if monomial:
            power = _monomial_power(ring, gens, levels, n)
        else:
            while len(levels) < n - 1:
                products = levels[-1] if levels else {(i,): g for i, g in enumerate(gens)}
                levels.append({a + (i,): f * gens[i]
                               for a, f in products.items() for i in range(a[-1], len(gens))})
            power = sorted_canonical(_dedup(levels[n - 2].values()))
        made[n] = Ideal(I.ring, power)
    return made[n]


def bracket_power(I: Ideal, e: int) -> Ideal:
    """Frobenius power I^[p^e]: q-th powers of the generators."""
    if e < 1:
        raise ValueError("bracket power needs e >= 1")
    return Ideal(I.ring, [g.frobenius(e) for g in I.gens])


def scale_ideal(f: Polynomial, I: Ideal) -> Ideal:
    """The product f*I of a polynomial with an ideal."""
    if f.ring != I.ring.ambient:
        raise RingMismatch("polynomial from a different ring")
    return Ideal(I.ring, [f * g for g in I.gens])


# ---------------------------------------------------------------------------
# rings of the auxiliary-variable constructions
# ---------------------------------------------------------------------------


def _extended_ring(ring, front_vars):
    """Ring with front_vars prepended under a [front | rest] block order."""
    front = tuple(front_vars)
    return RingDescriptor(ring.p, front + ring.variables, "block", (front, ring.variables))


def _t_ring(ring):
    """[t | ring] under the block order, t a variable name ring lacks, and t."""
    name = "t"
    while name in ring.variables:
        name += "_"
    ring2 = _extended_ring(ring, [name])
    return ring2, Polynomial.variable(ring2, name)


def eliminate(I: Ideal, kill) -> Ideal:
    """I's preimage in S (over S/(f) it contains f) intersected with the
    subring avoiding the given variables: an ideal of S, its generators free
    of the eliminated variables.
    """
    ring = I.ring.ambient
    kill = tuple(kill)
    for v in kill:
        ring.index(v)  # raises on an unknown variable
    killed = [v for v in ring.variables if v in kill]
    if len(killed) == ring.nvars:
        raise ValueError("cannot eliminate every variable")
    if not killed:
        return I.preimage
    keep = [v for v in ring.variables if v not in kill]
    ring2 = _extended_ring(RingDescriptor(ring.p, keep), killed)
    G = elimination_basis(ring2, [g.in_ring(ring2) for g in I.preimage.gens])
    return Ideal(ring, [g.in_ring(ring) for g in G])


def ideal_intersect(I: Ideal, J: Ideal) -> Ideal:
    """I ∩ J via eliminating t from t*I + (1-t)*J, on the preimages in S; for
    monomial preimages, their minimal pairwise lcms."""
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    ring = I.ring.ambient
    A, B = I.preimage.gens, J.preimage.gens
    if not A or not B:
        return Ideal(I.ring)
    if all(g.is_monomial() for g in A + B):
        polys, reduced = _minimal_monomials(ring, A, B)
        return Ideal(I.ring, polys).with_gb(GroebnerBasis(ring, polys, reduced))
    ring2, t = _t_ring(ring)
    one_minus_t = Polynomial.one(ring2) - t
    gens2 = [t * g.in_ring(ring2) for g in A]
    gens2 += [one_minus_t * g.in_ring(ring2) for g in B]
    kept = [g.in_ring(ring) for g in elimination_basis(ring2, gens2)]
    return Ideal(I.ring, sorted_canonical(kept))


def _colon_single(I: Ideal, g: Polynomial) -> Ideal:
    """(I : g) = (I ∩ (g)) divided exactly by g, with I's preimage intersected
    with the principal ideal (g) of S (not of S/(f), whose preimage adds f)."""
    ring = I.ring.ambient
    if g.ring != ring:
        raise RingMismatch("polynomial from a different ring")
    if not g:
        raise ValueError("colon by the zero polynomial")
    if g.is_constant():
        return Ideal(I.ring, I.gens)
    meet = ideal_intersect(I.preimage, Ideal(ring, [g]))
    return Ideal(I.ring, [poly_divide_exact(h, g) for h in meet.gens])


def ideal_colon(I: Ideal, J) -> Ideal:
    """(I : J); J may be an Ideal or a single Polynomial. (I : 0) is the unit
    ideal; by an Ideal, the intersection of the (I : g), g in J."""
    if isinstance(J, Polynomial):
        return _colon_single(I, J)
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    if not J.gens:
        return Ideal.unit(I.ring)
    ring, A = I.ring.ambient, I.preimage.gens
    if len(J.gens) > 1 and all(g.is_monomial() for g in A + J.gens):
        polys, reduced = _monomial_colon(ring, A, J.gens)
        return Ideal(I.ring, polys).with_gb(GroebnerBasis(ring, polys, reduced))
    return functools.reduce(ideal_intersect, (_colon_single(I, g) for g in J.gens))


MAX_SATURATION_STEPS = 256


def saturate(I: Ideal, by):
    """(sat, s): sat = (I : by^∞) from _saturation, and s the first index with
    (I : by^(s+1)) equal to (I : by^s), the smallest s with by^s * sat inside
    I, by the frontier scan groebner.absorbing_exponent on the normal forms of
    sat's generators modulo I. An s reaching MAX_SATURATION_STEPS raises
    BudgetExceeded."""
    sat = _saturation(I, by)
    if sat._gb is not None and sat._gb is I._gb:
        return sat, 0  # sat carries I's own basis: nothing was divided out
    factors = by.gens if isinstance(by, Ideal) else (by,)
    s = absorbing_exponent(sat.gens, factors, I, MAX_SATURATION_STEPS - 1)
    if s is None:
        raise BudgetExceeded("saturation did not stabilize within the step cap")
    return sat, s


def _saturation(I: Ideal, by):
    """(I : by^∞), by a polynomial or an ideal; by an ideal (g1, ..., gk), the
    intersection of the saturations by each gi.

    By a polynomial g the saturation is the t-free part of one reduced basis
    of I's preimage plus (1 - t*g) under the [t | rest] block order (the
    Rabinowitsch trick, Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
    §4.4). Over a grevlex ring the elimination starts from I's reduced basis,
    and the t-free part is the saturation's reduced basis, attached to it.
    The classical grevlex case (homogeneous preimage, saturation by the
    trailing variable) skips the elimination: each reduced-basis element of I
    is divided by its trailing-variable power.
    """
    if isinstance(by, Ideal):
        if I.ring != by.ring:
            raise RingMismatch("ideals from different rings")
        if not by.gens:
            raise ValueError("saturation by the zero ideal")
        factors = by.gens
    else:
        if not by:
            raise ValueError("saturation by the zero polynomial")
        if by.ring != I.ring.ambient:
            raise RingMismatch("polynomial from a different ring")
        factors = (by,)
    ring = I.ring.ambient
    return functools.reduce(ideal_intersect, (
        _saturate_grevlex_last(I)
        if _is_last_variable(ring, g) and all(h.is_homogeneous() for h in I.preimage.gens)
        else _saturate_rabinowitsch(I, g)
        for g in factors
    ))


def _saturate_rabinowitsch(I: Ideal, g: Polynomial):
    ring = I.ring.ambient
    ring2, t = _t_ring(ring)
    # The block order is grevlex inside the rest block: over a grevlex ring,
    # the ring's order on t-free monomials. So I's reduced basis in ring2 is
    # reduced there, and the t-free part is the saturation's reduced basis.
    grevlex = ring.order == "grevlex"
    known = [h.in_ring(ring2) for h in I.groebner_basis()] if grevlex else ()
    gens2 = [] if grevlex else [h.in_ring(ring2) for h in I.preimage.gens]
    gens2.append(Polynomial.one(ring2) - t * g.in_ring(ring2))
    kept = [h.in_ring(ring) for h in elimination_basis(ring2, gens2, known)]
    sat = Ideal(I.ring, sorted_canonical(kept))
    if grevlex:
        sat.with_gb(GroebnerBasis(ring, kept))
    return sat


def _is_last_variable(ring, f):
    return ring.order == "grevlex" and f.monic() == Polynomial.variable(ring, ring.variables[-1])


def _saturate_grevlex_last(I: Ideal):
    G = I.groebner_basis()
    divided = [g.without_last_power() for g in G]
    sat = Ideal(I.ring, sorted_canonical(divided))
    if all(h is g for h, g in zip(divided, G)):
        sat.with_gb(G)
    return sat


# ---------------------------------------------------------------------------
# matrices and minors
# ---------------------------------------------------------------------------


class PolyMatrix:
    """Rectangular grid of polynomials over a common ring."""

    __slots__ = ("ring", "entries")

    def __init__(self, ring, entries):
        entries = tuple(tuple(row) for row in entries)
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("matrix rows have unequal length")
            for row in entries:
                for f in row:
                    if f.ring != ring:
                        raise RingMismatch("matrix entry from a different ring")
        self.ring = ring
        self.entries = entries

    @property
    def shape(self):
        if not self.entries:
            return (0, 0)
        return (len(self.entries), len(self.entries[0]))

    def determinant_of(self, rows, cols, _memo=None):
        """Laplace expansion along the first listed row, memoized on columns."""
        if _memo is None:
            _memo = {}
        key = (rows, cols)
        if key in _memo:
            return _memo[key]
        if len(rows) == 1:
            det = self.entries[rows[0]][cols[0]]
        else:
            det = Polynomial.zero(self.ring)
            r = rows[0]
            rest = rows[1:]
            for k, c in enumerate(cols):
                entry = self.entries[r][c]
                if not entry:
                    continue
                sub = self.determinant_of(rest, cols[:k] + cols[k + 1 :], _memo)
                term = entry * sub
                det = det + term if k % 2 == 0 else det - term
        _memo[key] = det
        return det


def minors(M: PolyMatrix, size: int) -> Ideal:
    """Ideal of all size x size minors."""
    rows, cols = M.shape
    if size < 1 or size > min(rows, cols):
        raise ValueError("minor size outside the matrix")
    gens = []
    memo = {}
    for rsel in itertools.combinations(range(rows), size):
        for csel in itertools.combinations(range(cols), size):
            gens.append(M.determinant_of(rsel, csel, memo))
    return Ideal(M.ring, sorted_canonical(_dedup(gens)))


# ---------------------------------------------------------------------------
# brute-force membership oracle (anti-Groebner)
# ---------------------------------------------------------------------------


def monomials_up_to(ring, degree):
    """All exponent tuples of total degree <= degree, in ascending lex order."""
    out = [()]
    for _ in range(ring.nvars):
        out = [m + (e,) for m in out for e in range(degree - sum(m) + 1)]
    return out


ORACLE_SIZE_CAP = 2_000_000  # matrix cells


def brute_membership_oracle(f: Polynomial, I: Ideal, cofactor_degree_bound: int) -> bool:
    """Solve f = sum h_i g_i with deg h_i <= D = cofactor_degree_bound, as a
    linear system mod p.

    True is authoritative for membership. False only means "no certificate at
    this cofactor bound": callers must pick D >= deg f - min deg g_i plus slack
    when they want the negative direction to carry weight. The g_i are the
    generators of I's preimage in S.
    """
    if f.ring != I.ring.ambient:
        raise RingMismatch("polynomial from a different ring")
    if not f:
        return True
    gens = I.preimage.gens
    if not gens:
        return False
    ring = f.ring
    cof_monos = monomials_up_to(ring, cofactor_degree_bound)
    columns = [*itertools.product([g.terms for g in gens], cof_monos), (f.terms, (0,) * ring.nvars)]
    rows = {}  # monomial -> its row, {column: coefficient}, f's column the last
    # distinct terms times one u are distinct, so no cell comes twice
    for j, (terms, u) in enumerate(columns):
        for m, c in terms:
            rows.setdefault(mono_mul(u, m), {})[j] = c
    n_cols = len(columns) - 1
    if len(rows) * n_cols > ORACLE_SIZE_CAP:
        raise BudgetExceeded(
            f"oracle system {len(rows)}x{n_cols} exceeds the size cap {ORACLE_SIZE_CAP}"
        )
    return _consistent_mod_p(rows.values(), ring.p, n_cols)


def _consistent_mod_p(rows, p, n_cols):
    """Gaussian elimination mod p on the rows of [A | b], each a dict {column:
    value}, b the column n_cols; True iff the system is solvable. A row is one
    int, a slot of w = 4 bits(p) + 1 bits per column, b in the lowest; the
    Barrett step x - p * (((x * M) >> s) & qmask) takes every slot below p^2
    mod p at once, and x_t * M < 2^w keeps the slots apart."""
    w, s = 4 * p.bit_length() + 1, 2 * p.bit_length() + (p - 1).bit_length()
    M = -(-(1 << s) // p)
    qmask = ((1 << w * (n_cols + 1)) - 1) // ((1 << w) - 1) * ((1 << (w - s)) - 1)
    pivots = {}  # slot -> the monic row leading there
    for row in rows:
        x = sum(v << (n_cols - j) * w for j, v in row.items())
        while x:
            t = (x.bit_length() - 1) // w
            if not t:  # 0 = b_t != 0 in the span of the rows
                return False
            if t not in pivots:
                x *= pow(x >> t * w, p - 2, p)
                pivots[t] = x - p * ((x * M >> s) & qmask)
                break
            x += (p - (x >> t * w)) * pivots[t]
            x -= p * ((x * M >> s) & qmask)
    return True
