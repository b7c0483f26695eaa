"""Ideal-level algebra: sums, products, powers, bracket powers, intersections,
colons, saturations, elimination, matrix minors, and an independent
linear-algebra membership oracle.

Each operation is defined once for ideals of S and of S/(f): sums, products,
powers, bracket powers and scalings act on the generators and keep the ring,
so the relations ride along in the preimage; intersections, colons and
saturations work on preimages in S, which contain the relations.
Intersections use the auxiliary-variable construction (eliminate t from
t*I + (1-t)*J); colons divide the intersection with a principal ideal exactly
(groebner.poly_divide_exact); saturation by g eliminates t from I + (1 - t*g)
(the Rabinowitsch trick), one Groebner basis, and recovers the stabilization
exponent, the smallest s with g^s * sat inside I, by carrying normal forms
modulo I as diagnostic data. Each elimination is one
groebner.elimination_basis, which reduces only the part it keeps.

When every generator an operation works on is a monomial, the kernel computes
it on packed monomials, with the same result: products and powers by adding
exponents, intersections by minimal pairwise lcms (the result keeps them as
its basis), and so colons by a monomial g, whose exact division of the
intersection by g gives the minimal m/gcd(m, g) times lc(g)^-1.
Intersections and colons look at preimages, which over S/(f) hold f. Only the
membership oracle, the independent check, uses a mono_* exponent-tuple helper.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BudgetExceeded, RingMismatch
from .groebner import (
    GroebnerBasis,
    Ideal,
    _minimal_monomials,
    _monomial_product,
    absorbing_exponent,
    elimination_basis,
    poly_divide_exact,
)
from .rings import Polynomial, RingDescriptor, mono_mul


def _dedup(gens):
    seen = set()
    out = []
    for g in gens:
        if not g:
            continue
        if g.terms in seen:
            continue
        seen.add(g.terms)
        out.append(g)
    return out


def _sorted_canonical(ring, gens):
    key = ring.key
    return sorted(gens, key=lambda g: (key(g.lead_monomial()), g.terms))


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
        gens = _sorted_canonical(ring, _dedup(a * b for a in I.gens for b in J.gens))
    return Ideal(I.ring, gens)


def ideal_power(I: Ideal, n: int) -> Ideal:
    """n-fold product; I^0 is the unit ideal by convention and I^1 is I.

    I keeps the powers built of it: I^n is made once, as I^(n-1) * I, and a
    later call returns that same object, with any basis computed for it.
    """
    if n < 0:
        raise ValueError("ideal power needs n >= 0")
    if n == 0:
        return Ideal.unit(I.ring)
    if n == 1:
        return I
    if I._powers is None:
        I._powers = []
    powers = I._powers  # I^2, I^3, ...
    while len(powers) < n - 1:
        powers.append(ideal_product(powers[-1] if powers else I, I))
    return powers[n - 2]


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
# ring translations for the auxiliary-variable constructions
# ---------------------------------------------------------------------------


def _aux_name(ring):
    name = "t"
    while name in ring.variables:
        name += "_"
    return name


def _extended_ring(ring, front_vars):
    """Ring with front_vars prepended under a [front | rest] block order."""
    return RingDescriptor(
        ring.p,
        tuple(front_vars) + ring.variables,
        order="block",
        blocks=(tuple(front_vars), ring.variables),
    )


def _lift(poly, ring2, pad):
    zeros = (0,) * pad
    return Polynomial(ring2, tuple((zeros + m, c) for m, c in poly.terms), canonical=False)


def _drop(poly, ring, pad):
    return Polynomial(ring, tuple((m[pad:], c) for m, c in poly.terms), canonical=False)


def _permute(poly, ring2, source):
    """poly in ring2, whose i-th variable is poly's variable source[i]."""
    return Polynomial(ring2, tuple((tuple(m[i] for i in source), c) for m, c in poly.terms))


def eliminate(I: Ideal, kill, budget=None) -> Ideal:
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
    to2 = [ring.index(v) for v in ring2.variables]
    G = elimination_basis(ring2, [_permute(g, ring2, to2) for g in I.preimage_gens], budget)
    back = [ring2.index(v) for v in ring.variables]
    return Ideal(ring, [_permute(g, ring, back) for g in G])


def ideal_intersect(I: Ideal, J: Ideal, budget=None) -> Ideal:
    """I ∩ J via eliminating t from t*I + (1-t)*J, on the preimages in S; for
    monomial preimages, their minimal pairwise lcms."""
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    ring = I.ring.ambient
    A, B = I.preimage_gens, J.preimage_gens
    if not A or not B:
        return Ideal(I.ring)
    if all(g.is_monomial() for g in A + B):
        polys, reduced = _minimal_monomials(ring, *([g.lead_monomial() for g in X] for X in (A, B)))
        return Ideal(I.ring, polys).with_gb(GroebnerBasis(ring, polys, reduced))
    t_name = _aux_name(ring)
    ring2 = _extended_ring(ring, [t_name])
    t = Polynomial.variable(ring2, t_name)
    one_minus_t = Polynomial.one(ring2) - t
    gens2 = [t * _lift(g, ring2, 1) for g in A]
    gens2 += [one_minus_t * _lift(g, ring2, 1) for g in B]
    kept = [_drop(g, ring, 1) for g in elimination_basis(ring2, gens2, budget)]
    return Ideal(I.ring, _sorted_canonical(ring, kept))


def _colon_single(I: Ideal, g: Polynomial, budget=None) -> Ideal:
    """(I : g) = (I ∩ (g)) divided exactly by g, with I's preimage intersected
    with the principal ideal (g) of S (not of S/(f), whose preimage adds f)."""
    if not g:
        raise ValueError("colon by the zero polynomial")
    if g.is_constant():
        return Ideal(I.ring, I.gens)
    ring = I.ring.ambient
    meet = ideal_intersect(Ideal(ring, I.preimage_gens), Ideal(ring, [g]), budget)
    return Ideal(I.ring, [poly_divide_exact(h, g) for h in meet.gens])


def ideal_colon(I: Ideal, J, budget=None) -> Ideal:
    """(I : J); J may be an Ideal or a single Polynomial. (I : 0) is the unit
    ideal."""
    if isinstance(J, Polynomial):
        return _colon_single(I, J, budget)
    if I.ring != J.ring:
        raise RingMismatch("ideals from different rings")
    if not J.gens:
        return Ideal.unit(I.ring)
    result = None
    for g in J.gens:
        piece = _colon_single(I, g, budget)
        result = piece if result is None else ideal_intersect(result, piece, budget)
    return result


MAX_SATURATION_STEPS = 256


def saturate(I: Ideal, by, budget=None):
    """(I : by^∞) with the stabilization exponent.

    Returns (ideal, s) where s is the first index with (I : by^(s+1)) equal to
    (I : by^s), which is the smallest s with by^s * sat inside I. by is a
    polynomial or an ideal; by an ideal (g1, ..., gk), the saturation is the
    intersection of the saturations by each gi.

    By a polynomial g the saturation is the t-free part of one reduced basis
    of I's preimage plus (1 - t*g) under the [t | rest] block order (the
    Rabinowitsch trick, Cox-Little-O'Shea, Ideals, Varieties, and Algorithms,
    §4.4). Over a grevlex ring that part is already the saturation's reduced
    basis and is attached to it. The classical grevlex case (homogeneous
    preimage, saturation by the trailing variable) skips the elimination:
    each reduced-basis element of I is divided by its trailing-variable power.
    s is recovered by the frontier scan groebner.absorbing_exponent on the
    normal forms of sat's generators modulo I; when s would reach
    MAX_SATURATION_STEPS it raises BudgetExceeded.
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
    sat = None
    for g in factors:
        if _is_last_variable(ring, g) and all(h.is_homogeneous() for h in I.preimage_gens):
            piece = _saturate_grevlex_last(I, budget)
        else:
            piece = _saturate_rabinowitsch(I, g, budget)
        sat = piece if sat is None else ideal_intersect(sat, piece, budget)
    if sat._gb is not None and sat._gb is I._gb:
        return sat, 0  # sat carries I's own basis: nothing was divided out
    s = absorbing_exponent(sat.gens, factors, I, MAX_SATURATION_STEPS - 1, budget)
    if s is None:
        raise BudgetExceeded("saturation did not stabilize within the step cap")
    return sat, s


def _saturate_rabinowitsch(I: Ideal, g: Polynomial, budget):
    ring = I.ring.ambient
    ring2 = _extended_ring(ring, [_aux_name(ring)])
    t = Polynomial.variable(ring2, ring2.variables[0])
    gens2 = [_lift(h, ring2, 1) for h in I.preimage_gens]
    gens2.append(Polynomial.one(ring2) - t * _lift(g, ring2, 1))
    kept = [_drop(h, ring, 1) for h in elimination_basis(ring2, gens2, budget)]
    sat = Ideal(I.ring, _sorted_canonical(ring, kept))
    if ring.order == "grevlex":
        # the block order is grevlex inside the rest block, so the elimination
        # theorem makes the t-free part the reduced basis of the saturation
        sat.with_gb(GroebnerBasis(ring, kept))
    return sat


def _is_last_variable(ring, f):
    if ring.order != "grevlex" or len(f.terms) != 1:
        return False
    m, _ = f.terms[0]
    return sum(m) == 1 and m[-1] == 1


def _saturate_grevlex_last(I: Ideal, budget):
    ring = I.ring.ambient
    G = I.groebner_basis(budget)
    divided = []
    any_divided = False
    for g in G:
        val = min((m[-1] for m, _ in g.terms), default=0)
        if val:
            any_divided = True
            shift = tuple([0] * (ring.nvars - 1) + [-val])
            g = Polynomial(
                ring,
                tuple((tuple(x + s for x, s in zip(m, shift)), c) for m, c in g.terms),
                canonical=True,
            )
        divided.append(g)
    sat = Ideal(I.ring, _sorted_canonical(ring, divided))
    if not any_divided:
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
    return Ideal(M.ring, _sorted_canonical(M.ring, _dedup(gens)))


# ---------------------------------------------------------------------------
# brute-force membership oracle (anti-Groebner)
# ---------------------------------------------------------------------------


def monomials_up_to(ring, degree):
    """All exponent tuples of total degree <= degree, deterministic order."""
    n = ring.nvars

    def rec(prefix, remaining, slots):
        if slots == 1:
            for e in range(remaining + 1):
                yield prefix + (e,)
            return
        for e in range(remaining + 1):
            yield from rec(prefix + (e,), remaining - e, slots - 1)

    return list(rec((), degree, n))


ORACLE_SIZE_CAP = 2_000_000  # matrix cells


def brute_membership_oracle(f: Polynomial, I: Ideal, cofactor_degree_bound: int) -> bool:
    """Solve f = sum h_i g_i with deg h_i <= D as a dense linear system.

    True is authoritative for membership. False only means "no certificate at
    this cofactor bound": callers must pick D >= deg f - min deg g_i plus slack
    when they want the negative direction to carry weight. The g_i are the
    generators of I's preimage in S.
    """
    if f.ring != I.ring.ambient:
        raise RingMismatch("polynomial from a different ring")
    if not f:
        return True
    gens = I.preimage_gens
    if not gens:
        return False
    ring = f.ring
    p = ring.p
    D = cofactor_degree_bound
    cof_monos = monomials_up_to(ring, D)

    row_index = {}
    rows = []

    def row_of(m):
        idx = row_index.get(m)
        if idx is None:
            idx = len(rows)
            row_index[m] = idx
            rows.append(m)
        return idx

    for m, _ in f.terms:
        row_of(m)
    col_data = []
    for g in gens:
        for u in cof_monos:
            entries = []
            for m, c in g.terms:
                entries.append((row_of(mono_mul(u, m)), c))
            col_data.append(entries)

    n_rows, n_cols = len(rows), len(col_data)
    if n_rows * n_cols > ORACLE_SIZE_CAP:
        raise BudgetExceeded(
            f"oracle system {n_rows}x{n_cols} exceeds the size cap {ORACLE_SIZE_CAP}"
        )

    A = np.zeros((n_rows, n_cols + 1), dtype=np.int64)
    for j, entries in enumerate(col_data):
        for i, c in entries:
            A[i, j] = (A[i, j] + c) % p
    for m, c in f.terms:
        A[row_index[m], n_cols] = c

    return _consistent_mod_p(A, p, n_cols)


def _consistent_mod_p(A, p, n_cols):
    """Gaussian elimination mod p on [A | b]; True iff the system is solvable."""
    n_rows = A.shape[0]
    pivot_row = 0
    for col in range(n_cols):
        if pivot_row >= n_rows:
            break
        nz = np.nonzero(A[pivot_row:, col])[0]
        if nz.size == 0:
            continue
        r = pivot_row + int(nz[0])
        if r != pivot_row:
            A[[pivot_row, r]] = A[[r, pivot_row]]
        inv = pow(int(A[pivot_row, col]), p - 2, p)
        A[pivot_row] = (A[pivot_row] * inv) % p
        mask = np.nonzero(A[:, col])[0]
        for i in mask:
            if i != pivot_row:
                A[i] = (A[i] - A[i, col] * A[pivot_row]) % p
        pivot_row += 1
    # inconsistent iff some row is (0 ... 0 | nonzero)
    tail = A[pivot_row:]
    bad = (tail[:, :-1] == 0).all(axis=1) & (tail[:, -1] != 0)
    return not bool(bad.any())
