"""Symbolic powers relative to registry-supplied prime data, big-height
bookkeeping, and Jacobian ideals of hypersurfaces.

Symbolic powers are never computed from a primary decomposition: the prime
structure is asserted by the example author and only its checkable
consequences (separator membership patterns, monomial minimal covers) are
verified here. Two constructions, picked by the input:

  * a squarefree monomial ideal of S: intersect the n-th powers of the
    minimal covers (or of the listed primes) in the kernel on packed
    monomials, by degree completion (u meets P^n in u times the monomials of
    degree n - deg_P(u) in P's variables); the result keeps its minimal
    monomials as its reduced basis. In S/(f) the covers of the generators
    are not the primes, so this needs a ring without relations.
  * every other input: saturate the ordinary power by each separator, which
    lies in every other listed associated prime, and intersect the results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from .errors import RingMismatch
from .groebner import GroebnerBasis, Ideal, ideal_member, ideal_subset
from .groebner import _intersect_variable_powers, _minimal_monomials  # the kernel's monomial paths
from .idealops import _saturation, ideal_intersect, ideal_power, ideal_product, saturate
from .quotient import HypersurfaceRing
from .rings import Polynomial


@dataclass
class PrimeData:
    """Asserted associated-prime data for one ideal.

    primes are the minimal primes (ideals of the same ring); separators[i]
    must lie in every other listed prime and every listed power_embedded prime
    but not in primes[i] — that membership pattern is checked, the primality
    and the completeness of the list are the author's assertion. heights are
    registry-supplied except for primes generated by variables, where they are
    computed (see _prime_height). max_local_gens carries the largest minimal
    number of generators of the ideal after localizing at a listed prime.
    """

    primes: tuple
    separators: tuple | None = None
    heights: tuple | None = None
    max_local_gens: int | None = None
    power_embedded: tuple = ()
    asserted_radical: bool = False
    asserted_finite_pd: bool = False
    asserted_fpure_quotient: bool = False
    asserted_sfr_quotient: bool = False
    checked: dict = field(default_factory=dict)

    def __post_init__(self):
        self.primes = tuple(self.primes)
        if self.separators is not None:
            self.separators = tuple(self.separators)
        if self.heights is not None:
            self.heights = tuple(self.heights)
        self.power_embedded = tuple(self.power_embedded)

    def validate_separators(self):
        """Check the separator membership pattern; raises on violation."""
        if not self.primes:
            raise ValueError("prime data lists no primes")
        if self.separators is None:
            raise ValueError("prime data has no separators")
        if len(self.separators) != len(self.primes):
            raise ValueError("one separator per listed prime is required")
        for i, s in enumerate(self.separators):
            for j, P in enumerate(self.primes):
                inside = ideal_member(s, P)
                if i == j and inside:
                    raise ValueError(f"separator {s} lies in its own prime")
                if i != j and not inside:
                    raise ValueError(
                        f"separator {s} misses listed prime #{j}; membership pattern violated"
                    )
            for E in self.power_embedded:
                if not ideal_member(s, E):
                    raise ValueError(
                        f"separator {s} misses a listed embedded prime"
                    )
        self.checked["separators"] = True


def _variable_indices(P):
    """The indices of the variables that generate P; None unless P has
    generators and each is a variable times a unit."""
    monos = [g.lead_monomial() for g in P.gens if g.is_monomial()]
    if monos and len(monos) == len(P.gens) and all(sum(m) == 1 for m in monos):
        return {m.index(1) for m in monos}
    return None


def _prime_height(P):
    """Computable only for primes generated by variables: the number of those
    variables, less one per relation of the ring (S/(f) drops the height by
    one), provided every relation lies in the ideal of those variables, which
    holds when each of its terms has one of them. None otherwise."""
    names = _variable_indices(P)
    relations = P.ring.relations
    if names is None or not all(any(m[i] for i in names) for f in relations for m, _ in f.terms):
        return None
    return len(names) - len(relations)


def big_height(pd: PrimeData) -> int:
    """Max height over the listed primes; heights of variable primes are computed."""
    if not pd.primes:
        raise ValueError("prime data lists no primes")
    heights = []
    for i, P in enumerate(pd.primes):
        if pd.heights is not None and i < len(pd.heights) and pd.heights[i] is not None:
            heights.append(pd.heights[i])
            continue
        h = _prime_height(P)
        if h is None:
            raise ValueError("missing height metadata for a non-monomial prime")
        heights.append(h)
    return max(heights)


# ---------------------------------------------------------------------------
# squarefree monomial combinatorics
# ---------------------------------------------------------------------------


def is_squarefree_monomial(I: Ideal) -> bool:
    return bool(I.gens) and all(
        g.is_monomial() and max(g.lead_monomial()) <= 1 for g in I.gens
    )


def monomial_minimal_primes(I: Ideal):
    """Minimal vertex covers of the generator supports, as variable ideals,
    by size, then by index: the supports of the minimal monomials of the
    intersection of the ideals of each generator's variables, I's Alexander
    dual (Miller-Sturmfels, Combinatorial Commutative Algebra, ch. 1)."""
    if not is_squarefree_monomial(I):
        raise ValueError("minimal primes are only computed for squarefree monomial ideals")
    ring = I.ring
    xs = [Polynomial.variable(ring, v) for v in ring.variables]
    dual, _ = _minimal_monomials(ring, *([x for x, e in zip(xs, g.lead_monomial()) if e]
                                         for g in I.gens))
    covers = sorted(([i for i, e in enumerate(m.lead_monomial()) if e] for m in dual),
                    key=lambda c: (len(c), c))
    return [Ideal(ring, [xs[i] for i in c]) for c in covers]


def primedata_for_squarefree(I: Ideal) -> PrimeData:
    """PrimeData for a squarefree monomial ideal: computed covers and heights;
    radical and finite pd hold in the regular monomial setting."""
    primes = monomial_minimal_primes(I)
    if not primes:  # every generator is a unit
        raise ValueError("the unit ideal has no minimal primes")
    return PrimeData(
        primes=tuple(primes),
        heights=tuple(len(P.gens) for P in primes),
        max_local_gens=max(len(P.gens) for P in primes),
        asserted_radical=True,
        asserted_finite_pd=True,
        checked={"primes": "computed minimal covers", "heights": "computed"},
    )


# ---------------------------------------------------------------------------
# symbolic power
# ---------------------------------------------------------------------------


def symbolic_power(I: Ideal, n: int, pd: PrimeData, diag=None):
    """The n-th symbolic power of I under the asserted prime data, an ideal of
    I's ring, by the construction the input picks (see the module docstring).

    Saturations and intersections of I^n run on its preimage in S, whose
    generators include the relations; the result is generated by a Groebner
    basis of its own preimage. The containment I^n <= result is re-checked on
    every call. Saturation exponents land in the optional diag dict.
    """
    if n < 1:
        raise ValueError("symbolic power needs n >= 1")
    if not pd.asserted_radical and not pd.power_embedded:
        raise ValueError(
            "inputs with possibly embedded primes need the full Ass listed "
            "(power_embedded) or an asserted-radical flag"
        )

    if not I.ring.relations and is_squarefree_monomial(I):
        power, result = _symbolic_monomial(I, n, pd)
    else:
        power = ideal_power(I, n)
        result = _symbolic_by_separators(power, pd, diag)

    ok, bad = ideal_subset(power, result)
    if not ok:
        raise ArithmeticError(
            f"internal error: ordinary power escaped the symbolic power (witness {bad})"
        )
    return result


def _symbolic_by_separators(power, pd: PrimeData, diag=None) -> Ideal:
    """The saturations of power by each separator of pd, intersected; their
    stabilization exponents are computed only to be put in diag."""
    pd.validate_separators()
    if diag is None:
        sats = [_saturation(power, s) for s in pd.separators]
    else:
        sats, steps = zip(*[saturate(power, s) for s in pd.separators])
        diag.setdefault("saturation_exponents", []).extend(steps)
    return functools.reduce(ideal_intersect, sats)


def _symbolic_monomial(I: Ideal, n: int, pd: PrimeData):
    """(I^n, the intersection of the P^n) over the listed primes, else the
    minimal covers: the kernel meets each P^n from P's variable indices and
    n. A prime that misses a generator's support does not contain I and is
    rejected before I^n is built, whose overflow check precedes the kernel."""
    sets = []
    for P in pd.primes or monomial_minimal_primes(I):
        indices = _variable_indices(P)
        if indices is None:
            raise ValueError("the monomial construction needs variable-generated primes")
        missed = next((g for g in I.gens if not any(g.lead_monomial()[i] for i in indices)), None)
        if missed is not None:
            raise ValueError(f"listed prime ({', '.join(map(str, P.gens))}) misses {missed}")
        sets.append(indices)
    power = ideal_power(I, n)
    polys, reduced = _intersect_variable_powers(I.ring, sets, n)
    return power, Ideal(I.ring, polys).with_gb(GroebnerBasis(I.ring, polys, reduced))


# ---------------------------------------------------------------------------
# Jacobian ideals (hypersurface case: partials of f)
# ---------------------------------------------------------------------------


def jacobian_ideal(R: HypersurfaceRing) -> Ideal:
    """J(R/k) for R = S/(f): the partial derivatives of f, plus f."""
    partials = [R.f.derivative(v) for v in R.ambient.variables]
    nonzero = [g for g in partials if g]
    if not nonzero:
        import logging  # only this warning needs it, so a plain import loads none
        logging.getLogger(__name__).warning(
            "all partial derivatives of %s vanish; the hypersurface is non-reduced", R.f)
    return Ideal(R, nonzero)


def jacobian_power_product(J: Ideal, a: int, Q_sym: Ideal) -> Ideal:
    """J^a * Q_sym; a = 0 returns Q_sym unchanged."""
    if a < 0:
        raise ValueError("jacobian power needs a >= 0")
    if J.ring != Q_sym.ring:
        raise RingMismatch("ring mismatch between Jacobian and symbolic factor")
    if a == 0:
        return Q_sym
    return ideal_product(ideal_power(J, a), Q_sym)
