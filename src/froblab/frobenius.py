"""Frobenius splitting machinery: Fedder-type criteria, the non-splitting
ideals I_e, Glassbrenner-type witness searches, and the nu_e /
F-pure-threshold lower bounds.

Every function takes ideals of S or of S/(f) alike. I_e(Q) is
((Q^[q] + (f^q)) : f^(q-1)), which is Q^[q] when there is no relation f; the
code branches on the ring's relations only where the mathematics differs.
The criteria are one-directional without finite projective dimension, so
verdicts are three-valued (confirmed / refuted / inconclusive) and always
carry their certifying data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import RingMismatch
from .groebner import Ideal, ideal_member, ideal_subset, last_escaping_power
from .idealops import (
    bracket_power,
    ideal_colon,
    maximal_ideal,
    scale_ideal,
)
from .quotient import HypersurfaceRing
from .rings import Polynomial


@dataclass
class CriterionVerdict:
    """Three-way outcome with the data that certifies it."""

    status: str  # confirmed | refuted | inconclusive
    e_used: object  # exponent, or (1, e_max) range searched
    witness: Polynomial | None = None
    condition: str | None = None  # which criterion condition fired
    notes: dict = field(default_factory=dict)

    @property
    def confirmed(self):
        return self.status == "confirmed"


@dataclass
class FptEstimate:
    """nu_e values and the induced lower bound max nu_e / p^e."""

    nu_values: list  # [(e, nu_e)]
    lower_bound: Fraction
    floor_lower_bound: int


def default_e_max(p: int) -> int:
    """Largest e searched by default, chosen so that q = p^e stays small.

    The cost grows with q: the nu_e scan runs up to n(q-1)+1 levels, and in a
    hypersurface I_e(m) is a colon by f^(q-1). The values fix which nu_e enter
    reported fpt floors, so they stay as they are.
    """
    if p <= 5:
        return 3
    if p <= 13:
        return 2
    return 1


def fedder_is_fpure(I: Ideal, e: int = 1, budget=None) -> CriterionVerdict:
    """Classical Fedder criterion in a regular ambient ring.

    Confirmed iff (I^[p^e] : I) is not contained in m^[p^e]; in the regular
    case this is an if-and-only-if, so refuted really means not F-pure. It is
    is_fpure_quotient over S, where finite projective dimension is automatic.
    """
    ring = I.ring
    if I.is_zero():
        raise ValueError("ideal must be nonzero")
    if not I.is_proper():
        raise ValueError("ideal must be proper")
    verdict = is_fpure_quotient(ring, I, e, finite_pd=True, budget=budget)
    if verdict.confirmed:
        return CriterionVerdict("confirmed", e, witness=verdict.witness, condition="fedder")
    return CriterionVerdict(
        "refuted", e, notes={"reason": "colon ideal inside the bracketed maximal ideal"}
    )


def hypersurface_Ie(R, J: Ideal, e: int, budget=None) -> Ideal:
    """The non-splitting ideal I_e(J) of R = S/(f) via the trace generator.

    Preimage: ((J_S^[q] + (f^q)) : f^(q-1)) with q = p^e. The f^q term stays
    explicit even when redundant. The containment J^[q] <= I_e(J) is a theorem;
    it is re-checked here and a failure signals an internal bug. Over S itself
    (no relation) I_e(J) is J^[q].
    """
    if J.ring != R:
        raise RingMismatch("ideal from a different ring")
    if e < 1:
        raise ValueError("I_e needs e >= 1")
    if not R.relations:
        return bracket_power(J, e)
    (f,) = R.relations
    q = R.ambient.p**e
    f_qm1 = f ** (q - 1)
    bracket = bracket_power(J, e)
    base = Ideal(R.ambient, bracket.gens + (f.frobenius(e),))
    result = Ideal(R, ideal_colon(base, f_qm1, budget).gens)
    ok, bad = ideal_subset(bracket, result, budget)
    if not ok:
        raise ArithmeticError(
            f"internal error: bracket power escaped I_e (witness {bad})"
        )
    return result


def Ie_maximal(ring, e: int, budget=None) -> Ideal:
    """I_e of the irrelevant maximal ideal: m^[q] in a regular ring,
    the trace colon in a hypersurface ring, which the ring keeps per e."""
    if not ring.relations:
        return hypersurface_Ie(ring, maximal_ideal(ring), e, budget)
    if e not in ring._Ie_maximal:
        ring._Ie_maximal[e] = hypersurface_Ie(ring, maximal_ideal(ring), e, budget)
    return ring._Ie_maximal[e]


def is_fpure_quotient(
    R, Q: Ideal, e: int = 1, finite_pd: bool = False, budget=None
) -> CriterionVerdict:
    """Fedder-type criterion for F-purity of R/Q in a hypersurface ring.

    Evaluates both sufficient conditions at the given e:
      (1) (Q^[p^e] : Q) not inside I_e(m)
      (2) (I_e(Q) : Q) not inside I_e(m)
    Either confirms. Refuted needs the caller-asserted finite-pd flag (the
    converse direction of the criterion); otherwise the verdict is
    inconclusive. Over S, I_e(Q) = Q^[q], so (2) is (1).
    """
    if Q.ring != R:
        raise RingMismatch("ideal from a different ring")
    if not Q.is_proper():
        raise ValueError("Q must be proper")
    Ie_m = Ie_maximal(R, e, budget)

    colon1 = ideal_colon(bracket_power(Q, e), Q, budget)
    in1, wit1 = ideal_subset(colon1, Ie_m, budget)
    in2, wit2 = in1, wit1
    if R.relations:
        colon2 = ideal_colon(hypersurface_Ie(R, Q, e, budget), Q, budget)
        in2, wit2 = ideal_subset(colon2, Ie_m, budget)

    notes = {"condition1_holds": not in1, "condition2_holds": not in2}
    if not in2:
        return CriterionVerdict("confirmed", e, witness=wit2, condition="2", notes=notes)
    if not in1:
        return CriterionVerdict("confirmed", e, witness=wit1, condition="1", notes=notes)
    if finite_pd:
        notes["reason"] = "both conditions fail and finite pd is asserted"
        return CriterionVerdict("refuted", e, notes=notes)
    notes["reason"] = "both conditions fail; criterion is one-directional without finite pd"
    return CriterionVerdict("inconclusive", e, notes=notes)


def sfr_witness_search(
    Q: Ideal, c_list, e_max: int, minimal_primes=None, budget=None
) -> CriterionVerdict:
    """Glassbrenner-type search: for each test element c, hunt for an e with
    c*(Q^[p^e] : Q) not inside I_e(m), or (in S/(f)) c*(I_e(Q) : Q) not
    inside I_e(m).

    All supplied c succeeding is supporting evidence for strong F-regularity
    at the tested elements; exhausting e_max is inconclusive, never a
    refutation. I_e(m) and the two colons are computed once per e, when an
    element first reaches that e.
    """
    if not c_list:
        raise ValueError("no test elements supplied")
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    ring = Q.ring
    if minimal_primes:
        for c in c_list:
            for P in minimal_primes:
                if ideal_member(c, P, budget):
                    raise ValueError(
                        f"test element {c} lies in a listed minimal prime"
                    )
    Ie_m, colon1, colon2 = {}, {}, {}
    per_c = []
    all_ok = True
    witness = None
    for c in c_list:
        found = None
        for e in range(1, e_max + 1):
            if e not in Ie_m:
                Ie_m[e] = Ie_maximal(ring, e, budget)
                colon1[e] = ideal_colon(bracket_power(Q, e), Q, budget)
            # condition (1): c (Q^[q] : Q) escapes I_e(m)
            inside, wit = ideal_subset(scale_ideal(c, colon1[e]), Ie_m[e], budget)
            if not inside:
                found = (e, wit, "1")
                break
            # condition (2): c (I_e(Q) : Q) escapes I_e(m); over S, I_e(Q) is
            # Q^[q] and (2) is (1)
            if ring.relations:
                if e not in colon2:
                    colon2[e] = ideal_colon(hypersurface_Ie(ring, Q, e, budget), Q, budget)
                inside, wit = ideal_subset(scale_ideal(c, colon2[e]), Ie_m[e], budget)
                if not inside:
                    found = (e, wit, "2")
                    break
        if found:
            per_c.append(
                {"c": str(c), "e": found[0], "witness": str(found[1]), "condition": found[2]}
            )
            if witness is None:
                witness = found[1]
        else:
            per_c.append({"c": str(c), "e": None})
            all_ok = False
    notes = {"per_c": per_c}
    if all_ok:
        return CriterionVerdict(
            "confirmed", (1, e_max), witness=witness, condition="glassbrenner", notes=notes
        )
    notes["reason"] = "some test element exhausted the searched range"
    return CriterionVerdict("inconclusive", (1, e_max), notes=notes)


def nu_e(I: Ideal, e: int, budget=None) -> int:
    """nu_e(I) = max{r : I^r not inside I_e(m)} (Mustata-Takagi-Watanabe),
    by a frontier scan that builds no power of I.

    Every multiple of an element of J = I_e(m) lies in J, and normal forms
    modulo J satisfy NF(a*b) = NF(NF(a)*b). So only the generators of I^r
    still outside J are carried to level r+1, each as its nonzero normal form
    against J's preimage (for S/(f) it contains f), duplicates dropped; nu_e
    is r - 1 at the first level whose frontier is empty. A monomial I against
    monomial preimage generators is scanned on numpy arrays of exponent keys.
    The pigeonhole bound m^(n(q-1)+1) <= m^[q] <= J caps r.
    """
    if I.is_zero():
        raise ValueError("I must be nonzero")
    if not I.is_proper(budget):
        raise ValueError("I must be proper")
    # m's preimage, (variables) + (relations), holds g exactly when g has no
    # constant term or some relation has one; canonical terms end with it
    def has_constant(g):
        return not any(g.terms[-1][0])

    if not any(map(has_constant, I.ring.relations)) and any(map(has_constant, I.gens)):
        raise ValueError("I must be contained in the ideal of all variables")
    Ie_m = Ie_maximal(I.ring, e, budget)
    ambient = I.ring.ambient
    cap = ambient.nvars * (ambient.p**e - 1) + 2
    nu = last_escaping_power(I.gens, Ie_m, cap, budget)
    if nu is None:
        raise ArithmeticError("nu_e scan escaped its pigeonhole bound (internal bug)")
    return nu


def fpt_lower_bound(I: Ideal, e_max: int, budget=None) -> FptEstimate:
    """nu_e for e = 1..e_max and the induced floor of max nu_e / p^e."""
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    p = I.ring.ambient.p
    values = []
    best = Fraction(0)
    for e in range(1, e_max + 1):
        nu = nu_e(I, e, budget)
        values.append((e, nu))
        frac = Fraction(nu, p**e)
        if frac > best:
            best = frac
    return FptEstimate(values, best, int(best))


def recheck_splitting_witness(R: HypersurfaceRing, Q: Ideal, e: int, r: Polynomial, budget=None) -> bool:
    """Certificate check for a condition-(2) F-purity witness:
    r*Q inside I_e(Q) and r outside I_e(m)."""
    IeQ = hypersurface_Ie(R, Q, e, budget)
    Ie_m = Ie_maximal(R, e, budget)
    ok, _ = ideal_subset(scale_ideal(r, Q), IeQ, budget)
    return ok and not ideal_member(r, Ie_m, budget)
