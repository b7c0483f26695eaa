"""Frobenius splitting machinery: Fedder-type criteria, the non-splitting
ideals I_e in hypersurface rings, Glassbrenner-type witness searches, and the
nu_e / F-pure-threshold lower bounds.

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
from .quotient import (
    HypersurfaceRing,
    QuotientIdeal,
    q_bracket,
    q_colon,
    q_ideal,
    q_member,
    q_subset,
)
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


def _require_proper(gb_owner, what):
    if gb_owner.groebner_basis().is_unit():
        raise ValueError(f"{what} must be proper")


def fedder_is_fpure(I: Ideal, m: Ideal | None = None, e: int = 1, budget=None) -> CriterionVerdict:
    """Classical Fedder criterion in a regular ambient ring.

    Confirmed iff (I^[p^e] : I) is not contained in m^[p^e]; in the regular
    case this is an if-and-only-if, so refuted really means not F-pure.
    """
    ring = I.ring
    if m is None:
        m = maximal_ideal(ring)
    expected = {Polynomial.variable(ring, v).terms for v in ring.variables}
    if {g.terms for g in m.gens} != expected:
        raise ValueError("m must be the ideal of all variables")
    if I.is_zero():
        raise ValueError("ideal must be nonzero")
    _require_proper(I, "ideal")
    colon = ideal_colon(bracket_power(I, e), I, budget)
    contained, witness = ideal_subset(colon, bracket_power(m, e), budget)
    if not contained:
        return CriterionVerdict("confirmed", e, witness=witness, condition="fedder")
    return CriterionVerdict(
        "refuted", e, notes={"reason": "colon ideal inside the bracketed maximal ideal"}
    )


def hypersurface_Ie(R: HypersurfaceRing, J: QuotientIdeal, e: int, budget=None) -> QuotientIdeal:
    """The non-splitting ideal I_e(J) of R = S/(f) via the trace generator.

    Preimage: ((J_S^[q] + (f^q)) : f^(q-1)) with q = p^e. The f^q term stays
    explicit even when redundant. The containment J^[q] <= I_e(J) is a theorem;
    it is re-checked here and a failure signals an internal bug.
    """
    if J.ring != R:
        raise RingMismatch("quotient ideal from a different hypersurface ring")
    if e < 1:
        raise ValueError("I_e needs e >= 1")
    q = R.ambient.p**e
    f_qm1 = R.f ** (q - 1)
    bracket = [g.frobenius(e) for g in J.named_gens]
    base = Ideal(R.ambient, bracket + [R.f.frobenius(e)])
    colon = ideal_colon(base, f_qm1, budget)
    result = QuotientIdeal(R, colon.gens)
    ok, bad = q_subset(q_bracket(J, e), result, budget)
    if not ok:
        raise ArithmeticError(
            f"internal error: bracket power escaped I_e (witness {bad})"
        )
    return result


def Ie_maximal(ambient, e: int, budget=None):
    """I_e of the irrelevant maximal ideal: m^[q] in a regular ring,
    the trace colon in a hypersurface ring."""
    if isinstance(ambient, HypersurfaceRing):
        m = q_ideal(
            ambient, [Polynomial.variable(ambient.ambient, v) for v in ambient.ambient.variables]
        )
        return hypersurface_Ie(ambient, m, e, budget)
    return bracket_power(maximal_ideal(ambient), e)


def is_fpure_quotient(
    R: HypersurfaceRing, Q: QuotientIdeal, e: int = 1, finite_pd: bool = False, budget=None
) -> CriterionVerdict:
    """Fedder-type criterion for F-purity of R/Q in a hypersurface ring.

    Evaluates both sufficient conditions at the given e:
      (1) (Q^[p^e] : Q) not inside I_e(m)
      (2) (I_e(Q) : Q) not inside I_e(m)
    Either confirms. Refuted needs the caller-asserted finite-pd flag (the
    converse direction of the criterion); otherwise the verdict is
    inconclusive.
    """
    if Q.ring != R:
        raise RingMismatch("quotient ideal from a different hypersurface ring")
    if not Q.is_proper():
        raise ValueError("Q must be proper")
    Ie_m = Ie_maximal(R, e, budget)

    colon1 = q_colon(q_bracket(Q, e), Q, budget)
    in1, wit1 = q_subset(colon1, Ie_m, budget)
    IeQ = hypersurface_Ie(R, Q, e, budget)
    colon2 = q_colon(IeQ, Q, budget)
    in2, wit2 = q_subset(colon2, Ie_m, budget)

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
    Q, c_list, e_max: int, minimal_primes=None, budget=None
) -> CriterionVerdict:
    """Glassbrenner-type search: for each test element c, hunt for an e with
    c*(Q^[p^e] : Q) not inside I_e(m).

    Q is an Ideal (regular ambient) or a QuotientIdeal (hypersurface). All
    supplied c succeeding is supporting evidence for strong F-regularity at
    the tested elements; exhausting e_max is inconclusive, never a refutation.
    """
    if not c_list:
        raise ValueError("no test elements supplied")
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    quotient = isinstance(Q, QuotientIdeal)
    ambient = Q.ring
    if minimal_primes:
        for c in c_list:
            for P in minimal_primes:
                inside = (
                    ideal_member(c, P.preimage, budget)
                    if isinstance(P, QuotientIdeal)
                    else ideal_member(c, P, budget)
                )
                if inside:
                    raise ValueError(
                        f"test element {c} lies in a listed minimal prime"
                    )
    per_c = []
    all_ok = True
    witness = None
    for c in c_list:
        found = None
        for e in range(1, e_max + 1):
            Ie_m = Ie_maximal(ambient, e, budget)
            # condition (1): c (Q^[q] : Q) escapes I_e(m)
            if quotient:
                colon = q_colon(q_bracket(Q, e), Q, budget)
                cand = QuotientIdeal(Q.ring, [c * g for g in colon.named_gens])
                inside, wit = q_subset(cand, Ie_m, budget)
            else:
                colon = ideal_colon(bracket_power(Q, e), Q, budget)
                cand = scale_ideal(c, colon)
                inside, wit = ideal_subset(cand, Ie_m, budget)
            if not inside:
                found = (e, wit, "1")
                break
            # condition (2): c (I_e(Q) : Q) escapes I_e(m); only the
            # hypersurface case has a separate I_e (regular: I_e = bracket)
            if quotient:
                colon2 = q_colon(hypersurface_Ie(Q.ring, Q, e, budget), Q, budget)
                cand2 = QuotientIdeal(Q.ring, [c * g for g in colon2.named_gens])
                inside2, wit2 = q_subset(cand2, Ie_m, budget)
                if not inside2:
                    found = (e, wit2, "2")
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


def nu_e(I, e: int, budget=None) -> int:
    """nu_e(I) = max{r : I^r not inside I_e(m)} (Mustata-Takagi-Watanabe),
    by a frontier scan that builds no power of I.

    Every multiple of an element of J = I_e(m) lies in J, and normal forms
    modulo J satisfy NF(a*b) = NF(NF(a)*b). So only the generators of I^r
    still outside J are carried to level r+1, each as its nonzero normal form
    against J (for S/(f), against the preimage, which contains f), duplicates
    dropped; nu_e is r - 1 at the first level whose frontier is empty. A
    monomial I against m^[q] runs on packed monomials, where outside is a
    guard-bit test. The pigeonhole bound m^(n(q-1)+1) <= m^[q] <= J caps r.
    """
    quotient = isinstance(I, QuotientIdeal)
    ambient = I.ring
    if quotient:
        if not I.is_proper():
            raise ValueError("I must be proper")
        if not I.named_gens:
            raise ValueError("I must be nonzero")
        m_R = q_ideal(
            ambient, [Polynomial.variable(ambient.ambient, v) for v in ambient.ambient.variables]
        )
        inside_m, _ = q_subset(I, m_R, budget)
    else:
        if I.is_zero():
            raise ValueError("I must be nonzero")
        _require_proper(I, "I")
        inside_m, _ = ideal_subset(I, maximal_ideal(ambient), budget)
    if not inside_m:
        raise ValueError("I must be contained in the ideal of all variables")
    Ie_m = Ie_maximal(ambient, e, budget)
    ring = ambient.ambient if quotient else ambient
    cap = ring.nvars * (ring.p**e - 1) + 2
    gens, J = (I.named_gens, Ie_m.preimage) if quotient else (I.gens, Ie_m)
    nu = last_escaping_power(gens, J, cap, budget)
    if nu is None:
        raise ArithmeticError("nu_e scan escaped its pigeonhole bound (internal bug)")
    return nu


def fpt_lower_bound(I, e_max: int, budget=None) -> FptEstimate:
    """nu_e for e = 1..e_max and the induced floor of max nu_e / p^e."""
    if e_max < 1:
        raise ValueError("e_max must be >= 1")
    quotient = isinstance(I, QuotientIdeal)
    p = I.ring.ambient.p if quotient else I.ring.p
    values = []
    best = Fraction(0)
    for e in range(1, e_max + 1):
        nu = nu_e(I, e, budget)
        values.append((e, nu))
        frac = Fraction(nu, p**e)
        if frac > best:
            best = frac
    return FptEstimate(values, best, int(best))


def recheck_splitting_witness(R: HypersurfaceRing, Q: QuotientIdeal, e: int, r: Polynomial, budget=None) -> bool:
    """Certificate check for a condition-(2) F-purity witness:
    r*Q inside I_e(Q) and r outside I_e(m)."""
    IeQ = hypersurface_Ie(R, Q, e, budget)
    Ie_m = Ie_maximal(R, e, budget)
    rQ = QuotientIdeal(R, [r * g for g in Q.named_gens])
    ok, _ = q_subset(rQ, IeQ, budget)
    return ok and not q_member(r, Ie_m, budget)
