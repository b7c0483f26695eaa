"""Frobenius criteria: Fedder, hypersurface I_e, Glassbrenner search, nu_e,
and the F-pure-threshold lower bounds."""

import collections
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import froblab.frobenius
from froblab import (
    ExponentOverflow,
    HypersurfaceRing,
    Ideal,
    Ie_maximal,
    Polynomial,
    bracket_power,
    default_e_max,
    fedder_is_fpure,
    fpt_lower_bound,
    hypersurface_Ie,
    ideal_equal,
    ideal_member,
    ideal_power,
    ideal_subset,
    is_fpure_quotient,
    make_ring,
    maximal_ideal,
    nu_e,
    parse_gens,
    parse_poly,
    q_ideal,
    sfr_witness_search,
)
from froblab.groebner import last_escaping_power
from froblab.containment import xy_zk_setup

from conftest import (random_ideal_in_max, random_monomial_ideal, random_poly,
                      recheck_splitting_witness, trace_colon_reference)


class TestFedderClassical:
    def test_squarefree_f2(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        v = fedder_is_fpure(I)
        assert v.status == "confirmed"
        # the witness certifies: in the colon, outside m^[2]
        assert ideal_member(v.witness, __import__("froblab").ideal_colon(
            bracket_power(I, 1), I))
        assert not ideal_member(v.witness, bracket_power(maximal_ideal(F2xyz), 1))

    @pytest.mark.parametrize("p,expected", [(5, "refuted"), (7, "confirmed"), (13, "confirmed")])
    def test_fermat_cubic(self, p, expected):
        r = make_ring(p, ["x", "y", "z"])
        I = Ideal(r, [parse_poly(r, "x^3+y^3+z^3")])
        assert fedder_is_fpure(I).status == expected

    def test_e_independence_on_registry_cases(self, F2xyz):
        r7 = make_ring(7, ["x", "y", "z"])
        cases = [
            Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z")),
            Ideal(r7, [parse_poly(r7, "x^3+y^3+z^3")]),
            Ideal(F2xyz, parse_gens(F2xyz, "x, y")),
        ]
        for I in cases:
            assert fedder_is_fpure(I, e=1).status == fedder_is_fpure(I, e=2).status

    def test_rejects_improper(self, F2xyz):
        with pytest.raises(ValueError, match="proper"):
            fedder_is_fpure(Ideal.unit(F2xyz))


class TestHypersurfaceIe:
    def test_cone_is_fpure_via_Ie(self):
        ring = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(ring, parse_poly(ring, "x*y - z^2"))
        Ie = Ie_maximal(R, 1)
        assert not ideal_member(Polynomial.one(ring), Ie)

    def test_unit_input(self):
        ring = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(ring, parse_poly(ring, "x*y - z^2"))
        Ie = hypersurface_Ie(Ideal.unit(R), 1)
        assert not Ie.is_proper()

    def test_bracket_always_inside(self):
        for p, k in [(5, 2), (5, 3), (7, 2)]:
            R, Q, _ = xy_zk_setup(p, k)
            for e in (1, 2):
                Ie = hypersurface_Ie(Q, e)
                ok, _ = ideal_subset(bracket_power(Q, e), Ie)
                assert ok

    def test_regular_case_reduces_to_bracket(self):
        # Lemma of the finite-pd kind: in a regular ambient the non-splitting
        # ideal of a radical ideal is its bracket power. Realized through the
        # trivializing hypersurface S[w]/(w) (isomorphic to S): the trace-colon
        # formula must return Q^[q] + (w) on the nose.
        for p in (2, 3, 5):
            ring = make_ring(p, ["x", "y", "z", "w"])
            w = Polynomial.variable(ring, "w")
            R = HypersurfaceRing(ring, w)
            for gens in ("x, y", "x*y, x*z, y*z", "x*y, z"):
                Q = q_ideal(R, parse_gens(ring, gens))
                for e in (1, 2):
                    Ie = hypersurface_Ie(Q, e)
                    expected = Ideal(
                        ring,
                        [g.frobenius(e) for g in Q.gens] + [w],
                    )
                    assert ideal_equal(Ie.preimage, expected)

    # the reference's colon by f^(q-1) takes 1.2-61 s on these (ring, ideal) at p = 7, e = 2
    SLOW = {("x^3 + y^3 + z^3", "x + y, z"), ("x^2 + y^3 + z^5 + x*y*z", "x, y, z"),
            ("x^2 + y^3 + z^5 + x*y*z", "x + y, z"), ("x*y + z^2 + x^3", "x, y, z")}

    @pytest.mark.parametrize("f", ["x*y - z^2", "x^3 + y^3 + z^3", "x^2 + y^3 + z^5 + x*y*z",
                                   "x*y + z^2 + x^3"])
    @pytest.mark.parametrize("p,e_max", [(2, 4), (3, 3), (5, 2), (7, 2)])
    def test_recursion_is_the_trace_colon(self, f, p, e_max):
        # the maximal ideal, a non-maximal Q, the unit ideal and a J whose gens list f
        S = make_ring(p, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, f))
        for gens, e in itertools.product(("x, y, z", "x + y, z", "1", f"x, {f}"),
                                         range(1, e_max + 1)):
            if (p, e) == (7, 2) and (f, gens) in self.SLOW:
                continue
            J = Ideal(R, parse_gens(S, gens))
            reference = trace_colon_reference(J, e)
            assert ideal_equal(hypersurface_Ie(J, e).preimage, reference.preimage), (gens, e)

    def test_builds_no_f_to_the_q_minus_1(self, monkeypatch):
        # each of the e colons is by f^(p-1); no product or power is f^(q-1)
        R, Q, _ = xy_zk_setup(5, 2)
        target, built = R.relations[0] ** (5**3 - 1), []

        def spy(real):
            def call(a, b):
                built.append(real(a, b))
                return built[-1]
            return call

        for name in ("__mul__", "__pow__"):
            monkeypatch.setattr(Polynomial, name, spy(getattr(Polynomial, name)))
        for J in (Q, maximal_ideal(R)):
            assert hypersurface_Ie(J, 3).is_proper()
        assert built and target not in built


class TestFpureQuotient:
    @pytest.mark.parametrize("p,k", [(5, 2), (5, 3), (7, 2), (7, 3)])
    def test_ambient_hypersurface_fpure(self, p, k):
        R, _, _ = xy_zk_setup(p, k)
        v = is_fpure_quotient(q_ideal(R, []))
        assert v.status == "confirmed"
        assert v.notes["condition2_holds"]

    def test_regular_quotient_confirmed(self):
        R, Q, _ = xy_zk_setup(5, 2)
        v = is_fpure_quotient(Q)
        assert v.status == "confirmed" and v.condition == "2"

    def test_maximal_ideal_quotient_confirmed(self):
        R, _, _ = xy_zk_setup(5, 2)
        m = q_ideal(R, parse_gens(R.ambient, "x, y, z"))
        assert is_fpure_quotient(m).status == "confirmed"

    def test_unit_rejected(self):
        R, _, _ = xy_zk_setup(5, 2)
        with pytest.raises(ValueError, match="proper"):
            is_fpure_quotient(Ideal.unit(R))

    def test_refuted_needs_finite_pd(self):
        ring = make_ring(5, ["x", "y", "z"])
        f = parse_poly(ring, "x^3+y^3+z^3")
        R = HypersurfaceRing(ring, f)
        zero = q_ideal(R, [])
        assert is_fpure_quotient(zero).status == "inconclusive"
        assert is_fpure_quotient(zero, finite_pd=True).status == "refuted"

    def test_condition1_implies_condition2(self):
        # Q^[q] <= I_e(Q), so (Q^[q] : Q) <= (I_e(Q) : Q): a colon that escapes
        # I_e(m) by (1) escapes it by (2) as well; over S the two are one
        R, Q, _ = xy_zk_setup(5, 2)
        cubic = HypersurfaceRing(R.ambient, parse_poly(R.ambient, "x^3+y^3+z^3"))
        regular = make_ring(7, ["x", "y", "z"])
        cases = [(R, Q), (R, q_ideal(R, [])), (R, q_ideal(R, parse_gens(R.ambient, "x, y, z"))),
                 (cubic, q_ideal(cubic, [])),
                 (regular, Ideal(regular, parse_gens(regular, "x^3+y^3+z^3"))),
                 (regular, Ideal(regular, parse_gens(regular, "x*y, x*z, y*z")))]
        seen = set()
        for ring, ideal in cases:
            for e in (1, 2):
                notes = is_fpure_quotient(ideal, e).notes
                seen.add((notes["condition1_holds"], notes["condition2_holds"]))
                if not ring.relations:
                    assert notes["condition1_holds"] == notes["condition2_holds"]
        assert (True, False) not in seen
        assert (True, True) in seen and (False, False) in seen

    def test_splitting_witness_is_recheckable(self):
        R, Q, _ = xy_zk_setup(5, 2)
        v = is_fpure_quotient(Q)
        assert v.condition == "2"
        assert recheck_splitting_witness(Q, 1, v.witness)


class TestSfrSearch:
    def test_regular_principal(self):
        r = make_ring(5, ["x", "y"])
        Q = Ideal(r, [Polynomial.variable(r, "x")])
        v = sfr_witness_search(Q, [Polynomial.one(r)], 1)
        assert v.status == "confirmed" and v.notes["per_c"][0]["e"] == 1

    def test_nonnormal_exhausts(self):
        r = make_ring(5, ["x", "y"])
        Q = Ideal(r, [parse_poly(r, "x*y")])
        v = sfr_witness_search(Q, [Polynomial.variable(r, "x")], 3)
        assert v.status == "inconclusive"

    def test_empty_c_list(self):
        r = make_ring(5, ["x", "y"])
        with pytest.raises(ValueError, match="no test elements"):
            sfr_witness_search(Ideal(r, [Polynomial.variable(r, "x")]), [], 1)

    def test_zero_test_element_rejected(self):
        # 0 lies in every prime, so no e can satisfy the Glassbrenner condition
        r = make_ring(5, ["x", "y"])
        one = Polynomial.one(r)
        with pytest.raises(ValueError, match="test element 0 lies in every prime"):
            sfr_witness_search(Ideal(r, [Polynomial.variable(r, "x")]), [one, one - one], 3)

    def test_c_inside_listed_prime_rejected(self):
        r = make_ring(5, ["x", "y"])
        x = Polynomial.variable(r, "x")
        Q = Ideal(r, [parse_poly(r, "x*y")])
        with pytest.raises(ValueError, match="minimal prime"):
            sfr_witness_search(Q, [x], 2, minimal_primes=[Ideal(r, [x])])

    def test_hypersurface_quotient(self):
        # R/Q = F_5[y] for Q = (x,z) in the quadric cone: strongly F-regular,
        # and c = 1 succeeds immediately
        R, Q, _ = xy_zk_setup(5, 2)
        v = sfr_witness_search(Q, [Polynomial.one(R.ambient)], 2)
        assert v.status == "confirmed"

    def test_each_colon_built_once_per_e(self, monkeypatch):
        # 1 and y are found at e = 1 by condition (2), x + z exhausts e = 1..2.
        # Per e: f^(q-1)'s terms once, condition (2)'s I_e(Q) once, and each
        # criterion colon once per condition; I_e(m) is not built at all.
        R, Q, _ = xy_zk_setup(5, 2)
        calls = []

        def spy(name, real):
            def call(first, *rest):
                calls.append((name, first is (R if name == "_fedder_terms" else Q), *rest))
                return real(first, *rest)
            monkeypatch.setattr(f"froblab.frobenius.{name}", call)

        for name in ("_fedder_terms", "hypersurface_Ie", "_criterion_colon", "Ie_maximal"):
            spy(name, getattr(froblab.frobenius, name))
        c_list = [parse_poly(R.ambient, c) for c in ("1", "y", "x + z")]
        v = sfr_witness_search(Q, c_list, 2)
        assert [c["e"] for c in v.notes["per_c"]] == [1, 1, None]
        assert collections.Counter(calls) == {
            key: 1 for e in (1, 2) for key in (("_fedder_terms", True, e), ("hypersurface_Ie", True, e),
                                               ("_criterion_colon", True, e, "1"),
                                               ("_criterion_colon", True, e, "2"))}


    def test_no_colon_where_f_has_a_constant_term(self, monkeypatch):
        # on the circle x^2 + y^2 - 1, m is the unit ideal: no term of
        # f^(q-1) decides, and neither criterion builds a colon; e = 13 is
        # past the exponent range, as fpure says
        S = make_ring(5, ["x", "y"])
        R = HypersurfaceRing(S, parse_poly(S, "x^2 + y^2 - 1"))
        Q = Ideal(R, parse_gens(S, "x, y - 1"))

        def colon(*_):
            raise AssertionError("a criterion colon built")

        monkeypatch.setattr(froblab.frobenius, "_criterion_colon", colon)
        v = sfr_witness_search(Q, [parse_poly(S, "y")], 12)
        assert v.status == "inconclusive" and v.notes["per_c"] == [{"c": "y", "e": None}]
        v = is_fpure_quotient(Q, 4)
        assert v.status == "inconclusive" and v.witness is None
        assert not v.notes["condition1_holds"] and not v.notes["condition2_holds"]
        for call in (lambda: sfr_witness_search(Q, [parse_poly(S, "y")], 40),
                     lambda: is_fpure_quotient(Q, 13)):
            with pytest.raises(ExponentOverflow, match="^power degree beyond"):
                call()


class TestFedderProduct:
    """is_fpure_quotient and sfr_witness_search decide "outside I_e(m)" by
    Fedder's product: h is outside iff h*f^(q-1) keeps a term below q. The
    trace colon I_e(m) with ideal_subset is the reference: the same first
    generator outside it, and the same notes from is_fpure_quotient."""

    @staticmethod
    def random_gens(rng, R, e):
        """Polynomials of S around m^[q]: sums of multiples of I_e(m)'s
        generators, whose products with f^(q-1) cancel below q; in half the
        calls, some of them plus a term with exponents below 1, 2, q or 2q."""
        S, q = R.ambient, R.ambient.p**e
        Ie = Ie_maximal(R, e).gens

        def monomial(bound):
            return Polynomial(S, [(tuple(rng.randrange(bound) for _ in range(S.nvars)),
                                   rng.randrange(1, S.p))])

        gens = [sum((monomial(2) * rng.choice(Ie) for _ in range(rng.randrange(1, 4))),
                    Polynomial.zero(S)) for _ in range(rng.randrange(1, 6))]
        if rng.random() < 0.5:
            for i in rng.sample(range(len(gens)), rng.randrange(1, len(gens) + 1)):
                gens[i] = gens[i] + monomial(rng.choice((1, 2, q, 2 * q)))
        return gens

    CASES = [(p, e, "x*y - z^2") for p, e in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                              (5, 1), (5, 2), (7, 1))] + [
        (3, 2, "x^2 + y^2 + z^2 + x*y"), (2, 2, "x^2*y + y*z^2 + x^3"),
        (3, 2, "x^3 + y^3 + z^3 + x*y*z"),
        (5, 2, "x^3 + y^3 + z^3"), (7, 2, "x^3 + y^3 + z^3"),
        (5, 2, None), (3, 3, None), (5, 1, "x*y - z^2 + 1"), (3, 2, "x^2 + y^2 + z - 1")]

    @staticmethod
    def ring(p, f):
        S = make_ring(p, ["x", "y", "z"])
        return HypersurfaceRing(S, parse_poly(S, f)) if f else S

    @pytest.mark.parametrize("p,e,f", CASES)
    def test_first_escaping_matches_the_trace_colon(self, p, e, f):
        R, rng = self.ring(p, f), random.Random(f"{p} {e} {f}")
        terms, Ie_m = froblab.frobenius._fedder_terms(R, e), Ie_maximal(R, e)
        outcomes = set()
        for _ in range(12):
            I = Ideal(R, self.random_gens(rng, R, e))
            _, witness = ideal_subset(I, Ie_m)
            assert froblab.frobenius._first_escaping(I.gens, terms, p**e) == witness
            outcomes.add(witness is None)
        # no h escapes a unit I_e(m): f with a constant term makes m the unit
        # ideal, and a ring that is not F-pure at e has g inside m^[q]
        assert outcomes == ({True} if Ie_m.gens == (Polynomial.one(R.ambient),) else {True, False})

    @pytest.mark.parametrize("p,e,f", [(p, e, f) for p, e, f in CASES if p**e <= 9 or f is None])
    def test_fpure_notes_match_the_trace_colon(self, p, e, f):
        R, rng = self.ring(p, f), random.Random(f"{p} {e} {f} notes")
        Ie_m = Ie_maximal(R, e)
        for _ in range(3):
            Q = Ideal(R, random_ideal_in_max(R.ambient, rng, max_gens=2, max_deg=2).gens)
            if not Q.is_proper():
                continue
            inside = [ideal_subset(froblab.frobenius._criterion_colon(Q, e, c), Ie_m)
                      for c in ("1", "2")]
            v = is_fpure_quotient(Q, e)
            assert v.notes["condition1_holds"] == (not inside[0][0])
            assert v.notes["condition2_holds"] == (not inside[1][0])
            assert v.witness == inside[1][1]


class TestFPower:
    """_fedder_terms is the one builder of g = f^(q-1): the criteria and nu_e's integer
    program read its terms below q; no I_e builds g. Its range check comes before p^e is
    built past e = 31."""

    @pytest.mark.parametrize("p,e", [(p, e) for p in (2, 3, 5, 7) for e in (1, 2, 3)])
    def test_is_f_to_the_q_minus_1(self, p, e):
        S, q = make_ring(p, ["x", "y", "z"]), p**e
        rng = random.Random(f"f_power {p} {e}")
        fs = []
        while len(fs) < 6:
            # up to q^2 terms in f^(q-1) for a trinomial, q for a binomial
            f = random_poly(S, rng, max_deg=2, max_terms=3 if q <= 27 else 1)
            if not f.is_constant():
                fs.append(f + rng.randrange(1, p) if len(fs) % 2 else f)  # a constant term
        for f in fs:
            # with a constant term, m is the unit ideal, and no term decides
            below = [(t, c) for t, c in (f ** (q - 1)).terms if max(t) < q]
            expected = [] if f.terms[-1][0] == (0, 0, 0) else below
            assert froblab.frobenius._fedder_terms(HypersurfaceRing(S, f), e) == expected

    def test_one_over_S_with_no_product(self, monkeypatch):
        # 5^(10^7) has 23 million bits: over S, neither g nor its terms below q build it
        S = make_ring(5, ["x", "y"])

        def product(*_):
            raise AssertionError("a polynomial product over S")

        monkeypatch.setattr(Polynomial, "__mul__", product)
        assert froblab.frobenius._fedder_terms(S, 10**7) == [((0, 0), 1)]

    def test_degree_bound(self):
        # deg f * (q - 1) = 2^31 - 1 at e = 31 is EXPONENT_LIMIT itself
        S = make_ring(2, ["x", "y"])
        x = Polynomial.variable(S, "x")
        R = HypersurfaceRing(S, x)
        assert froblab.frobenius._fedder_terms(R, 31) == [((2**31 - 1, 0), 1)]
        for e in (32, 10**7):
            with pytest.raises(ExponentOverflow, match="^power degree beyond"):
                froblab.frobenius._fedder_terms(R, e)

    def test_huge_e_raises_before_p_to_the_e(self):
        # over S/(f) f^(q-1)'s degree fails first, over S the bracket power's
        R, Q, _ = xy_zk_setup(5, 2)
        S = R.ambient
        cases = [(lambda: is_fpure_quotient(Q, 10**7), "power degree"),
                 (lambda: nu_e(Q, 10**7), "power degree"),
                 (lambda: nu_e(Ideal(R, parse_gens(S, "x + y*z, z^2")), 10**7), "power degree"),
                 (lambda: hypersurface_Ie(Q, 10**7), "power degree"),
                 (lambda: fedder_is_fpure(Ideal(S, parse_gens(S, "x*y")), 10**7), "Frobenius power"),
                 (lambda: nu_e(Ideal(S, parse_gens(S, "x + y*z, z^2")), 10**7), "Frobenius power"),
                 (lambda: hypersurface_Ie(maximal_ideal(S), 10**7), "Frobenius power")]
        for call, message in cases:
            with pytest.raises(ExponentOverflow, match=f"^{message} beyond"):
                call()


class TestNuAndFpt:
    @pytest.mark.parametrize("e,expected", [(1, 8), (2, 48), (3, 248)])
    def test_nu_two_variables(self, e, expected):
        r = make_ring(5, ["x", "y"])
        I = Ideal(r, parse_gens(r, "x, y"))
        assert nu_e(I, e) == expected

    @pytest.mark.parametrize("e,expected", [(1, 4), (2, 24)])
    def test_nu_principal(self, e, expected):
        r = make_ring(5, ["x", "y"])
        I = Ideal(r, [Polynomial.variable(r, "x")])
        assert nu_e(I, e) == expected

    def test_nu_monomial_fast_path_matches_generic(self):
        r = make_ring(3, ["x", "y"])
        I = Ideal(r, parse_gens(r, "x*y, x^2"))
        fast = nu_e(I, 1)
        # generic route: scan by hand with ideal powers
        from froblab import ideal_power

        Ie_m = bracket_power(maximal_ideal(r), 1)
        r_scan = 1
        while True:
            ok, _ = ideal_subset(ideal_power(I, r_scan), Ie_m)
            if ok:
                break
            r_scan += 1
        assert fast == r_scan - 1

    def test_nu_superadditive_evidence(self):
        r = make_ring(2, ["x", "y"])
        for gens in ("x, y", "x*y", "x^2, y"):
            I = Ideal(r, parse_gens(r, gens))
            values = {e: nu_e(I, e) for e in (1, 2, 3)}
            for e in (1, 2):
                assert values[e + 1] >= 2 * values[e]

    def test_fpt_estimate(self):
        r = make_ring(5, ["x", "y"])
        I = Ideal(r, parse_gens(r, "x, y"))
        est = fpt_lower_bound(I, 2)
        assert est.nu_values == [(1, 8), (2, 48)]
        assert est.lower_bound == Fraction(48, 25)
        assert est.floor_lower_bound == 1

    def test_fpt_principal(self):
        r = make_ring(5, ["x", "y"])
        I = Ideal(r, [Polynomial.variable(r, "x")])
        est = fpt_lower_bound(I, 2)
        assert est.floor_lower_bound == 0
        assert est.lower_bound == Fraction(24, 25)

    def test_fpt_rejects_unit(self):
        r = make_ring(5, ["x", "y"])
        with pytest.raises(ValueError, match="proper"):
            fpt_lower_bound(Ideal.unit(r), 1)

    def test_default_e_max(self):
        assert default_e_max(5) == 3
        assert default_e_max(13) == 2
        assert default_e_max(101) == 1

    def test_nu_in_hypersurface_matches_manual_scan(self):
        R, _, _ = xy_zk_setup(5, 2)
        m = q_ideal(R, parse_gens(R.ambient, "x, y, z"))
        value = nu_e(m, 1)
        Ie_m = Ie_maximal(R, 1)
        r_scan, current = 1, m
        while True:
            ok, _ = ideal_subset(ideal_power(m, r_scan), Ie_m)
            if ok:
                break
            r_scan += 1
        assert value == r_scan - 1
        # frozen from the scan above; nu_2 = 24 >= p*nu_1 checks superadditivity
        assert value == 4
        assert nu_e(m, 2) == 24


class TestNuClosedForms:
    """Closed forms derived by hand: 3(q-1)/2 for the edge ideal of a
    triangle, q - 1 for m and (x, z) in the quadric cone xy - z^2."""

    def test_edge_ideal_e3(self):
        r = make_ring(5, ["x", "y", "z"])
        assert nu_e(Ideal(r, parse_gens(r, "x*y, x*z, y*z")), 3) == 186

    @pytest.mark.parametrize("gens", ["x, y, z", "x, z"])
    def test_quadric_cone_e2(self, gens):
        ring = make_ring(7, ["x", "y", "z"])
        R = HypersurfaceRing(ring, parse_poly(ring, "x*y - z^2"), reduced=True)
        assert nu_e(q_ideal(R, parse_gens(ring, gens)), 2) == 48

    def test_fpt_cli_edge_ideal(self, capsys):
        from froblab.cli import main

        code = main(["fpt", "--ring", "F5[x,y,z]", "--ideal", "x*y,x*z,y*z", "--emax", "3", "--json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["nu_values"] == [[1, 6], [2, 36], [3, 186]]


def _reference_nu(I, e):
    """nu_e by building I^r for r = 1, 2, ... until it lands inside I_e(m)."""
    target = Ie_maximal(I.ring, e)
    r = 1
    while not ideal_subset(ideal_power(I, r), target)[0]:
        r += 1
        assert r <= 100, "reference scan did not terminate"
    return r - 1


class TestNuDifferential:
    """The frontier scan of nu_e against the power-by-power reference scan."""

    @pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_monomial_ideals(self, p, e):
        rng = random.Random(100 * p + e)
        for nvars in (2, 3):
            ring = make_ring(p, ["x", "y", "z"][:nvars])
            for _ in range(6):
                I = random_monomial_ideal(ring, rng)
                assert nu_e(I, e) == _reference_nu(I, e), I

    @pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_general_ideals(self, p, e):
        rng = random.Random(200 * p + e)
        ring = make_ring(p, ["x", "y", "z"])
        for _ in range(6):
            I = random_ideal_in_max(ring, rng)
            assert nu_e(I, e) == _reference_nu(I, e), I

    @pytest.mark.parametrize("p,k,e", [(2, 3, 1), (2, 3, 2), (3, 2, 1), (3, 2, 2)])
    def test_hypersurface_ideals(self, p, k, e):
        R, Q, _ = xy_zk_setup(p, k)
        ring = R.ambient
        ideals = [Q, q_ideal(R, parse_gens(ring, "x, y, z"))]
        rng = random.Random(300 * p + 10 * k + e)
        while len(ideals) < 6:
            ideals.append(q_ideal(R, random_ideal_in_max(ring, rng, max_deg=2).gens))
        for I in ideals:
            assert nu_e(I, e) == _reference_nu(I, e), I


# (p, e) with q = p^e <= 49
SMALL_Q = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3),
           (5, 1), (5, 2), (7, 1), (7, 2)]


def _variable_ideals(R):
    """The ideals of R generated by a nonempty subset of x, y, z."""
    S = R.ambient
    for k in (1, 2, 3):
        for names in itertools.combinations("xyz", k):
            yield Ideal(R, [Polynomial.variable(S, v) for v in names])


@pytest.fixture
def scans(monkeypatch):
    """The generator tuples nu_e hands to the frontier scan."""
    calls = []

    def spy(gens, J, cap):
        calls.append(gens)
        return last_escaping_power(gens, J, cap)

    monkeypatch.setattr("froblab.frobenius.last_escaping_power", spy)
    return calls


class TestNuVariableIdeals:
    """nu_e of an ideal generated by variables, by the integer program, against
    the frontier scan over I_e(m) and, for q <= 9, the power-by-power
    reference scan."""

    @pytest.mark.parametrize("p,e", SMALL_Q)
    @pytest.mark.parametrize("relation", [None, "x*y - z^2", "x*y - z^3"])
    def test_matches_scans(self, p, e, relation, scans):
        S = make_ring(p, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, relation)) if relation else S
        q = p**e
        for I in _variable_ideals(R):
            nu = nu_e(I, e)
            assert nu == last_escaping_power(I.gens, Ie_maximal(R, e), 3 * (q - 1) + 2), I
            if q <= 9:
                assert nu == _reference_nu(I, e), I
            if not relation:
                assert nu == len(I.gens) * (q - 1)
        assert scans == []

    @pytest.mark.parametrize("e", [1, 2, 3, 4, 5])
    def test_no_term_survives(self, e, scans):
        # over F_2 every term of (x^3 + y^3 + z^3)^(q-1) has an exponent of
        # at least q, so I_e(m) is the unit ideal
        S = make_ring(2, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, "x^3 + y^3 + z^3"))
        for I in _variable_ideals(R):
            assert nu_e(I, e) == 0
            assert last_escaping_power(I.gens, Ie_maximal(R, e), 3 * (2**e - 1) + 2) == 0
        assert Ie_maximal(R, 1).groebner_basis().is_unit()
        assert scans == []

    @pytest.mark.parametrize("relation", [None, "x*y - z^2"])
    def test_scaled_and_repeated_generators(self, relation, scans):
        S = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, relation)) if relation else S
        plain = Ideal(R, parse_gens(S, "x, z"))
        for gens in ("2*x, z", "x, x, 3*z", "x, 4*x, z, z"):
            I = Ideal(R, parse_gens(S, gens))
            for e in (1, 2):
                assert nu_e(I, e) == nu_e(plain, e) == last_escaping_power(
                    I.gens, Ie_maximal(R, e), 3 * (5**e - 1) + 2)
        assert scans == []

    def test_constant_term_relation_falls_back_to_the_scan(self, scans):
        # m is the unit ideal of F_5[x,y,z]/(xy - 1), so the integer
        # program's premise f in m fails
        S = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, "x*y - 1"))
        I = Ideal(R, parse_gens(S, "z"))
        assert nu_e(I, 1) == _reference_nu(I, 1) == 0
        assert scans == [I.gens]

    def test_other_ideals_scan(self, scans):
        S = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, "x*y - z^2"))
        for gens in ("x, z^2 + y*z", "x + y, z", "x*y - z^3, z"):
            nu_e(Ideal(R, parse_gens(S, gens)), 1)
        assert len(scans) == 3


def _lp_one(A):
    """max sum c over c >= 0 with sum c_j a_j <= 1 in every coordinate: the
    best vertex, each the solution of k tight constraints (c_j = 0 or a
    coordinate's sum = 1), by Gauss-Jordan elimination over Fractions."""
    k, n = len(A), len(A[0])
    constraints = [([Fraction(int(i == j)) for i in range(k)], 0) for j in range(k)]
    constraints += [([Fraction(a[i]) for a in A], 1) for i in range(n)]
    best = Fraction(0)
    for tight in itertools.combinations(constraints, k):
        M = [row + [Fraction(v)] for row, v in tight]
        for col in range(k):
            pivot = next((r for r in range(col, k) if M[r][col]), None)
            if pivot is None:
                break
            M[col], M[pivot] = M[pivot], M[col]
            M[col] = [v / M[col][col] for v in M[col]]
            for r in range(k):
                if r != col and M[r][col]:
                    M[r] = [v - M[r][col] * w for v, w in zip(M[r], M[col])]
        else:
            c = [row[-1] for row in M]
            if min(c) >= 0 and all(sum(cj * a[i] for cj, a in zip(c, A)) <= 1 for i in range(n)):
                best = max(best, sum(c))
    return best


class TestNuMonomialProgram:
    """nu_e of ideals generated by monomials, by the integer program, against
    the power-by-power reference and the frontier scan over I_e(m), and two
    properties: nu_(e+1) >= p nu_e, and nu_e / q at most the value of the LP
    with right side 1 (Howald's log canonical threshold)."""

    @pytest.mark.parametrize("p,e", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    @pytest.mark.parametrize("relation", [None, "x*y - z^2", "x*y - z^3"])
    def test_matches_scans(self, p, e, relation, scans):
        S = make_ring(p, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, relation)) if relation else S
        q = p**e
        rng = random.Random(f"program {p} {e} {relation}")
        for _ in range(5):
            I = Ideal(R, random_monomial_ideal(S, rng, max_gens=4).gens)
            nu = nu_e(I, e)
            assert nu == last_escaping_power(I.gens, Ie_maximal(R, e), 3 * (q - 1) + 2), I
            assert nu == _reference_nu(I, e), I
        assert scans == []

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from([2, 3, 5]),
        st.sampled_from([None, "x*y - z^2", "x*y - z^3"]),
        st.lists(st.tuples(*[st.integers(0, 3)] * 3).filter(any), min_size=1, max_size=4),
    )
    def test_lp_properties(self, p, relation, exponents):
        S = make_ring(p, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, relation)) if relation else S
        I = Ideal(R, [Polynomial.monomial(S, a) for a in exponents])
        nus = [nu_e(I, e) for e in (1, 2, 3)]
        assert all(later >= p * nu for nu, later in zip(nus, nus[1:])), nus
        lp = _lp_one(exponents)
        assert all(Fraction(nu, p**e) <= lp for e, nu in enumerate(nus, 1)), (nus, lp)


def _monomial_ass(ring, J):
    """Independent combinatorial Ass computation for a monomial ideal:
    P_S is associated iff (J : w) = P_S for some monomial w outside J."""
    from froblab.idealops import monomials_up_to
    from froblab import ideal_colon

    gens = [g.lead_monomial() for g in J.gens]
    max_exp = max((max(m) for m in gens), default=0) + 1
    out = set()
    for w_exps in itertools.product(range(max_exp + 1), repeat=ring.nvars):
        w = Polynomial.monomial(ring, w_exps)
        if ideal_member(w, J):
            continue
        colon = ideal_colon(J, w)
        basis = colon.groebner_basis()
        names = []
        ok = True
        for g in basis:
            m = g.lead_monomial()
            if len(g.terms) == 1 and sum(m) == 1:
                names.append(m.index(1))
            else:
                ok = False
                break
        if ok and names:
            out.add(frozenset(names))
    return out


class TestAssConsistency:
    def test_bracket_preserves_ass_squarefree(self):
        # radical monomial ideals in a regular ambient: Ass(Q^[q]) = Ass(Q),
        # matching the finite-pd behavior of the non-splitting ideals
        ring = make_ring(2, ["x", "y", "z"])
        for gens in ("x*y, x*z, y*z", "x, y", "x*y", "x, y*z"):
            Q = Ideal(ring, parse_gens(ring, gens))
            ass_Q = _monomial_ass(ring, Q)
            ass_brQ = _monomial_ass(ring, bracket_power(Q, 1))
            assert ass_Q == ass_brQ
            from froblab.symbolic import monomial_minimal_primes

            covers = {
                frozenset(
                    g.lead_monomial().index(1) for g in P.gens
                )
                for P in monomial_minimal_primes(Q)
            }
            assert ass_Q == covers
