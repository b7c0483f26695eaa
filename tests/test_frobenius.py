"""Frobenius criteria: Fedder, hypersurface I_e, Glassbrenner search, nu_e,
and the F-pure-threshold lower bounds."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from froblab import (
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
from froblab.frobenius import recheck_splitting_witness
from froblab.containment import xy_zk_setup

from conftest import random_ideal_in_max, random_monomial_ideal


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
        Ie = hypersurface_Ie(R, Ideal.unit(R), 1)
        assert not Ie.is_proper()

    def test_bracket_always_inside(self):
        for p, k in [(5, 2), (5, 3), (7, 2)]:
            R, Q, _ = xy_zk_setup(p, k)
            for e in (1, 2):
                Ie = hypersurface_Ie(R, Q, e)
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
                    Ie = hypersurface_Ie(R, Q, e)
                    expected = Ideal(
                        ring,
                        [g.frobenius(e) for g in Q.gens] + [w],
                    )
                    assert ideal_equal(Ie.preimage, expected)


class TestFpureQuotient:
    @pytest.mark.parametrize("p,k", [(5, 2), (5, 3), (7, 2), (7, 3)])
    def test_ambient_hypersurface_fpure(self, p, k):
        R, _, _ = xy_zk_setup(p, k)
        v = is_fpure_quotient(R, q_ideal(R, []))
        assert v.status == "confirmed"
        assert v.notes["condition2_holds"]

    def test_regular_quotient_confirmed(self):
        R, Q, _ = xy_zk_setup(5, 2)
        v = is_fpure_quotient(R, Q)
        assert v.status == "confirmed" and v.condition == "2"

    def test_maximal_ideal_quotient_confirmed(self):
        R, _, _ = xy_zk_setup(5, 2)
        m = q_ideal(R, parse_gens(R.ambient, "x, y, z"))
        assert is_fpure_quotient(R, m).status == "confirmed"

    def test_unit_rejected(self):
        R, _, _ = xy_zk_setup(5, 2)
        with pytest.raises(ValueError, match="proper"):
            is_fpure_quotient(R, Ideal.unit(R))

    def test_refuted_needs_finite_pd(self):
        ring = make_ring(5, ["x", "y", "z"])
        f = parse_poly(ring, "x^3+y^3+z^3")
        R = HypersurfaceRing(ring, f)
        zero = q_ideal(R, [])
        assert is_fpure_quotient(R, zero).status == "inconclusive"
        assert is_fpure_quotient(R, zero, finite_pd=True).status == "refuted"

    def test_splitting_witness_is_recheckable(self):
        R, Q, _ = xy_zk_setup(5, 2)
        v = is_fpure_quotient(R, Q)
        assert v.condition == "2"
        assert recheck_splitting_witness(R, Q, 1, v.witness)


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
