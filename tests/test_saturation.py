"""Saturation by one elimination (the Rabinowitsch trick) against the iterated
colon loop it replaced, kept in conftest as the reference; the stabilization
exponent; the Buchberger runs that saturation and I_e(m) no longer repeat; and
the separator check that reads s = 0 off a saturation.
"""

import functools
import random
import sys

import pytest

import froblab.groebner as groebner
import froblab.idealops as idealops
from froblab import (
    BudgetExceeded,
    HypersurfaceRing,
    Ideal,
    Ie_maximal,
    Polynomial,
    ideal_equal,
    ideal_subset,
    make_ring,
    nu_e,
    parse_gens,
    parse_poly,
    q_ideal,
    run_example,
    saturate,
)

from froblab.cli import main

from conftest import (iterated_colon_saturate, random_homogeneous, random_ideal, random_ideal_in_max,
                      random_poly, rings)


def assert_matches_reference(I, by):
    sat, s = saturate(I, by)
    ref_sat, ref_s = iterated_colon_saturate(I, by)
    assert ideal_equal(sat, ref_sat), (I, by)
    assert s == ref_s, (I, by)
    return sat, s


@pytest.mark.parametrize("p", [2, 3, 5])
class TestAgainstIteratedColon:
    def test_by_random_polynomial(self, p):
        rng = random.Random(100 + p)
        for R in rings(p):
            S = R.ambient
            for _ in range(4):
                I = Ideal(R, random_ideal(S, rng, max_gens=3, max_deg=3).gens)
                g = random_poly(S, rng, max_deg=2, max_terms=2, nonzero=True)
                sat, _ = assert_matches_reference(I, g)
                # the elimination itself, also where the grevlex shortcut applies
                assert ideal_equal(idealops._saturate_rabinowitsch(I, g), sat), (I, g)

    def test_by_monomial(self, p):
        # monomial separators give long colon chains
        rng = random.Random(200 + p)
        for R in rings(p):
            S = R.ambient
            for _ in range(3):
                I = Ideal(R, random_ideal(S, rng, max_gens=3, max_deg=4, max_terms=2).gens)
                g = Polynomial.variable(S, rng.choice(S.variables)) ** rng.randrange(1, 3)
                assert_matches_reference(I, g)

    def test_by_two_generator_ideal(self, p):
        rng = random.Random(300 + p)
        for R in rings(p):
            S = R.ambient
            for _ in range(3):
                I = Ideal(R, random_ideal_in_max(S, rng, max_gens=3, max_deg=3).gens)
                J = Ideal(R, [random_poly(S, rng, max_deg=2, max_terms=2, nonzero=True)
                              for _ in range(2)])
                if len(J.gens) == 2:
                    assert_matches_reference(I, J)


class TestCorners:
    @pytest.mark.parametrize("R", list(rings(5)), ids=["grevlex", "lex", "cone2", "cone3"])
    def test_constant_is_stable_at_zero(self, R):
        S = R.ambient
        I = q_ideal(R, parse_gens(S, "x^2*y, x*z + y^2"))
        sat, s = assert_matches_reference(I, Polynomial.constant(S, 3))
        assert ideal_equal(sat, I) and s == 0

    def test_already_saturated(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y - z^2, x^3"))
        sat, s = assert_matches_reference(I, parse_poly(F5xyz, "y + z"))
        assert s == 0 and ideal_equal(sat, I)

    def test_selftest_unit_case(self, F5xyz):
        x = Polynomial.variable(F5xyz, "x")
        sat, s = assert_matches_reference(Ideal(F5xyz, [x**2]), x)
        assert not sat.is_proper() and s == 2

    def test_step_cap(self, F5xyz, monkeypatch):
        x = Polynomial.variable(F5xyz, "x")
        # s = 2 needs three colon steps, the last one to see the chain stop
        monkeypatch.setattr(idealops, "MAX_SATURATION_STEPS", 3)
        assert saturate(Ideal(F5xyz, [x**2]), x)[1] == 2
        monkeypatch.setattr(idealops, "MAX_SATURATION_STEPS", 2)
        with pytest.raises(BudgetExceeded, match="step cap"):
            saturate(Ideal(F5xyz, [x**2]), x)

    @pytest.mark.parametrize("R", list(rings(3)), ids=["grevlex", "lex", "cone2", "cone3"])
    def test_attached_basis_is_the_reduced_basis(self, R):
        rng = random.Random(7)
        S = R.ambient
        for _ in range(6):
            I = Ideal(R, random_ideal(S, rng, max_gens=3, max_deg=3).gens)
            g = random_poly(S, rng, max_deg=2, max_terms=2, nonzero=True)
            sat = idealops._saturate_rabinowitsch(I, g)
            attached = sat._gb
            assert (attached is not None) == (S.order == "grevlex")
            assert sat.groebner_basis() == Ideal(S, sat.preimage.gens).groebner_basis()
            assert ideal_subset(I, sat)[0]


def unseeded_saturation(I, g):
    """The t-free part of the reduced basis of I's preimage generators plus
    1 - t*g, computed from those generators alone, as over lex and block rings."""
    S = I.ring.ambient
    ring2, t = idealops._t_ring(S)
    gens2 = [h.in_ring(ring2) for h in I.preimage.gens]
    gens2.append(Polynomial.one(ring2) - t * g.in_ring(ring2))
    return tuple(h.in_ring(S) for h in groebner.elimination_basis(ring2, gens2))


@pytest.mark.parametrize("over", ["S", "S/(f)"])
def test_seeded_elimination_equals_the_unseeded(over, monkeypatch):
    """Over a grevlex ring the Rabinowitsch elimination starts from I's
    reduced basis. Its t-free part must be the one the raw generators give,
    by a polynomial and, intersected, by an ideal."""
    seeds = []
    pair_loop = groebner._pair_loop

    def recorded(ring, gens, known=()):
        seeds.append(len(known))
        return pair_loop(ring, gens, known)

    monkeypatch.setattr(groebner, "_pair_loop", recorded)
    rng = random.Random(f"seeded saturation {over}")
    S = make_ring(5, ["x", "y", "z", "w"])
    for _ in range(12):
        R = S
        if over == "S/(f)":
            (f,) = random_ideal_in_max(S, rng, max_gens=1, max_deg=3, max_terms=3).gens
            R = HypersurfaceRing(S, f)
        I = Ideal(R, random_ideal_in_max(S, rng, max_gens=3, max_deg=3).gens)
        J = Ideal(R, [random_poly(S, rng, max_deg=2, max_terms=2, nonzero=True)
                      for _ in range(2)])
        expected = [unseeded_saturation(I, g) for g in J.gens]
        for g, basis in zip(J.gens, expected):
            sat, _ = saturate(I, g)
            assert sat.groebner_basis().elements == basis, (I, g)
        sat, _ = saturate(I, J)
        meet = functools.reduce(idealops.ideal_intersect, (Ideal(R, b) for b in expected))
        assert ideal_equal(sat, meet), (I, J)
    assert sum(n > 0 for n in seeds) >= 24  # the seeded path ran


def record_runs(monkeypatch):
    """Each Buchberger input, every argument (the seed too), with whether a
    saturate call is on the stack."""
    runs = []
    run = groebner._buchberger
    saturate_code = idealops.saturate.__code__

    def terms(polys):
        return tuple(sorted(g.monic().terms for g in polys))

    def recorded(ring, gens, front=0, known=()):
        frame, inside = sys._getframe(1), False
        while frame is not None and not inside:
            inside = frame.f_code is saturate_code
            frame = frame.f_back
        runs.append(((ring, terms(gens), front, terms(known)), inside))
        return run(ring, gens, front, known)

    monkeypatch.setattr(groebner, "_buchberger", recorded)
    return runs


class TestNoRepeatedRuns:
    def test_xy_zk_saturations(self, monkeypatch):
        runs = record_runs(monkeypatch)
        assert all(r.ok for r in run_example("xy-zk", {"p": 5, "k": 3, "n": "1..3"}))
        seen, repeats = set(), []
        for key, inside in runs:
            if inside and key in seen:
                repeats.append(key)
            seen.add(key)
        assert any(inside for _, inside in runs)
        assert repeats == []

    def test_nu_e_keeps_Ie_maximal(self, monkeypatch):
        S = make_ring(7, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, "x*y - z^2"))
        runs = record_runs(monkeypatch)
        # not generated by monomials, so each nu_e scans against I_e(m)
        assert nu_e(q_ideal(R, parse_gens(S, "x + y^2, z")), 2) == 48
        assert nu_e(q_ideal(R, parse_gens(S, "x^2 + y, z")), 2) == 48
        keys = [key for key, _ in runs]
        assert len(set(keys)) == len(keys)
        assert Ie_maximal(R, 2) is Ie_maximal(R, 2)
        assert Ie_maximal(R, 1) is not Ie_maximal(R, 2)


class TestNuInsideMaximal:
    @pytest.mark.parametrize("relation", [None, "x*y - z^2"])
    def test_constant_term_escapes(self, relation):
        S = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, relation)) if relation else S
        with pytest.raises(ValueError, match="ideal of all variables"):
            nu_e(Ideal(R, parse_gens(S, "x + 1, y")), 1)
        assert nu_e(Ideal(R, parse_gens(S, "x + y^2, y")), 1) >= 0

    def test_unit_maximal_ideal_holds_everything(self):
        # xy - 1 has a constant term, so m is the unit ideal of the ring
        S = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, "x*y - 1"))
        assert nu_e(Ideal(R, parse_gens(S, "x + 1")), 1) == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_separator_check_agrees_with_the_colon(p, monkeypatch):
    """generic_determinantal_setup's nonzerodivisor test, s = 0 in saturate,
    against (I : v) = I on random homogeneous ideals of S, for v the last
    grevlex variable (the divided basis, Bayer-Stillman) and the others (the
    Rabinowitsch elimination)."""
    paths = set()
    for path in ("_saturate_grevlex_last", "_saturate_rabinowitsch"):
        def taken(*args, _path=path, _run=getattr(idealops, path)):
            paths.add(_path)
            return _run(*args)
        monkeypatch.setattr(idealops, path, taken)
    rng = random.Random(400 + p)
    S = make_ring(p, ["x", "y", "z", "w"])
    verdicts = set()
    for _ in range(8):
        gens = random_homogeneous(S, rng)
        for v in S.variables:
            var = Polynomial.variable(S, v)
            nonzerodivisor = saturate(Ideal(S, gens), var)[1] == 0
            assert nonzerodivisor == ideal_equal(idealops.ideal_colon(Ideal(S, gens), var),
                                                 Ideal(S, gens)), (gens, v)
            verdicts.add((v == S.variables[-1], nonzerodivisor))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}
    assert paths == {"_saturate_grevlex_last", "_saturate_rabinowitsch"}


def test_degenerate_determinantal_draws_still_stop(capsys):
    # in two variables the minors generate an ideal primary to (x1, x2), so
    # the last variable is a zero divisor mod I on every draw
    assert main(["example", "generic-determinantal", "--param", "d=2"]) == 2
    assert capsys.readouterr().err == "error: persistent degenerate draws; seed range unusable\n"
