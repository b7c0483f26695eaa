"""One ideal type for S and S/(f).

Differential tests: every ideal operation on seeded random ideals of S and of
F_p[x,y,z]/(xy - z^k), p in {2, 3, 5}, against a reference that builds the
preimages in S explicitly (generators plus f) and applies the same operations
to those relation-free ideals. Then one test per relation-free shortcut that
is wrong once a relation exists.
"""

import random

import pytest

from froblab import (
    HypersurfaceRing,
    Ideal,
    Ie_maximal,
    Polynomial,
    bracket_power,
    ideal_colon,
    ideal_equal,
    ideal_intersect,
    ideal_member,
    ideal_power,
    ideal_product,
    ideal_subset,
    ideal_sum,
    make_ring,
    nu_e,
    parse_gens,
    parse_poly,
    q_ideal,
    saturate,
    symbolic_power,
)
from froblab.containment import xy_zk_setup
from froblab.groebner import last_escaping_power
from froblab.symbolic import PrimeData, big_height

from conftest import random_ideal, random_poly


def ambients(p):
    """S = F_p[x,y,z] and the cones S/(xy - z^k), each with its relations."""
    S = make_ring(p, ["x", "y", "z"])
    yield S, ()
    for k in (2, 3):
        f = parse_poly(S, f"x*y - z^{k}")
        yield HypersurfaceRing(S, f), (f,)


def ref(A, relations):
    """The explicit preimage of A in S."""
    return Ideal(A.ring.ambient, list(A.gens) + list(relations))


def plain(A):
    """A's generators as an ideal of S, no relation adjoined."""
    return Ideal(A.ring.ambient, A.gens)


def same(A, reference):
    return ideal_equal(A.preimage, reference)


def random_pair(R, rng):
    S = R.ambient
    A, B = (
        Ideal(R, random_ideal(S, rng, max_gens=2, max_deg=2, max_terms=3).gens)
        for _ in range(2)
    )
    return A, B


@pytest.mark.parametrize("p", [2, 3, 5])
class TestAgainstExplicitPreimages:
    def test_power_product_sum_bracket(self, p):
        rng = random.Random(p)
        for R, rel in ambients(p):
            for _ in range(4):
                A, B = random_pair(R, rng)
                for n in (0, 1, 2, 3):
                    assert same(ideal_power(A, n), ref(ideal_power(plain(A), n), rel))
                assert same(ideal_product(A, B), ref(ideal_product(plain(A), plain(B)), rel))
                assert same(ideal_sum(A, B), ref(ideal_sum(plain(A), plain(B)), rel))
                assert same(bracket_power(A, 1), ref(bracket_power(plain(A), 1), rel))

    def test_colon_intersect_saturate(self, p):
        rng = random.Random(10 + p)
        for R, rel in ambients(p):
            S = R.ambient
            for _ in range(3):
                A, B = random_pair(R, rng)
                assert same(ideal_colon(A, B), ideal_colon(ref(A, rel), plain(B)))
                assert same(ideal_intersect(A, B), ideal_intersect(ref(A, rel), ref(B, rel)))
                g = random_poly(S, rng, max_deg=1, max_terms=2, nonzero=True)
                assert same(ideal_colon(A, g), ideal_colon(ref(A, rel), g))
                sat, steps = saturate(A, g)
                ref_sat, ref_steps = saturate(ref(A, rel), g)
                assert same(sat, ref_sat) and steps == ref_steps

    def test_subset_member(self, p):
        rng = random.Random(20 + p)
        for R, rel in ambients(p):
            S = R.ambient
            for _ in range(4):
                A, B = random_pair(R, rng)
                for X, Y in ((A, B), (A, ideal_sum(A, B)), (ideal_product(A, B), A)):
                    assert ideal_subset(X, Y)[0] == ideal_subset(ref(X, rel), ref(Y, rel))[0]
                for _ in range(4):
                    g = random_poly(S, rng, max_deg=3)
                    assert ideal_member(g, A) == ideal_member(g, ref(A, rel))
                assert A.is_zero() == ideal_equal(ref(A, rel), Ideal(S, rel))


@pytest.fixture
def cone():
    S = make_ring(5, ["x", "y", "z"])
    return HypersurfaceRing(S, parse_poly(S, "x*y - z^2"))


class TestRelationTraps:
    def test_zero_ideal_contains_f(self, cone):
        S = cone.ambient
        x = Polynomial.variable(S, "x")
        zero = Ideal(cone)
        assert zero.is_zero() and Ideal(cone, [cone.f * x]).is_zero()
        assert not Ideal(cone, [x]).is_zero()
        assert ideal_member(cone.f, zero)
        assert ideal_member(cone.f * x, zero)
        assert not ideal_member(x, zero)
        Q = q_ideal(cone, [x, Polynomial.variable(S, "z")])
        assert ideal_intersect(zero, Q).is_zero()
        assert ideal_colon(zero, x).is_zero()
        # f is zero in S/(f), so (0 : f) is the whole ring
        assert not ideal_colon(zero, cone.f).is_proper()

    def test_monomial_target_is_read_with_f(self, cone):
        # (x) in S/(xy - z^2) holds z^2 = xy but no power of z in S
        S = cone.ambient
        z = Polynomial.variable(S, "z")
        J = q_ideal(cone, [Polynomial.variable(S, "x")])
        assert last_escaping_power([z], J, 10) == 1

    @pytest.mark.parametrize("p,f", [(2, "x*y - z^3"), (3, "x*y - z^2"), (3, "x*y"), (5, "x*y")])
    def test_nu_e_monomial_ideals_match_reference_scan(self, p, f):
        S = make_ring(p, ["x", "y", "z"])
        R = HypersurfaceRing(S, parse_poly(S, f))
        for gens in ("x, z", "x, y, z", "x^2, y*z", "z^2, x*z", "y"):
            I = q_ideal(R, parse_gens(S, gens))
            for e in (1, 2):
                target = Ie_maximal(R, e)
                r = 1
                while not ideal_subset(ideal_power(I, r), target)[0]:
                    r += 1
                assert nu_e(I, e) == r - 1, (f, gens, e)

    def test_cone_symbolic_power_is_not_monomial_combinatorial(self):
        R, Q, pd = xy_zk_setup(5, 2)
        diag = {}
        # the covers of (x, z) would give Q^(2) = (x, z)^2; in the cone it is (x)
        sym = symbolic_power(Q, 2, pd, diag=diag)
        assert ideal_equal(sym, q_ideal(R, [Polynomial.variable(R.ambient, "x")]))
        assert diag["saturation_exponents"] == [1]
        with pytest.raises(ValueError, match="squarefree monomial"):
            symbolic_power(Q, 2, pd, strategy="monomial_combinatorial")

    def test_fast_saturation_needs_homogeneous_relations(self):
        # (y^2) is homogeneous, the relation is not: saturating by the last
        # variable must not take the grevlex shortcut
        S = make_ring(3, ["x", "y", "z"])
        f = parse_poly(S, "x*z + y*z - y")
        y, z = (Polynomial.variable(S, v) for v in "yz")
        sat, steps = saturate(q_ideal(HypersurfaceRing(S, f), [y**2]), z)
        ref_sat, ref_steps = saturate(Ideal(S, [y**2, f]), z, fast=False)
        assert same(sat, ref_sat) and steps == ref_steps == 2

    def test_variable_prime_heights(self, cone):
        S = cone.ambient
        # f = xy - z^2 lies in (x, z): height 2 - 1; it misses (x, y)
        assert big_height(PrimeData(primes=(q_ideal(cone, parse_gens(S, "x, z")),))) == 1
        assert big_height(PrimeData(primes=(Ideal(S, parse_gens(S, "x, z")),))) == 2
        with pytest.raises(ValueError, match="height metadata"):
            big_height(PrimeData(primes=(q_ideal(cone, parse_gens(S, "x, y")),)))
