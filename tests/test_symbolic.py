"""Symbolic powers under asserted prime data, big height, Jacobian ideals."""

import itertools
import math
import random

import pytest

import froblab.idealops as idealops
from froblab import (
    HypersurfaceRing,
    Ideal,
    Polynomial,
    RingMismatch,
    big_height,
    ideal_equal,
    ideal_member,
    ideal_power,
    ideal_subset,
    jacobian_ideal,
    jacobian_power_product,
    make_ring,
    monomial_minimal_primes,
    parse_gens,
    parse_poly,
    primedata_for_squarefree,
    q_ideal,
    symbolic_power,
)
from froblab.symbolic import PrimeData, _symbolic_by_separators, is_squarefree_monomial
from froblab.containment import (
    check_symbolic_into_Ie, ideal_from_masks, squarefree_antichains, xy_zk_setup,
)
from conftest import assert_minimal_ascending, lcm_intersect_reference


class TestPrimeData:
    def test_big_height_examples(self, F2xyz):
        def prime(gens):
            return Ideal(F2xyz, parse_gens(F2xyz, gens))

        pd = PrimeData(primes=(prime("x, y"), prime("x, z"), prime("y, z")))
        assert big_height(pd) == 2
        assert big_height(PrimeData(primes=(prime("x"),))) == 1
        assert big_height(PrimeData(primes=(prime("x, y"), prime("z")))) == 2

    def test_non_monomial_needs_metadata(self, F5xyz):
        P = Ideal(F5xyz, [parse_poly(F5xyz, "x + y^2")])
        with pytest.raises(ValueError, match="height metadata"):
            big_height(PrimeData(primes=(P,)))
        assert big_height(PrimeData(primes=(P,), heights=(1,))) == 1

    def test_separator_pattern_checked(self, F5xyz):
        x, y, z = (Polynomial.variable(F5xyz, v) for v in "xyz")
        P1 = Ideal(F5xyz, [x, y])
        P2 = Ideal(F5xyz, [x, z])
        good = PrimeData(primes=(P1, P2), separators=(z, y), asserted_radical=True)
        good.validate_separators()
        bad = PrimeData(primes=(P1, P2), separators=(x, y), asserted_radical=True)
        with pytest.raises(ValueError, match="its own prime"):
            bad.validate_separators()
        bad2 = PrimeData(primes=(P1, P2), separators=(z, z), asserted_radical=True)
        with pytest.raises(ValueError, match="membership pattern"):
            bad2.validate_separators()


    def test_no_primes_is_rejected(self):
        # with no primes and no separators the separator intersection once
        # reduced an empty list (a TypeError)
        R = make_ring(5, ["x", "y"])
        I = Ideal(R, parse_gens(R, "x^2"))
        pd = PrimeData(primes=(), separators=(), asserted_radical=True, max_local_gens=1)
        with pytest.raises(ValueError, match="^prime data lists no primes$"):
            symbolic_power(I, 2, pd)
        with pytest.raises(ValueError, match="^prime data lists no primes$"):
            check_symbolic_into_Ie(I, pd, 1)


class TestMinimalPrimes:
    def test_edge_triangle(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        covers = {
            tuple(sorted(g.lead_monomial().index(1) for g in P.gens))
            for P in monomial_minimal_primes(I)
        }
        assert covers == {(0, 1), (0, 2), (1, 2)}

    def test_principal_squarefree(self, F2xyz):
        I = Ideal(F2xyz, [parse_poly(F2xyz, "x*y")])
        covers = {
            tuple(sorted(g.lead_monomial().index(1) for g in P.gens))
            for P in monomial_minimal_primes(I)
        }
        assert covers == {(0,), (1,)}

    def test_rejects_non_squarefree(self, F2xyz):
        assert not is_squarefree_monomial(Ideal(F2xyz, [parse_poly(F2xyz, "x^2")]))
        with pytest.raises(ValueError):
            monomial_minimal_primes(Ideal(F2xyz, [parse_poly(F2xyz, "x^2")]))

    def test_covers_by_size_then_index(self):
        # against the search over variable subsets, smallest first, in
        # itertools.combinations order, keeping those no kept cover lies in
        rng = random.Random("minimal covers")
        ring = make_ring(2, ["a", "b", "c", "d", "e"])
        for _ in range(40):
            supports = [rng.sample(range(5), rng.randrange(1, 4)) for _ in range(rng.randrange(1, 6))]
            I = Ideal(ring, [Polynomial.monomial(ring, [int(i in s) for i in range(5)])
                             for s in supports])
            expected = []
            for size in range(1, 6):
                for combo in itertools.combinations(range(5), size):
                    if all(set(s) & set(combo) for s in supports) and not any(
                            set(c) <= set(combo) for c in expected):
                        expected.append(combo)
            got = [tuple(g.lead_monomial().index(1) for g in P.gens)
                   for P in monomial_minimal_primes(I)]
            assert got == expected, supports

    def test_the_unit_ideal_has_no_minimal_primes(self, F2xyz):
        unit = Ideal.unit(F2xyz)
        assert is_squarefree_monomial(unit) and monomial_minimal_primes(unit) == []
        with pytest.raises(ValueError, match="the unit ideal has no minimal primes"):
            primedata_for_squarefree(unit)


class TestSymbolicPower:
    def test_a_prime_missing_a_generator_is_rejected_before_the_power(self, F2xyz, monkeypatch):
        # (z) does not contain x*y: set logic rejects it, no power is built
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, y*z"))
        primes = tuple(Ideal(F2xyz, parse_gens(F2xyz, g)) for g in ("x, y", "z"))
        monkeypatch.setattr("froblab.symbolic.ideal_power", lambda *a: pytest.fail("I^n built"))
        with pytest.raises(ValueError, match=r"listed prime \(z\) misses x\*y"):
            symbolic_power(I, 3, PrimeData(primes=primes, asserted_radical=True))

    def test_the_monomial_construction_lists_no_power(self, F2xyz, monkeypatch):
        # degree completion in the kernel: no P^n is listed as monomials
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        pd = primedata_for_squarefree(I)
        a, b, c = (ideal_power(P, 4) for P in pd.primes)
        expected = lcm_intersect_reference(lcm_intersect_reference(a, b), c).gens
        monkeypatch.setattr(Polynomial, "monomial", lambda *a, **k: pytest.fail("monomial built"))
        assert symbolic_power(I, 4, pd).gens == expected

    def test_edge_ideal_square(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        pd = primedata_for_squarefree(I)
        sym = symbolic_power(I, 2, pd)
        xyz = parse_poly(F2xyz, "x*y*z")
        assert ideal_member(xyz, sym)
        assert not ideal_member(xyz, ideal_power(I, 2))

    def test_strategies_agree_on_squarefree(self, F5xyz):
        for ring in (F5xyz, make_ring(5, ["x", "y", "z"], order="lex")):
            I = Ideal(ring, parse_gens(ring, "x*y, x*z, y*z"))
            pd = primedata_for_squarefree(I)
            # separators: for prime (x,y) pick z-ish elements lying in the others
            x, y, z = (Polynomial.variable(ring, v) for v in "xyz")
            by_prime = {
                tuple(sorted(g.lead_monomial().index(1) for g in P.gens)): P for P in pd.primes
            }
            ordered = [by_prime[k] for k in sorted(by_prime)]
            seps = {(0, 1): z, (0, 2): y, (1, 2): x}
            pd_sat = PrimeData(
                primes=tuple(ordered),
                separators=tuple(seps[k] for k in sorted(by_prime)),
                heights=(2, 2, 2),
                asserted_radical=True,
            )
            for n in (2, 3):
                combinatorial = symbolic_power(I, n, pd)
                intersected = _symbolic_by_separators(ideal_power(I, n), pd_sat)
                assert ideal_equal(combinatorial, intersected)
                assert_minimal_ascending(combinatorial)

    @pytest.mark.parametrize("order", ["lex", "grevlex"])
    def test_constructions_agree_on_random_squarefree(self, order):
        # the combinatorial construction against saturation by separators,
        # each prime's separator the product of the variables outside it
        ring = make_ring(3, ["w", "x", "y", "z"], order=order)
        variables = [Polynomial.variable(ring, v) for v in ring.variables]
        classes = squarefree_antichains(4)
        for masks in random.Random(f"constructions {order}").sample(classes, 10):
            I = ideal_from_masks(ring, masks)
            pd = primedata_for_squarefree(I)
            separators = []
            for P in pd.primes:
                inside = {g.lead_monomial().index(1) for g in P.gens}
                outside = (v for i, v in enumerate(variables) if i not in inside)
                separators.append(math.prod(outside, start=Polynomial.one(ring)))
            pd_sat = PrimeData(primes=pd.primes, separators=separators, asserted_radical=True)
            for n in (2, 3):
                by_separators = _symbolic_by_separators(ideal_power(I, n), pd_sat)
                assert ideal_equal(symbolic_power(I, n, pd), by_separators), (masks, n)

    @pytest.mark.parametrize("order", ["lex", "grevlex"])
    def test_monomial_strategy_equals_lcm_reference(self, order):
        # the intersection of the powers P^n of the minimal primes, each built
        # from exponent tuples and met by the tuple-lcm reference
        ring = make_ring(3, ["w", "x", "y", "z"], order=order)
        classes = squarefree_antichains(4)
        for masks in random.Random(f"symbolic {order}").sample(classes, 12):
            I = ideal_from_masks(ring, masks)
            pd = primedata_for_squarefree(I)
            for n in (2, 3, 5):
                want = Ideal.unit(ring)
                for P in pd.primes:
                    cover = [g.lead_monomial().index(1) for g in P.gens]
                    powers = [tuple(c.count(i) for i in range(4))
                              for c in itertools.combinations_with_replacement(cover, n)]
                    Pn = Ideal(ring, [Polynomial.monomial(ring, m) for m in powers])
                    want = lcm_intersect_reference(want, Pn)
                assert symbolic_power(I, n, pd).gens == want.gens, (masks, n)

    def test_prime_saturation_vs_monomial(self, F5xyz):
        # a single monomial prime: saturation and combinatorics agree
        P = Ideal(F5xyz, parse_gens(F5xyz, "x, z"))
        pd_sat = PrimeData(
            primes=(P,),
            separators=(Polynomial.variable(F5xyz, "y"),),
            heights=(2,),
            asserted_radical=True,
        )
        for n in (2, 3):
            sat = _symbolic_by_separators(ideal_power(P, n), pd_sat)
            assert ideal_equal(sat, ideal_power(P, n))

    def test_ordinary_always_inside(self, F2xyz):
        rng = random.Random(3)
        from conftest import random_monomial_ideal

        for _ in range(8):
            I = random_monomial_ideal(F2xyz, rng, max_deg=1)
            if I.groebner_basis().is_unit() or not is_squarefree_monomial(I):
                continue
            pd = primedata_for_squarefree(I)
            for n in (1, 2, 3):
                sym = symbolic_power(I, n, pd)
                ok, _ = ideal_subset(ideal_power(I, n), sym)
                assert ok

    def test_radical_first_symbolic_is_identity(self, F2xyz):
        for gens in ("x*y, x*z, y*z", "x, y", "x*y"):
            I = Ideal(F2xyz, parse_gens(F2xyz, gens))
            pd = primedata_for_squarefree(I)
            assert ideal_equal(symbolic_power(I, 1, pd), I)

    def test_graded_family(self, F2xyz):
        from froblab import ideal_product

        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        pd = primedata_for_squarefree(I)
        sym = {n: symbolic_power(I, n, pd) for n in (1, 2, 3, 4, 5, 6)}
        for a in (1, 2, 3):
            for b in (1, 2, 3):
                ok, _ = ideal_subset(ideal_product(sym[a], sym[b]), sym[a + b])
                assert ok

    def test_hypersurface_symbolic_square(self):
        R, Q, pd = xy_zk_setup(5, 2)
        sym = symbolic_power(Q, 2, pd)
        assert ideal_equal(sym, q_ideal(R, [Polynomial.variable(R.ambient, "x")]))

    def test_zero_prime_is_bad_input(self):
        # the zero ideal has no generators, so it is no variable prime; it was
        # once taken as one with an empty n-th power, and the recheck of
        # I^n <= I^(n) then raised an internal error
        R = make_ring(5, ["x", "y"])
        x, y = (Polynomial.variable(R, v) for v in "xy")
        pd = PrimeData(primes=(Ideal(R, [x]), Ideal(R), Ideal(R, [y])), asserted_radical=True)
        with pytest.raises(ValueError, match="needs variable-generated primes"):
            symbolic_power(Ideal(R, [x * y]), 2, pd)

    def test_embedded_requires_assertion(self, F5xyz):
        P = Ideal(F5xyz, parse_gens(F5xyz, "x, z"))
        pd = PrimeData(primes=(P,), separators=(Polynomial.variable(F5xyz, "y"),))
        with pytest.raises(ValueError, match="embedded"):
            symbolic_power(P, 2, pd)


class TestExample61Ladder:
    @pytest.mark.parametrize("p,k", [(5, 2), (7, 3)])
    def test_ladder(self, p, k):
        R, Q, pd = xy_zk_setup(p, k)
        x = Polynomial.variable(R.ambient, "x")
        for n in (1, 2):
            for r in range(k):
                sym = symbolic_power(Q, k * n + r, pd)
                assert ideal_member(x ** (n + r), sym)
                # strict exclusion from the same-index ordinary power
                if k * n + r >= 2:
                    assert not ideal_member(x ** (n + r), ideal_power(Q, k * n + r))


class TestSaturationExponentOnlyWhenReported:
    @pytest.mark.parametrize("p,k,n", [(5, 2, 6), (7, 4, 9)])
    def test_no_diag_scans_for_no_exponent(self, p, k, n, monkeypatch):
        # the exponent of each saturation is a frontier scan; symbolic_power
        # runs it only for a diag that reports it
        calls = []
        real = idealops.absorbing_exponent

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(idealops, "absorbing_exponent", spy)
        R, Q, pd = xy_zk_setup(p, k)
        quiet = symbolic_power(Q, n, pd)
        assert calls == []
        diag = {}
        told = symbolic_power(Ideal(R, Q.gens), n, pd, diag=diag)
        assert len(calls) == len(pd.separators) == len(diag["saturation_exponents"]) == 1
        assert diag["saturation_exponents"][0] > 0
        assert quiet.gens == told.gens and ideal_equal(quiet, told)


class TestJacobian:
    def test_quadric_cone(self):
        ring = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(ring, parse_poly(ring, "x*y - z^2"))
        J = jacobian_ideal(R)
        assert ideal_equal(J, q_ideal(R, parse_gens(ring, "x, y, z")))

    def test_cubic_cone(self):
        ring = make_ring(5, ["x", "y", "z"])
        R = HypersurfaceRing(ring, parse_poly(ring, "x*y - z^3"))
        J = jacobian_ideal(R)
        assert ideal_equal(J, q_ideal(R, parse_gens(ring, "x, y, z^2")))

    def test_frobenius_kernel_flagged(self, caplog):
        ring = make_ring(5, ["x"])
        R = HypersurfaceRing(ring, parse_poly(ring, "x^5"))
        import logging

        with caplog.at_level(logging.WARNING):
            J = jacobian_ideal(R)
        assert "non-reduced" in caplog.text
        assert ideal_equal(J.preimage, Ideal(ring, [parse_poly(ring, "x^5")]))

    def test_power_product(self):
        R, Q, pd = xy_zk_setup(5, 2)
        J = jacobian_ideal(R)
        sym = symbolic_power(Q, 2, pd)
        assert jacobian_power_product(J, 0, sym) is sym
        prod = jacobian_power_product(J, 1, sym)
        expected = Ideal(
            R.ambient, parse_gens(R.ambient, "x^2, x*y, x*z, x*y - z^2")
        )
        assert ideal_equal(prod.preimage, expected)

    def test_power_product_ring_mismatch(self):
        R, Q, pd = xy_zk_setup(5, 2)
        other, _, _ = xy_zk_setup(5, 3)
        with pytest.raises(RingMismatch, match="ring mismatch between Jacobian and symbolic"):
            jacobian_power_product(jacobian_ideal(other), 1, Q)

    def test_example61_repair_instance(self):
        # J^((k-1)n) Q^((kn)) inside Q^(kn) at k=2, n=1
        R, Q, pd = xy_zk_setup(5, 2)
        J = jacobian_ideal(R)
        sym = symbolic_power(Q, 2, pd)
        lhs = jacobian_power_product(J, 1, sym)
        ok, _ = ideal_subset(lhs, ideal_power(Q, 2))
        assert ok
