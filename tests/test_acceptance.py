"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Every expected value here is exact (F_p arithmetic); the
tolerances are the runtime budgets.
"""

import random
import time

import pytest

from froblab import (
    Ideal,
    Polynomial,
    bracket_power,
    brute_membership_oracle,
    check_fpt_containment,
    check_fpure_containment,
    fedder_is_fpure,
    check_symbolic_into_Ie,
    hypersurface_Ie,
    ideal_colon,
    ideal_from_masks,
    ideal_member,
    ideal_power,
    ideal_product,
    ideal_subset,
    ideal_equal,
    is_fpure_quotient,
    make_ring,
    nu_e,
    parse_gens,
    parse_poly,
    primedata_for_squarefree,
    q_ideal,
    run_example,
    squarefree_antichains,
    symbolic_power,
)
from froblab.containment import xy_zk_setup
from froblab.symbolic import PrimeData, jacobian_ideal, jacobian_power_product
from conftest import random_ideal, random_monomial_ideal, random_poly


def report(number, title, started, budget_seconds):
    elapsed = time.perf_counter() - started
    print(f"criterion {number}: PASS  {title}  ({elapsed:.1f}s of {budget_seconds}s budget)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


class TestCriterion1FedderClassical:
    @pytest.mark.parametrize("p,fpure", [(7, True), (13, True), (5, False)])
    def test_fermat_cubic(self, p, fpure):
        t0 = time.perf_counter()
        ring = make_ring(p, ["x", "y", "z"])
        I = Ideal(ring, [parse_poly(ring, "x^3+y^3+z^3")])
        verdict = fedder_is_fpure(I)
        assert (verdict.status == "confirmed") is fpure
        if fpure:
            assert not ideal_member(
                verdict.witness, bracket_power(Ideal(ring, parse_gens(ring, "x, y, z")), 1)
            )
        report(1, f"Fedder classical, x^3+y^3+z^3 over F_{p} ({'' if fpure else 'not '}F-pure)", t0, 5)


class TestCriterion2HypersurfaceFpurity:
    @pytest.mark.parametrize("p,k", [(5, 2), (5, 3), (7, 2), (7, 3)])
    def test_cone_is_fpure(self, p, k):
        t0 = time.perf_counter()
        R, _, _ = xy_zk_setup(p, k)
        verdict = is_fpure_quotient(q_ideal(R, []), e=1)
        assert verdict.status == "confirmed"
        assert verdict.notes["condition2_holds"], "condition (2) must fire"
        report(2, f"F_{p}[x,y,z]/(xy - z^{k}) is F-pure via condition (2)", t0, 30)


class TestCriterion3ExampleGrid:
    def test_full_grid(self):
        """Whole grid: p in 5,7; k in 2,3; n in 1,2; r in 0..k-1.

        At the corner (n=1, r=k-1) the displayed exclusion x^(n+r) not-in
        Q^(kn) is provably false (x^k generates into Q^k); the registry
        asserts that failure and the strict exclusion from Q^(kn+r), which the
        example's deduction actually uses. See the jacobian-sharpness tag for
        the paper-ambiguous companion statement.
        """
        t0 = time.perf_counter()
        total = 0
        for p in (5, 7):
            for k in (2, 3):
                reports = run_example("xy-zk", {"p": p, "k": k, "n": "1..2"})
                for rep in reports:
                    assert rep.ok, (rep.theorem_tag, rep.params, rep.verdict)
                total += len(reports)
                tags = [r.theorem_tag for r in reports]
                assert "symbolic-power-principal-form" in tags  # Q^((kn)) = (x^n)
                assert "jacobian-ideal-form" in tags  # J = (x, y, z^(k-1))
                assert "jacobian-fpure-sharp-containment" in tags
                assert "jacobian-sharpness-witness" in tags
        assert total == 80
        report(3, "Example grid xy-z^k: 80 expectations across 4 (p,k) pairs", t0, 300)


class TestCriterion4FpureSweep:
    def test_squarefree_sweep(self):
        t0 = time.perf_counter()
        ring = make_ring(2, ["x1", "x2", "x3", "x4"])
        classes = squarefree_antichains(4)
        assert len(classes) == 28
        checked = 0
        for masks in classes:
            I = ideal_from_masks(ring, masks)
            assert fedder_is_fpure(I).status == "confirmed", masks
            pd = primedata_for_squarefree(I)
            pd.asserted_fpure_quotient = True  # machine-confirmed just above
            pd.checked["fpure"] = "fedder"
            for n in (2, 3):
                rep = check_fpure_containment(I, pd, n, exponent_cap=12)
                assert rep.verdict == "holds", (masks, n, rep.witness)
                checked += 1
        assert checked == 56
        report(4, "F-pure containment sweep: 28 squarefree classes, n in {2,3}", t0, 600)


class TestCriterion5GenericDeterminantal:
    def test_five_seeds_each(self):
        t0 = time.perf_counter()
        for seed in range(5):
            reports = run_example(
                "generic-determinantal", {"d": 6, "j": "2,3"}, seed=seed
            )
            assert [r.verdict for r in reports] == ["holds", "holds"], seed
        for seed in range(5):
            (rep,) = run_example(
                "generic-determinantal", {"d": 3, "j": "2"}, seed=seed
            )
            assert rep.verdict == "fails" and rep.witness is not None, seed
            checks = rep.diagnostics["witness_recheck"]
            assert checks["witness_in_lhs"] and checks["witness_not_in_rhs"]
        report(5, "generic determinantal: d=6 equality and d=3 witnessed failure, 5 seeds each", t0, 600)


class TestCriterion6FptMachinery:
    def test_nu_exact_values(self):
        t0 = time.perf_counter()
        ring = make_ring(5, ["x", "y"])
        I = Ideal(ring, parse_gens(ring, "x, y"))
        for e in (1, 2, 3):
            assert nu_e(I, e) == 2 * 5**e - 2
        ring3 = make_ring(5, ["x", "y", "z"])
        J = Ideal(ring3, parse_gens(ring3, "x*y, x*z, y*z"))
        pd = primedata_for_squarefree(J)
        for n in (2, 3):
            rep = check_fpt_containment(J, pd, n, fpt_floor="auto")
            assert rep.verdict == "holds", rep.witness
            assert rep.params["fpt_floor"] == 1
        report(6, "nu_e((x,y)) = 2*5^e - 2 and auto-floor fpt containments", t0, 120)


class TestCriterion7PropertySuites:
    def test_oracle_equivalence_battery(self):
        t0 = time.perf_counter()
        instances = 0
        rng = random.Random(424242)

        # Groebner membership vs linear-algebra oracle
        for trial in range(60):
            ring = make_ring([2, 3, 5][trial % 3], ["x", "y", "z"])
            I = random_ideal(ring, rng, max_gens=3, max_deg=3)
            f = random_poly(ring, rng, max_deg=4, max_terms=5)
            bound = max(f.degree() - min(g.degree() for g in I.gens), 0) + 2
            member = ideal_member(f, I)
            oracle = brute_membership_oracle(f, I, bound)
            assert not (oracle and not member)
            assert not (not member and oracle)
            instances += 1
        for trial in range(40):
            ring = make_ring([2, 3, 5][trial % 3], ["x", "y", "z"])
            I = random_ideal(ring, rng, max_gens=3, max_deg=3)
            f = Polynomial.zero(ring)
            for g in I.gens:
                f = f + random_poly(ring, rng, max_deg=3, max_terms=3) * g
            assert ideal_member(f, I) and brute_membership_oracle(f, I, 6)
            instances += 1

        # bracket-power generator independence
        for trial in range(35):
            ring = make_ring([2, 3, 5][trial % 3], ["x", "y"])
            I = random_ideal(ring, rng, max_gens=2)
            extra = Polynomial.zero(ring)
            for g in I.gens:
                extra = extra + random_poly(ring, rng, max_deg=2, max_terms=2) * g
            assert ideal_equal(
                bracket_power(I, 1), bracket_power(Ideal(ring, I.gens + (extra,)), 1)
            )
            instances += 1

        # (I : J) * J inside I
        ring3 = make_ring(3, ["x", "y", "z"])
        for _ in range(35):
            I, J = random_ideal(ring3, rng), random_ideal(ring3, rng)
            ok, _ = ideal_subset(ideal_product(ideal_colon(I, J), J), I)
            assert ok
            instances += 1

        # pigeonhole for h-generated monomial ideals
        for p in (2, 3, 5):
            ring = make_ring(p, ["x", "y", "z"])
            for _ in range(10):
                I = random_monomial_ideal(ring, rng, max_gens=3, max_deg=2)
                h = len(I.gens)
                for N in range(h, 4):
                    lhs = ideal_power(I, N * p - h + 1)
                    rhs = bracket_power(ideal_power(I, N - (h - 1)), 1)
                    ok, _ = ideal_subset(lhs, rhs)
                    assert ok
                    instances += 1

        # Q^[q] inside I_e(Q) on all registry hypersurface cases
        for p, k in ((5, 2), (5, 3), (7, 2), (7, 3)):
            R, Q, _ = xy_zk_setup(p, k)
            for e in (1, 2):
                ok, _ = ideal_subset(bracket_power(Q, e), hypersurface_Ie(Q, e))
                assert ok
                instances += 1
            m = q_ideal(R, parse_gens(R.ambient, "x, y, z"))
            ok, _ = ideal_subset(bracket_power(m, 1), hypersurface_Ie(m, 1))
            assert ok
            instances += 1

        assert instances >= 200, instances
        report(7, f"property suites: {instances} randomized/registry instances, zero violations", t0, 600)


class TestCriterion8SymbolicIntoIe:
    def test_three_documented_instances(self):
        t0 = time.perf_counter()
        # (a) regular F_3[x,y], Q = (x,y), h = 2, n = 1, e = 1
        r = make_ring(3, ["x", "y"])
        Q = Ideal(r, parse_gens(r, "x, y"))
        pd = PrimeData(
            primes=(Q,), separators=(Polynomial.one(r),), heights=(2,),
            max_local_gens=2, asserted_radical=True, asserted_finite_pd=True,
        )
        rep = check_symbolic_into_Ie(Q, pd, n=1, e=1)
        assert rep.verdict == "holds" and rep.params["symbolic_exponent"] == 5

        # (b) hypersurface F_5[x,y,z]/(xy - z^2), Q = (x,z), h = 2, n = 1, e = 1
        R, Qh, pdh = xy_zk_setup(5, 2)
        rep = check_symbolic_into_Ie(Qh, pdh, n=1, e=1)
        assert rep.verdict == "holds" and rep.params["symbolic_exponent"] == 9

        # (c) principal Q = (x) in regular F_5[x,y], h = 1, n = 1, e = 1
        r5 = make_ring(5, ["x", "y"])
        Qp = Ideal(r5, [Polynomial.variable(r5, "x")])
        pdp = PrimeData(
            primes=(Qp,), separators=(Polynomial.variable(r5, "y"),), heights=(1,),
            max_local_gens=1, asserted_radical=True, asserted_finite_pd=True,
        )
        rep = check_symbolic_into_Ie(Qp, pdp, n=1, e=1)
        assert rep.verdict == "holds" and rep.params["symbolic_exponent"] == 5
        report(8, "symbolic-into-I_e on the three documented instances", t0, 300)
