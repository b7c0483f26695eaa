"""Containment-lab checks, the example registry, and report determinism."""

import json
import random

import pytest

from froblab import (
    Ideal,
    Polynomial,
    brute_membership_oracle,
    check_fpt_containment,
    check_fpure_containment,
    check_sfr_containment,
    check_symbolic_into_Ie,
    fedder_is_fpure,
    ideal_from_masks,
    ideal_member,
    ideal_power,
    ideal_subset,
    make_ring,
    parse_gens,
    parse_poly,
    primedata_for_squarefree,
    run_example,
    squarefree_antichains,
)
from froblab.containment import (
    generic_determinantal_setup,
    xy_zk_setup,
)
from froblab.symbolic import (
    PrimeData,
    jacobian_ideal,
    jacobian_power_product,
    symbolic_power,
)


def squarefree_holds_case(p, names, gens, symbolic_exponent, n):
    S = make_ring(p, names)
    Q = Ideal(S, parse_gens(S, gens))
    return symbolic_power(Q, symbolic_exponent, primedata_for_squarefree(Q)), ideal_power(Q, n)


def xy_z2_holds_case(n):
    R, Q, pd = xy_zk_setup(5, 2)
    lhs = jacobian_power_product(jacobian_ideal(R), n, symbolic_power(Q, 2 * n, pd))
    return lhs, ideal_power(Q, 2 * n)


# "holds" containments small enough for the oracle: (lhs, rhs) and the
# number of lhs generators
HOLDS_CASES = {
    # Q^(3) in Q^2, Q the triangle's edge ideal over F_5
    "triangle": (lambda: squarefree_holds_case(5, "xyz", "x*y, x*z, y*z", 3, 2), 6),
    # Q^(4) in Q^3, Q the edge ideal of K4 over F_3
    "K4": (lambda: squarefree_holds_case(3, "abcd", "a*b, a*c, a*d, b*c, b*d, c*d", 4, 3), 28),
    # J^n Q^(2n) in Q^(2n) over F_5[x,y,z]/(xy - z^2)
    "xy-z2 n=1": (lambda: xy_z2_holds_case(1), 6),
    "xy-z2 n=2": (lambda: xy_z2_holds_case(2), 24),
}


@pytest.mark.parametrize("name", HOLDS_CASES)
def test_the_oracle_confirms_holds_verdicts(name):
    """Every lhs generator g has a certificate in rhs's preimage at cofactor
    degree deg g - min deg(rhs), with no slack; the oracle's True is
    authoritative."""
    build, count = HOLDS_CASES[name]
    lhs, rhs = build()
    assert ideal_subset(lhs, rhs) == (True, None)
    assert len(lhs.gens) == count
    low = min(h.degree() for h in rhs.preimage.gens)
    for g in lhs.gens:
        assert brute_membership_oracle(g, rhs, g.degree() - low), g


class TestFpureContainment:
    def test_edge_ideal_instance(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        pd = primedata_for_squarefree(I)
        pd.asserted_fpure_quotient = True
        rep = check_fpure_containment(I, pd, 2)
        assert rep.verdict == "holds"
        assert rep.params == {"n": 2, "h": 2, "symbolic_exponent": 3}

    def test_jacobian_instance_h1(self):
        R, Q, pd = xy_zk_setup(5, 3)
        rep = check_fpure_containment(Q, pd, 2, use_jacobian=True)
        assert rep.verdict == "holds"
        assert rep.params["jacobian_exponent"] == 2
        assert rep.params["h"] == 1

    def test_trivial_n1(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y, x*z, y*z"))
        pd = primedata_for_squarefree(I)
        pd.asserted_fpure_quotient = True
        assert check_fpure_containment(I, pd, 1).verdict == "holds"

    def test_requires_assertion(self, F2xyz):
        I = Ideal(F2xyz, parse_gens(F2xyz, "x*y"))
        pd = primedata_for_squarefree(I)
        with pytest.raises(ValueError, match="F-pure"):
            check_fpure_containment(I, pd, 2)

    def test_singular_non_jacobian_needs_finite_pd(self):
        R, Q, pd = xy_zk_setup(5, 2)
        with pytest.raises(ValueError, match="finite projective dimension"):
            check_fpure_containment(Q, pd, 2, use_jacobian=False)

    def test_exponent_cap_skips(self, F2xyz):
        r4 = make_ring(2, ["x1", "x2", "x3", "x4"])
        I = Ideal(r4, parse_gens(r4, "x1, x2, x3, x4"))
        pd = primedata_for_squarefree(I)
        pd.asserted_fpure_quotient = True
        rep = check_fpure_containment(I, pd, 3)  # exponent 9 > default cap 7
        assert rep.verdict == "skipped"
        rep2 = check_fpure_containment(I, pd, 3, exponent_cap=12)
        assert rep2.verdict == "holds"


class TestSfrContainment:
    def test_determinantal_d6(self):
        reports = run_example("generic-determinantal", {"d": 6, "j": "2,3"}, seed=1)
        assert [r.verdict for r in reports] == ["holds", "holds"]
        assert all(r.ok for r in reports)
        assert all(r.diagnostics.get("equality_checked") for r in reports)

    def test_determinantal_d3_expected_failure(self):
        reports = run_example("generic-determinantal", {"d": 3, "j": "2"}, seed=1)
        (rep,) = reports
        assert rep.verdict == "fails" and rep.expected == "fails" and rep.ok
        assert rep.witness is not None
        checks = rep.diagnostics["witness_recheck"]
        assert checks["witness_in_lhs"] is True
        assert checks["witness_not_in_rhs"] is True
        assert checks["oracle_confirms_non_membership"] is True

    def test_trivial_n1(self):
        ring, I, pd, _ = generic_determinantal_setup(101, 2, 6, seed=3)
        rep = check_sfr_containment(I, pd, 1)
        assert rep.verdict == "holds"

    def test_h_must_be_at_least_two(self, F2xyz):
        I = Ideal(F2xyz, [Polynomial.variable(F2xyz, "x")])
        pd = primedata_for_squarefree(I)
        pd.asserted_sfr_quotient = True
        with pytest.raises(ValueError, match="h >= 2"):
            check_sfr_containment(I, pd, 2)


class TestFptContainment:
    def test_edge_ideal_auto_floor(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y, x*z, y*z"))
        pd = primedata_for_squarefree(I)
        rep = check_fpt_containment(I, pd, 2, e_max=2)
        assert rep.verdict == "holds"
        assert rep.params["fpt_floor"] == 1
        assert rep.params["symbolic_exponent"] == 3
        assert rep.diagnostics["nu_values"] == [(1, 6), (2, 36)]

    def test_explicit_floor_zero(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y, x*z, y*z"))
        pd = primedata_for_squarefree(I)
        rep = check_fpt_containment(I, pd, 2, fpt_floor=0)
        assert rep.verdict == "holds" and rep.params["symbolic_exponent"] == 4

    def test_the_ring_picks_the_jacobian_variant(self, F5xyz):
        I = Ideal(F5xyz, parse_gens(F5xyz, "x*y, x*z, y*z"))
        rep = check_fpt_containment(I, primedata_for_squarefree(I), 2, fpt_floor=0)
        assert rep.theorem_tag == "fpt-containment" and "jacobian_exponent" not in rep.params
        R, Q, pd = xy_zk_setup(5, 2)
        rep = check_fpt_containment(Q, pd, 1, fpt_floor=0)
        assert rep.theorem_tag == "jacobian-fpt-containment"
        assert rep.verdict == "holds" and rep.params["jacobian_exponent"] == 1

    def test_improper_rejected(self, F5xyz):
        pd = PrimeData(primes=(), asserted_radical=True)
        with pytest.raises(ValueError):
            check_fpt_containment(Ideal.unit(F5xyz), pd, 2)


class TestSymbolicIntoIe:
    def test_regular_maximal(self):
        r = make_ring(3, ["x", "y"])
        Q = Ideal(r, parse_gens(r, "x, y"))
        pd = PrimeData(
            primes=(Q,), separators=(Polynomial.one(r),), heights=(2,),
            max_local_gens=2, asserted_radical=True, asserted_finite_pd=True,
        )
        rep = check_symbolic_into_Ie(Q, pd, n=1, e=1)
        assert rep.verdict == "holds" and rep.params["symbolic_exponent"] == 5

    def test_hypersurface_instance(self):
        R, Q, pd = xy_zk_setup(5, 2)
        rep = check_symbolic_into_Ie(Q, pd, n=1, e=1)
        assert rep.verdict == "holds" and rep.params["symbolic_exponent"] == 9

    def test_principal_instance(self):
        r = make_ring(5, ["x", "y"])
        Q = Ideal(r, [Polynomial.variable(r, "x")])
        pd = PrimeData(
            primes=(Q,), separators=(Polynomial.variable(r, "y"),), heights=(1,),
            max_local_gens=1, asserted_radical=True, asserted_finite_pd=True,
        )
        rep = check_symbolic_into_Ie(Q, pd, n=1, e=1)
        assert rep.verdict == "holds" and rep.params["symbolic_exponent"] == 5

    def test_q_cap(self):
        R, Q, pd = xy_zk_setup(7, 2)
        rep = check_symbolic_into_Ie(Q, pd, n=1, e=2)  # q = 49 > 25
        assert rep.verdict == "skipped"


class TestOneBuchbergerRunPerInput:
    """A check computes the reduced basis of each input once: the symbolic
    side's I^n is the right-hand side, and an ideal shares its basis with its
    preimage."""

    @staticmethod
    def record_runs(monkeypatch):
        import froblab.groebner as groebner

        runs = []
        run = groebner._buchberger

        def recorded(ring, gens, *front):
            runs.append((ring, tuple(sorted(g.monic().terms for g in gens))))
            return run(ring, gens, *front)

        monkeypatch.setattr(groebner, "_buchberger", recorded)
        return runs

    @pytest.mark.parametrize("seed", [0, 7])
    def test_determinantal_sfr_check(self, monkeypatch, seed):
        ring, I, pd, _ = generic_determinantal_setup(101, 2, 6, seed)
        runs = self.record_runs(monkeypatch)
        assert check_sfr_containment(I, pd, 3).verdict == "holds"
        assert runs and len(set(runs)) == len(runs)

    def test_xy_zk_power_after_symbolic_power(self, monkeypatch):
        R, Q, pd = xy_zk_setup(5, 2)
        x = Polynomial.variable(R.ambient, "x")
        runs = self.record_runs(monkeypatch)
        symbolic_power(Q, 2, pd)
        before = len(runs)
        assert ideal_member(x**2, ideal_power(Q, 2))
        assert len(runs) == before


class TestComputedOncePerCheck:
    """A subset of two ideals that hold one reduced basis reduces nothing, and
    a determinantal run bases I and I^n once each, in F4."""

    @staticmethod
    def forbid_reduction(monkeypatch):
        import froblab.groebner as groebner

        def forbidden(*args):
            raise AssertionError("reduced despite a shared basis")

        monkeypatch.setattr(groebner, "_sweep", forbidden)
        monkeypatch.setattr(groebner, "ideal_member", forbidden)

    def test_a_shared_basis_decides_the_subset(self, monkeypatch):
        ring, I, _, _ = generic_determinantal_setup(101, 2, 6, 0)
        R, Q, _ = xy_zk_setup(5, 2)
        pairs = [(ideal_power(I, 3), Ideal(ring, ideal_power(I, 3).gens[::-1])),
                 (Q, Ideal(R, Q.gens[::-1]))]
        for A, B in pairs:  # one basis each, equal, computed apart
            assert A.groebner_basis() == B.groebner_basis()
            assert A.groebner_basis() is not B.groebner_basis()
        self.forbid_reduction(monkeypatch)
        for A, B in pairs:
            assert ideal_subset(A, B) == ideal_subset(B, A) == (True, None)

    def test_determinantal_run_bases_I_and_its_cube(self, monkeypatch):
        import froblab.groebner as groebner

        f4, sweep, inside, runs = groebner._f4, groebner._sweep, [], []

        def counted_f4(ring, gens):
            runs.append(len(gens))
            inside.append(True)
            try:
                return f4(ring, gens)
            finally:
                inside.pop()

        def checked_sweep(*args):
            assert inside, "_sweep ran outside _f4"
            return sweep(*args)

        monkeypatch.setattr(groebner, "_f4", counted_f4)
        monkeypatch.setattr(groebner, "_sweep", checked_sweep)
        (rep,) = run_example("generic-determinantal", {"d": 6, "j": 3})
        assert rep.verdict == "holds" and rep.diagnostics["draw_attempts"] == 0
        assert runs == [3, 10]  # I's three minors, then I^3's ten products


class TestRegistry:
    def test_unknown_id(self):
        with pytest.raises(ValueError, match="unknown example"):
            run_example("no-such-example")

    @pytest.mark.parametrize("p,k", [(5, 2), (7, 3)])
    def test_xy_zk_all_expectations(self, p, k):
        reports = run_example("xy-zk", {"p": p, "k": k, "n": "1..2"})
        assert all(r.ok for r in reports)
        tags = {r.theorem_tag for r in reports}
        assert "symbolic-power-principal-form" in tags
        assert "jacobian-ideal-form" in tags
        assert "jacobian-fpure-sharp-containment" in tags

    def test_xy_zk_rejects_bad_characteristic(self):
        with pytest.raises(ValueError, match="divide"):
            run_example("xy-zk", {"p": 3, "k": 3})

    def test_corner_is_documented_expected_failure(self):
        reports = run_example("xy-zk", {"p": 5, "k": 2, "n": 1})
        corner = [
            r
            for r in reports
            if r.theorem_tag == "symbolic-ladder-noncontainment"
            and r.params.get("r") == 1
        ]
        (rep,) = corner
        assert rep.verdict == "fails" and rep.expected == "fails" and rep.ok
        strict = [
            r
            for r in reports
            if r.theorem_tag == "symbolic-ladder-noncontainment-strict"
            and r.params.get("r") == 1
        ]
        assert strict and strict[0].verdict == "holds"

    def test_determinantal_seeds_agree(self):
        for seed in range(3):
            reports = run_example("generic-determinantal", {"d": 3, "j": "2"}, seed=seed)
            assert reports[0].verdict == "fails" and reports[0].ok


class TestSweepSupport:
    def test_antichain_census(self):
        reps = squarefree_antichains(4)
        # 28 classes of nonzero squarefree monomial ideals on <= 4 variables
        # up to symmetry (Dedekind 168 minus the empty antichain and {emptyset},
        # collapsed under S4: 30 - 2)
        assert len(reps) == 28
        assert all(reps.count(ac) == 1 for ac in reps)

    def test_masks_to_ideal(self, F2xyz):
        r4 = make_ring(2, ["x1", "x2", "x3", "x4"])
        I = ideal_from_masks(r4, (0b0011, 0b1100))
        assert {str(g) for g in I.gens} == {"x1*x2", "x3*x4"}

    def test_every_class_is_fpure(self):
        ring = make_ring(2, ["x1", "x2", "x3", "x4"])
        for masks in squarefree_antichains(4)[:10]:
            I = ideal_from_masks(ring, masks)
            assert fedder_is_fpure(I).status == "confirmed"


class TestReportSerialization:
    def test_deterministic_and_timing_free(self):
        a = run_example("xy-zk", {"p": 5, "k": 2, "n": 1})
        b = run_example("xy-zk", {"p": 5, "k": 2, "n": 1})
        ser_a = [r.to_json() for r in a]
        ser_b = [r.to_json() for r in b]
        assert ser_a == ser_b
        for line in ser_a:
            payload = json.loads(line)
            assert "elapsed_seconds" not in payload["diagnostics"]

    def test_timings_opt_in(self):
        (rep,) = run_example("generic-determinantal", {"d": 3, "j": "2"}, seed=0)
        payload = json.loads(rep.to_json(include_timings=True))
        assert "elapsed_seconds" in payload["diagnostics"]

    def test_cross_theorem_coherence(self):
        # an sfr equality verdict at h=2 forces the fpure containment at the same Q
        ring, I, pd, _ = generic_determinantal_setup(101, 2, 6, seed=5)
        sfr = check_sfr_containment(I, pd, 2)
        assert sfr.verdict == "holds"
        fpure = check_fpure_containment(I, pd, 2, exponent_cap=None)
        assert fpure.verdict == "holds"
