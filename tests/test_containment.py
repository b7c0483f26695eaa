"""Containment-lab checks, the example registry, and report determinism."""

import itertools
import json
import math
import random
import sys
import time

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
from froblab.errors import BudgetExceeded, ExponentOverflow
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

    def test_oracle_past_its_size_cap_is_skipped(self, monkeypatch):
        # the recheck's oracle raises past the cap; the report records the
        # skip, and its verdict, witness and other checks stay as they were
        (want,) = run_example("generic-determinantal", {"d": 3, "j": "2"}, seed=1)
        monkeypatch.setattr("froblab.idealops.ORACLE_SIZE_CAP", 10)
        (got,) = run_example("generic-determinantal", {"d": 3, "j": "2"}, seed=1)
        got, want = got.to_dict(), want.to_dict()
        skipped = got["diagnostics"].pop("witness_recheck")
        assert skipped["oracle_confirms_non_membership"] == "skipped(size cap)"
        assert want["diagnostics"].pop("witness_recheck") == dict(
            skipped, oracle_confirms_non_membership=True)
        assert got == want and got["verdict"] == "fails"
        ring = make_ring(5, ["x", "y"])
        with pytest.raises(BudgetExceeded, match=r"^oracle system 4x3 exceeds the size cap 10$"):
            brute_membership_oracle(parse_poly(ring, "x"), Ideal(ring, parse_gens(ring, "y")), 1)

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

    def test_a_huge_e_skips_with_q_as_text(self):
        # 5^7000 has 4893 digits, past what str gives of an int by default
        R, Q, pd = xy_zk_setup(5, 2)
        rep = check_symbolic_into_Ie(Q, pd, n=2, e=7000)
        assert rep.verdict == "skipped" and rep.reason == "q = 5^7000 exceeds the default cap 25"
        assert rep.params == {"n": 2, "e": 7000, "q": "5^7000", "h": 2,
                              "symbolic_exponent": "3*5^7000-1"}
        json.loads(rep.to_json())
        start = time.perf_counter()  # 5^(10^7) alone would take seconds
        rep = check_symbolic_into_Ie(Q, pd, n=1, e=10**7)
        assert time.perf_counter() - start < 1
        assert rep.params["q"] == "5^10000000" and rep.params["symbolic_exponent"] == "2*5^10000000-1"

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int str limit")
    def test_the_int_str_limit_in_force_decides_the_text_form(self):
        # under a lower limit than the default, a q that str could print by
        # default goes as text, and the report prints
        R, Q, pd = xy_zk_setup(5, 2)
        old = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # 5^1000 has 699 digits
        try:
            rep = check_symbolic_into_Ie(Q, pd, n=2, e=1000)
            assert rep.params["q"] == "5^1000" and rep.params["symbolic_exponent"] == "3*5^1000-1"
            assert "q = 5^1000 exceeds" in str(rep.reason) and json.loads(rep.to_json())
            assert check_symbolic_into_Ie(Q, pd, n=2, e=900).params["q"] == 5**900
        finally:
            sys.set_int_max_str_digits(old)

    @pytest.mark.parametrize("p", [2, 5, 7])
    def test_skipped_q_is_an_int_wherever_it_prints(self, p):
        # around the last e whose q and exponent have at most 4300 digits (the
        # default int str limit), under the default cap and one of 10^4000,
        # which q passes: an int where an int prints, else text
        r = make_ring(p, ["x", "y"])
        Q = Ideal(r, parse_gens(r, "x, y"))
        pd = PrimeData(primes=(Q,), separators=(Polynomial.one(r),), heights=(2,),
                       max_local_gens=2, asserted_radical=True, asserted_finite_pd=True)
        near = round(4300 / math.log10(p))
        kinds = set()
        for cap, e in itertools.product((25, 10**4000), range(near - 3, near + 3)):
            rep = check_symbolic_into_Ie(Q, pd, n=2, e=e, q_cap=cap)
            q, sym = p**e, 3 * p**e - 1
            printable = sym < 10**4300
            want = (q, sym) if printable else (f"{p}^{e}", f"3*{p}^{e}-1")
            assert rep.verdict == "skipped" and (rep.params["q"], rep.params["symbolic_exponent"]) == want
            kinds.add(printable)
        assert kinds == {True, False}

    def test_uncapped_huge_e_overflows_before_p_to_the_e(self):
        # with no cap, an e whose 2^e has more digits than str gives an int
        # raises I^n's overflow from e alone: 5^(10^7) took 3 s to build
        R, Q, pd = xy_zk_setup(5, 2)
        start = time.perf_counter()
        with pytest.raises(ExponentOverflow, match=r"^I\^n has an exponent beyond 2147483647$"):
            check_symbolic_into_Ie(Q, pd, n=2, e=10**7, q_cap=None)
        assert time.perf_counter() - start < 0.5
        # at e = 40 the symbolic exponent 2*5^40 - 1 prints
        with pytest.raises(ExponentOverflow, match=rf"^I\^{2 * 5**40 - 1} has an exponent"):
            check_symbolic_into_Ie(Q, pd, n=1, e=40, q_cap=None)


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

    def test_unknown_parameter_named(self):
        with pytest.raises(ValueError, match="xy-zk takes no parameter 'pp'"):
            run_example("xy-zk", {"n": 1, "pp": 7})

    @pytest.mark.parametrize("example_id,key,value", [
        ("xy-zk", "n", "3..1"), ("generic-determinantal", "j", "3..2"),
        ("generic-determinantal", "j", []),
    ])
    def test_empty_grid_is_refused(self, example_id, key, value):
        # no value to run, so nothing runs, rather than no fact or only some
        with pytest.raises(ValueError, match=f"{example_id}: {key} must be integers"):
            run_example(example_id, {key: value})

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
        # classes of nonzero proper squarefree monomial ideals on <= n variables
        # up to symmetry: for n = 4, Dedekind's 168 antichains minus the empty
        # one and {emptyset}, collapsed under S4, are 30 - 2
        for nvars, count in ((1, 1), (2, 3), (3, 8), (4, 28)):
            reps = squarefree_antichains(nvars)
            assert len(set(reps)) == len(reps) == count
            assert reps == sorted(reps, key=lambda ac: (len(ac), ac))
            for ac in reps:
                assert all(a & b not in (a, b) for a, b in itertools.combinations(ac, 2))
                images = [tuple(sorted(sum(1 << perm[i] for i in range(nvars) if m >> i & 1)
                                       for m in ac))
                          for perm in itertools.permutations(range(nvars))]
                assert ac == min(images)

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

    @pytest.mark.parametrize("example_id, params", [
        ("xy-zk", {"p": 7, "k": 3, "n": "1..2"}),
        ("xy-zk", {"p": 5, "k": 2, "n": "1..2"}),  # n = 1 skips the sharpness witness
        ("generic-determinantal", {"d": 3, "j": "2"}),
    ])
    def test_timings_on_every_report_not_skipped(self, example_id, params):
        # run_example times a registry fact from the report before it; a
        # check keeps its own stamp
        for rep in run_example(example_id, params):
            timed = json.loads(rep.to_json(include_timings=True))["diagnostics"]
            if rep.verdict == "skipped":
                assert "elapsed_seconds" not in timed
            else:
                assert timed["elapsed_seconds"] >= 0
            assert "elapsed_seconds" not in json.loads(rep.to_json())["diagnostics"]

    def test_cross_theorem_coherence(self):
        # an sfr equality verdict at h=2 forces the fpure containment at the same Q
        ring, I, pd, _ = generic_determinantal_setup(101, 2, 6, seed=5)
        sfr = check_sfr_containment(I, pd, 2)
        assert sfr.verdict == "holds"
        fpure = check_fpure_containment(I, pd, 2, exponent_cap=None)
        assert fpure.verdict == "holds"
