"""Executable verifiers for the symbolic-power containment theorems, plus the
curated example registry.

Every check returns a ContainmentReport whose verdict is computed exactly;
"fails" always carries a witness polynomial that is independently re-checkable
(normal form, and the linear-algebra oracle when the instance fits its size
cap). Reports serialize deterministically; wall-clock timings stay out of the
serialized form unless explicitly requested.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field

from .errors import BudgetExceeded, ExponentOverflow, _int_str_digits
from .groebner import Ideal, ideal_equal, ideal_member, ideal_subset
from .idealops import PolyMatrix, brute_membership_oracle, ideal_power, minors, saturate
from .frobenius import fpt_lower_bound, hypersurface_Ie
from .quotient import HypersurfaceRing, q_ideal
from .rings import EXPONENT_LIMIT, Polynomial, format_poly, make_ring
from .symbolic import PrimeData, big_height, jacobian_ideal, jacobian_power_product, symbolic_power

DEFAULT_EXPONENT_CAP = 7
DEFAULT_Q_CAP = 25
ORACLE_DEGREE_SLACK = 2  # cofactor degrees past deg(witness) - min deg(rhs gens)


@dataclass
class ContainmentReport:
    """Structured verdict with provenance and diagnostics."""

    theorem_tag: str
    params: dict
    verdict: str  # holds | fails | skipped
    witness: str | None = None
    reason: str | None = None
    expected: str = "holds"
    origin: str | None = None  # how the expectation was established:
    # worked-example (stated values), derived (independent computation), forced (construction)
    diagnostics: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        """True when the computed verdict matches the registry expectation."""
        if self.verdict == "skipped":
            return True
        return self.verdict == self.expected

    def to_dict(self, include_timings=False):
        diag = {
            k: v
            for k, v in sorted(self.diagnostics.items())
            if include_timings or not k.endswith("_seconds")
        }
        return {
            "theorem_tag": self.theorem_tag,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "verdict": self.verdict,
            "expected": self.expected,
            "ok": self.ok,
            "witness": self.witness,
            "reason": self.reason,
            "origin": self.origin,
            "diagnostics": diag,
        }

    def to_json(self, include_timings=False):
        return json.dumps(self.to_dict(include_timings), sort_keys=True)


def _cap_text(cap, default):
    return f"the default cap {cap}" if cap == default else f"the cap {cap}"


def _recheck_witness(witness, lhs, rhs):
    """Independent confirmation that witness ∈ lhs and witness ∉ rhs."""
    checks = {
        "witness_in_lhs": ideal_member(witness, lhs),
        "witness_not_in_rhs": not ideal_member(witness, rhs),
    }
    gens = rhs.preimage.gens
    if gens:
        min_deg = min(g.degree() for g in gens)
        bound = max(witness.degree() - min_deg, 0) + ORACLE_DEGREE_SLACK
        try:
            checks["oracle_confirms_non_membership"] = not brute_membership_oracle(
                witness, rhs, bound
            )
        except BudgetExceeded:
            checks["oracle_confirms_non_membership"] = "skipped(size cap)"
    return checks


def _fact(tag, params, holds, witness=None, expected="holds", **diag):
    """Report on one fact; witness is a Polynomial."""
    return ContainmentReport(tag, params, "holds" if holds else "fails",
                             None if witness is None else format_poly(witness),
                             expected=expected, diagnostics=diag)


def _finish(tag, params, ok, wit, lhs, rhs, expected, diag, t0):
    """The report on lhs ⊆ rhs, timed from t0; the recheck of a witness is
    not timed."""
    rep = _fact(tag, params, ok, wit, expected, **diag, lhs_gens=len(lhs.gens),
                rhs_gens=len(rhs.gens), rhs_gb=len(rhs.groebner_basis()))
    rep.diagnostics["elapsed_seconds"] = round(time.perf_counter() - t0, 3)
    if not ok:
        rep.diagnostics["witness_recheck"] = _recheck_witness(wit, lhs, rhs)
    return rep


def _skipped(tag, params, reason, expected="holds"):
    return ContainmentReport(tag, params, "skipped", reason=reason, expected=expected)


def _symbolic_inside_ordinary(tag, params, Q, pd, sym_exp, n, jacobian_exponent, expected,
                              diag, t0):
    """The report on Q^(sym_exp), times J^jacobian_exponent unless that is
    None, inside Q^n. When sym_exp == n, Q^n is the power symbolic_power
    saturated, basis included."""
    lhs = symbolic_power(Q, sym_exp, pd, diag=diag)
    if jacobian_exponent is not None:
        lhs = jacobian_power_product(jacobian_ideal(Q.ring), jacobian_exponent, lhs)
        params["jacobian_exponent"] = jacobian_exponent
    rhs = ideal_power(Q, n)
    ok, wit = ideal_subset(lhs, rhs)
    return _finish(tag, params, ok, wit, lhs, rhs, expected, diag, t0)


def _require_relations_for(Q, pd, use_jacobian):
    """The Jacobian variants need a relation. Without one finite projective
    dimension is automatic; with one the other variants need it asserted."""
    relations = Q.ring.relations
    if use_jacobian and not relations:
        raise ValueError("the Jacobian variant needs a hypersurface ambient")
    if not use_jacobian and relations and not pd.asserted_finite_pd:
        raise ValueError(
            "finite projective dimension must be asserted for the non-Jacobian "
            "containment in a singular ambient"
        )


def check_fpure_containment(
    Q,
    pd: PrimeData,
    n: int,
    use_jacobian: bool = False,
    exponent_cap: int | None = DEFAULT_EXPONENT_CAP,
    expected: str = "holds",
) -> ContainmentReport:
    """The F-pure containment Q^((hn-h+1)) ⊆ Q^n, with the Jacobian repair
    J^n Q^((hn-h+1)) ⊆ Q^n when use_jacobian is set."""
    t0 = time.perf_counter()
    if not pd.asserted_fpure_quotient:
        raise ValueError("registry must assert R/Q F-pure for this check")
    _require_relations_for(Q, pd, use_jacobian)
    h = big_height(pd)
    sym_exp = h * n - h + 1
    tag = "jacobian-fpure-containment" if use_jacobian else "fpure-containment"
    params = {"n": n, "h": h, "symbolic_exponent": sym_exp}
    if exponent_cap is not None and sym_exp > exponent_cap:
        cap = _cap_text(exponent_cap, DEFAULT_EXPONENT_CAP)
        reason = f"symbolic exponent {sym_exp} exceeds {cap}; pass exponent_cap to override"
        return _skipped(tag, params, reason, expected)
    return _symbolic_inside_ordinary(tag, params, Q, pd, sym_exp, n, n if use_jacobian else None,
                                     expected, {}, t0)


def check_sfr_containment(
    Q,
    pd: PrimeData,
    n: int,
    use_jacobian: bool = False,
    exponent_cap: int | None = DEFAULT_EXPONENT_CAP,
    expected: str = "holds",
    require_assertions: bool = True,
) -> ContainmentReport:
    """The strongly-F-regular containment Q^(((h-1)(n-1)+1)) ⊆ Q^n (equality
    at h = 2), with the Jacobian repair J^(2n-2) * lhs when use_jacobian.

    require_assertions=False lets the registry probe sharpness cases whose
    hypotheses deliberately fail; the report records that.
    """
    t0 = time.perf_counter()
    if require_assertions and not pd.asserted_sfr_quotient:
        raise ValueError("registry must assert R/Q strongly F-regular for this check")
    _require_relations_for(Q, pd, use_jacobian)
    if use_jacobian:
        if pd.max_local_gens is None:
            raise ValueError("the Jacobian variant needs max_local_gens in the prime data")
        h = pd.max_local_gens
    else:
        h = big_height(pd)
    if h < 2:
        raise ValueError("the strongly F-regular containments need h >= 2")
    sym_exp = (h - 1) * (n - 1) + 1
    tag = "jacobian-sfr-containment" if use_jacobian else "sfr-containment"
    params = {"n": n, "h": h, "symbolic_exponent": sym_exp}
    if not require_assertions:
        params["hypotheses"] = "probe (assertions waived)"
    if exponent_cap is not None and sym_exp > exponent_cap:
        cap = _cap_text(exponent_cap, DEFAULT_EXPONENT_CAP)
        return _skipped(tag, params, f"symbolic exponent {sym_exp} exceeds {cap}", expected)
    rep = _symbolic_inside_ordinary(tag, params, Q, pd, sym_exp, n,
                                    2 * n - 2 if use_jacobian else None, expected, {}, t0)
    if h == 2 and not use_jacobian:
        # Q^n <= Q^((n)) is automatic, so the subset verdict is the equality verdict
        rep.diagnostics["equality_checked"] = True
        rep.diagnostics["equality_holds"] = rep.verdict == "holds"
    return rep


def check_fpt_containment(
    I,
    pd: PrimeData,
    n: int,
    fpt_floor="auto",
    e_max: int | None = None,
    expected: str = "holds",
) -> ContainmentReport:
    """The threshold containment I^((hn - floor fpt)) ⊆ I^n; the floor comes
    from the nu_e lower bound in auto mode (a smaller floor only strengthens
    the tested instance). Exactly the inputs of a ring with a relation use
    the Jacobian repair J^n."""
    t0 = time.perf_counter()
    if not pd.asserted_radical:
        raise ValueError("the fpt containments need an asserted-radical ideal")
    use_jacobian = bool(I.ring.relations)
    h = big_height(pd)
    diag = {}
    if fpt_floor == "auto":
        est = fpt_lower_bound(I, e_max)
        floor = est.floor_lower_bound
        diag["nu_values"] = list(est.nu_values)
        diag["fpt_lower_bound"] = str(est.lower_bound)
    else:
        floor = int(fpt_floor)
    sym_exp = h * n - floor
    tag = "jacobian-fpt-containment" if use_jacobian else "fpt-containment"
    params = {"n": n, "h": h, "fpt_floor": floor, "symbolic_exponent": sym_exp}
    if sym_exp < 1:
        reason = "floor at least h*n makes the symbolic exponent non-positive"
        return _skipped(tag, params, reason, expected)
    return _symbolic_inside_ordinary(tag, params, I, pd, sym_exp, n, n if use_jacobian else None,
                                     expected, diag, t0)


def check_symbolic_into_Ie(
    Q, pd: PrimeData, n: int, e: int = 1, q_cap: int | None = DEFAULT_Q_CAP, expected: str = "holds"
) -> ContainmentReport:
    """Q^((q(h+n-1)-h+1)) ⊆ I_e(Q^((n))) with h = max_local_gens; the right
    side is the bracket power in a regular ambient."""
    t0 = time.perf_counter()
    if pd.max_local_gens is None:
        raise ValueError("this check needs max_local_gens in the prime data")
    if e < 1:
        raise ValueError("I_e needs e >= 1")
    h, p = pd.max_local_gens, Q.ring.ambient.p
    tag = "symbolic-into-ie"
    # q = p^e >= 2^e, so an e past q_cap's bit length skips with no p^e built. A skipped
    # report gives q and the exponent as text when either has more digits than str gives
    # an int; past 10/3 bits a digit 2^e has more, and p^e is not built. Unskipped, such
    # a q puts the symbolic exponent past EXPONENT_LIMIT, so I^n's overflow comes first.
    skip = q_cap is not None and (e > q_cap.bit_length() or p**e > q_cap)
    digits = _int_str_digits()
    if (huge := 3 * e > 10 * digits) and not skip:
        raise ExponentOverflow(f"I^n has an exponent beyond {EXPONENT_LIMIT}")
    q = None if huge else p**e
    sym_exp = q and q * (h + n - 1) - h + 1
    if skip and (q is None or max(q, abs(sym_exp)) >= 10**digits):
        q, sym_exp = f"{p}^{e}", f"{h + n - 1}*{p}^{e}-{h - 1}"
    params = {"n": n, "e": e, "q": q, "h": h, "symbolic_exponent": sym_exp}
    if skip:
        return _skipped(tag, params, f"q = {q} exceeds {_cap_text(q_cap, DEFAULT_Q_CAP)}",
                        expected)
    diag = {}
    lhs = symbolic_power(Q, sym_exp, pd, diag=diag)
    base = symbolic_power(Q, n, pd, diag=diag)
    rhs = hypersurface_Ie(base, e)
    ok, wit = ideal_subset(lhs, rhs)
    return _finish(tag, params, ok, wit, lhs, rhs, expected, diag, t0)


# ---------------------------------------------------------------------------
# squarefree monomial sweep support
# ---------------------------------------------------------------------------


def squarefree_antichains(nvars: int):
    """Canonical representatives (up to variable permutation) of the nonzero
    proper squarefree monomial ideals on at most nvars variables, sorted by
    number of generators, then generators.

    Each ideal is a tuple of generator bitmasks forming an antichain; its
    representative is the least of its images, as sorted tuples, under the
    variable permutations, each read off that permutation's table of masks.
    """
    tables = [[sum(1 << perm[i] for i in range(nvars) if m >> i & 1) for m in range(1 << nvars)]
              for perm in itertools.permutations(range(nvars))]
    classes = set()

    def extend(chosen, rest):
        for idx, m in enumerate(rest):
            if all(m & c not in (m, c) for c in chosen):  # incomparable to everything chosen
                grown = chosen + (m,)
                classes.add(min(tuple(sorted(relabel[c] for c in grown)) for relabel in tables))
                extend(grown, rest[idx + 1:])

    extend((), range(1, 1 << nvars))
    return sorted(classes, key=lambda ac: (len(ac), ac))


def ideal_from_masks(ring, masks) -> Ideal:
    """The squarefree monomial ideal whose generators have bit i of a mask as
    their exponent of variable i."""
    return Ideal(ring, [Polynomial.monomial(ring, [m >> i & 1 for i in range(ring.nvars)])
                        for m in masks])


# ---------------------------------------------------------------------------
# example registry
# ---------------------------------------------------------------------------


def _as_int_list(value):
    """The ints of a grid parameter: an int, "a,b,..." or the range "a..b",
    kept lazy; a value past the checked exponent range raises ExponentOverflow,
    and no value at all, as in "3..2", a ValueError."""
    if isinstance(value, int):
        values = ends = [value]
    elif isinstance(value, str) and ".." in value:
        lo, hi = (int(v) for v in value.split(".."))
        values, ends = range(lo, hi + 1), (lo, hi)
    else:
        values = ends = [int(v) for v in (value.split(",") if isinstance(value, str) else value)]
    for v in ends:
        if abs(v) > EXPONENT_LIMIT:
            raise ExponentOverflow(f"value {v} beyond {EXPONENT_LIMIT}")
    if not values:
        raise ValueError("no values")
    return values


def xy_zk_setup(p: int, k: int):
    """The hypersurface F_p[x,y,z]/(xy - z^k) with Q = (x,z) and its prime data.

    Verified in the graded/affine model at the irrelevant maximal ideal; all
    containment data is weighted-homogeneous there.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    ring = make_ring(p, ["x", "y", "z"])  # checks p before k % p divides by it
    if k % p == 0:
        raise ValueError("p must not divide k")
    x, y, z = (Polynomial.variable(ring, v) for v in "xyz")
    f = x * y - z**k
    R = HypersurfaceRing(ring, f, reduced=True)
    Q = q_ideal(R, [x, z])
    m = q_ideal(R, [x, y, z])
    pd = PrimeData(
        primes=(Q,),
        separators=(y,),
        heights=(1,),
        max_local_gens=2,  # global generator count; a safe upper bound for the local one
        power_embedded=(m,),
        asserted_radical=True,
        asserted_finite_pd=False,  # infinite pd: the whole point of the example
        asserted_fpure_quotient=True,  # R/Q is a polynomial ring
        asserted_sfr_quotient=True,
        checked={"fpure": "R/Q regular", "note": "graded model at the origin"},
    )
    return R, Q, pd


def _run_xy_zk(seed, p, k, n_values):
    """Q = (x,z) inside F_p[x,y,z]/(xy - z^k): principal symbolic powers, the
    x^(n+r) ladder, and the sharp Jacobian repair exponent; the graded avatar
    of the power-series example. p must not divide k."""
    R, Q, pd = xy_zk_setup(p, k)
    x, y, z = (Polynomial.variable(R.ambient, v) for v in "xyz")
    J = jacobian_ideal(R)
    yield _fact("jacobian-ideal-form", {"p": p, "k": k},
                ideal_equal(J, q_ideal(R, [x, y, z ** (k - 1)])))

    for n in n_values:
        base_params = {"p": p, "k": k, "n": n}
        diag = {}
        sym_kn = symbolic_power(Q, k * n, pd, diag=diag)
        yield _fact("symbolic-power-principal-form", dict(base_params, symbolic_exponent=k * n),
                    ideal_equal(sym_kn, q_ideal(R, [x**n])), **diag)

        Q_kn = ideal_power(Q, k * n)
        for r in range(k):
            wit = x ** (n + r)
            sym = sym_kn if r == 0 else symbolic_power(Q, k * n + r, pd)
            yield _fact("symbolic-ladder-membership",
                        dict(base_params, r=r, symbolic_exponent=k * n + r),
                        ideal_member(wit, sym), wit)
            # as displayed, the exclusion targets Q^(kn); at the corner
            # n = 1, r = k-1 that is provably false (x^k generates into
            # Q^k), so there the registry expects the failure and asserts
            # the strict exclusion from Q^(kn+r), which the example's
            # symbolic-vs-ordinary deduction actually uses.
            corner = n == 1 and r == k - 1
            outside = not ideal_member(wit, Q_kn)
            note = {"note": "displayed exclusion is index-sloppy at this corner; "
                    "see the strict variant"} if corner else {}
            yield _fact("symbolic-ladder-noncontainment",
                        dict(base_params, r=r, ordinary_exponent=k * n),
                        outside, wit, expected="fails" if corner else "holds", **note)
            if r:
                yield _fact("symbolic-ladder-noncontainment-strict",
                            dict(base_params, r=r, ordinary_exponent=k * n + r),
                            not ideal_member(wit, ideal_power(Q, k * n + r)), wit)

        ok, wit = ideal_subset(jacobian_power_product(J, (k - 1) * n, sym_kn), Q_kn)
        yield _fact("jacobian-fpure-sharp-containment",
                    dict(base_params, jacobian_exponent=(k - 1) * n, ordinary_exponent=k * n),
                    ok, wit)

        w_exp = (k - 1) * n - 1
        if w_exp >= 1:
            wit = (z**w_exp) * (x**n)
            yield _fact("jacobian-sharpness-witness",
                        dict(base_params, witness_z_exponent=w_exp, ordinary_exponent=k * n),
                        not ideal_member(wit, Q_kn), wit,
                        note="the displayed non-containment statement is "
                        "paper-ambiguous; only the witness-level fact is encoded")
        else:
            yield _skipped("jacobian-sharpness-witness", dict(base_params, ordinary_exponent=k * n),
                           "witness exponent (k-1)n-1 vanishes at this grid point")


def random_linear_forms_matrix(ring, rows, cols, rng):
    """rows x cols linear forms, row by row, each coefficient of each
    variable drawn in turn by rng.randrange(p); the zero ones drop out."""
    units = [tuple(int(j == i) for j in range(ring.nvars)) for i in range(ring.nvars)]
    return PolyMatrix(ring, [[Polynomial(ring, zip(units, [rng.randrange(ring.p) for _ in units]))
                              for _ in range(cols)] for _ in range(rows)])


def generic_determinantal_setup(p: int, size: int, d: int, seed: int):
    """Random specialization of the generic 2x3-determinantal example: the
    ideal of size x size minors of a size x (size+1) matrix of random linear
    forms in d variables over F_p.

    Degenerate draws (zero or repeated minors, unit ideal, separator not a
    nonzerodivisor) are re-drawn with a shifted seed and counted.
    """
    ring = make_ring(p, [f"x{i}" for i in range(1, d + 1)])
    sep = Polynomial.variable(ring, ring.variables[-1])
    attempts = 0
    while True:
        rng = random.Random(seed + 1000 * attempts)
        M = random_linear_forms_matrix(ring, size, size + 1, rng)
        I = minors(M, size)
        # sep must be a nonzerodivisor mod I, (I : sep) = I: I is homogeneous and
        # sep the last grevlex variable, so the saturation divides I's basis
        # (Bayer-Stillman) and s = 0 exactly when it divides nothing
        degenerate = (len(I.gens) != size + 1 or I.groebner_basis().is_unit()
                      or saturate(I, sep)[1] != 0)
        if not degenerate:
            break
        attempts += 1
        if attempts > 5:
            raise ValueError("persistent degenerate draws; seed range unusable")
    pd = PrimeData(
        primes=(I,),
        separators=(sep,),
        heights=(2,),
        max_local_gens=2,
        power_embedded=(Ideal(ring, [Polynomial.variable(ring, v) for v in ring.variables]),),
        asserted_radical=True,
        asserted_finite_pd=True,  # height-two perfect ideal: finite free resolution
        asserted_fpure_quotient=(d > size + 1),
        asserted_sfr_quotient=(d > size + 1),
        checked={"draw_attempts": attempts},
    )
    return ring, I, pd, attempts


def _run_generic_determinantal(seed, p, size, d, j_values):
    """size x size minors of a random size x (size+1) matrix of linear forms,
    a random specialization over F_p standing in for generic coefficients:
    symbolic equals ordinary in d > size+1 variables, fails with a certified
    witness at d = size+1."""
    ring, I, pd, attempts = generic_determinantal_setup(p, size, d, seed)
    expected = "holds" if d > size + 1 else "fails"
    for j in j_values:
        rep = check_sfr_containment(I, pd, j, expected=expected, require_assertions=(d > size + 1))
        rep.params.update({"p": p, "d": d, "size": size, "seed": seed, "j": j})
        rep.diagnostics["draw_attempts"] = attempts
        yield rep


# id -> (defaults, runner): runner(seed, *values) takes each value checked
# and converted, in the order of the defaults, and yields its reports
REGISTRY = {
    "xy-zk": ({"p": 5, "k": 2, "n": "1..2"}, _run_xy_zk),
    "generic-determinantal": ({"p": 101, "size": 2, "d": 6, "j": "2,3"},
                              _run_generic_determinantal),
}


def run_example(example_id: str, params=None, seed: int = 0):
    """Evaluate every expectation of a registered example; reports in
    canonical order, each one not skipped timed from the one before it
    unless a check timed itself."""
    if example_id not in REGISTRY:
        raise ValueError(f"unknown example id {example_id!r}")
    defaults, runner = REGISTRY[example_id]
    merged = dict(defaults)
    merged.update(params or {})
    if unknown := sorted(merged.keys() - defaults.keys()):
        raise ValueError(f"example {example_id} takes no parameter {unknown[0]!r}")
    values = []
    for key, default in defaults.items():
        try:
            values.append(int(merged[key]) if isinstance(default, int)
                          else _as_int_list(merged[key]))
        except (TypeError, ValueError):
            kind = "an integer" if isinstance(default, int) else "integers as a,b,... or a..b"
            raise ValueError(f"example {example_id}: {key} must be {kind}, "
                             f"not {merged[key]!r}") from None
        except ExponentOverflow as exc:
            raise ExponentOverflow(f"example {example_id}: {key} {exc}") from None
    reports, start = [], time.perf_counter()
    for rep in runner(seed, *values):
        now = time.perf_counter()
        if rep.verdict != "skipped":
            rep.diagnostics.setdefault("elapsed_seconds", round(now - start, 3))
        reports.append(rep)
        start = now
    return reports
