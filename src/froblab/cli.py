"""Command-line front end: parse the ideal-expression DSL, dispatch checks,
emit deterministic reports.

Exit codes: 0 all expectations hold, 1 expectation failure, 2 usage or parse
error or an exponent past the checked range, 3 budget exhaustion, 4 an internal
invariant failed (an ArithmeticError other than ExponentOverflow).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys

from .containment import (
    REGISTRY,
    check_fpt_containment,
    check_fpure_containment,
    check_sfr_containment,
    check_symbolic_into_Ie,
    run_example,
)
from .errors import BudgetExceeded, ExponentOverflow, ParseError
from .frobenius import (
    default_e_max,
    fedder_is_fpure,
    fpt_lower_bound,
    is_fpure_quotient,
    sfr_witness_search,
)
from .groebner import GroebnerBudget, Ideal, ideal_subset
from .parsing import parse_gens, parse_poly, parse_ring, split_top_level
from .quotient import HypersurfaceRing
from .rings import format_poly
from .symbolic import (
    STRATEGIES,
    PrimeData,
    is_squarefree_monomial,
    primedata_for_squarefree,
    symbolic_power,
)

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _budget_from_env():
    raw = os.environ.get("FROBLAB_MAX_PAIRS")
    if not raw:
        return None
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError(f"FROBLAB_MAX_PAIRS must be a positive integer, not {raw!r}")
    return GroebnerBudget(max_pairs=int(raw))


def _emit(out, text):
    out.write(text + "\n")


def _report_lines(reports, as_json, include_timings=False):
    lines = []
    for rep in reports:
        if as_json:
            lines.append(rep.to_json(include_timings))
        else:
            bits = [f"[{rep.verdict.upper():>7}]", rep.theorem_tag]
            if rep.params:
                bits.append(
                    " ".join(f"{k}={rep.params[k]}" for k in sorted(rep.params))
                )
            if rep.witness:
                bits.append(f"witness: {rep.witness}")
            if rep.reason:
                bits.append(f"({rep.reason})")
            if rep.expected != "holds":
                bits.append(f"expected: {rep.expected}")
            lines.append("  ".join(bits))
    return lines


def _verdict_report(verdict, as_json):
    if as_json:
        payload = {
            "status": verdict.status,
            "e_used": list(verdict.e_used) if isinstance(verdict.e_used, tuple) else verdict.e_used,
            "condition": verdict.condition,
            "witness": format_poly(verdict.witness) if verdict.witness is not None else None,
            "notes": verdict.notes,
        }
        return [json.dumps(payload, sort_keys=True)]
    line = f"[{verdict.status.upper()}] e={verdict.e_used}"
    if verdict.condition:
        line += f" condition={verdict.condition}"
    if verdict.witness is not None:
        line += f" witness: {format_poly(verdict.witness)}"
    reason = verdict.notes.get("reason")
    if reason:
        line += f" ({reason})"
    return [line]


# ---------------------------------------------------------------------------
# script sessions
# ---------------------------------------------------------------------------


class Session:
    """State of one script run: ring, optional hypersurface, named objects."""

    def __init__(self, budget=None):
        self.ring = None
        self.hyper = None
        self.ideals = {}
        self.primedata = {}  # name -> dict of pieces until first use
        self.budget = budget
        self.reports = []

    def need_ring(self):
        if self.ring is None:
            raise ParseError("no ring declared yet")
        return self.ring

    def make_ideal(self, gens_text):
        return _ideal_from_args(self.need_ring(), self.hyper, gens_text)

    def get_ideal(self, name):
        if name not in self.ideals:
            raise ParseError(f"unknown ideal name {name!r}")
        return self.ideals[name]

    def primedata_for(self, name):
        raw = self.primedata.get(name)
        if raw is None:
            raise ParseError(f"no prime data declared for {name!r}")
        if isinstance(raw, PrimeData):
            return raw
        pd = PrimeData(
            primes=tuple(raw.get("primes", ())),
            separators=tuple(raw["separators"]) if raw.get("separators") else None,
            heights=tuple(raw["heights"]) if raw.get("heights") else None,
            max_local_gens=raw.get("mu"),
            power_embedded=tuple(raw.get("embedded", ())),
            asserted_radical=raw.get("radical", True),
            asserted_finite_pd=raw.get("finite_pd", False),
            asserted_fpure_quotient=raw.get("fpure", False),
            asserted_sfr_quotient=raw.get("sfr", False),
        )
        self.primedata[name] = pd
        return pd

    def raw_primedata(self, name):
        """The prime data pieces declared so far for the ideal called name."""
        self.get_ideal(name)
        raw = self.primedata.setdefault(name, {})
        if isinstance(raw, PrimeData):
            raise ParseError(f"prime data for {name!r} already finalized by a check")
        return raw

    def make_ideals(self, body):
        """One ideal per nonempty ';'-separated generator list."""
        return [self.make_ideal(g) for g in split_top_level(body, ";") if g.strip()]


_ASSERTIONS = {"assert-fpure": "fpure", "assert-sfr": "sfr", "assert-finite-pd": "finite_pd"}

_COMMON_KEYS = {"n": "n", "expect": "expected"}
_CAP_KEYS = _COMMON_KEYS | {"cap": "exponent_cap"}
_FPT_KEYS = _COMMON_KEYS | {"floor": "fpt_floor", "emax": "e_max"}
_IE_KEYS = _COMMON_KEYS | {"e": "e", "cap": "q_cap"}


def _run_check(session, rest):
    # check tag -> (check function, use_jacobian, {script key: keyword it sets}).
    # fpt picks its Jacobian variant from the ring. A key left out keeps the
    # function's default; n has none, and the script's is 2. Built per call, so
    # the check functions are looked up when they run and a wrapper put on this
    # module's names (the benchmark's tracer) sees the call.
    checks = {
        "fpure": (check_fpure_containment, False, _CAP_KEYS),
        "jacobian-fpure": (check_fpure_containment, True, _CAP_KEYS),
        "sfr": (check_sfr_containment, False, _CAP_KEYS),
        "jacobian-sfr": (check_sfr_containment, True, _CAP_KEYS),
        "fpt": (check_fpt_containment, False, _FPT_KEYS),
        "symbolic-ie": (check_symbolic_into_Ie, False, _IE_KEYS),
    }
    tag, _, argtext = rest.partition(" ")
    if tag not in checks:
        raise ParseError(f"unknown check tag {tag!r}")
    check, use_jacobian, keys = checks[tag]
    parts = argtext.split()
    if not parts:
        raise ParseError("check needs an ideal name")
    kwargs = {"n": 2, "budget": session.budget}
    if use_jacobian:
        kwargs["use_jacobian"] = True
    for part in parts[1:]:
        key, eq, value = part.partition("=")
        if not eq or key not in keys:
            raise ParseError(f"check {tag} takes no argument {part!r}")
        if key == "expect":
            if value not in ("holds", "fails"):
                raise ParseError(f"expect is holds or fails, not {value!r}")
        elif key != "floor" or value != "auto":
            value = int(value)
        kwargs[keys[key]] = value
    name = parts[0]
    return check(session.get_ideal(name), session.primedata_for(name), **kwargs)


def execute_statement(session: Session, line: str):
    text = line.split("#", 1)[0].rstrip()
    stripped = text.strip()
    if not stripped:
        return
    head, _, rest = stripped.partition(" ")
    rest = rest.strip()
    name, _, body = rest.partition("=")
    name, body = name.strip(), body.strip()

    def at(tail):  # tail ends the line: padded to its column, a parse error names a column
        return tail.rjust(len(text))

    if head == "ring":
        session.ring = parse_ring(rest)
    elif head == "hypersurface":
        ring = session.need_ring()
        session.hyper = HypersurfaceRing(ring, parse_poly(ring, at(rest)), reduced=True)
    elif head == "ideal":
        if not name.isidentifier():
            raise ParseError(f"bad ideal name {name!r}")
        session.ideals[name] = session.make_ideal(at(body))
    elif head == "primes":
        raw = session.raw_primedata(name)
        tokens, gens = body.split(), at(body)
        kv = {}
        while tokens and "=" in tokens[-1]:
            key, _, value = tokens[-1].partition("=")
            if key == "heights":
                kv["heights"] = [int(v) for v in value.split(",")]
            elif key == "mu":
                kv["mu"] = int(value)
            else:
                raise ParseError(f"unknown primes argument {key!r}")
            gens = gens.rstrip()[: -len(tokens.pop())]
        raw["primes"] = session.make_ideals(gens)
        raw.update(kv)
    elif head == "embedded":
        session.raw_primedata(name)["embedded"] = session.make_ideals(at(body))
    elif head == "separator":
        session.raw_primedata(name)["separators"] = [
            parse_poly(session.ring, g) for g in split_top_level(at(body), ";")
        ]
    elif head in _ASSERTIONS:
        session.raw_primedata(rest)[_ASSERTIONS[head]] = True
    elif head == "check":
        session.reports.append(_run_check(session, rest))
    elif head == "example":
        ex_id, _, argtext = rest.partition(" ")
        kv = _example_params(ex_id, argtext.split(), ("seed",))
        seed = kv.pop("seed", "0")
        if not seed.lstrip("-").isdigit():
            raise ParseError(f"example seed must be an integer, not {seed!r}")
        session.reports.extend(run_example(ex_id, kv, seed=int(seed), budget=session.budget))
    else:
        raise ParseError(f"unknown statement {head!r}")


def _example_params(ex_id, words, extra=()):
    """key=value words as a dict; a word without '=', or a key the example
    (or extra) does not take, is an error naming it. The id is checked by
    run_example."""
    keys = (*REGISTRY[ex_id].defaults, *extra) if ex_id in REGISTRY else None
    params = {}
    for word in words:
        key, eq, value = word.partition("=")
        if keys is not None and (not eq or key not in keys):
            raise ParseError(f"example {ex_id} takes no argument {word!r}")
        params[key] = value
    return params


def run_script(path, out=sys.stdout, as_json=False, include_timings=False, budget=None):
    """Execute a script; returns the exit code, streaming reports as they land."""
    session = Session(budget=budget or _budget_from_env())
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        _emit(out, f"error: {exc}")
        return EXIT_USAGE
    emitted = 0
    for lineno, line in enumerate(lines, start=1):
        try:
            execute_statement(session, line)
        except BudgetExceeded as exc:
            _emit(out, f"budget exhausted at line {lineno}: {exc}")
            return EXIT_BUDGET
        except (ParseError, ValueError, ExponentOverflow) as exc:
            if getattr(exc, "col", None) is not None:  # a one-line piece padded to its column
                exc = f"{exc.message} (column {exc.col})"
            _emit(out, f"error at line {lineno}: {exc}")
            return EXIT_USAGE
        except ArithmeticError as exc:
            _emit(out, f"error at line {lineno}: {exc}")
            return EXIT_INTERNAL
        for rep in session.reports[emitted:]:
            _emit(out, _report_lines([rep], as_json, include_timings)[0])
        emitted = len(session.reports)
    failed = [r for r in session.reports if not r.ok]
    if failed:
        _emit(out, f"{len(failed)} expectation(s) failed")
        return EXIT_EXPECTATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _session_from_args(args):
    ring = parse_ring(args.ring)
    hyper = None
    if getattr(args, "hypersurface", None):
        hyper = HypersurfaceRing(ring, parse_poly(ring, args.hypersurface), reduced=True)
    return ring, hyper


def _ideal_from_args(ring, hyper, text):
    return Ideal(hyper or ring, parse_gens(ring, text))


def cmd_fedder(args, out):
    ring, _ = _session_from_args(args)
    I = Ideal(ring, parse_gens(ring, args.ideal))
    verdict = fedder_is_fpure(I, e=args.e, budget=_budget_from_env())
    for line in _verdict_report(verdict, args.json):
        _emit(out, line)
    return EXIT_OK if verdict.status != "refuted" else EXIT_EXPECTATION


def cmd_fpure(args, out):
    ring, hyper = _session_from_args(args)
    if hyper is None:
        raise ParseError("fpure needs --hypersurface (use fedder in a regular ring)")
    Q = _ideal_from_args(ring, hyper, args.ideal)
    verdict = is_fpure_quotient(hyper, Q, e=args.e, finite_pd=args.finite_pd,
                                budget=_budget_from_env())
    for line in _verdict_report(verdict, args.json):
        _emit(out, line)
    return EXIT_OK if verdict.status == "confirmed" else EXIT_EXPECTATION


def cmd_sfr(args, out):
    ring, hyper = _session_from_args(args)
    Q = _ideal_from_args(ring, hyper, args.ideal)
    cs = [parse_poly(ring, c) for c in args.c]
    primes = None
    if args.minimal_primes:
        primes = [
            _ideal_from_args(ring, hyper, g)
            for g in split_top_level(args.minimal_primes, ";")
        ]
    e_max = default_e_max(ring.p) if args.emax is None else args.emax
    verdict = sfr_witness_search(Q, cs, e_max, minimal_primes=primes,
                                 budget=_budget_from_env())
    for line in _verdict_report(verdict, args.json):
        _emit(out, line)
    return EXIT_OK if verdict.status == "confirmed" else EXIT_EXPECTATION


def cmd_symbolic(args, out):
    ring, hyper = _session_from_args(args)
    I = _ideal_from_args(ring, hyper, args.ideal)
    pieces = {}
    if args.primes:
        pieces["primes"] = [
            _ideal_from_args(ring, hyper, g) for g in split_top_level(args.primes, ";")
        ]
        if args.heights:
            pieces["heights"] = tuple(int(h) for h in args.heights.split(","))
    if args.separator:
        pieces["separators"] = [
            parse_poly(ring, s) for s in split_top_level(args.separator, ";")
        ]
    if not pieces and not I.ring.relations and is_squarefree_monomial(I):
        pd = primedata_for_squarefree(I)
    else:
        pd = PrimeData(
            primes=tuple(pieces.get("primes", (I,))),
            separators=tuple(pieces["separators"]) if "separators" in pieces else None,
            heights=pieces.get("heights"),
            asserted_radical=True,
        )
    diag = {}
    result = symbolic_power(I, args.n, pd, strategy=args.strategy,
                            budget=_budget_from_env(), diag=diag)
    payload = {
        "symbolic_exponent": args.n,
        "generators": [format_poly(g) for g in result.gens],
        "diagnostics": diag,
    }
    if args.json:
        _emit(out, json.dumps(payload, sort_keys=True))
    else:
        _emit(out, f"I^({args.n}) = ({', '.join(payload['generators']) or '0'})")
        if diag.get("saturation_exponents"):
            _emit(out, f"saturation exponents: {diag['saturation_exponents']}")
    return EXIT_OK


def cmd_containment(args, out):
    ring, hyper = _session_from_args(args)
    lhs = _ideal_from_args(ring, hyper, args.lhs)
    rhs = _ideal_from_args(ring, hyper, args.rhs)
    ok, wit = ideal_subset(lhs, rhs, _budget_from_env())
    if args.json:
        _emit(out, json.dumps(
            {"holds": ok, "witness": format_poly(wit) if wit else None}, sort_keys=True
        ))
    else:
        _emit(out, "holds" if ok else f"fails  witness: {format_poly(wit)}")
    return EXIT_OK if ok else EXIT_EXPECTATION


def cmd_fpt(args, out):
    ring, hyper = _session_from_args(args)
    I = _ideal_from_args(ring, hyper, args.ideal)
    e_max = default_e_max(ring.p) if args.emax is None else args.emax
    est = fpt_lower_bound(I, e_max, _budget_from_env())
    if args.json:
        _emit(out, json.dumps({
            "nu_values": est.nu_values,
            "lower_bound": str(est.lower_bound),
            "floor": est.floor_lower_bound,
        }, sort_keys=True))
    else:
        for e, nu in est.nu_values:
            _emit(out, f"nu_{e} = {nu}")
        _emit(out, f"fpt >= {est.lower_bound}  (floor {est.floor_lower_bound})")
    return EXIT_OK


def cmd_example(args, out):
    params = _example_params(args.id, args.param or [])
    reports = run_example(args.id, params, seed=args.seed, budget=_budget_from_env())
    _emit(out, "\n".join(_report_lines(reports, args.json, args.timings)))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_EXPECTATION


def cmd_run(args, out):
    return run_script(args.script, out=out, as_json=args.json,
                      include_timings=args.timings, budget=_budget_from_env())


def cmd_selftest(args, out):
    """Quick battery over the forced (constructor/identity) cases."""
    from . import selftest

    failures = selftest.run(out)
    return EXIT_OK if failures == 0 else EXIT_EXPECTATION


def build_parser():
    parser = argparse.ArgumentParser(
        prog="froblab",
        description="Exact positive-characteristic containment checks over F_p",
        epilog=(
            "Budgets: FROBLAB_MAX_PAIRS, a positive integer, caps the S-pairs of "
            "each Buchberger run separately (the pairs selected for reduction), "
            "not a command's total work. "
            "Search depth defaults: e_max is 3 for p <= 5, 2 for p <= 13, 1 above. "
            "Exit codes: 0 ok, 1 expectation failed, 2 usage/parse error or an "
            "exponent past 2^31 - 1, 3 budget exhausted, 4 internal invariant failed."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, hyper=True):
        sp.add_argument("--ring", required=True, help='ring declaration, e.g. "F5[x,y,z]"')
        if hyper:
            sp.add_argument("--hypersurface", help="defining equation f of S/(f)")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("fedder", help="classical Fedder criterion in a regular ring")
    common(sp, hyper=False)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--e", type=int, default=1)
    sp.set_defaults(func=cmd_fedder)

    sp = sub.add_parser("fpure", help="Fedder-type criterion for R/Q in a hypersurface")
    common(sp)
    sp.add_argument("--ideal", default="", help="generators of Q (empty: Q = 0, tests R itself)")
    sp.add_argument("--e", type=int, default=1)
    sp.add_argument("--finite-pd", action="store_true",
                    help="assert pd(R/Q) finite so a double failure refutes")
    sp.set_defaults(func=cmd_fpure)

    sp = sub.add_parser("sfr", help="Glassbrenner-type strong F-regularity search")
    common(sp)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--c", action="append", required=True, help="test element (repeatable)")
    sp.add_argument("--emax", type=int)
    sp.add_argument("--minimal-primes", help="semicolon-separated generator lists")
    sp.set_defaults(func=cmd_sfr)

    sp = sub.add_parser("symbolic", help="symbolic power under supplied prime data")
    common(sp)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--primes", help="semicolon-separated generator lists")
    sp.add_argument("--heights", help="comma-separated heights for the primes")
    sp.add_argument("--separator", help="semicolon-separated separators")
    sp.add_argument("--strategy", choices=STRATEGIES)
    sp.set_defaults(func=cmd_symbolic)

    sp = sub.add_parser("containment", help="decide lhs ⊆ rhs")
    common(sp)
    sp.add_argument("--lhs", required=True)
    sp.add_argument("--rhs", required=True)
    sp.set_defaults(func=cmd_containment)

    sp = sub.add_parser("fpt", help="nu_e values and the F-pure-threshold lower bound")
    common(sp)
    sp.add_argument("--ideal", required=True)
    sp.add_argument("--emax", type=int)
    sp.set_defaults(func=cmd_fpt)

    sp = sub.add_parser("example", help="run a registry example")
    sp.add_argument("id", choices=sorted(REGISTRY))
    sp.add_argument("--param", action="append", help="key=value (repeatable)")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--timings", action="store_true")
    sp.add_argument("--out", help="also write the report stream to this path")
    sp.set_defaults(func=cmd_example)

    sp = sub.add_parser("run", help="execute a script of DSL statements")
    sp.add_argument("script")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--timings", action="store_true")
    sp.add_argument("--out", help="also write the report stream to this path")
    sp.set_defaults(func=cmd_run)

    sp = sub.add_parser("selftest", help="run the built-in forced-case battery")
    sp.set_defaults(func=cmd_selftest)

    return parser


def _dispatch(args, out):
    """(exit code, whether the command returned); an exception it raised is
    one line on stderr."""
    try:
        return args.func(args, out), True
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET, False
    except (ParseError, ValueError, ExponentOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE, False
    except ArithmeticError as exc:  # after ExponentOverflow, which is one too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL, False


def main(argv=None):
    args = build_parser().parse_args(argv)
    path = getattr(args, "out", None)
    if not path:
        return _dispatch(args, sys.stdout)[0]
    # --out: the file is opened before the command runs, so that a path that
    # cannot be written fails first, but to append, so that a command that
    # raises leaves it as it was (and removes it if the opening created it).
    # The report stream of a command that returns replaces the file's content
    # and goes to stdout.
    created = not os.path.exists(path)
    try:
        sink = open(path, "a")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = io.StringIO()
    with sink:
        code, returned = _dispatch(args, out)
        if returned:
            sink.seek(0)
            sink.truncate()
            sink.write(out.getvalue())
            sys.stdout.write(out.getvalue())
    if not returned and created:
        os.remove(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
