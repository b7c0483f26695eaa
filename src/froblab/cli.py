"""Command-line front end: parse the ideal-expression DSL, dispatch checks,
emit deterministic reports.

Exit codes: 0 all expectations hold, 1 expectation failure, 2 usage or parse
error or an exponent past the checked range, 3 budget exhaustion or out of
memory, 4 an internal invariant failed (an ArithmeticError other than
ExponentOverflow). _failure is the one map from an exception to its exit code
and error line, for the subcommands and the script runner alike; both build
their inputs through Session.
"""

from __future__ import annotations

import argparse
import contextlib
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
from .frobenius import fedder_is_fpure, fpt_lower_bound, is_fpure_quotient, sfr_witness_search
from .groebner import GroebnerBudget, Ideal, ideal_subset
from .parsing import parse_gens, parse_poly, parse_ring, split_top_level
from .quotient import HypersurfaceRing
from .rings import format_poly
from .symbolic import PrimeData, is_squarefree_monomial, primedata_for_squarefree, symbolic_power

EXIT_OK = 0
EXIT_EXPECTATION = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def _budget_from_env():
    """The budget FROBLAB_MAX_PAIRS sets; unset or empty, the default one."""
    raw = os.environ.get("FROBLAB_MAX_PAIRS")
    if not raw:
        return GroebnerBudget()
    if not (raw.isascii() and raw.isdigit() and int(raw) > 0):
        raise ValueError(f"FROBLAB_MAX_PAIRS must be a positive integer, not {raw!r}")
    return GroebnerBudget(max_pairs=int(raw))


def _failure(exc):
    """(exit code, line head) of an exception a command raised; any other
    exception than these is a bug and propagates."""
    if isinstance(exc, BudgetExceeded):
        return EXIT_BUDGET, "budget exhausted"
    if isinstance(exc, MemoryError):  # the host's budget; Python's own has no text
        exc.args = exc.args or ("out of memory",)
        return EXIT_BUDGET, "error"
    if isinstance(exc, (ValueError, ExponentOverflow, OSError)):  # ParseError is a ValueError
        return EXIT_USAGE, "error"
    if isinstance(exc, ArithmeticError):  # after ExponentOverflow, which is one too
        return EXIT_INTERNAL, "error"
    raise exc


def _emit(out, text):
    out.write(text + "\n")


def _report_line(rep, as_json, include_timings=False):
    if as_json:
        return rep.to_json(include_timings)
    bits = [f"[{rep.verdict.upper():>7}]", rep.theorem_tag]
    if rep.params:
        bits.append(" ".join(f"{k}={rep.params[k]}" for k in sorted(rep.params)))
    if rep.witness:
        bits.append(f"witness: {rep.witness}")
    if rep.reason:
        bits.append(f"({rep.reason})")
    if rep.expected != "holds":
        bits.append(f"expected: {rep.expected}")
    return "  ".join(bits)


def _verdict_report(verdict, as_json):
    if as_json:
        payload = {
            "status": verdict.status,
            "e_used": verdict.e_used,
            "condition": verdict.condition,
            "witness": format_poly(verdict.witness) if verdict.witness is not None else None,
            "notes": verdict.notes,
        }
        return json.dumps(payload, sort_keys=True)
    line = f"[{verdict.status.upper()}] e={verdict.e_used}"
    if verdict.condition:
        line += f" condition={verdict.condition}"
    if verdict.witness is not None:
        line += f" witness: {format_poly(verdict.witness)}"
    reason = verdict.notes.get("reason")
    if reason:
        line += f" ({reason})"
    return line


def _emit_verdict(out, verdict, as_json):
    """The verdict's line; exit 0 if it is confirmed, 1 otherwise."""
    _emit(out, _verdict_report(verdict, as_json))
    return EXIT_OK if verdict.confirmed else EXIT_EXPECTATION


# ---------------------------------------------------------------------------
# sessions: the inputs of a script or a subcommand
# ---------------------------------------------------------------------------


class Session:
    """State of one script run: ring, optional hypersurface, named objects.
    A subcommand builds its inputs through one too (from_args)."""

    def __init__(self):
        self.ring = None
        self.hyper = None
        self.ideals = {}
        self.primedata = {}  # name -> {PrimeData field: value} until first use
        self.reports = []

    @classmethod
    def from_args(cls, args):
        """The session of --ring, over --hypersurface where the command takes it."""
        session = cls()
        session.ring = parse_ring(args.ring)
        if getattr(args, "hypersurface", None):
            session.set_hypersurface(args.hypersurface)
        return session

    def need_ring(self):
        if self.ring is None:
            raise ParseError("no ring declared yet")
        return self.ring

    def set_hypersurface(self, text):
        ring = self.need_ring()
        self.hyper = HypersurfaceRing(ring, parse_poly(ring, text), reduced=True)

    def make_ideal(self, gens_text):
        ring = self.need_ring()
        return Ideal(self.hyper or ring, parse_gens(ring, gens_text))

    def make_ideals(self, body):
        """One ideal per nonempty ';'-separated generator list."""
        return [self.make_ideal(g) for g in split_top_level(body, ";") if g.strip()]

    def make_polys(self, body):
        """One polynomial per ';'-separated piece."""
        return [parse_poly(self.need_ring(), g) for g in split_top_level(body, ";")]

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
        pd = PrimeData(**{"primes": (), **raw}, asserted_radical=True)
        self.primedata[name] = pd
        return pd

    def raw_primedata(self, name):
        """The prime data pieces declared so far for the ideal called name."""
        self.get_ideal(name)
        raw = self.primedata.setdefault(name, {})
        if isinstance(raw, PrimeData):
            raise ParseError(f"prime data for {name!r} already finalized by a check")
        return raw


_ASSERTIONS = {"assert-fpure": "asserted_fpure_quotient", "assert-sfr": "asserted_sfr_quotient",
               "assert-finite-pd": "asserted_finite_pd"}

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
    kwargs = {"n": 2}
    if use_jacobian:
        kwargs["use_jacobian"] = True
    for key, value in _key_values(parts[1:], keys, f"check {tag}"):
        if key == "expect":
            if value not in ("holds", "fails"):
                raise ParseError(f"expect is holds or fails, not {value!r}")
        elif key != "floor" or value != "auto":
            value = _ints(key, value)
        kwargs[keys[key]] = value
    name = parts[0]
    return check(session.get_ideal(name), session.primedata_for(name), **kwargs)


def _ints(key, text, many=False):
    """int(text), or with many the ints of its comma-separated pieces; a piece
    that is not an integer is a ParseError that names key."""
    values = []
    for piece in text.split(",") if many else [text]:
        try:
            values.append(int(piece))
        except ValueError:
            kind = "integers" if many else "an integer"
            raise ParseError(f"{key} must be {kind}, not {piece!r}") from None
    return values if many else values[0]


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
        session.ring, session.hyper = parse_ring(rest), None
    elif head == "hypersurface":
        session.set_hypersurface(at(rest))
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
                kv["heights"] = _ints(key, value, many=True)
            elif key == "mu":
                kv["max_local_gens"] = _ints(key, value)
            else:
                raise ParseError(f"unknown primes argument {key!r}")
            gens = gens.rstrip()[: -len(tokens.pop())]
        raw["primes"] = session.make_ideals(gens)
        raw.update(kv)
    elif head == "embedded":
        session.raw_primedata(name)["power_embedded"] = session.make_ideals(at(body))
    elif head == "separator":
        session.raw_primedata(name)["separators"] = session.make_polys(at(body))
    elif head in _ASSERTIONS:
        session.raw_primedata(rest)[_ASSERTIONS[head]] = True
    elif head == "check":
        session.reports.append(_run_check(session, rest))
    elif head == "example":
        ex_id, _, argtext = rest.partition(" ")
        kv = _example_params(ex_id, argtext.split(), ("seed",))
        seed = _ints("example seed", kv.pop("seed", "0"))
        session.reports.extend(run_example(ex_id, kv, seed=seed))
    else:
        raise ParseError(f"unknown statement {head!r}")


def _key_values(words, keys, what):
    """(key, value) for each key=value word, in order; a word without '=', or a key
    not in keys (any key when keys is None), is an error naming what and the word."""
    for word in words:
        key, eq, value = word.partition("=")
        if keys is not None and (not eq or key not in keys):
            raise ParseError(f"{what} takes no argument {word!r}")
        yield key, value


def _example_params(ex_id, words, extra=()):
    """dict(_key_values) over the example's keys and extra; run_example checks the id."""
    keys = (*REGISTRY[ex_id][0], *extra) if ex_id in REGISTRY else None
    return dict(_key_values(words, keys, f"example {ex_id}"))


def run_script(path, out=sys.stdout, as_json=False, include_timings=False):
    """Execute a script in the scope of the budget FROBLAB_MAX_PAIRS sets;
    returns the exit code, streaming reports as they land. A failure is one
    line, which names the script line it stopped at."""
    with _budget_from_env():
        session, lineno = Session(), 0
        try:
            with open(path) as fh:
                lines = fh.readlines()
            for lineno, line in enumerate(lines, start=1):
                before = len(session.reports)
                execute_statement(session, line)
                for rep in session.reports[before:]:
                    _emit(out, _report_line(rep, as_json, include_timings))
        except Exception as exc:
            code, head = _failure(exc)
            if getattr(exc, "col", None) is not None:  # a one-line piece padded to its column
                exc = f"{exc.message} (column {exc.col})"
            where = f" at line {lineno}" if lineno else ""
            _emit(out, f"{head}{where}: {exc}")
            return code
    failed = sum(not r.ok for r in session.reports)
    if failed:
        _emit(out, f"{failed} expectation(s) failed")
        return EXIT_EXPECTATION
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_fedder(args, out):
    I = Session.from_args(args).make_ideal(args.ideal)
    return _emit_verdict(out, fedder_is_fpure(I, e=args.e), args.json)


def cmd_fpure(args, out):
    session = Session.from_args(args)
    if session.hyper is None:
        raise ParseError("fpure needs --hypersurface (use fedder in a regular ring)")
    Q = session.make_ideal(args.ideal)
    verdict = is_fpure_quotient(Q, e=args.e, finite_pd=args.finite_pd)
    return _emit_verdict(out, verdict, args.json)


def cmd_sfr(args, out):
    session = Session.from_args(args)
    Q = session.make_ideal(args.ideal)
    cs = [parse_poly(session.ring, c) for c in args.c]
    primes = session.make_ideals(args.minimal_primes or "")
    verdict = sfr_witness_search(Q, cs, args.emax, minimal_primes=primes)
    return _emit_verdict(out, verdict, args.json)


def cmd_symbolic(args, out):
    session = Session.from_args(args)
    I = session.make_ideal(args.ideal)
    pieces = {}
    if args.primes:
        pieces["primes"] = session.make_ideals(args.primes)
    if args.separator:
        pieces["separators"] = session.make_polys(args.separator)
    # the monomial construction reads no separators, only variable primes
    if "primes" not in pieces and not I.ring.relations and is_squarefree_monomial(I):
        pd = primedata_for_squarefree(I)
    else:
        pd = PrimeData(**{"primes": (I,), **pieces}, asserted_radical=True)
    diag = {}
    result = symbolic_power(I, args.n, pd, diag=diag)
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
    session = Session.from_args(args)
    ok, wit = ideal_subset(session.make_ideal(args.lhs), session.make_ideal(args.rhs))
    if args.json:
        _emit(out, json.dumps(
            {"holds": ok, "witness": format_poly(wit) if wit else None}, sort_keys=True
        ))
    else:
        _emit(out, "holds" if ok else f"fails  witness: {format_poly(wit)}")
    return EXIT_OK if ok else EXIT_EXPECTATION


def cmd_fpt(args, out):
    est = fpt_lower_bound(Session.from_args(args).make_ideal(args.ideal), args.emax)
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
    reports = run_example(args.id, params, seed=args.seed)
    _emit(out, "\n".join(_report_line(r, args.json, args.timings) for r in reports))
    return EXIT_OK if all(r.ok for r in reports) else EXIT_EXPECTATION


def cmd_run(args, out):
    return run_script(args.script, out=out, as_json=args.json, include_timings=args.timings)


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
            "Exit codes: 0 ok, 1 expectation failed, 2 usage/parse error or an exponent past "
            "2^31 - 1, 3 budget exhausted or out of memory, 4 internal invariant failed."
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
    sp.add_argument("--separator", help="semicolon-separated separators")
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


def main(argv=None):
    """Run one command in the scope of the budget FROBLAB_MAX_PAIRS sets; an
    exception it raises is one line on stderr."""
    args = build_parser().parse_args(argv)
    path = getattr(args, "out", None)
    # --out: the file is opened before the command runs, so that a path that
    # cannot be written fails first, but to append, so that a command that
    # raises leaves it as it was (and removes it if the opening created it).
    # The report stream of a command that returns replaces the file's content
    # and goes to stdout.
    created = bool(path) and not os.path.exists(path)
    out = io.StringIO() if path else sys.stdout
    try:
        with (open(path, "a") if path else contextlib.nullcontext()) as sink, _budget_from_env():
            code = args.func(args, out)
            if path:
                sink.seek(0)
                sink.truncate()
                sink.write(out.getvalue())
                sys.stdout.write(out.getvalue())
            return code
    except Exception as exc:
        code, head = _failure(exc)
        print(f"{head}: {exc}", file=sys.stderr)
        if created and os.path.exists(path):
            os.remove(path)
        return code


if __name__ == "__main__":
    sys.exit(main())
