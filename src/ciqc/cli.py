"""Command-line surface: deterministic JSON/TSV emission and verification.

Exit codes: 0 success, 1 usage error, 2 domain error (exceptional or
otherwise unsupported input, with the exceptional case named), 3
verification failure.  Rationals are printed as "p/q" strings, never as
decimals; the Novikov variable stays symbolic unless --q 1 is passed, which
substitutes on output only.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .errors import DomainError, InternalConsistencyError, VerificationError
from .exact import QPoly, TruncSeries, rat_str
from .geometry import describe, require_reconstruction_domain


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(1, f"{self.prog}: error: {message}\n")


def _multidegree(text: str):
    """The --d argument type: a comma-separated list of integers."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"cannot parse multidegree {text!r}")


def _jsonable(value, q1: bool):
    """The JSON form of a payload value.  A Fraction prints as "p/q", a QPoly
    as [[k, "p/q"], ...] (one "p/q" of its value at q = 1 when ``q1``), a
    TruncSeries through its own to_json with that QPoly rule, a NamedTuple as
    its fields in order; dicts, lists and tuples are encoded element by
    element, and ints, bools, strings and None pass through unchanged."""
    if isinstance(value, Fraction):
        return rat_str(value)
    if isinstance(value, QPoly):
        return rat_str(value.eval_q1()) if q1 else value.to_json()
    if isinstance(value, TruncSeries):
        return value.to_json(lambda c: _jsonable(c, q1))
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: _jsonable(item, q1) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item, q1) for item in value]
    return value


def _emit(payload, q1: bool = False) -> None:
    json.dump(_jsonable(payload, q1), sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_info(args) -> int:
    desc = describe(args.n, args.d)
    _emit(desc)
    if desc.exceptional:
        sys.stderr.write(
            f"domain error: exceptional complete intersection: "
            f"{desc.exceptional_case}\n")
        return 2
    return 0


def cmd_smallqh(args) -> int:
    from .smallqh import build_ring, c_constant
    desc = describe(args.n, args.d)
    ring = build_ring(desc)
    cval, conj, match = c_constant(desc, ring)
    _emit({"descriptor": desc, "qmax": ring.qmax, "multH": ring.multH,
           "powers": ring.powers, "M": ring.M, "W": ring.W, "g": ring.g,
           "ginv": ring.ginv, "c": cval, "c_conjecture": conj,
           "conjecture_matches": match}, args.q1)
    return 0


def cmd_f1(args) -> int:
    from .smallqh import build_ring
    desc = describe(args.n, args.d)
    jet = build_ring(desc).f1
    _emit({"descriptor": desc, "constant": jet.constant,
           "tau_jet": jet.tau_jet, "t_jet": jet.t_jet}, args.q1)
    return 0


def cmd_f2(args) -> int:
    from .smallqh import build_ring
    if args.no_header and args.format != "tsv":
        sys.stderr.write("ciqc f2: error: --no-header requires --format tsv\n")
        return 1
    desc = describe(args.n, args.d)
    jets = build_ring(desc).f2
    if args.format == "tsv":
        if not args.no_header:
            sys.stdout.write("roots\n")
        sys.stdout.write("\t".join(rat_str(jet.root) for jet in jets) + "\n")
        return 0
    _emit({"descriptor": desc, "roots": [jet.root for jet in jets],
           "gradients": [{"root": jet.root, "value": jet.value,
                          "tau_gradient": jet.tau_grad, "t_gradient": jet.t_grad}
                         for jet in jets]}, args.q1)
    return 0


# The largest `higherk --kmax`.  The closed forms hold for every order and
# one JSON record is printed per order, so a larger bound would only let a
# mistyped value run for minutes before printing anything.
HIGHERK_KMAX_LIMIT = 1000

# The largest `fano-lines --n`.  Nothing prints before the report is complete,
# and `--check all` took 1.5 s at n = 100 and 8.8 s at n = 200 on a 2-vCPU
# host, so a larger n would only run for minutes (n = 10^20 never returns).
FANO_LINES_N_LIMIT = 100

# The largest `residual --n`.  Nothing prints before the residuals are
# complete, and on a one-term potential with --d 3 the check took 0.5 s at
# n = 24, 1.3 s at n = 30 and 4.4 s at n = 40 on a 2-vCPU host, its cost
# growing faster than (n + 1)^4.
RESIDUAL_N_LIMIT = 30


def cmd_higherk(args) -> int:
    from .reconstruct import higher_k_coeffs
    if not 3 <= args.kmax <= HIGHERK_KMAX_LIMIT:
        sys.stderr.write(f"ciqc higherk: error: --kmax must be between 3 (the "
                         f"first determined order) and {HIGHERK_KMAX_LIMIT}, "
                         f"got {args.kmax}\n")
        return 1
    desc = describe(args.n, args.d)
    _emit({"descriptor": desc, "records": higher_k_coeffs(desc, args.kmax)})
    return 0


def cmd_residual(args) -> int:
    from .reduction import ReducedPotential, wdvv_residuals
    if args.n > RESIDUAL_N_LIMIT:
        raise DomainError(f"residual needs n <= {RESIDUAL_N_LIMIT}, got n = {args.n}")
    desc = describe(args.n, args.d)
    require_reconstruction_domain(desc)
    try:
        with open(args.load) as handle:
            F = TruncSeries.from_json(json.load(handle))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"ciqc residual: error: cannot load {args.load}: "
                         f"{type(exc).__name__}: {exc}\n")
        return 1
    pot = ReducedPotential(desc, F)
    res = wdvv_residuals(pot)

    def violations(series):  # its JSON terms, each QPoly left to _emit
        return series.to_json(lambda c: c)["terms"]

    _emit({
        "descriptor": desc, "window": pot.window,
        "eq_mixed": {f"{a},{b}": violations(series)
                     for (a, b), series in sorted(res["eq_mixed"].items())},
        "eq_pure": violations(res["eq_pure"]),
        "ambient": {f"{k}": violations(series)
                    for k, series in sorted(res["ambient"].items())
                    if not series.is_zero()},
    }, args.q1)
    return 0


def cmd_fano_lines(args) -> int:
    from .fano_lines import (hilb2_check, hilb2_examples, omega_checks,
                             prim_square_class, rank_estimates)
    n, which = args.n, args.check
    if n > FANO_LINES_N_LIMIT:
        raise DomainError(f"fano-lines needs n <= {FANO_LINES_N_LIMIT}, got n = {n}")
    if which == "hilb2" and n != 4:
        raise DomainError(f"the hilb2 cross-check is the cubic fourfold's: "
                          f"it needs n = 4, got n = {n}")
    checks = {}
    report = omega_checks(n) if which in ("all", "cubic13", "cubic16") else None
    if which in ("all", "cubic7"):
        checks["primitive_square_class"] = {
            "z": report["z"] if report else prim_square_class(n),
            "matches_closed_form": True,  # enforced inside the computation
        }
    if report:
        checks.update({k: report[k] for k in ("normalization", "quartic", "f2_at_zero")})
    if which == "all":
        checks["rank_estimates"] = rank_estimates(n)
    if which == "hilb2" or (which == "all" and n == 4):
        c = hilb2_check()
        checks["hilb2"] = {"scalar": c, "examples": hilb2_examples(c)}
    _emit({"n": n, "checks": checks})
    return 0


def cmd_genus1(args) -> int:
    from .genus_one import f2_from_genus1
    from .smallqh import build_ring
    if tuple(sorted(args.d)) not in ((3,), (2, 2)):
        raise DomainError("genus-one determination implemented for d = (3), (2,2)")
    desc = describe(args.n, args.d)
    if desc.exceptional:
        raise DomainError(f"exceptional: {desc.exceptional_case}")
    if args.n < 3:
        raise DomainError("need n >= 3")
    _emit(f2_from_genus1(desc, build_ring(desc)))
    return 0


def cmd_verify(args) -> int:
    from .acceptance import run_all
    if (args.n is None) != (args.d is None):
        sys.stderr.write("ciqc verify: error: --n and --d must be given together\n")
        return 1
    only = None
    if args.n is not None:
        desc = describe(args.n, args.d)
        require_reconstruction_domain(desc)
        only = (desc.n, desc.d)
    results = run_all(only=only, seed=args.seed)
    for name, ok, detail in results:
        sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}\n")
    return 0 if all(ok for _, ok, _ in results) else 3


def build_parser() -> _Parser:
    parser = _Parser(prog="ciqc",
                     description="Exact quantum cohomology data for Fano "
                                 "complete intersections")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, need_d=True, q_option=False):
        p.add_argument("--n", type=int, required=True)
        if need_d:
            p.add_argument("--d", type=_multidegree, required=True,
                           help="comma-separated multidegree, e.g. 2,2")
        if q_option:
            p.add_argument("--q", dest="q1", nargs="?", const="1", default=None,
                           help="substitute q = 1 on output only")

    p = sub.add_parser("info", help="descriptor invariants")
    common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("smallqh", help="quantum ring data")
    common(p, q_option=True)
    p.set_defaults(func=cmd_smallqh)

    p = sub.add_parser("f1", help="degree-2 jet of F^(1)")
    common(p, q_option=True)
    p.set_defaults(func=cmd_f1)

    p = sub.add_parser("f2", help="roots and gradient of F^(2)(0)")
    common(p, q_option=True)
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--no-header", action="store_true")
    p.set_defaults(func=cmd_f2)

    p = sub.add_parser("higherk", help="higher-order determination coefficients")
    common(p)
    p.add_argument("--kmax", type=int, default=6)
    p.set_defaults(func=cmd_higherk)

    p = sub.add_parser("residual", help="reduced-system residuals of a stored potential")
    common(p, q_option=True)
    p.add_argument("--load", type=str, required=True)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("fano-lines", help="lines-variety verification report")
    common(p, need_d=False)
    p.add_argument("--check", choices=("all", "cubic7", "cubic13", "cubic16", "hilb2"),
                   default="all")
    p.set_defaults(func=cmd_fano_lines)

    p = sub.add_parser("genus1", help="genus-one determination of F^(2)(0)")
    common(p, need_d=False)
    p.add_argument("--d", type=_multidegree, default=(3,))
    p.set_defaults(func=cmd_genus1)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--d", type=_multidegree, default=None)
    p.add_argument("--seed", type=int, default=20240811)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    if getattr(args, "q1", None) is not None and args.q1 != "1":
        sys.stderr.write("only --q 1 is supported (output specialization)\n")
        return 1
    args.q1 = getattr(args, "q1", None) == "1"
    try:
        return args.func(args)
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    except (VerificationError, InternalConsistencyError) as exc:
        sys.stderr.write(f"verification failure: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
