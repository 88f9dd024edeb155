"""Command-line interface.

Subcommands: ``dist`` (pattern distances), ``simulate`` (process samplers),
``test`` (Monte Carlo homogeneity test), ``power`` (power study grid), and
``bounds`` (closed-form bound evaluators). All randomness flows from the
``--seed`` flag through deterministic substreams; no command ever seeds
from the clock. Output is a JSON result document (``simulate`` emits
pattern text, ``power --csv`` emits CSV).

Exit codes: 0 success, 2 usage error, 3 data/parse error, 4 numeric-domain
error.
"""

import argparse
import os
import sys
import time

from . import bounds as bounds_mod
from .errors import DimensionMismatchError, PatternFileError
from .fileio import dumps_result, format_patterns, read_patterns, \
    read_single_pattern
from .metrics import CountDistribution, MetricParams, matching_details
from .processes import RngStream, UNIT_SQUARE, sample_bernoulli_process, \
    sample_binomial_process, sample_collection, sample_poisson_fkappa, \
    sample_poisson_homogeneous
from .statistics import homogeneity_test, power_study

__all__ = ["main", "build_parser"]

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DOMAIN = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ppmetrics",
        description="Point-pattern metrics, samplers, bounds, and the "
                    "Monte Carlo homogeneity test.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_dist = sub.add_parser("dist", help="distance between two pattern files")
    p_dist.add_argument("file_a")
    p_dist.add_argument("file_b")
    p_dist.add_argument("--metric", choices=["d1", "dbar1"], default="dbar1")
    p_dist.add_argument("--order", type=float, default=1.0,
                        help="order parameter p >= 1 (default 1)")
    p_dist.add_argument("--cutoff", type=float, default=1.0,
                        help="cutoff value c > 0 (default 1)")
    p_dist.add_argument("--show-assignment", action="store_true",
                        help="include the optimal pairing in the output")

    p_sim = sub.add_parser("simulate", help="sample point patterns to stdout")
    p_sim.add_argument("--model", required=True,
                       choices=["poisson", "fkappa", "bernoulli", "binomial"])
    p_sim.add_argument("--lambda", dest="lam", type=float, default=30.0,
                       help="total intensity for poisson/fkappa (default 30)")
    p_sim.add_argument("--kappa", type=float, default=1.0,
                       help="tilt strength for fkappa (default 1)")
    p_sim.add_argument("--n", type=int, default=100,
                       help="grid size / trial count for bernoulli, binomial")
    p_sim.add_argument("--p", type=float, default=0.5,
                       help="success probability for bernoulli/binomial")
    p_sim.add_argument("--n-patterns", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)

    p_test = sub.add_parser("test", help="Monte Carlo homogeneity test")
    p_test.add_argument("data", help="multi-pattern file, or a directory "
                                     "of single-pattern files with --dir")
    p_test.add_argument("--dir", action="store_true",
                        help="read every file in the data directory as one pattern")
    p_test.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="total intensity under the null (default: mean count)")
    p_test.add_argument("--cutoff", type=float, default=1.0)
    p_test.add_argument("--order", type=float, default=1.0)
    p_test.add_argument("--metric", choices=["d1", "dbar1"], default="dbar1")
    p_test.add_argument("--null", type=int, default=99,
                        help="number of simulated null statistics (default 99)")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--redraw-reference", action="store_true",
                        help="redraw the reference collection for every null "
                             "statistic instead of sharing one")
    p_test.add_argument("--seed", type=int, default=0)

    p_pow = sub.add_parser("power", help="power study of the homogeneity test")
    p_pow.add_argument("--kappa", type=float, nargs="+", required=True)
    p_pow.add_argument("--cutoff", type=float, nargs="+", default=[1.0])
    p_pow.add_argument("--metric", choices=["d1", "dbar1"], default="dbar1")
    p_pow.add_argument("--reps", type=int, default=100)
    p_pow.add_argument("--n-patterns", type=int, default=12)
    p_pow.add_argument("--lambda", dest="lam", type=float, default=30.0)
    p_pow.add_argument("--null", type=int, default=99)
    p_pow.add_argument("--share-reference", action="store_true",
                       help="share one reference collection across each "
                            "test's pooled statistics (paired design; more "
                            "powerful at cutoff 1) instead of redrawing it")
    p_pow.add_argument("--known-lambda", action="store_true",
                       help="hand each test the generating intensity instead "
                            "of letting it estimate one from its data")
    p_pow.add_argument("--seed", type=int, default=0)
    p_pow.add_argument("--csv", action="store_true",
                       help="emit plain CSV rows instead of JSON")

    p_b = sub.add_parser("bounds", help="evaluate closed-form bounds")
    p_b.add_argument("--which", required=True,
                     choices=["stein1", "stein2", "bernoulli-poisson", "iid",
                              "poisson-poisson", "counterexample"])
    p_b.add_argument("--n", type=int, default=None,
                     help="pattern size (omit for the unbounded marker)")
    p_b.add_argument("--lambda", dest="lam", type=float, default=None)
    p_b.add_argument("--p", type=float, default=None)
    p_b.add_argument("--mu", type=str, default=None,
                     help="count distribution, e.g. binomial:3,0.5 or "
                          "poisson:10 or delta:2 or pmf:0=0.5,2=0.5")
    p_b.add_argument("--nu", type=str, default=None)
    p_b.add_argument("--dw", type=float, default=0.0,
                     help="location Wasserstein distance for iid/poisson-poisson")
    p_b.add_argument("--mu-total", type=float, default=None)
    p_b.add_argument("--nu-total", type=float, default=None)
    return parser


def parse_count_distribution(spec):
    """Parse a CLI count-distribution spec string."""
    try:
        name, _, rest = spec.partition(":")
        if name == "delta":
            return CountDistribution.delta(int(rest))
        if name == "binomial":
            n_str, p_str = rest.split(",")
            return CountDistribution.binomial(int(n_str), float(p_str))
        if name == "poisson":
            return CountDistribution.poisson_truncated(float(rest))
        if name == "pmf":
            support, probs = [], []
            for item in rest.split(","):
                k_str, _, p_str = item.partition("=")
                support.append(int(k_str))
                probs.append(float(p_str))
            return CountDistribution(tuple(support), tuple(probs))
    except (ValueError, TypeError) as exc:
        raise ValueError(f"cannot parse count distribution {spec!r}: {exc}")
    raise ValueError(
        f"unknown count distribution {spec!r}; use delta:, binomial:, "
        "poisson:, or pmf:"
    )


def _cmd_dist(args):
    a = read_single_pattern(args.file_a)
    b = read_single_pattern(args.file_b)
    params = MetricParams(order=args.order, cutoff=args.cutoff)
    t0 = time.perf_counter()
    value, pairs = matching_details(a, b, params, spec=None, metric=args.metric)
    doc = {
        "command": "dist",
        "parameters": {
            "file_a": args.file_a,
            "file_b": args.file_b,
            "metric": args.metric,
            "order": args.order,
            "cutoff": args.cutoff,
        },
        "seed": None,
        "value": value,
    }
    if args.show_assignment:
        doc["assignment"] = [
            ["unmatched" if i is None else i, "unmatched" if j is None else j]
            for i, j in pairs
        ]
    doc["wall_time_s"] = time.perf_counter() - t0
    print(dumps_result(doc), end="")
    return 0


def _cmd_simulate(args):
    rng = RngStream(args.seed)
    if args.n_patterns < 1:
        raise ValueError(f"--n-patterns must be >= 1, got {args.n_patterns}")
    samplers = {
        "poisson": lambda s: sample_poisson_homogeneous(args.lam, UNIT_SQUARE, s),
        "fkappa": lambda s: sample_poisson_fkappa(args.lam, args.kappa, s),
        "bernoulli": lambda s: sample_bernoulli_process(args.n, args.p, s),
        "binomial": lambda s: sample_binomial_process(args.n, args.p, s),
    }
    patterns = sample_collection(args.n_patterns, samplers[args.model], rng)
    sys.stdout.write(format_patterns(patterns))
    return 0


def _read_test_data(args):
    if args.dir:
        try:
            names = sorted(os.listdir(args.data))
        except OSError as exc:
            raise PatternFileError(
                f"cannot list directory {args.data}: {exc}") from exc
        if not names:
            raise PatternFileError(f"directory {args.data} is empty")
        return [
            read_single_pattern(os.path.join(args.data, name)) for name in names
        ]
    return read_patterns(args.data)


def _cmd_test(args):
    data = _read_test_data(args)
    params = MetricParams(order=args.order, cutoff=args.cutoff)
    t0 = time.perf_counter()
    result = homogeneity_test(
        data, lam=args.lam, params=params, n_null=args.null, alpha=args.alpha,
        rng=RngStream(args.seed), metric=args.metric,
        share_reference=not args.redraw_reference,
    )
    doc = {
        "command": "test",
        "parameters": {
            "data": args.data,
            "lambda": args.lam,
            "metric": args.metric,
            "order": args.order,
            "cutoff": args.cutoff,
            "null": args.null,
            "alpha": args.alpha,
            "redraw_reference": args.redraw_reference,
            "n_patterns": len(data),
        },
        "seed": args.seed,
        "statistic": result.statistic,
        "null_statistics": list(result.null_statistics),
        "rank": result.rank,
        "p_value": result.p_value,
        "reject": result.reject,
        "wall_time_s": time.perf_counter() - t0,
    }
    print(dumps_result(doc), end="")
    return 0


def _cmd_power(args):
    t0 = time.perf_counter()
    rows = []
    grid = [(k, c) for c in args.cutoff for k in args.kappa]
    for idx, (kappa, cutoff) in enumerate(grid):
        est = power_study(
            kappa, n_patterns=args.n_patterns, lam=args.lam, cutoff=cutoff,
            reps=args.reps, rng=RngStream(args.seed, stream_index=idx),
            metric=args.metric, n_null=args.null,
            share_reference=args.share_reference, lam_known=args.known_lambda,
        )
        rows.append({
            "kappa": est.kappa,
            "cutoff": est.cutoff,
            "power": est.power,
            "se": est.standard_error,
        })
    if args.csv:
        print("kappa,cutoff,power,se")
        for row in rows:
            print(f"{row['kappa']:.17g},{row['cutoff']:.17g},"
                  f"{row['power']:.17g},{row['se']:.17g}")
        return 0
    doc = {
        "command": "power",
        "parameters": {
            "kappa": list(args.kappa),
            "cutoff": list(args.cutoff),
            "metric": args.metric,
            "reps": args.reps,
            "n_patterns": args.n_patterns,
            "lambda": args.lam,
            "null": args.null,
            "share_reference": args.share_reference,
            "known_lambda": args.known_lambda,
        },
        "seed": args.seed,
        "rows": rows,
        "wall_time_s": time.perf_counter() - t0,
    }
    print(dumps_result(doc), end="")
    return 0


def _require(args, names):
    for name in names:
        if getattr(args, name) is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"bounds --which {args.which} requires {flag}")


def _cmd_bounds(args):
    t0 = time.perf_counter()
    params = {"which": args.which}
    values = {}
    coupling = None
    if args.which == "stein1":
        _require(args, ["lam"])
        params.update(n=args.n, **{"lambda": args.lam})
        values["stein_factor_delta1"] = bounds_mod.stein_factor_delta1(
            args.n, args.lam)
    elif args.which == "stein2":
        _require(args, ["lam"])
        params.update(n=args.n, **{"lambda": args.lam})
        values["stein_factor_delta2"] = bounds_mod.stein_factor_delta2(
            args.n, args.lam)
    elif args.which == "bernoulli-poisson":
        _require(args, ["n", "p"])
        params.update(n=args.n, p=args.p)
        values["bernoulli_binomial"] = bounds_mod.bernoulli_binomial_bound(
            args.n, args.p)
        values["binomial_poisson"] = bounds_mod.binomial_poisson_bound(
            args.n, args.p)
        values["bernoulli_poisson"] = bounds_mod.bernoulli_poisson_bound(
            args.n, args.p)
    elif args.which == "iid":
        _require(args, ["mu", "nu"])
        mu = parse_count_distribution(args.mu)
        nu = parse_count_distribution(args.nu)
        params.update(mu=args.mu, nu=args.nu, dw=args.dw)
        res = bounds_mod.iid_bounds(mu, nu, args.dw)
        values.update(lower=res.lower, upper=res.upper, c1=res.c1, c2=res.c2,
                      drw_value=res.drw_value)
        coupling = res.coupling.plan
    elif args.which == "poisson-poisson":
        _require(args, ["mu_total", "nu_total"])
        params.update(mu_total=args.mu_total, nu_total=args.nu_total, dw=args.dw)
        values["poisson_poisson"] = bounds_mod.poisson_poisson_bound(
            args.mu_total, args.nu_total, args.dw)
    elif args.which == "counterexample":
        _require(args, ["lam"])
        params.update(**{"lambda": args.lam})
        d1_val, d2_val, lower = bounds_mod.counterexample_integrals(args.lam)
        values.update(delta1_value=d1_val, delta2_value=d2_val,
                      stated_lower_bound=lower)
    doc = {
        "command": "bounds",
        "parameters": params,
        "seed": None,
        "values": values,
        "wall_time_s": time.perf_counter() - t0,
    }
    if coupling is not None:
        doc["coupling"] = coupling
    print(dumps_result(doc), end="")
    return 0


_HANDLERS = {
    "dist": _cmd_dist,
    "simulate": _cmd_simulate,
    "test": _cmd_test,
    "power": _cmd_power,
    "bounds": _cmd_bounds,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (PatternFileError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
