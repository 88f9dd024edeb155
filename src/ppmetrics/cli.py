"""Command-line interface.

Subcommands: ``dist`` (pattern distances), ``simulate`` (process samplers),
``test`` (Monte Carlo homogeneity test), ``power`` (power study grid), and
``bounds`` (closed-form bound evaluators). All randomness flows from the
``--seed`` flag through deterministic substreams; no command ever seeds
from the clock. Output is a JSON result document (``simulate`` emits
pattern text, ``power --csv`` emits CSV), built only by :func:`main`.

Exit codes: 0 success, 2 usage error, 3 data/parse error, 4 numeric-domain
error, which includes inputs too large to represent or to allocate.
"""

import argparse
import os
import sys
import time

from . import bounds as bounds_mod
from .errors import DimensionMismatchError, PatternFileError, check_count
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
    p_sim.add_argument("--lambda", type=float, default=30.0,
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
    p_test.add_argument("--lambda", type=float, default=None,
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
    p_pow.add_argument("--lambda", type=float, default=30.0)
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
    p_b.add_argument("--lambda", type=float, default=None)
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


def _pick(opts, names):
    return {name: opts[name] for name in names}


def _cmd_dist(opts):
    a = read_single_pattern(opts["file_a"])
    b = read_single_pattern(opts["file_b"])
    params = MetricParams(order=opts["order"], cutoff=opts["cutoff"])
    value, pairs = matching_details(a, b, params, spec=None, metric=opts["metric"])
    fields = {"value": value}
    if opts["show_assignment"]:
        fields["assignment"] = [
            ["unmatched" if i is None else i, "unmatched" if j is None else j]
            for i, j in pairs
        ]
    parameters = _pick(opts, ["file_a", "file_b", "metric", "order", "cutoff"])
    return parameters, None, fields


def _cmd_simulate(opts):
    rng = RngStream(opts["seed"])
    check_count("--n-patterns", opts["n_patterns"], at_least=1)
    lam, kappa, n, p = opts["lambda"], opts["kappa"], opts["n"], opts["p"]
    samplers = {
        "poisson": lambda s: sample_poisson_homogeneous(lam, UNIT_SQUARE, s),
        "fkappa": lambda s: sample_poisson_fkappa(lam, kappa, s),
        "bernoulli": lambda s: sample_bernoulli_process(n, p, s),
        "binomial": lambda s: sample_binomial_process(n, p, s),
    }
    return format_patterns(
        sample_collection(opts["n_patterns"], samplers[opts["model"]], rng))


def _read_test_data(opts):
    data = opts["data"]
    if opts["dir"]:
        try:
            names = sorted(os.listdir(data))
        except OSError as exc:
            raise PatternFileError(
                f"cannot list directory {data}: {exc}") from exc
        if not names:
            raise PatternFileError(f"directory {data} is empty")
        return [read_single_pattern(os.path.join(data, name)) for name in names]
    return read_patterns(data)


def _cmd_test(opts):
    data = _read_test_data(opts)
    params = MetricParams(order=opts["order"], cutoff=opts["cutoff"])
    result = homogeneity_test(
        data, lam=opts["lambda"], params=params, n_null=opts["null"],
        alpha=opts["alpha"], rng=RngStream(opts["seed"]), metric=opts["metric"],
        share_reference=not opts["redraw_reference"],
    )
    parameters = _pick(opts, ["data", "lambda", "metric", "order", "cutoff",
                              "null", "alpha", "redraw_reference"])
    parameters["n_patterns"] = len(data)
    return parameters, opts["seed"], {
        "statistic": result.statistic,
        "null_statistics": list(result.null_statistics),
        "rank": result.rank, "p_value": result.p_value, "reject": result.reject,
    }


def _cmd_power(opts):
    rows = []
    grid = [(k, c) for c in opts["cutoff"] for k in opts["kappa"]]
    for idx, (kappa, cutoff) in enumerate(grid):
        est = power_study(
            kappa, n_patterns=opts["n_patterns"], lam=opts["lambda"],
            cutoff=cutoff, reps=opts["reps"],
            rng=RngStream(opts["seed"], stream_index=idx),
            metric=opts["metric"], n_null=opts["null"],
            share_reference=opts["share_reference"],
            lam_known=opts["known_lambda"],
        )
        rows.append({"kappa": est.kappa, "cutoff": est.cutoff,
                     "power": est.power, "se": est.standard_error})
    if opts["csv"]:
        lines = [",".join(rows[0])]
        lines += [",".join(f"{v:.17g}" for v in row.values()) for row in rows]
        return "\n".join(lines) + "\n"
    parameters = _pick(opts, ["kappa", "cutoff", "metric", "reps", "n_patterns",
                              "lambda", "null", "share_reference", "known_lambda"])
    return parameters, opts["seed"], {"rows": rows}


def _one_value(name, bound):
    return lambda *args: {"values": {name: bound(*args)}}


def _iid_fields(mu, nu, dw):
    res = bounds_mod.iid_bounds(parse_count_distribution(mu),
                                parse_count_distribution(nu), dw)
    return {
        "values": {"lower": res.lower, "upper": res.upper, "c1": res.c1,
                   "c2": res.c2, "drw_value": res.drw_value},
        "coupling": res.coupling.plan,
    }


# --which -> (options it requires, options echoed under "parameters",
#             evaluator of the echoed options returning the document's fields)
_BOUNDS = {
    "stein1": (["lambda"], ["n", "lambda"],
               _one_value("stein_factor_delta1", bounds_mod.stein_factor_delta1)),
    "stein2": (["lambda"], ["n", "lambda"],
               _one_value("stein_factor_delta2", bounds_mod.stein_factor_delta2)),
    "bernoulli-poisson": (["n", "p"], ["n", "p"], lambda n, p: {"values": {
        "bernoulli_binomial": bounds_mod.bernoulli_binomial_bound(n, p),
        "binomial_poisson": bounds_mod.binomial_poisson_bound(n, p),
        "bernoulli_poisson": bounds_mod.bernoulli_poisson_bound(n, p),
    }}),
    "iid": (["mu", "nu"], ["mu", "nu", "dw"], _iid_fields),
    "poisson-poisson": (
        ["mu_total", "nu_total"], ["mu_total", "nu_total", "dw"],
        _one_value("poisson_poisson", bounds_mod.poisson_poisson_bound)),
    "counterexample": (["lambda"], ["lambda"], lambda lam: {"values": dict(zip(
        ["delta1_value", "delta2_value", "stated_lower_bound"],
        bounds_mod.counterexample_integrals(lam)))}),
}


def _cmd_bounds(opts):
    which = opts["which"]
    required, reported, evaluate = _BOUNDS[which]
    for name in required:
        if opts[name] is None:
            flag = "--" + name.replace("_", "-")
            raise ValueError(f"bounds --which {which} requires {flag}")
    parameters = _pick(opts, reported)
    return {"which": which, **parameters}, None, evaluate(*parameters.values())


_HANDLERS = {
    "dist": _cmd_dist,
    "simulate": _cmd_simulate,
    "test": _cmd_test,
    "power": _cmd_power,
    "bounds": _cmd_bounds,
}


def main(argv=None):
    """Run one subcommand. A handler returns either the text to write or
    ``(parameters, seed, fields)``, from which this function alone builds
    the result document; ``wall_time_s`` covers the whole handler."""
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        out = _HANDLERS[args.command](vars(args))
        if not isinstance(out, str):
            parameters, seed, fields = out
            out = dumps_result({
                "command": args.command, "parameters": parameters, "seed": seed,
                **fields, "wall_time_s": time.perf_counter() - t0,
            })
    except (PatternFileError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, OverflowError, MemoryError) as exc:
        # inputs too large to represent or to allocate are domain errors too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    sys.stdout.write(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
