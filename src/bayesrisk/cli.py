"""Reproducible experiment runner.

Every verification suite is a subcommand. Runs are deterministic given
--seed; each run writes report.csv, summary.json, and manifest.json into
--out-dir, and the manifest (resolved flags, seed, version, CSV column
order) suffices to reproduce the run bit for bit.

Exit codes: 0 success / no violations, 1 a bound or identity was
violated (a falsification event, which indicates an implementation bug
and is serialized for one-command replay), 2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BOUND_TOL,
    BoundReport,
    PerturbationBudget,
    check_theorem1,
    check_theorem2,
    example1_construction,
    example2_construction,
    excess_logloss_identity,
    random_l1_perturbation,
    random_theorem1_instance,
    random_theorem2_instance,
    tightness_search,
)
from .classify import CostMatrix, LabeledSource
from .distributions import (
    Distribution,
    Domain,
    QuantizedClassSpec,
    kl_divergence,
    l1_distance,
    random_quantized,
)
from .pdfa import Pdfa, truncate_all
from .pipeline import (
    TRIAL_CSV_COLUMNS,
    TrialConfig,
    _config_and_spec,
    config_to_dict,
    run_pac_experiment,
    with_seed,
)
from .smoothing import SmoothingReport, SmoothingParams, base_mixture, verify_smoothing

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class _Run:
    """Collects outputs for one subcommand invocation."""

    def __init__(self, subcommand: str, out_dir: str, seed, config: dict, csv_columns):
        self.subcommand = subcommand
        self.out = Path(out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.config = config
        self.csv_columns = list(csv_columns)
        self.started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.rows: list[list] = []
        self.extra_outputs: list[str] = []

    def add_row(self, row) -> None:
        self.rows.append(list(row))

    def write_instance(self, name: str, payload: dict) -> Path:
        path = self.out / name
        path.write_text(json.dumps(payload, indent=2))
        self.extra_outputs.append(str(path))
        return path

    def finish(self, summary: dict) -> None:
        report_path = self.out / "report.csv"
        with report_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.csv_columns)
            writer.writerows(self.rows)
        summary_path = self.out / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2))
        manifest = {
            "subcommand": self.subcommand,
            "config": self.config,
            "seed": self.seed,
            "version": __version__,
            "csv_columns": self.csv_columns,
            "started_at": self.started_at,
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "outputs": {
                "report": str(report_path),
                "summary": str(summary_path),
                "instances": self.extra_outputs,
            },
        }
        (self.out / "manifest.json").write_text(json.dumps(manifest, indent=2))


def _instance_payload(source: LabeledSource, est_dists, cost, metric: str) -> dict:
    return {
        "metric": metric,
        "source": source.to_dict(),
        "estimates": [d.to_dict() for d in est_dists],
        "cost": cost.to_list() if cost is not None else None,
    }


def _load_instance(path: str):
    data = json.loads(Path(path).read_text())
    source = LabeledSource.from_dict(data["source"])
    est = tuple(Distribution.from_dict(d) for d in data["estimates"])
    cost = CostMatrix(np.asarray(data["cost"], dtype=float)) if data.get("cost") else None
    return data.get("metric", "L1"), source, est, cost


def _replay(path: str) -> int:
    metric, source, est, cost = _load_instance(path)
    if metric == "L1":
        report = check_theorem1(source, est, cost)
    else:
        report = check_theorem2(source, est)
    print(json.dumps(report.to_dict(), indent=2))
    return EXIT_OK if report.satisfied else EXIT_VIOLATION


def _require_positive_trials(args) -> None:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")


def cmd_verify_theorem1(args) -> int:
    if args.replay:
        return _replay(args.replay)
    _require_positive_trials(args)
    rng = np.random.default_rng(args.seed)
    config = {
        "trials": args.trials,
        "k_max": args.k_max,
        "m_max": args.m_max,
        "seed": args.seed,
    }
    columns = ("trial", "k", "m") + BoundReport.CSV_COLUMNS
    run = _Run("verify-theorem1", args.out_dir, args.seed, config, columns)
    violations = 0
    for trial in range(args.trials):
        source, est, cost = random_theorem1_instance(rng, args.k_max, args.m_max)
        report = check_theorem1(source, est, cost)
        run.add_row([trial, source.k, source.domain.size] + report.csv_row())
        if not report.satisfied:
            violations += 1
            run.write_instance(
                f"violation_{trial}.json", _instance_payload(source, est, cost, "L1")
            )
    run.finish({"trials": args.trials, "violations": violations})
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_verify_theorem2(args) -> int:
    if args.replay:
        return _replay(args.replay)
    _require_positive_trials(args)
    rng = np.random.default_rng(args.seed)
    config = {
        "trials": args.trials,
        "k_max": args.k_max,
        "m_max": args.m_max,
        "seed": args.seed,
    }
    columns = ("trial", "k", "m") + BoundReport.CSV_COLUMNS + ("identity_gap",)
    run = _Run("verify-theorem2", args.out_dir, args.seed, config, columns)
    violations = 0
    worst_gap = 0.0
    for trial in range(args.trials):
        source, est = random_theorem2_instance(rng, args.k_max, args.m_max)
        report = check_theorem2(source, est)
        lhs, rhs = excess_logloss_identity(source, est)
        gap = abs(lhs - rhs)
        worst_gap = max(worst_gap, gap)
        run.add_row([trial, source.k, source.domain.size] + report.csv_row() + [gap])
        if not report.satisfied or gap > BOUND_TOL:
            violations += 1
            run.write_instance(
                f"violation_{trial}.json", _instance_payload(source, est, None, "KL")
            )
    run.finish(
        {"trials": args.trials, "violations": violations, "worst_identity_gap": worst_gap}
    )
    return EXIT_VIOLATION if violations else EXIT_OK


LOWER_BOUND_COLUMNS = (
    "eps_prime",
    "gamma",
    "risk_opt",
    "risk_plugin",
    "per_class_l1",
    "t1_bound",
    "t1_excess",
    "t1_slack",
    "slack_law_gap",
    "per_class_kl",
    "t2_excess",
    "identity_gap",
)


def cmd_lower_bounds(args) -> int:
    try:
        gammas = (
            [float(g) for g in args.grid.split(",")] if args.grid else [args.gamma]
        )
    except ValueError as exc:
        raise UsageError(f"bad --grid value: {exc}") from exc
    config = {"eps_prime": args.eps_prime, "gamma": args.gamma, "grid": args.grid}
    run = _Run("lower-bounds", args.out_dir, None, config, LOWER_BOUND_COLUMNS)
    violations = 0
    for gamma in gammas:
        try:
            source, est, cost = example1_construction(args.eps_prime, gamma)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        t1 = check_theorem1(source, est, cost)
        per_l1 = l1_distance(source.class_dists[0], est[0])
        slack_gap = abs(t1.slack - 2.0 * gamma * cost.max_cost)
        src2, est2 = example2_construction(args.eps_prime, gamma)
        t2 = check_theorem2(src2, est2)
        per_kl = kl_divergence(src2.class_dists[0], est2[0])
        lhs, rhs = excess_logloss_identity(src2, est2)
        gap = abs(lhs - rhs)
        run.add_row(
            [
                args.eps_prime,
                gamma,
                t1.risk_opt,
                t1.risk_plugin,
                per_l1,
                t1.bound,
                t1.excess,
                t1.slack,
                slack_gap,
                per_kl,
                t2.excess,
                gap,
            ]
        )
        # The printed closed forms 1/2 +- eps_prime need a strict tilt
        # (gamma > 0) to flip the plug-in classifier; the log-loss identity
        # holds for every parameter choice because the mixtures coincide.
        closed_form_ok = abs(t1.risk_opt - (0.5 - args.eps_prime)) <= 1e-12
        if gamma > 0.0:
            closed_form_ok = (
                closed_form_ok
                and abs(t1.risk_plugin - (0.5 + args.eps_prime)) <= 1e-12
                and slack_gap <= 1e-12
            )
        closed_form_ok = (
            closed_form_ok and abs(t2.excess - per_kl) <= BOUND_TOL and gap <= BOUND_TOL
        )
        if not closed_form_ok:
            violations += 1
    run.finish({"rows": len(gammas), "violations": violations})
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_smooth(args) -> int:
    _require_positive_trials(args)
    m = args.domain_size
    if args.ld is not None:
        if args.ld % m != 0:
            raise UsageError("--ld must be divisible by --domain-size")
        bits = args.ld // m
    else:
        bits = args.bits
    if bits < 1:
        raise UsageError("bits per atom must be at least 1")
    spec = QuantizedClassSpec(Domain.indexed(m), bits)
    try:
        params = SmoothingParams(args.epsilon, spec.description_length)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    base = base_mixture(spec)
    rng = np.random.default_rng(args.seed)
    config = {
        "epsilon": args.epsilon,
        "domain_size": m,
        "bits": bits,
        "description_length": spec.description_length,
        "trials": args.trials,
        "seed": args.seed,
    }
    columns = ("trial",) + SmoothingReport.CSV_COLUMNS
    run = _Run("smooth", args.out_dir, args.seed, config, columns)
    violations = 0
    for trial in range(args.trials):
        true_d = random_quantized(spec, rng)
        est = random_l1_perturbation(true_d, params.xi, rng)
        report = verify_smoothing(true_d, est, params, base)
        run.add_row([trial] + report.csv_row())
        if not report.within or report.kl_actual > report.certificate + BOUND_TOL:
            violations += 1
            run.write_instance(
                f"violation_{trial}.json",
                {"true": true_d.to_dict(), "estimate": est.to_dict(), "report": report.to_dict()},
            )
    run.finish({"trials": args.trials, "violations": violations, "xi": params.xi})
    return EXIT_VIOLATION if violations else EXIT_OK


def _pdfa_machines(sources: str) -> tuple[Pdfa, ...]:
    machines = []
    for item in sources.split(","):
        item = item.strip()
        if not item.startswith("pdfa:"):
            raise UsageError(f"unsupported source {item!r}; expected pdfa:<machine file>")
        path = Path(item[len("pdfa:") :])
        if not path.exists():
            raise UsageError(f"machine file not found: {path}")
        try:
            machines.append(Pdfa.from_json(path.read_text()))
        except (KeyError, ValueError) as exc:
            raise UsageError(f"bad machine file {path}: {exc}") from exc
    if len(machines) < 2:
        raise UsageError("need at least two pdfa sources to form a labeled source")
    return tuple(machines)


def cmd_pipeline(args) -> int:
    pdfa = None
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise UsageError(f"config file not found: {path}")
        try:
            config, pdfa = _config_and_spec(json.loads(path.read_text()))
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise UsageError(f"bad config: {exc}") from exc
        if args.seed is not None:
            config = with_seed(config, args.seed)
    elif args.source:
        if args.truncate is None:
            raise UsageError("--source pdfa:<file> requires --truncate")
        pdfa = (_pdfa_machines(args.source), args.truncate)
        k = len(pdfa[0])
        try:
            source = LabeledSource(np.full(k, 1.0 / k), truncate_all(*pdfa))
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        n_grid = None
        if args.n_grid:
            try:
                n_grid = tuple(int(v) for v in args.n_grid.split(","))
            except ValueError as exc:
                raise UsageError(f"bad --n-grid value: {exc}") from exc
        try:
            config = TrialConfig(
                source=source,
                cost=CostMatrix.zero_one(k),
                sample_size=args.sample_size,
                trials=args.trials,
                epsilon_target=args.epsilon,
                delta_target=args.delta,
                seed=args.seed if args.seed is not None else 0,
                n_grid=n_grid,
            )
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
    else:
        raise UsageError("either --config or --source is required")
    try:
        summary = run_pac_experiment(config)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    run = _Run(
        "pipeline", args.out_dir, config.seed, config_to_dict(config, pdfa), TRIAL_CSV_COLUMNS
    )
    for row in summary.csv_rows():
        run.add_row(row)
    run.finish(summary.to_dict())
    all_valid = all(entry["satisfied_fraction"] == 1.0 for entry in summary.per_n)
    return EXIT_OK if all_valid else EXIT_VIOLATION


def cmd_tightness(args) -> int:
    if args.iterations < 1:
        raise UsageError("--iterations must be at least 1")
    if args.metric not in ("L1", "KL"):
        raise UsageError("--metric must be L1 or KL")
    if args.epsilon < 0:
        raise UsageError("--epsilon must be non-negative")
    rng = np.random.default_rng(args.seed)
    budget = PerturbationBudget(args.metric, args.epsilon)
    cost = CostMatrix.zero_one(args.k) if args.metric == "L1" else None
    result = tightness_search(
        args.k, args.domain_size, cost, budget, args.iterations, rng
    )
    config = {
        "k": args.k,
        "m": args.domain_size,
        "metric": args.metric,
        "epsilon": args.epsilon,
        "iterations": args.iterations,
        "seed": args.seed,
    }
    columns = ("metric", "epsilon", "k", "m", "excess", "bound", "ratio")
    run = _Run("tightness", args.out_dir, args.seed, config, columns)
    run.add_row(
        [args.metric, args.epsilon, args.k, args.domain_size, result.excess, result.bound, result.ratio]
    )
    run.write_instance(
        "best_instance.json",
        _instance_payload(result.source, result.est_dists, cost, args.metric),
    )
    run.finish({"ratio": result.ratio, "excess": result.excess, "bound": result.bound})
    return EXIT_OK if result.ratio <= 1.0 + BOUND_TOL else EXIT_VIOLATION


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesrisk",
        description="Plug-in Bayes classifier risk-bound verification suites",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out, trials_default=10000):
        p.add_argument("--seed", type=int, default=42, help="master random seed")
        p.add_argument("--trials", type=int, default=trials_default, help="number of randomized instances")
        p.add_argument("--out-dir", default=default_out, help="directory for report.csv, summary.json, manifest.json")

    p1 = sub.add_parser("verify-theorem1", help="randomized cost-loss bound sweep")
    common(p1, "runs/verify-theorem1")
    p1.add_argument("--k-max", type=int, default=5, help="max class count")
    p1.add_argument("--m-max", type=int, default=64, help="max domain size")
    p1.add_argument("--replay", help="recheck one serialized instance and exit")
    p1.set_defaults(func=cmd_verify_theorem1)

    p2 = sub.add_parser("verify-theorem2", help="randomized log-loss bound sweep plus exact identity")
    common(p2, "runs/verify-theorem2")
    p2.add_argument("--k-max", type=int, default=5, help="max class count")
    p2.add_argument("--m-max", type=int, default=64, help="max domain size")
    p2.add_argument("--replay", help="recheck one serialized instance and exit")
    p2.set_defaults(func=cmd_verify_theorem2)

    p3 = sub.add_parser("lower-bounds", help="two-atom lower-bound constructions over a gamma grid")
    p3.add_argument("--eps-prime", type=float, default=0.1, help="class separation parameter")
    p3.add_argument("--gamma", type=float, default=0.01, help="estimate tilt parameter")
    p3.add_argument("--grid", help="comma-separated gamma values overriding --gamma")
    p3.add_argument("--out-dir", default="runs/lower-bounds")
    p3.set_defaults(func=cmd_lower_bounds)

    p4 = sub.add_parser("smooth", help="randomized L1-to-KL smoothing verification")
    common(p4, "runs/smooth", trials_default=1000)
    p4.add_argument("--epsilon", type=float, default=0.5, help="target KL accuracy in bits")
    p4.add_argument("--domain-size", type=int, default=8, help="atoms in the quantized class")
    p4.add_argument("--bits", type=int, default=8, help="bits per atom")
    p4.add_argument("--ld", type=int, help="total description length; overrides --bits")
    p4.set_defaults(func=cmd_smooth)

    p5 = sub.add_parser("pipeline", help="PAC sample-split-estimate-classify experiment")
    p5.add_argument("--config", help="JSON experiment config file")
    p5.add_argument("--source", help="comma-separated pdfa:<machine file> class sources")
    p5.add_argument("--truncate", type=int, help="string length cutoff for pdfa sources")
    p5.add_argument("--sample-size", type=int, default=1000)
    p5.add_argument("--trials", type=int, default=100)
    p5.add_argument("--epsilon", type=float, default=0.1, help="excess risk target")
    p5.add_argument("--delta", type=float, default=0.05, help="allowed violation fraction")
    p5.add_argument("--n-grid", help="comma-separated sample sizes")
    p5.add_argument("--seed", type=int, default=None)
    p5.add_argument("--out-dir", default="runs/pipeline")
    p5.set_defaults(func=cmd_pipeline)

    p6 = sub.add_parser("tightness", help="search for instances pressing the bound")
    p6.add_argument("--k", type=int, default=2)
    p6.add_argument("--domain-size", type=int, default=2)
    p6.add_argument("--metric", default="L1", help="L1 or KL")
    p6.add_argument("--epsilon", type=float, default=0.2, help="perturbation budget")
    p6.add_argument("--iterations", type=int, default=20, help="random restarts")
    p6.add_argument("--seed", type=int, default=42)
    p6.add_argument("--out-dir", default="runs/tightness")
    p6.set_defaults(func=cmd_tightness)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
