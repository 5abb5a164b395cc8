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
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    BOUND_TOL,
    KL,
    L1,
    BoundReport,
    PerturbationBudget,
    _check_estimates,
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


def _read_input(path, parse):
    """``parse`` applied to a JSON input file; a missing, malformed or invalid file is a UsageError."""
    try:
        return parse(json.loads(Path(path).read_text()))
    except (OSError, AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad input file {path}: {exc!r}") from exc


def _instance_from_payload(data: dict):
    """Inverse of :func:`_instance_payload`: ``(metric, source, estimates, cost)``."""
    metric = data.get("metric", L1)
    if metric not in (L1, KL):
        raise ValueError(f"metric must be {L1!r} or {KL!r}, got {metric!r}")
    source = LabeledSource.from_dict(data["source"])
    est = _check_estimates(source, (Distribution.from_dict(d) for d in data["estimates"]))
    return metric, source, est, CostMatrix(data["cost"]) if metric == L1 else None


def _check_instance(metric: str, source: LabeledSource, est, cost):
    """Check one instance as the sweeps do: ``(report, identity_gap, ok)``.

    The log-loss check also measures the gap between the two sides of the
    exact excess identity (``None`` under L1); ``ok`` needs the bound
    satisfied and any gap within ``BOUND_TOL``.
    """
    if metric == L1:
        report = check_theorem1(source, est, cost)
        return report, None, report.satisfied
    report = check_theorem2(source, est)
    lhs, rhs = excess_logloss_identity(source, est)
    gap = abs(lhs - rhs)
    return report, gap, report.satisfied and gap <= BOUND_TOL


def _require_positive_trials(args) -> None:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")


def cmd_verify(args) -> int:
    """Randomized sweep of one theorem (the subcommand names which), or ``--replay`` of one instance."""
    if args.replay:
        report, gap, ok = _check_instance(*_read_input(args.replay, _instance_from_payload))
        shown = report.to_dict() if gap is None else {**report.to_dict(), "identity_gap": gap}
        print(json.dumps(shown, indent=2))
        return EXIT_OK if ok else EXIT_VIOLATION
    _require_positive_trials(args)
    if args.k_max < 2 or args.m_max < 2:
        raise UsageError("--k-max and --m-max must be at least 2")
    metric = L1 if args.command == "verify-theorem1" else KL
    rng = np.random.default_rng(args.seed)
    config = {
        "trials": args.trials,
        "k_max": args.k_max,
        "m_max": args.m_max,
        "seed": args.seed,
    }
    columns = ("trial", "k", "m") + BoundReport.CSV_COLUMNS
    if metric == KL:
        columns += ("identity_gap",)
    run = _Run(args.command, args.out_dir, args.seed, config, columns)
    violations = 0
    worst_gap = 0.0
    for trial in range(args.trials):
        if metric == L1:
            source, est, cost = random_theorem1_instance(rng, args.k_max, args.m_max)
        else:
            source, est = random_theorem2_instance(rng, args.k_max, args.m_max)
            cost = None
        report, gap, ok = _check_instance(metric, source, est, cost)
        row = [trial, source.k, source.domain.size] + report.csv_row()
        if gap is not None:
            row.append(gap)
            worst_gap = max(worst_gap, gap)
        run.add_row(row)
        if not ok:
            violations += 1
            run.write_instance(
                f"violation_{trial}.json", _instance_payload(source, est, cost, metric)
            )
    summary = {"trials": args.trials, "violations": violations}
    if metric == KL:
        summary["worst_identity_gap"] = worst_gap
    run.finish(summary)
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_lower_bounds(args) -> int:
    try:
        gammas = (
            [float(g) for g in args.grid.split(",")] if args.grid else [args.gamma]
        )
    except ValueError as exc:
        raise UsageError(f"bad --grid value: {exc}") from exc
    rows = []
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
        t2, gap, t2_ok = _check_instance(KL, src2, est2, None)
        per_kl = kl_divergence(src2.class_dists[0], est2[0])
        rows.append(
            {
                "eps_prime": args.eps_prime,
                "gamma": gamma,
                "risk_opt": t1.risk_opt,
                "risk_plugin": t1.risk_plugin,
                "per_class_l1": per_l1,
                "t1_bound": t1.bound,
                "t1_excess": t1.excess,
                "t1_slack": t1.slack,
                "slack_law_gap": slack_gap,
                "per_class_kl": per_kl,
                "t2_excess": t2.excess,
                "identity_gap": gap,
            }
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
        closed_form_ok = closed_form_ok and abs(t2.excess - per_kl) <= BOUND_TOL and t2_ok
        if not closed_form_ok:
            violations += 1
    config = {"eps_prime": args.eps_prime, "gamma": args.gamma, "grid": args.grid}
    run = _Run("lower-bounds", args.out_dir, None, config, rows[0])
    for row in rows:
        run.add_row(row.values())
    run.finish({"rows": len(gammas), "violations": violations})
    return EXIT_VIOLATION if violations else EXIT_OK


def cmd_smooth(args) -> int:
    _require_positive_trials(args)
    m = args.domain_size
    if m < 1:
        raise UsageError("--domain-size must be at least 1")
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
        machines.append(_read_input(item[len("pdfa:") :], Pdfa.from_dict))
    if len(machines) < 2:
        raise UsageError("need at least two pdfa sources to form a labeled source")
    return tuple(machines)


def cmd_pipeline(args) -> int:
    pdfa = None
    if args.config:
        config, pdfa = _read_input(args.config, _config_and_spec)
        if args.seed is not None:
            config = replace(config, seed=args.seed)
    elif args.source:
        if args.truncate is None:
            raise UsageError("--source pdfa:<file> requires --truncate")
        pdfa = (_pdfa_machines(args.source), args.truncate)
        k = len(pdfa[0])
        n_grid = None
        if args.n_grid:
            try:
                n_grid = tuple(int(v) for v in args.n_grid.split(","))
            except ValueError as exc:
                raise UsageError(f"bad --n-grid value: {exc}") from exc
        try:
            config = TrialConfig(
                source=LabeledSource(np.full(k, 1.0 / k), truncate_all(*pdfa)),
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
    if args.k < 2 or args.domain_size < 1:
        raise UsageError("--k must be at least 2 and --domain-size at least 1")
    try:
        budget = PerturbationBudget(args.metric, args.epsilon)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    cost = CostMatrix.zero_one(args.k) if args.metric == L1 else None
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

    for name, help_text in (
        ("verify-theorem1", "randomized cost-loss bound sweep"),
        ("verify-theorem2", "randomized log-loss bound sweep plus exact identity"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p, f"runs/{name}")
        p.add_argument("--k-max", type=int, default=5, help="max class count")
        p.add_argument("--m-max", type=int, default=64, help="max domain size")
        p.add_argument("--replay", help="recheck one serialized instance and exit")
        p.set_defaults(func=cmd_verify)

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
    p6.add_argument("--metric", default=L1, choices=(L1, KL))
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
