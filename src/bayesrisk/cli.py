"""Reproducible experiment runner.

Every verification suite is a subcommand. Runs are deterministic given
--seed; each run writes report.csv, summary.json, and manifest.json into
--out-dir. The manifest (as config the input the command parsed: its flags
as resolved, or pipeline's config dict; seed, version, CSV column order,
environment) suffices to reproduce the run bit for bit.

Every row reaches report.csv through ``_Run.add_rows``, a block of rows given
as columns with their verdicts: the sweeps add one batch of their checks at a
time, and ``_Run.add_row`` adds a block of one row.

Exit codes: 0 success / no violations, 1 a bound or identity was violated (a
falsification event, which indicates an implementation bug and is serialized
for one-command replay), 2 usage or config error. ``_Run.finish`` decides a run's
code from its rows' verdicts; ``--replay`` and ``main``'s usage errors decide theirs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import EXACT_TOL, KL, L1, BoundReport, PerturbationBudget, _as_arrays, _as_objects, _check, _check_search
from .bounds import _divergences, _instances_per_block, _theorem_sweep, _two_atom_masses, _within, tightness_search
from .classify import CostMatrix, LabeledSource, as_cost_array
from .distributions import Distribution, Domain, QuantizedClassSpec, _json_float
from .pdfa import Pdfa
from .pipeline import config_from_dict, run_pac_experiment
from .smoothing import SmoothingReport, SmoothingParams, _sweep, _trials_per_block, base_mixture, kl_certificate
from .smoothing import kl_certificate_from_floor

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class _Run:
    """Collects outputs for one subcommand invocation.

    Rows come in blocks, each a dict of columns with the rows' verdicts: the
    first block's keys, in their order, are the CSV header and the manifest's
    ``csv_columns``, and every later block must have the same keys in the same
    order. ``violations`` counts the failed rows, and ``finish`` returns 1 if
    there are any, else 0.
    """

    def __init__(self, subcommand: str, out_dir: str, seed, config: dict):
        self.subcommand = subcommand
        self.out = Path(out_dir)
        try:
            self.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot create --out-dir {out_dir}: {exc.strerror}") from exc
        self.seed = seed
        self.config = config
        self.csv_columns: list[str] = []
        self.started_at = time.strftime("%Y-%m-%dT%H:%M:%S%z")
        self.lines: list[str] = []
        self.violations = 0
        self.extra_outputs: list[str] = []

    def add_rows(self, columns: dict, ok) -> None:
        """Add a block of rows, each column a list, range or 1-D array of the rows' values, or a float that every row
        holds, turned to its CSV text at once (:func:`_texts`); ``ok`` the verdicts."""
        keys = list(columns)
        if not self.lines:
            self.csv_columns = keys
        elif keys != self.csv_columns:
            raise ValueError(f"row has columns {keys}, the first row has {self.csv_columns}")
        self.lines.extend(map(",".join, zip(*map(_texts, columns.values()))))
        self.violations += len(ok) - int(np.count_nonzero(ok))

    def add_row(self, row: dict, ok: bool) -> None:
        self.add_rows({key: [value] for key, value in row.items()}, [ok])

    def write_instance(self, name: str, payload: dict) -> None:
        path = self.out / name
        path.write_text(json.dumps(payload, indent=2))
        self.extra_outputs.append(str(path))

    def finish(self, summary: dict, **stream) -> int:
        report_path = self.out / "report.csv"
        with report_path.open("w", newline="") as fh:  # the lines of csv.writer's excel dialect
            fh.write("\r\n".join([",".join(_texts(self.csv_columns)), *self.lines, ""]))
        summary_path = self.out / "summary.json"
        summary_path.write_text(json.dumps(summary, indent=2))
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]  # the floats of a run depend on it
        manifest = {
            "subcommand": self.subcommand,
            "config": self.config,
            "seed": self.seed,
            **stream,
            "version": __version__,
            "csv_columns": self.csv_columns,
            "environment": {"python": platform.python_version(), "numpy": np.__version__, "cpu_count": os.cpu_count(),
                            "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")}},
            "started_at": self.started_at,
            "finished_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "outputs": {
                "report": str(report_path),
                "summary": str(summary_path),
                "instances": self.extra_outputs,
            },
        }
        (self.out / "manifest.json").write_text(json.dumps(manifest, indent=2))
        return EXIT_VIOLATION if self.violations else EXIT_OK


# The characters for which csv.writer (excel dialect, QUOTE_MINIMAL) quotes a field.
_QUOTED_BY = frozenset(',"\r\n')


def _texts(column):
    """A column's fields as ``csv.writer`` writes them: a float every row holds, once; a range or a numeric or bool
    array, ``str`` of each value, which never needs quoting; any other values each as :func:`_field` writes it."""
    if isinstance(column, float):
        return repeat(_field(column))
    if isinstance(column, range) or isinstance(column, np.ndarray) and column.dtype.kind in "biuf":
        return map(str, column.tolist() if isinstance(column, np.ndarray) else column)
    return map(_field, column.tolist() if isinstance(column, np.ndarray) else column)


def _field(value) -> str:
    """``value`` as ``csv.writer`` writes a field (``QUOTE_MINIMAL``): ``None`` empty, anything else its ``str``,
    quoted, each quote doubled, when that holds a comma, a quote or a line break."""
    text = "" if value is None else str(value)
    return text if _QUOTED_BY.isdisjoint(text) else '"' + text.replace('"', '""') + '"'



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


def _instance_from_payload(data: dict, metric: str):
    """Inverse of :func:`_instance_payload` for an instance of ``metric``, validated: ``bounds._check``'s
    ``(priors, masses, divergences, cost)``, ``cost`` None under KL."""
    source = LabeledSource.from_dict(data["source"])
    arrays = _as_arrays(source, (Distribution.from_dict(d) for d in data["estimates"]), metric)
    stated = data.get("metric", L1)
    if stated != metric:
        raise ValueError(f"the instance's metric is {stated!r}; this subcommand replays {metric!r} instances")
    cost = CostMatrix(_json_float(data["cost"], "cost")) if metric == L1 else None
    if cost is not None:
        as_cost_array(cost, source.k)  # a cost for another class count is a bad file, not a violation
    return *arrays, cost


def _flags(args) -> dict:
    """Every flag as argparse resolved it, but the output directory: a flag command's manifest config."""
    return {key: value for key, value in vars(args).items() if key not in ("command", "func", "out_dir")}


def _int_list(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from None


def _checked(call, *args):
    """``call(*args)``, a library ValueError from it being bad input: a UsageError with its message."""
    try:
        return call(*args)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _require_positive_trials(args) -> None:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")


def cmd_verify(args) -> int:
    """Randomized sweep of one theorem (the subcommand names which), its instances drawn, computed and checked
    in batches by ``bounds._theorem_sweep`` and written in trial order; or ``--replay`` of one instance."""
    metric = L1 if args.command == "verify-theorem1" else KL
    if args.replay:
        instance = _read_input(args.replay, lambda data: _instance_from_payload(data, metric))
        report, _, gap, ok = _check(*instance)
        shown = report.to_dict() if gap is None else {**report.to_dict(), "identity_gap": gap}
        print(json.dumps(shown, indent=2))
        return EXIT_OK if ok else EXIT_VIOLATION
    _require_positive_trials(args)
    rng = np.random.default_rng(args.seed)
    instances = _checked(_theorem_sweep, rng, args.trials, args.k_max, args.m_max, metric)
    run = _Run(args.command, args.out_dir, args.seed, _flags(args))
    worst_gap, done = 0.0, 0
    for columns, instance in instances:
        ok, names = columns["ok"], ["k", "m", *BoundReport.columns(), *["identity_gap"] * (metric == KL)]
        run.add_rows({"trial": range(done, done + len(ok)), **{name: columns[name] for name in names}}, ok)
        if metric == KL:
            worst_gap = max([worst_gap, *(gap for gap in columns["identity_gap"].tolist() if gap is not None)])
        for j in np.flatnonzero(~ok).tolist():
            priors, masses, _, cost = instance(j)
            payload = _instance_payload(*_as_objects(priors, masses), cost, metric)
            run.write_instance(f"violation_{done + j}.json", payload)
        done += len(ok)
        del columns, instance  # the batch's rows go before the next batch is made, not after
    summary = {"trials": args.trials, "violations": run.violations}
    if metric == KL:
        summary["worst_identity_gap"] = worst_gap
    return run.finish(summary, instances_per_block=_instances_per_block(args.k_max, args.m_max))


def cmd_lower_bounds(args) -> int:
    try:
        gammas = [float(g) for g in args.grid.split(",")] if args.grid is not None else [args.gamma]
    except ValueError as exc:
        raise UsageError(f"bad --grid value: {exc}") from exc
    instances = [_checked(_two_atom_masses, args.eps_prime, gamma) for gamma in gammas]
    run = _Run(args.command, args.out_dir, None, _flags(args))
    cost = CostMatrix.zero_one(2)
    for gamma, (priors, masses) in zip(gammas, instances):
        # One instance under both losses: the scorer copies what it weights, so one masses array serves both.
        l1s, kls = _divergences(*masses, L1), _divergences(*masses, KL)
        t1, _, _, t1_ok = _check(priors, masses, l1s, cost)
        t2, _, gap, t2_ok = _check(priors, masses, kls, None)
        per_l1, per_kl = float(l1s[0]), float(kls[0])
        slack_gap = abs(t1.slack - 2.0 * gamma * cost.max_cost)
        # The printed closed forms 1/2 +- eps_prime need a strict tilt
        # (gamma > 0) to flip the plug-in classifier; the log-loss identity
        # holds for every parameter choice because the mixtures coincide.
        exact_gaps = [t1.risk_opt - (0.5 - args.eps_prime)]
        if gamma > 0.0:
            exact_gaps += [t1.risk_plugin - (0.5 + args.eps_prime), slack_gap]
        exact = all(abs(g) <= EXACT_TOL for g in exact_gaps) and _within(abs(t2.excess - per_kl), 0.0)
        run.add_row(
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
            },
            exact and t1_ok and t2_ok,
        )
    return run.finish({"rows": len(gammas), "violations": run.violations})


def cmd_smooth(args) -> int:
    _require_positive_trials(args)
    m = args.domain_size
    if m < 1:
        raise UsageError("--domain-size must be at least 1")
    if args.ld is not None:
        if args.ld % m != 0:
            raise UsageError("--ld must be divisible by --domain-size")
        args.bits = args.ld // m  # so the manifest records the bits the run used
    spec = _checked(QuantizedClassSpec, Domain.indexed(m), args.bits)
    params = _checked(SmoothingParams, args.epsilon, spec.description_length)
    base = base_mixture(spec)
    _checked(kl_certificate, params), _checked(kl_certificate_from_floor, params, base)  # before the out-dir is made
    rng = np.random.default_rng(args.seed)
    run, done = _Run(args.command, args.out_dir, args.seed, _flags(args)), 0
    for true, est, columns in _sweep(spec, params, base, args.trials, rng):
        ok = columns["within"] & _within(columns["kl_actual"], columns["certificate"])
        run.add_rows({"trial": range(done, done + len(ok)), **columns}, ok)
        for j in np.flatnonzero(~ok).tolist():
            true_d, est_d = (Distribution._frozen(spec.domain, rows[j].copy()) for rows in (true, est))
            report = SmoothingReport.from_columns(columns, [j])[0].to_dict()
            run.write_instance(f"violation_{done + j}.json",
                               {"true": true_d.to_dict(), "estimate": est_d.to_dict(), "report": report})
        done += len(ok)
    summary = {"trials": args.trials, "violations": run.violations, "xi": params.xi}
    return run.finish(summary, instances_per_block=_trials_per_block(m))


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


# The flags that go with --source, each by its argparse dest (its config key), and the default a --source run
# takes: a --config file sets its own.
_SOURCE_DEFAULTS = {"truncate": None, "n_grid": None, "sample_size": 1000, "trials": 100, "epsilon_target": 0.1,
                    "delta_target": 0.05}


def cmd_pipeline(args) -> int:
    given = {name: getattr(args, name) for name in _SOURCE_DEFAULTS if getattr(args, name) is not None}
    if args.config:
        if given:
            raise UsageError(f"the --config file sets its own {', '.join(given)}: give those flags with --source")
        data = _read_input(args.config, dict)
    elif args.source:  # config_from_dict refuses a missing --truncate as the config's truncate
        k = len(machines := _pdfa_machines(args.source))  # each file parsed here, so a bad one is named
        data = {"priors": [1.0 / k] * k, "machines": [a.to_dict() for a in machines], "truncate": args.truncate,
                "cost": CostMatrix.zero_one(k).to_list(), **_SOURCE_DEFAULTS, **given}  # a key keeps its first place
    else:
        raise UsageError("either --config or --source is required")
    if args.seed is not None:
        data["seed"] = args.seed
    try:
        config = config_from_dict(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"bad pipeline config from {args.config or args.source}: {exc!r}") from exc
    run = _Run(args.command, args.out_dir, config.seed, data)
    summary = run_pac_experiment(config)
    run.add_rows(summary.columns, summary.columns["satisfied"])
    return run.finish(summary.to_dict())


def cmd_tightness(args) -> int:
    _checked(_check_search, args.k, args.domain_size, args.iterations)
    budget = _checked(PerturbationBudget, args.metric, args.epsilon)
    rng = np.random.default_rng(args.seed)
    cost = CostMatrix.zero_one(args.k) if args.metric == L1 else None
    run = _Run(args.command, args.out_dir, args.seed, _flags(args))
    result = tightness_search(args.k, args.domain_size, cost, budget, args.iterations, rng)
    searched = {"metric": args.metric, "epsilon": args.epsilon, "k": args.k, "m": args.domain_size}
    run.add_row({**searched, "excess": result.excess, "bound": result.bound, "ratio": result.ratio},
                _within(result.ratio, 1.0))
    run.write_instance(
        "best_instance.json",
        _instance_payload(result.source, result.est_dists, cost, args.metric),
    )
    return run.finish({"ratio": result.ratio, "excess": result.excess, "bound": result.bound})


@functools.lru_cache(maxsize=None)  # built once a process: argparse keeps no state between parses
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayesrisk",
        description="Plug-in Bayes classifier risk-bound verification suites",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def seed(text: str) -> int:  # every --seed's type: numpy refuses a negative seed deep in a run
        if (value := int(text)) < 0:
            raise argparse.ArgumentTypeError(f"a seed must be non-negative, got {value}")
        return value

    def common(p, default_out, trials_default=10000):
        p.add_argument("--seed", type=seed, default=42, help="master random seed")
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
    inputs = p5.add_mutually_exclusive_group()
    inputs.add_argument("--config", help="JSON experiment config file")
    inputs.add_argument("--source", help="comma-separated pdfa:<machine file> class sources")
    p5.add_argument("--truncate", type=int, help="string length cutoff for pdfa sources")
    p5.add_argument("--sample-size", type=int, help="samples per trial (default 1000)")
    p5.add_argument("--trials", type=int, help="trials per sample size (default 100)")
    p5.add_argument("--epsilon", dest="epsilon_target", type=float, help="excess risk target (default 0.1)")
    p5.add_argument("--delta", dest="delta_target", type=float, help="allowed violation fraction (default 0.05)")
    p5.add_argument("--n-grid", type=_int_list, help="comma-separated sample sizes")
    p5.add_argument("--seed", type=seed, default=None)
    p5.add_argument("--out-dir", default="runs/pipeline")
    p5.set_defaults(func=cmd_pipeline)

    p6 = sub.add_parser("tightness", help="search for instances pressing the bound")
    p6.add_argument("--k", type=int, default=2)
    p6.add_argument("--domain-size", type=int, default=2)
    p6.add_argument("--metric", default=L1, choices=(L1, KL))
    p6.add_argument("--epsilon", type=float, default=0.2, help="perturbation budget")
    p6.add_argument("--iterations", type=int, default=20, help="random restarts")
    p6.add_argument("--seed", type=seed, default=42)
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


if __name__ == "__main__":
    sys.exit(main())
