"""Checks that must fail when the code they guard is broken.

A sweep that could pass with a wrong bound proves nothing. Each test here
breaks one formula on purpose and asserts that the run notices: the sweep
exits 1 and writes the offending instance, and replaying that instance
fails again.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import bayesrisk.bounds as bounds
import bayesrisk.classify as classify
import bayesrisk.distributions as distributions
import bayesrisk.pipeline as pipeline
import bayesrisk.smoothing as smoothing
from bayesrisk.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "command, formula",
    [("verify-theorem1", "theorem1_bound"), ("verify-theorem2", "theorem2_bound")],
)
def test_sweep_and_replay_go_through_the_one_bound(tmp_path, monkeypatch, command, formula):
    """With the bound patched to 0.0 every instance with a positive excess breaks it."""
    monkeypatch.setattr(bounds, formula, lambda *args: 0.0)
    assert main([command, "--trials", "20", "--out-dir", str(tmp_path)]) == 1
    violations = sorted(tmp_path.glob("violation_*.json"))
    assert violations
    assert main([command, "--replay", str(violations[0])]) == 1


@pytest.mark.parametrize("metric", ["L1", "KL"])
def test_one_negative_excess_in_a_block_raises(monkeypatch, metric):
    """With the two risks of one instance of a block swapped, the one of the largest excess in the first class
    count that has any, that instance's excess is negative, and the block's checks raise the report's error."""
    real, swapped = bounds._plugin_risk, []

    def swap_one(*args, **kwargs):
        risks = real(*args, **kwargs)
        if not swapped and (risks[1] - risks[0]).max() > 1e-9:
            swapped.append(j := int(np.argmax(risks[1] - risks[0])))
            risks[:, j] = risks[::-1, j].copy()
        return risks

    monkeypatch.setattr(bounds, "_plugin_risk", swap_one)
    with pytest.raises(ValueError, match=r"^negative excess -.*: optimality violated$"):
        list(bounds._theorem_sweep(np.random.default_rng(1), 200, 5, 64, metric))
    assert len(swapped) == 1


def _violation_alone(tmp_path, monkeypatch, argv, since, name, column, match, patched) -> tuple[dict, list]:
    """``argv`` run clean, then with the function ``name``, a ``(module, attribute)`` pair, patched to
    ``patched(its value, value)``, ``value`` the ``match`` entry of the clean row of the largest ``column`` from trial
    ``since`` on: that row and the violation files the patched run wrote, after it exited 1 with one violation."""
    module, attribute = name
    assert main([*argv, "--out-dir", str(tmp_path / "clean")]) == 0
    with (tmp_path / "clean" / "report.csv").open(newline="") as fh:
        worst = max(list(csv.DictReader(fh))[since:], key=lambda row: float(row[column]))
    real = getattr(module, attribute)
    monkeypatch.setattr(module, attribute, lambda *args: patched(real(*args), float(worst[match])))
    assert main([*argv, "--out-dir", str(tmp_path / "broken")]) == 1
    assert json.loads((tmp_path / "broken" / "summary.json").read_text())["violations"] == 1
    monkeypatch.undo()
    return worst, sorted(path.name for path in (tmp_path / "broken").glob("violation_*.json"))


@pytest.mark.parametrize("command, formula", [("verify-theorem1", "theorem1_bound"),
                                              ("verify-theorem2", "theorem2_bound")])
def test_one_violating_instance_writes_its_own_trial(tmp_path, monkeypatch, capsys, command, formula):
    """With the bound of the instance of the largest excess from trial 100 on (past the first block) set to 0.0, the
    sweep exits 1 and writes that trial's instance alone, whose replay gives that trial's row."""
    argv = [command, "--trials", "300", "--seed", "5"]
    worst, written = _violation_alone(tmp_path, monkeypatch, argv, 100, (bounds, formula), "excess", "bound",
                                      lambda bound, value: np.where(bound == value, 0.0, bound))
    assert written == [f"violation_{worst['trial']}.json"]
    capsys.readouterr()
    assert main([command, "--replay", str(tmp_path / "broken" / written[0])]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert {key: repr(shown[key]) for key in ("risk_opt", "risk_plugin", "bound")} == {
        key: worst[key] for key in ("risk_opt", "risk_plugin", "bound")}


def test_one_violating_smoothing_trial_writes_its_own_trial(tmp_path, monkeypatch):
    """With the KL of the trial of the largest KL from trial 512 on (the third block) made infinite, the run exits 1 and
    writes that trial alone, its report holding that trial's row."""
    argv = ["smooth", "--trials", "600", "--seed", "5"]
    worst, written = _violation_alone(tmp_path, monkeypatch, argv, 512, (smoothing, "_kl_on_support"), "kl_actual",
                                      "kl_actual", lambda kl, value: np.where(kl == value, math.inf, kl))
    assert written == [f"violation_{worst['trial']}.json"]
    report = json.loads((tmp_path / "broken" / written[0]).read_text())["report"]
    assert report["kl_actual"] == math.inf and not report["within"]
    assert {key: repr(report[key]) for key in ("xi", "l1_actual", "certificate")} == {
        key: worst[key] for key in ("xi", "l1_actual", "certificate")}


@pytest.mark.parametrize(
    "formula, argv",
    [
        pytest.param("theorem1_bound", ["lower-bounds"], id="theorem1-lower-bounds"),
        pytest.param("theorem1_bound", ["tightness", "--k", "2", "--domain-size", "2", "--iterations", "1"],
                     id="theorem1-tightness"),
        pytest.param("theorem1_bound", ["verify-theorem1", "--trials", "20"], id="theorem1-verify"),
        pytest.param("theorem2_bound", ["verify-theorem2", "--trials", "20"], id="theorem2-verify"),
        pytest.param("theorem2_bound", ["lower-bounds"], id="theorem2-lower-bounds"),
        pytest.param("theorem2_bound", ["tightness", "--metric", "KL", "--iterations", "1"], id="theorem2-tightness"),
    ],
)
def test_halved_bound_fails_the_run(tmp_path, monkeypatch, formula, argv):
    """With the bound halved, the runs that meet or press it exit 1: the lower-bound constructions
    (cost slack law, log-loss equality), the tightness search, the log-loss sweep, and the cost sweep, whose
    data-dependent bound R exceeds half the bound on about 42% of its instances."""
    bound = getattr(bounds, formula)
    monkeypatch.setattr(bounds, formula, lambda *args: 0.5 * bound(*args))
    assert main([*argv, "--out-dir", str(tmp_path)]) == 1


def test_a_cost_bound_one_percent_low_fails_the_sweep(tmp_path, monkeypatch):
    """With ``theorem1_bound`` at 0.99 of itself, the cost sweep exits 1 at 600 instances (seed 42), though no
    excess there reaches 0.28 of the bound or 0.42 of its refined bound R: one instance's R is 0.9914 of the bound."""
    bound = bounds.theorem1_bound
    monkeypatch.setattr(bounds, "theorem1_bound", lambda *args: 0.99 * bound(*args))
    assert main(["verify-theorem1", "--trials", "600", "--seed", "42", "--out-dir", str(tmp_path)]) == 1


def test_halved_cost_bound_breaks_the_cost_scaling_relation(monkeypatch):
    """With ``theorem1_bound`` halved, scaling the costs by a power of two flips some verdicts: the fixed
    ``BOUND_TOL`` passes at 2**-30 and 2**-40 what fails at the drawn scale (170 of the 1,200 scaled checks)."""
    import test_relations

    bound = bounds.theorem1_bound
    monkeypatch.setattr(bounds, "theorem1_bound", lambda *args: 0.5 * bound(*args))
    assert test_relations.scaling_flips() > 0


def test_lower_bounds_instances_off_their_stated_eps_prime_fail_the_run(tmp_path, monkeypatch):
    """With each instance built at eps' + 1e-6 while its row states eps', both theorem verdicts still hold and the
    slack law does not depend on eps': only the closed forms risk_opt = 1/2 - eps' and risk_plugin = 1/2 + eps'
    can fail the run, and they do."""
    import bayesrisk.cli as cli

    build = cli._two_atom_masses
    monkeypatch.setattr(cli, "_two_atom_masses", lambda eps_prime, gamma: build(eps_prime + 1e-6, gamma))
    assert main(["lower-bounds", "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize("metric", ["L1", "KL"])
def test_estimates_left_over_budget_fail_the_tightness_search(tmp_path, monkeypatch, metric):
    """With the pull-back into the budget returning its rows unchanged, the search climbs past the
    budget and its ratio exceeds 1."""
    monkeypatch.setattr(bounds, "_into_budget", lambda _, true, est, limits, on=True, scratch=None: est)
    argv = ["tightness", "--metric", metric, "--k", "2", "--domain-size", "2", "--epsilon", "0.2", "--iterations", "3"]
    assert main([*argv, "--out-dir", str(tmp_path)]) == 1


def test_flipped_mixture_kl_fails_the_sweep_and_its_replay(tmp_path, monkeypatch):
    """With the identity's mixture-KL term added instead of subtracted, the identity gap of every
    instance whose mixtures differ breaks the gate: the log-loss sweep exits 1, and so does the
    replay of the instance it writes."""
    mixture_kl = bounds._mixture_kl
    monkeypatch.setattr(bounds, "_mixture_kl", lambda *args: -mixture_kl(*args))
    assert main(["verify-theorem2", "--trials", "20", "--out-dir", str(tmp_path)]) == 1
    violations = sorted(tmp_path.glob("violation_*.json"))
    assert violations
    assert main(["verify-theorem2", "--replay", str(violations[0])]) == 1


def _shut(value, bound):
    """The verdict gate shut: False, elementwise for an array ``value``."""
    return np.zeros(value.shape, bool) if isinstance(value, np.ndarray) else False


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(["verify-theorem1", "--trials", "5"], id="verify-theorem1"),
        pytest.param(["verify-theorem2", "--trials", "5"], id="verify-theorem2"),
        pytest.param(["smooth", "--trials", "5"], id="smooth"),
        pytest.param(["lower-bounds"], id="lower-bounds"),
        pytest.param(["tightness", "--iterations", "1"], id="tightness-L1"),
        pytest.param(["tightness", "--metric", "KL", "--iterations", "1"], id="tightness-KL"),
        pytest.param(["pipeline", "--config", str(DATA / "pipeline_config.json")], id="pipeline"),
    ],
)
def test_every_verdict_goes_through_the_one_gate(tmp_path, monkeypatch, argv):
    """With ``bounds._within`` shut wherever it is imported, every subcommand's verdict fails, and so
    does every row's ``satisfied`` or ``within`` cell."""
    sites = [
        module
        for name, module in list(sys.modules.items())
        if name.startswith("bayesrisk") and vars(module).get("_within") is bounds._within
    ]
    assert {module.__name__ for module in sites} >= {"bayesrisk.bounds", "bayesrisk.cli", "bayesrisk.smoothing"}
    for module in sites:
        monkeypatch.setattr(module, "_within", _shut)
    assert main([*argv, "--out-dir", str(tmp_path)]) == 1
    with (tmp_path / "report.csv").open(newline="") as fh:
        assert {row[c] for row in csv.DictReader(fh) for c in ("satisfied", "within") if c in row} <= {"False"}


@pytest.fixture
def tree_mutation(request, monkeypatch):
    """The summation-tree kernel broken one way: numpy's split rounded to no multiple of 8 (trees rebuilt
    under it, and dropped afterwards), or every base leaf sum of a sparse trial moved over by one leaf."""
    import test_distributions

    if request.param == "split-not-rounded-to-8":
        monkeypatch.setattr(pipeline, "_LANES", 1)
        pipeline._pairwise_tree.cache_clear()
        request.addfinalizer(pipeline._pairwise_tree.cache_clear)
    else:
        for module, name in ((test_distributions, "_base_leaf_sums"), (pipeline, "_leaf_sums")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real: np.roll(real(*args), 1))
    return request.param


@pytest.mark.parametrize("tree_mutation", ["split-not-rounded-to-8", "base-shifted-by-a-leaf"], indirect=True)
def test_bit_identity_checks_fail_with_a_broken_tree(tmp_path, tree_mutation):
    """The checks that pin sparse trials to numpy's sums fail when the tree is wrong: the kernel's property
    tests on one row and on a batch of rows, the sparse-against-dense differential test on 131,073 atoms, and
    the PDFA golden on 131,072 atoms. The golden's domain and its flattened (2, 131,072) cost array have power-of-two lengths, whose every
    split is already a multiple of 8, so it can only see the shifted leaves."""
    import test_cli
    import test_distributions
    import test_pipeline

    with pytest.raises(AssertionError):
        test_distributions.check_tree_sums(4_095, "every-leaf", np.random.default_rng(0))
    with pytest.raises(AssertionError):
        test_distributions.check_tree_rows(4_095, "every-leaf", np.random.default_rng(0))
    example = dict(seed=1, k=2, m=131_073, grid=[150], rare=False, peaked=True, partial=False, ties=False,
                   log_loss=False, laplace=0.0, trials=4, cap="default")
    with pytest.raises(AssertionError):
        test_pipeline.test_sparse_trials_equal_the_dense_kernels.hypothesis.inner_test(**example)
    if tree_mutation == "base-shifted-by-a-leaf":
        with pytest.raises(AssertionError):
            test_cli.TestPipelineCommand().test_wide_pdfa_sources_match_golden(tmp_path)


def _tail_folded_into_the_lanes(values, on=True, real=distributions._ragged_sums):
    """Each row summed over its zero-padded prefix rounded up to a multiple of 8: its last n % 8 entries join the
    8 lanes instead of following them in order."""
    lengths = np.count_nonzero(np.broadcast_to(on, values.shape), axis=1)
    padded = np.pad(np.where(on, values, 0.0), ((0, 0), (0, 7)))
    return real(padded, np.arange(padded.shape[1]) < (-(-lengths // 8) * 8)[:, None])


def _split_not_rounded_to_8(values, on=True, real=distributions._ragged_sums):
    """Each row of more than 128 entries summed as its first n // 2 entries plus the rest, not split at n // 2
    rounded down to a multiple of 8."""
    lengths = np.count_nonzero(np.broadcast_to(on, values.shape), axis=1)
    halves = np.where(lengths > 128, lengths // 2, lengths)
    head = real(values, np.arange(values.shape[1]) < halves[:, None])
    return head + np.array([row[h:n].sum() for row, h, n in zip(values, halves, lengths)])


@pytest.mark.parametrize("broken", [_tail_folded_into_the_lanes, _split_not_rounded_to_8])
def test_a_broken_ragged_sum_fails_its_pin(tmp_path, monkeypatch, broken):
    """The pin of ``distributions._ragged_sums`` at every length 1-1,024 fails with the kernel broken either way
    numpy's summation order can be missed: a row's tail folded into the lanes, or a long row split off a multiple
    of 8. Either way both theorems' blocked and long-row sweep goldens fail as well."""
    import test_cli
    import test_rows

    test_rows.check_ragged_sums(np.random.default_rng(0))
    for module in (distributions, bounds):
        monkeypatch.setattr(module, "_ragged_sums", broken)
    with pytest.raises(AssertionError):
        test_rows.check_ragged_sums(np.random.default_rng(0))
    long_rows = ["--trials", "300", "--k-max", "9", "--m-max", "300"]
    for theorem in ("1", "2"):
        for name, args in (("blocked", ["--trials", "600"]), ("long", long_rows)):
            with pytest.raises(AssertionError):
                test_cli.TestVerifyCommands().test_golden_sweep(tmp_path, theorem, name, args)


def test_a_chunk_labelled_one_column_at_a_time_fails_the_gathered_product_pin(monkeypatch):
    """With a leaf chunk's Bayes labels taken from unpadded one-column products, the scores of
    ``pipeline._cost_leaves`` that the optimal risk rests on leave the full product's bits: the pin's probe of the
    widest chunk (16,384 columns of 131,072 atoms) fails at k = 4 and 5, though it passes as one product."""
    import test_classify

    probe = dict(m=131_072, sizes=[pipeline._LEAF_FLOATS])
    for k in (4, 5):
        test_classify.batch_probe(np.random.default_rng(k), k, **probe)
    columns = lambda costs, w: [np.matmul(costs.T, w[:, j : j + 1]) for j in range(w.shape[1])]
    monkeypatch.setattr(classify, "_gathered_scores", lambda costs, w: np.concatenate(columns(costs, w), axis=1))
    for k in (4, 5):
        with pytest.raises(AssertionError):
            test_classify.batch_probe(np.random.default_rng(k), k, **probe)


def test_a_lone_hit_column_multiplied_alone_fails_the_gathered_product_pin(monkeypatch):
    """With the pad removed from the batch cost product, so that a batch of one lone hit column is multiplied
    alone, the float.hex pin fails: at a fixed probe (k = 4, 4,096 atoms) that passes padded, and over its lone
    columns at k = 4 and 5."""
    import test_classify

    test_classify.batch_probe(np.random.default_rng(0), 4, 4_096, [1])
    monkeypatch.setattr(classify, "_gathered_scores", lambda costs, w: np.matmul(costs.T, w))
    with pytest.raises(AssertionError):
        test_classify.batch_probe(np.random.default_rng(0), 4, 4_096, [1])
    for k in (4, 5):
        with pytest.raises(AssertionError):
            test_classify.test_gathered_product_keeps_the_full_products_bits(k, 4_096)
