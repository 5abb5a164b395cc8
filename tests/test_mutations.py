"""Checks that must fail when the code they guard is broken.

A sweep that could pass with a wrong bound proves nothing. Each test here
breaks one formula on purpose and asserts that the run notices: the sweep
exits 1 and writes the offending instance, and replaying that instance
fails again.
"""

from __future__ import annotations

import pytest

import bayesrisk.bounds as bounds
from bayesrisk.cli import main


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


@pytest.mark.parametrize(
    "formula, argv",
    [
        pytest.param("theorem1_bound", ["lower-bounds"], id="theorem1-lower-bounds"),
        pytest.param("theorem1_bound", ["tightness", "--k", "2", "--domain-size", "2", "--iterations", "1"],
                     id="theorem1-tightness"),
        pytest.param("theorem2_bound", ["verify-theorem2", "--trials", "20"], id="theorem2-verify"),
        pytest.param("theorem2_bound", ["lower-bounds"], id="theorem2-lower-bounds"),
        pytest.param("theorem2_bound", ["tightness", "--metric", "KL", "--iterations", "1"], id="theorem2-tightness"),
    ],
)
def test_halved_bound_fails_the_run(tmp_path, monkeypatch, formula, argv):
    """With the bound halved, the runs that meet or press it exit 1: the lower-bound constructions
    (cost slack law, log-loss equality), the tightness search and the log-loss sweep."""
    bound = getattr(bounds, formula)
    monkeypatch.setattr(bounds, formula, lambda *args: 0.5 * bound(*args))
    assert main([*argv, "--out-dir", str(tmp_path)]) == 1
