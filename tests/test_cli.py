"""CLI subcommands: exit codes, determinism, golden outputs, replay."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bayesrisk.cli import _Run, main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
MACHINE = (DATA / "machine_half.json").read_text()
PDFA_PAIR = f"pdfa:{DATA / 'machine_half.json'},pdfa:{DATA / 'machine_quarter.json'}"


def run(args):
    return main([str(a) for a in args])


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert run(["frobnicate"]) == 2

    def test_zero_trials_is_usage_error(self, tmp_path):
        assert run(["verify-theorem1", "--trials", "0", "--out-dir", tmp_path]) == 2
        assert run(["verify-theorem2", "--trials", "0", "--out-dir", tmp_path]) == 2

    def test_missing_pipeline_config(self, tmp_path):
        assert run(["pipeline", "--config", tmp_path / "nope.json"]) == 2

    def test_pipeline_without_inputs(self):
        assert run(["pipeline"]) == 2

    def test_bad_tightness_metric(self, tmp_path):
        code = run(
            ["tightness", "--metric", "TV", "--epsilon", "0.1", "--out-dir", tmp_path]
        )
        assert code == 2

    def test_lower_bounds_bad_params(self, tmp_path):
        code = run(
            ["lower-bounds", "--eps-prime", "0.6", "--gamma", "0.1", "--out-dir", tmp_path]
        )
        assert code == 2

    def test_version_flag_is_clean_exit(self):
        assert run(["--version"]) == 0

    @pytest.mark.parametrize(
        "argv, instance",
        [
            pytest.param(["verify-theorem1", "--replay", "{dir}/missing.json"], None,
                         id="replay-missing-file"),
            pytest.param(["verify-theorem2", "--replay", "{dir}/instance.json"], "{not json",
                         id="replay-malformed-json"),
            pytest.param(["verify-theorem1", "--replay", "{dir}/instance.json"], "[]",
                         id="replay-not-an-object"),
            pytest.param(["verify-theorem1", "--replay", "{dir}/instance.json"], "no estimates",
                         id="replay-no-estimates"),
            pytest.param(["verify-theorem1", "--replay", "{dir}/instance.json"], "no cost",
                         id="replay-l1-without-cost"),
            pytest.param(["verify-theorem1", "--replay", "{dir}/instance.json"], "one estimate",
                         id="replay-estimate-count"),
            pytest.param(["verify-theorem2", "--replay", "{dir}/instance.json"], "prior sum off by 1e-12",
                         id="replay-priors-off-by-1e-12"),
            pytest.param(["verify-theorem2", "--replay", "{dir}/instance.json"], "an L1 instance",
                         id="replay-l1-instance-as-theorem2"),
            pytest.param(["verify-theorem1", "--replay", "{dir}/instance.json"], "a KL instance",
                         id="replay-kl-instance-as-theorem1"),
            pytest.param(["verify-theorem1", "--replay", "{dir}/instance.json"], "a string mass",
                         id="replay-string-mass"),
            pytest.param(["verify-theorem1", "--replay", "{dir}/instance.json"], "a string cost",
                         id="replay-string-cost"),
            pytest.param(["verify-theorem1", "--replay", "{dir}/instance.json"], "a 3x3 cost",
                         id="replay-cost-of-another-class-count"),
            pytest.param(["pipeline", "--config", "{dir}"], None, id="config-is-a-directory"),
            pytest.param(["verify-theorem1", "--k-max", "1"], None, id="k-max-1"),
            pytest.param(["verify-theorem2", "--m-max", "1"], None, id="m-max-1"),
            pytest.param(["tightness", "--k", "1"], None, id="tightness-k-1"),
            pytest.param(["tightness", "--metric", "KL", "--k", "1"], None, id="tightness-kl-k-1"),
            pytest.param(["tightness", "--domain-size", "0"], None, id="tightness-domain-size-0"),
            pytest.param(["tightness", "--epsilon", "nan"], None, id="tightness-epsilon-nan"),
            pytest.param(["smooth", "--domain-size", "0"], None, id="smooth-domain-size-0"),
            pytest.param(["smooth", "--domain-size", "0", "--ld", "8"], None,
                         id="smooth-domain-size-0-with-ld"),
            pytest.param(["smooth", "--bits", "64"], None, id="smooth-bits-64"),
            pytest.param(["pipeline", "--config", DATA / "pipeline_config.json", "--source", "pdfa:nonexistent.json",
                          "--truncate", "3"], None, id="config-with-source"),
            pytest.param(["pipeline", "--config", DATA / "pipeline_config.json", "--truncate", "3"], None,
                         id="config-with-truncate"),
            pytest.param(["pipeline", "--config", DATA / "pipeline_config.json", "--n-grid", "50"], None,
                         id="config-with-n-grid"),
            *(
                pytest.param(["pipeline", "--config", DATA / "pipeline_config.json", flag, value], None,
                             id=f"config-with-{flag[2:]}")
                for flag, value in [("--trials", "5"), ("--sample-size", "7"), ("--epsilon", "9"), ("--delta", "0.5")]
            ),
            pytest.param(["pipeline", "--source", PDFA_PAIR, "--truncate", "3", "--trials", "30", "--n-grid", ""], None,
                         id="source-empty-n-grid"),
            pytest.param(["lower-bounds", "--grid", ""], None, id="lower-bounds-empty-grid"),
            *(
                pytest.param(["pipeline", "--config", "{dir}/instance.json"], f"{key} {value}",
                             id=f"config-{key}-{name}")
                for key, value, name in [
                    ("cost", "[]", "empty-list"), ("cost", "0", "zero"), ("cost", '""', "empty-string"),
                    ("cost", "{}", "empty-object"), ("n_grid", "[]", "empty-list"), ("n_grid", "0", "zero"),
                    ("sample_size", "200.9", "float"), ("trials", "40.5", "float"), ("seed", "1.5", "float"),
                    ("n_grid", "[100.7]", "float-entry"), ("n_grid", "[true,50]", "bool-entry"),
                    ("epsilon_target", '"0.1"', "string"), ("epsilon_target", "true", "bool"),
                    ("laplace", "true", "bool"), ("laplace", '"2"', "string"),
                    ("priors", '["0.4","0.6"]', "string-entries"), ("cost", '[["0","1"],["1","0"]]', "string-entries"),
                    ("cost", "[[false,true],[true,false]]", "bool-entries"),
                    ("cost", "[[0,1,1],[1,0,1],[1,1,0]]", "3x3"),
                ]
            ),
            *(
                pytest.param(["pipeline", "--source", f"pdfa:{{dir}}/instance.json,pdfa:{DATA / 'machine_half.json'}",
                              "--truncate", "3", "--trials", "30"], MACHINE.replace(field, value),
                             id=f"machine-{name}")
                for field, value, name in [
                    ('"initial": 0', '"initial": 0.0', "initial-float"), ('"to": 0', '"to": 0.6', "to-float"),
                    ('"stop": 0.5', '"stop": "0.5"', "stop-string"), ('"p": 0.5', '"p": "0.5"', "p-string"),
                ]
            ),
        ],
    )
    def test_bad_flag_values_exit_2(self, tmp_path, argv, instance):
        from bayesrisk.bounds import example1_construction
        from bayesrisk.classify import CostMatrix
        from bayesrisk.cli import _instance_payload

        source, est, cost = example1_construction(0.1, 0.01)
        payload = _instance_payload(source, est, cost, "L1")
        config = json.loads((DATA / "pipeline_config.json").read_text())
        if instance is not None and instance.split()[0] in config:
            key, value = instance.split()
            config[key] = json.loads(value)  # only null or a missing key means "none"
            instance = json.dumps(config)
        edits = {
            "no estimates": {k: v for k, v in payload.items() if k != "estimates"},
            "no cost": {**payload, "cost": None},
            "one estimate": {**payload, "estimates": payload["estimates"][:1]},
            "prior sum off by 1e-12": {**payload, "source": {**payload["source"], "priors": [0.5, 0.5 - 1e-12]}},
            "an L1 instance": payload,
            "a KL instance": {**payload, "metric": "KL", "cost": None},
            "a string mass": {**payload, "estimates": [{**payload["estimates"][0], "mass": ["0.49", "0.51"]},
                                                       payload["estimates"][1]]},
            "a string cost": {**payload, "cost": [["0", "1"], ["1", "0"]]},
            "a 3x3 cost": {**payload, "cost": CostMatrix.zero_one(3).to_list()},
        }
        if instance is not None:
            text = json.dumps(edits[instance]) if instance in edits else instance
            (tmp_path / "instance.json").write_text(text)
        argv = [str(a).format(dir=tmp_path) for a in argv] + ["--out-dir", tmp_path / "run"]
        assert run(argv) == 2
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify-theorem1", "--trials", "5"], id="verify-theorem1"),
            pytest.param(["smooth", "--trials", "5"], id="smooth"),
            pytest.param(["lower-bounds"], id="lower-bounds"),
            pytest.param(["tightness", "--iterations", "1"], id="tightness"),
            pytest.param(["pipeline", "--config", DATA / "pipeline_config.json"], id="pipeline-config"),
        ],
    )
    def test_out_dir_that_is_a_file_exits_2(self, tmp_path, capsys, monkeypatch, argv):
        """The out-dir is made before any work: a run that would search or run an experiment first fails."""
        import bayesrisk.cli as cli

        for work in ("run_pac_experiment", "tightness_search"):
            monkeypatch.setattr(cli, work, lambda *args, work=work: pytest.fail(f"{work} ran before --out-dir"))
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run([*argv, "--out-dir", taken]) == 2
        assert capsys.readouterr().err == f"error: cannot create --out-dir {taken}: File exists\n"

    @pytest.mark.parametrize("verdicts, code", [([True, True], 0), ([True, False, True, False], 1), ([], 0)])
    def test_a_run_exits_1_if_any_row_failed(self, tmp_path, verdicts, code):
        run_ = _Run("test", tmp_path, 0, {})
        for i, ok in enumerate(verdicts):
            run_.add_row({"a": i}, ok)
        assert run_.violations == verdicts.count(False)
        assert run_.finish({}) == code


class TestDerivedColumns:
    @pytest.mark.parametrize(
        "second",
        [
            pytest.param({"b": 1, "a": 0}, id="reordered"),
            pytest.param({"a": 0, "c": 1}, id="renamed"),
            pytest.param({"a": 0}, id="missing"),
            pytest.param({"a": 0, "b": 1, "c": 2}, id="extra"),
        ],
    )
    def test_row_keys_must_match_the_first_row(self, tmp_path, second):
        run_ = _Run("test", tmp_path, 0, {})
        run_.add_row({"a": 0, "b": 1}, True)
        with pytest.raises(ValueError, match="first row"):
            run_.add_row(second, True)

    @pytest.mark.parametrize(
        "second",
        [
            pytest.param({"b": [1], "a": [0]}, id="reordered"),
            pytest.param({"a": [0], "c": [1]}, id="renamed"),
            pytest.param({"a": [0]}, id="missing"),
            pytest.param({"a": [0], "b": 1.0, "c": [2]}, id="extra"),
        ],
    )
    def test_block_keys_must_match_the_first_block(self, tmp_path, second):
        run_ = _Run("test", tmp_path, 0, {})
        run_.add_rows({"a": range(2), "b": 0.5}, [True, True])
        with pytest.raises(ValueError, match="first row"):
            run_.add_rows(second, [True])

    @pytest.mark.parametrize("value", [5e-324, 1e-300, 0.1 + 0.2, 1e16, -0.0, float("inf")])
    def test_a_constant_column_is_the_text_csv_writes(self, tmp_path, value):
        """A float column given once for a block is written in every row as ``csv.writer`` writes that float."""
        run_ = _Run("test", tmp_path, 0, {})
        run_.add_rows({"trial": range(3), "constant": value, "per_row": np.full(3, value), "listed": [value] * 3},
                      [True] * 3)
        assert run_.finish({}) == 0
        with (tmp_path / "report.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [row[1:] for row in rows] == [[str(value)] * 3] * 3 and str(value) == repr(value)

    def test_the_report_is_the_bytes_csv_writer_writes(self, tmp_path):
        """Every cell kind ``add_rows`` takes is written as ``csv.writer`` (excel dialect, ``QUOTE_MINIMAL``) writes
        the same values: ints, ranges and bools, special floats as arrays, lists and constants, ``None``, strings
        that need quoting and the pipeline's ``counts`` text; the header too, a column name needing quotes."""
        floats = [math.nan, math.inf, -0.0, 5e-324, 1e16, -math.inf, 0.1 + 0.2]
        texts = ["a,b", 'say "hi"', "two\nlines", "cr\r", "", "20|30", " padded "]
        columns = {"trial": range(7), "ints": np.arange(-3, 4), "listed ints": [0, 1, 2, 3, 4, 5, np.int64(6)],
                   "bools": np.arange(7) % 2 == 0, "listed bools": [True, False, np.bool_(True), *[False] * 4],
                   "floats": np.array(floats), "listed floats": [*floats[:6], np.float64(0.5)],
                   "constant": 1e16, "gaps": np.where(np.arange(7) % 3 == 0, np.array(floats), None),
                   "texts": texts, 'quoted "name", too': np.array(texts, dtype=object)}
        run_ = _Run("test", tmp_path, 0, {})
        for rows in (slice(0, 3), slice(3, 7)):  # two blocks
            run_.add_rows({key: value if isinstance(value, float) else value[rows] for key, value in columns.items()},
                          [True] * (rows.stop - rows.start))
        assert run_.finish({}) == 0
        values = [[value] * 7 if isinstance(value, float) else list(value.tolist() if isinstance(value, np.ndarray)
                                                                     else value) for value in columns.values()]
        with (tmp_path / "expected.csv").open("w", newline="") as fh:
            csv.writer(fh).writerows([list(columns), *zip(*values)])
        assert (tmp_path / "report.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify-theorem1", "--trials", "3"], id="verify-theorem1"),
            pytest.param(["verify-theorem2", "--trials", "3"], id="verify-theorem2"),
            pytest.param(["lower-bounds", "--grid", "0,0.01"], id="lower-bounds"),
            pytest.param(["smooth", "--trials", "3"], id="smooth"),
            pytest.param(["pipeline", "--config", DATA / "pipeline_config.json"], id="pipeline"),
            pytest.param(["tightness", "--iterations", "1"], id="tightness"),
        ],
    )
    def test_manifest_columns_are_the_report_header(self, tmp_path, argv):
        assert run([*argv, "--out-dir", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        with (tmp_path / "report.csv").open(newline="") as fh:
            header = next(csv.reader(fh))
        assert manifest["csv_columns"] == header

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["verify-theorem1", "--trials", "20", "--seed", "3", "--k-max", "3", "--m-max", "8"],
                         id="verify-theorem1"),
            pytest.param(["verify-theorem2", "--trials", "20", "--seed", "4", "--k-max", "4", "--m-max", "6"],
                         id="verify-theorem2"),
            pytest.param(["lower-bounds", "--eps-prime", "0.2", "--grid", "0.001,0.01"], id="lower-bounds"),
            pytest.param(["smooth", "--trials", "20", "--seed", "5", "--domain-size", "4", "--ld", "24"], id="smooth"),
            pytest.param(["tightness", "--k", "2", "--domain-size", "2", "--metric", "KL", "--epsilon", "0.1",
                          "--iterations", "1", "--seed", "6"], id="tightness"),
        ],
    )
    def test_flag_manifest_replays_its_run(self, tmp_path, argv):
        """A flag command's manifest config, each non-null key given back as its flag, reruns the run bit for bit."""
        code = run([*argv, "--out-dir", tmp_path / "first"])
        config = json.loads((tmp_path / "first" / "manifest.json").read_text())["config"]
        flags = [arg for key, value in config.items() if value is not None
                 for arg in (f"--{key.replace('_', '-')}", value)]
        assert run([argv[0], *flags, "--out-dir", tmp_path / "again"]) == code
        for name in ("report.csv", "summary.json"):
            assert (tmp_path / "again" / name).read_bytes() == (tmp_path / "first" / name).read_bytes()


    @pytest.mark.parametrize(
        "argv, per_block",
        [
            pytest.param(["verify-theorem1", "--trials", "3"], 68, id="verify-theorem1"),
            pytest.param(["verify-theorem2", "--trials", "3", "--k-max", "9", "--m-max", "300"], 9,
                         id="verify-theorem2"),
            pytest.param(["smooth", "--trials", "3"], 256, id="smooth"),
            pytest.param(["smooth", "--trials", "3", "--domain-size", "300", "--bits", "12"], 6, id="smooth-wide"),
            pytest.param(["lower-bounds"], None, id="lower-bounds"),
            pytest.param(["tightness", "--iterations", "1"], None, id="tightness"),
        ],
    )
    def test_manifest_records_the_block_size(self, tmp_path, argv, per_block):
        """A sweep draws a block of instances (trials) at a time, so the block size is part of its stream: the
        sweeps' manifests record it beside their config, and no other command's manifest has it."""
        assert run([*argv, "--out-dir", tmp_path]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest.get("instances_per_block") == per_block
        assert "instances_per_block" not in manifest["config"]


class TestVerifyCommands:
    def test_theorem1_small_sweep_passes(self, tmp_path):
        assert run(["verify-theorem1", "--trials", "25", "--out-dir", tmp_path]) == 0
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert len(report) == 26  # header + rows
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "verify-theorem1"
        assert manifest["seed"] == 42
        assert manifest["csv_columns"][0] == "trial"

    def test_manifest_records_the_environment(self, tmp_path):
        """The Python, numpy and BLAS build and the CPU count a run's floats and timings depend on."""
        import os
        import platform

        assert run(["verify-theorem1", "--trials", "3", "--out-dir", tmp_path]) == 0
        environment = json.loads((tmp_path / "manifest.json").read_text())["environment"]
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert environment == {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpu_count": os.cpu_count(),
            "blas": {key: blas[key] for key in ("name", "version", "openblas configuration")},
        }
        assert all(isinstance(value, str) and value for value in environment["blas"].values())

    def test_theorem2_small_sweep_passes(self, tmp_path):
        assert run(["verify-theorem2", "--trials", "25", "--out-dir", tmp_path]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["worst_identity_gap"] <= 1e-9

    def test_determinism_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(["verify-theorem1", "--trials", "20", "--out-dir", a]) == 0
        assert run(["verify-theorem1", "--trials", "20", "--out-dir", b]) == 0
        assert (a / "report.csv").read_bytes() == (b / "report.csv").read_bytes()
        assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()

    def test_golden_report(self, tmp_path):
        assert run(["verify-theorem1", "--trials", "50", "--seed", "42", "--out-dir", tmp_path]) == 0
        expected = (GOLDEN / "verify_theorem1_report.csv").read_bytes()
        assert (tmp_path / "report.csv").read_bytes() == expected

    def test_theorem2_golden_report(self, tmp_path):
        assert run(["verify-theorem2", "--trials", "50", "--seed", "42", "--out-dir", tmp_path]) == 0
        expected = (GOLDEN / "verify_theorem2_report.csv").read_bytes()
        assert (tmp_path / "report.csv").read_bytes() == expected

    @pytest.mark.parametrize("theorem", ["1", "2"])
    @pytest.mark.parametrize(
        "name, args",
        [
            # About ten instances of each domain size: blocks of many rows per size.
            ("blocked", ["--trials", "600"]),
            # Every instance has k = m = 2: one size for the whole run.
            ("smallest", ["--trials", "200", "--k-max", "2", "--m-max", "2"]),
            # Rows up to 300 atoms: past numpy's 128-entry leaf, where a cut row's sum splits.
            ("long", ["--trials", "300", "--k-max", "9", "--m-max", "300"]),
        ],
    )
    def test_golden_sweep(self, tmp_path, theorem, name, args):
        assert run([f"verify-theorem{theorem}", *args, "--seed", "7", "--out-dir", tmp_path]) == 0
        for output in ("report.csv", "summary.json"):
            expected = (GOLDEN / f"verify_theorem{theorem}_{name}_{output}").read_bytes()
            assert (tmp_path / output).read_bytes() == expected

    @pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2"])
    def test_sweep_memory_is_held_to_its_blocks(self, tmp_path, command):
        """A 3,000-trial sweep peaks, by tracemalloc, under three draw blocks' budgets: one batch of
        ``bounds._BATCH_BLOCKS`` draw blocks of instances (some 2 MB at the default shapes) and the
        report's rows (0.3 MB per 1,000 trials), 2.9 MB in all at four draw blocks a batch. Every
        instance held at once would take about 15 MB."""
        import tracemalloc

        from bayesrisk.bounds import _BLOCK_BYTES

        assert run([command, "--trials", "20", "--out-dir", tmp_path]) == 0  # lazy imports first
        tracemalloc.start()
        try:
            assert run([command, "--trials", "3000", "--out-dir", tmp_path]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * _BLOCK_BYTES

    @pytest.mark.parametrize("command", ["verify-theorem1", "verify-theorem2"])
    def test_smallest_shapes_pass(self, tmp_path, command):
        argv = [command, "--trials", "40", "--k-max", "2", "--m-max", "2", "--out-dir", tmp_path]
        assert run(argv) == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert len(rows) == 40 and all(row.split(",")[1:3] == ["2", "2"] for row in rows)

    def test_replay_recomputes_instance(self, tmp_path):
        from bayesrisk.bounds import example1_construction
        from bayesrisk.cli import _instance_payload

        source, est, cost = example1_construction(0.1, 0.01)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(_instance_payload(source, est, cost, "L1")))
        assert run(["verify-theorem1", "--replay", path]) == 0

    def test_replay_checks_only_its_own_theorem(self, tmp_path, capsys):
        """Each subcommand replays the instances of its own theorem and names the other's in one line."""
        from bayesrisk.bounds import example1_construction
        from bayesrisk.cli import _instance_payload

        source, est, cost = example1_construction(0.1, 0.01)
        for metric, cost_, own, other in (("L1", cost, "verify-theorem1", "verify-theorem2"),
                                          ("KL", None, "verify-theorem2", "verify-theorem1")):
            path = tmp_path / f"{metric}.json"
            path.write_text(json.dumps(_instance_payload(source, est, cost_, metric)))
            assert run([own, "--replay", path]) == 0
            capsys.readouterr()
            assert run([other, "--replay", path]) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and f"metric is {metric!r}" in err

    def test_replay_rechecks_identity_gap(self, tmp_path, monkeypatch):
        import bayesrisk.bounds as bounds

        real = bounds._mixture_kl

        def off_by_1e6(*args, **kwargs):  # the sweep's blocks and the replay's one instance alike: rhs - 1e-6
            return real(*args, **kwargs) + 1e-6

        monkeypatch.setattr(bounds, "_mixture_kl", off_by_1e6)
        assert run(["verify-theorem2", "--trials", "1", "--out-dir", tmp_path]) == 1
        assert run(["verify-theorem2", "--replay", tmp_path / "violation_0.json"]) == 1

    @pytest.mark.parametrize("metric", ["L1", "KL"])
    def test_replay_rechecks_the_instance_the_sweep_checked(self, metric):
        """Written and read back, a sweep instance keeps every bit of its masses, and its one-instance replay
        gives the report and gap its block gave it."""
        import numpy as np

        from bayesrisk.bounds import _as_objects, _check, _theorem_sweep
        from bayesrisk.cli import _instance_from_payload, _instance_payload
        from test_rows import swept, verdict

        def hexed(report, gap):
            fields = {k: v.hex() if isinstance(v, float) else v for k, v in report.to_dict().items()}
            return fields, None if gap is None else gap.hex()

        for (priors, masses, _, cost), (report, gap, ok) in swept(_theorem_sweep(np.random.default_rng(3), 300, 5, 64,
                                                                                  metric)):
            payload = json.loads(json.dumps(_instance_payload(*_as_objects(priors, masses), cost, metric)))
            replayed = _instance_from_payload(payload, metric)
            assert replayed[1].tobytes() == masses.tobytes() and replayed[0].tobytes() == priors.tobytes()
            again, again_gap, again_ok = verdict(_check(*replayed))
            assert (hexed(again, again_gap), again_ok) == (hexed(report, gap), ok)

    def test_replay_of_infinite_kl_instance_is_vacuously_satisfied(self, tmp_path, capsys):
        from bayesrisk.classify import LabeledSource
        from bayesrisk.cli import _instance_payload
        from bayesrisk.distributions import Domain, make_distribution

        dom = Domain.indexed(2)
        half, tilted = make_distribution(dom, [0.5, 0.5]), make_distribution(dom, [0.4, 0.6])
        source = LabeledSource([0.5, 0.5], (half, tilted))
        path = tmp_path / "instance.json"
        est = (make_distribution(dom, [1, 0]), tilted)
        path.write_text(json.dumps(_instance_payload(source, est, None, "KL")))
        assert run(["verify-theorem2", "--replay", path]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["bound"] == float("inf") and shown["satisfied"] is True
        assert "identity_gap" not in shown


class TestLowerBounds:
    def test_default_parameters(self, tmp_path):
        assert run(["lower-bounds", "--eps-prime", "0.1", "--gamma", "0.01", "--out-dir", tmp_path]) == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        header = rows[0].split(",")
        values = dict(zip(header, rows[1].split(",")))
        assert float(values["risk_opt"]) == pytest.approx(0.4, abs=1e-12)
        assert float(values["risk_plugin"]) == pytest.approx(0.6, abs=1e-12)
        assert float(values["t1_bound"]) == pytest.approx(0.22, abs=1e-12)

    def test_gamma_grid_slack_law(self, tmp_path):
        grid = "0.1,0.01,0.001,0.0001,0.00001,0.000001"
        assert run(["lower-bounds", "--eps-prime", "0.1", "--grid", grid, "--out-dir", tmp_path]) == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        header = rows[0].split(",")
        for line in rows[1:]:
            values = dict(zip(header, line.split(",")))
            assert float(values["slack_law_gap"]) <= 1e-12

    def test_golden_report(self, tmp_path):
        grid = "0.1,0.01,0.001,0.0001,0.00001,0.000001"
        assert run(["lower-bounds", "--eps-prime", "0.1", "--grid", grid, "--out-dir", tmp_path]) == 0
        expected = (GOLDEN / "lower_bounds_report.csv").read_bytes()
        assert (tmp_path / "report.csv").read_bytes() == expected

    def test_zero_eps_prime_has_zero_excess(self, tmp_path):
        assert run(["lower-bounds", "--eps-prime", "0", "--gamma", "0.01", "--out-dir", tmp_path]) == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()
        values = dict(zip(rows[0].split(","), rows[1].split(",")))
        assert float(values["t1_excess"]) == pytest.approx(0.0, abs=1e-12)


class TestSmoothCommand:
    def test_small_run_passes(self, tmp_path):
        code = run(
            ["smooth", "--trials", "50", "--epsilon", "0.5", "--domain-size", "8",
             "--bits", "8", "--out-dir", tmp_path]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["violations"] == 0
        assert summary["xi"] == pytest.approx(0.25 / (12 * 64), abs=0)

    def test_ld_flag_overrides_bits(self, tmp_path):
        code = run(
            ["smooth", "--trials", "10", "--epsilon", "0.5", "--domain-size", "8",
             "--ld", "32", "--out-dir", tmp_path]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["bits"] == 4

    def test_golden_report(self, tmp_path):
        assert run(["smooth", "--trials", "50", "--seed", "42", "--out-dir", tmp_path]) == 0
        expected = (GOLDEN / "smooth_report.csv").read_bytes()
        assert (tmp_path / "report.csv").read_bytes() == expected

    def test_indivisible_ld_is_usage_error(self, tmp_path):
        code = run(
            ["smooth", "--trials", "10", "--domain-size", "8", "--ld", "31", "--out-dir", tmp_path]
        )
        assert code == 2

    # At 1e-300 xi itself is 0.0; at 1e-160 xi is 1.5e-323 and xi * min_mass is 0.0. Neither has a certificate.
    @pytest.mark.parametrize("epsilon", ["1e-300", "1e-160"])
    def test_epsilon_too_small_for_a_certificate_is_usage_error(self, tmp_path, capsys, epsilon):
        out = tmp_path / "out"
        assert run(["smooth", "--trials", "10", "--epsilon", epsilon, "--out-dir", out]) == 2
        assert "error: " in capsys.readouterr().err and not out.exists()

    def test_smallest_epsilon_with_a_certificate_passes(self, tmp_path):
        assert run(["smooth", "--trials", "10", "--epsilon", "1e-155", "--out-dir", tmp_path]) == 0

    # One atom draws no noise; three atoms at one bit quantize most masses to 0 or 1/2.
    @pytest.mark.parametrize("shape", [["--domain-size", "1"], ["--domain-size", "3", "--bits", "1"]])
    def test_edge_shapes_pass(self, tmp_path, shape):
        assert run(["smooth", "--trials", "40", *shape, "--out-dir", tmp_path]) == 0
        assert len((tmp_path / "report.csv").read_text().splitlines()) == 41


class TestPipelineCommand:
    def test_config_file_run_matches_golden(self, tmp_path):
        code = run(["pipeline", "--config", DATA / "pipeline_config.json", "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "summary.json").read_bytes() == (GOLDEN / "pipeline_summary.json").read_bytes()
        assert (tmp_path / "report.csv").read_bytes() == (GOLDEN / "pipeline_report.csv").read_bytes()

    def test_logloss_config_run_matches_golden(self, tmp_path):
        config = DATA / "pipeline_logloss_config.json"
        code = run(["pipeline", "--config", config, "--out-dir", tmp_path])
        assert code == 0
        for name in ("report.csv", "summary.json"):
            golden = GOLDEN / f"pipeline_logloss_{name}"
            assert (tmp_path / name).read_bytes() == golden.read_bytes()

    def test_pdfa_sources_end_to_end(self, tmp_path):
        code = run(
            [
                "pipeline",
                "--source",
                f"pdfa:{DATA / 'machine_half.json'},pdfa:{DATA / 'machine_quarter.json'}",
                "--truncate", "8",
                "--sample-size", "200",
                "--trials", "30",
                "--seed", "7",
                "--out-dir", tmp_path,
            ]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["mode"] == "cost"
        assert summary["per_n"][0]["satisfied_fraction"] == 1.0

    def test_every_setting_flag_is_recorded_and_used(self, tmp_path):
        """A ``--source`` run given every setting flag records each value under its config key, in the order a
        run on the defaults writes, and runs with it: the summary's grid and trials, one row per trial and grid
        point, and the violation fraction taken at the given epsilon."""
        code = run(["pipeline", "--source", PDFA_PAIR, "--truncate", "4", "--sample-size", "70", "--trials", "31",
                    "--epsilon", "0.25", "--delta", "0.2", "--n-grid", "20,40", "--seed", "5", "--out-dir", tmp_path])
        assert code == 0
        config = json.loads((tmp_path / "manifest.json").read_text())["config"]
        settings = {"truncate": 4, "cost": [[0.0, 1.0], [1.0, 0.0]], "n_grid": [20, 40], "sample_size": 70,
                    "trials": 31, "epsilon_target": 0.25, "delta_target": 0.2, "seed": 5}
        assert list(config) == ["priors", "machines", *settings]
        assert {key: config[key] for key in settings} == settings
        assert type(config["epsilon_target"]) is type(config["delta_target"]) is float
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["n_grid"] == [20, 40] and summary["trials"] == 31
        with (tmp_path / "report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 31 * 2 and [int(row["n"]) for row in rows] == [20] * 31 + [40] * 31
        for entry, point in zip(summary["per_n"], (rows[:31], rows[31:])):
            assert entry["violation_fraction"] == np.mean([float(row["excess"]) > 0.25 for row in point])

    def test_pdfa_sources_match_golden(self, tmp_path):
        sources = f"pdfa:{DATA / 'machine_half.json'},pdfa:{DATA / 'machine_quarter.json'}"
        code = run(["pipeline", "--source", sources, "--truncate", "8", "--n-grid", "50,200",
                    "--trials", "30", "--seed", "7", "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "report.csv").read_bytes() == (GOLDEN / "pipeline_pdfa_report.csv").read_bytes()
        assert (tmp_path / "summary.json").read_bytes() == (
            GOLDEN / "pipeline_pdfa_summary.json"
        ).read_bytes()

    def test_sparse_pdfa_sources_match_golden(self, tmp_path):
        """Two binary machines truncated at 14 give 32,768 atoms, and no class draws more than 500, one
        per 64 atoms: every trial's estimates are worked only at their hit atoms, and its sums, of rows
        too short to be rebuilt from leaf sums, take the full pass."""
        code = run(["pipeline", "--source", self.binary_machines(), "--truncate", "14",
                    "--n-grid", "20,100,500", "--trials", "30", "--seed", "11", "--out-dir", tmp_path / "run"])
        assert code == 0
        for name in ("report.csv", "summary.json"):
            assert (tmp_path / "run" / name).read_bytes() == (GOLDEN / f"pipeline_pdfa_sparse_{name}").read_bytes()

    def test_wide_pdfa_sources_match_golden(self, tmp_path):
        """The same machines truncated at 16 give 131,072 atoms, on few enough of whose 128-atom leaves the
        hits fall for every sum of every trial to be rebuilt from numpy's leaf sums."""
        code = run(["pipeline", "--source", self.binary_machines(), "--truncate", "16",
                    "--n-grid", "20,100,500", "--trials", "30", "--seed", "11", "--out-dir", tmp_path / "run"])
        assert code == 0
        for name in ("report.csv", "summary.json"):
            assert (tmp_path / "run" / name).read_bytes() == (GOLDEN / f"pipeline_pdfa_wide_{name}").read_bytes()

    def test_random_cost_sparse_source_matches_golden(self, tmp_path):
        """Four classes of a random source on 8,192 plain atoms under random costs that are not zero-one,
        at sample sizes of at most 512: no class draws more than one atom in 16, so every trial whose
        classes all drew scores its labels at the hits only, and its cost products round, as the
        PDFA goldens' zero-one products on two classes never do."""
        from bayesrisk.bounds import random_source

        rng = np.random.default_rng(8)
        source = random_source(rng, 4, 8192)
        cost = rng.uniform(0.1, 5.0, (4, 4))
        np.fill_diagonal(cost, 0.0)
        config = {**source.to_dict(), "cost": cost.tolist(), "sample_size": 512, "trials": 30,
                  "epsilon_target": 0.1, "delta_target": 0.05, "seed": 3, "n_grid": [20, 100, 512]}
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert run(["pipeline", "--config", tmp_path / "config.json", "--out-dir", tmp_path / "run"]) == 0
        for name in ("report.csv", "summary.json"):
            golden = GOLDEN / f"pipeline_random_cost_sparse_{name}"
            assert (tmp_path / "run" / name).read_bytes() == golden.read_bytes()

    @staticmethod
    def binary_machines():
        """The two binary machines of the sparse and wide PDFA goldens, as a ``--source``."""
        return ",".join(f"pdfa:{DATA / f'machine_binary_{i}.json'}" for i in (1, 2))

    def test_pdfa_classes_share_one_domain(self, tmp_path, monkeypatch):
        import bayesrisk.cli as cli

        seen = []

        def capture(config):
            seen.append(config)
            return real(config)

        real = cli.run_pac_experiment
        monkeypatch.setattr(cli, "run_pac_experiment", capture)
        sources = self.binary_machines()
        code = run(["pipeline", "--source", sources, "--truncate", "6", "--sample-size", "50",
                    "--trials", "30", "--out-dir", tmp_path / "run"])
        assert code == 0
        domains = {id(d.domain) for d in seen[0].source.class_dists}
        assert len(domains) == 1

    def test_pdfa_run_leaves_the_shared_domain_unenumerated(self, tmp_path, monkeypatch):
        """The pipeline reads the truncated domain's size and compares it, never its 131,072 atoms."""
        import bayesrisk.pipeline as pipeline

        seen = []
        real = pipeline.truncate_all
        monkeypatch.setattr(pipeline, "truncate_all", lambda *args: seen.append(real(*args)) or seen[-1])
        code = run(["pipeline", "--source", self.binary_machines(), "--truncate", "16",
                    "--n-grid", "20,200", "--trials", "30", "--out-dir", tmp_path / "run"])
        assert code == 0
        (domain,) = {id(d.domain): d.domain for d in seen[0]}.values()
        assert domain.size == 131_072 and "atoms" not in vars(domain)

    def test_pdfa_manifest_is_small_and_replays_bit_for_bit(self, tmp_path):
        sources = self.binary_machines()
        first = tmp_path / "source_run"
        code = run(["pipeline", "--source", sources, "--truncate", "12", "--n-grid", "20,200",
                    "--trials", "30", "--seed", "3", "--out-dir", first])
        assert code == 0
        manifest_path = first / "manifest.json"
        assert manifest_path.stat().st_size < 64 * 1024
        config = json.loads(manifest_path.read_text())["config"]
        assert config["truncate"] == 12 and len(config["machines"]) == 2
        assert "classes" not in config
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config))
        again = tmp_path / "config_run"
        assert run(["pipeline", "--config", config_path, "--out-dir", again]) == 0
        assert (again / "report.csv").read_bytes() == (first / "report.csv").read_bytes()
        assert (again / "summary.json").read_bytes() == (first / "summary.json").read_bytes()
        assert json.loads((again / "manifest.json").read_text())["config"] == config

    def test_pdfa_sources_over_different_alphabets_are_usage_errors(self, tmp_path):
        sources = f"{self.binary_machines()},pdfa:{DATA / 'machine_half.json'}"
        code = run(["pipeline", "--source", sources, "--truncate", "4", "--out-dir", tmp_path / "run"])
        assert code == 2

    def test_bad_pdfa_file_is_named_in_one_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(MACHINE.replace('"initial": 0', '"initial": 0.0'))
        sources = f"pdfa:{DATA / 'machine_half.json'},pdfa:{bad}"
        assert run(["pipeline", "--source", sources, "--truncate", "3", "--out-dir", tmp_path / "run"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and str(bad) in err

    def test_pdfa_source_requires_truncate(self, tmp_path):
        code = run(
            ["pipeline", "--source", f"pdfa:{DATA / 'machine_half.json'}", "--out-dir", tmp_path]
        )
        assert code == 2


class TestTightnessCommand:
    def test_two_atom_search(self, tmp_path):
        code = run(
            ["tightness", "--k", "2", "--domain-size", "2", "--epsilon", "0.2",
             "--iterations", "5", "--seed", "42", "--out-dir", tmp_path]
        )
        assert code == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["ratio"] >= 0.9
        assert summary["ratio"] <= 1.0 + 1e-9
        assert (tmp_path / "best_instance.json").exists()

    @pytest.mark.parametrize(
        "name, args",
        [
            # The analytic KL seed and a random restart: both bisections.
            pytest.param("kl", ["--metric", "KL", "--k", "2", "--domain-size", "2", "--epsilon", "0.1",
                                "--iterations", "2", "--seed", "4"], id="kl-seeded"),
            # m > 6 draws random transfer pairs; a random restart pulls back under L1.
            pytest.param("l1", ["--metric", "L1", "--k", "2", "--domain-size", "9", "--epsilon", "0.2",
                                "--iterations", "1", "--seed", "6"], id="l1-random-pairs"),
            # The analytic L1 seed, then a random restart perturbed under L1.
            pytest.param("l1_seeded", ["--k", "2", "--domain-size", "2", "--epsilon", "0.2",
                                       "--iterations", "2", "--seed", "42"], id="l1-seeded"),
            # A zero budget returns uniform masses without searching.
            pytest.param("zero_budget", ["--k", "3", "--domain-size", "4", "--epsilon", "0",
                                         "--iterations", "2", "--seed", "1"], id="zero-budget"),
        ],
    )
    def test_golden_run(self, tmp_path, name, args):
        assert run(["tightness", *args, "--out-dir", tmp_path]) == 0
        for output in ("report.csv", "best_instance.json"):
            assert (tmp_path / output).read_bytes() == (GOLDEN / f"tightness_{name}_{output}").read_bytes()
