"""CLI subcommands: exit codes, determinism, golden outputs, replay."""

import json
from pathlib import Path

import pytest

from bayesrisk.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"


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
        ],
    )
    def test_bad_flag_values_exit_2(self, tmp_path, argv, instance):
        from bayesrisk.bounds import example1_construction
        from bayesrisk.cli import _instance_payload

        source, est, cost = example1_construction(0.1, 0.01)
        payload = _instance_payload(source, est, cost, "L1")
        edits = {
            "no estimates": {k: v for k, v in payload.items() if k != "estimates"},
            "no cost": {**payload, "cost": None},
            "one estimate": {**payload, "estimates": payload["estimates"][:1]},
        }
        if instance is not None:
            text = json.dumps(edits[instance]) if instance in edits else instance
            (tmp_path / "instance.json").write_text(text)
        argv = [a.format(dir=tmp_path) for a in argv] + ["--out-dir", tmp_path / "run"]
        assert run(argv) == 2


class TestVerifyCommands:
    def test_theorem1_small_sweep_passes(self, tmp_path):
        assert run(["verify-theorem1", "--trials", "25", "--out-dir", tmp_path]) == 0
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert len(report) == 26  # header + rows
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["subcommand"] == "verify-theorem1"
        assert manifest["seed"] == 42
        assert manifest["csv_columns"][0] == "trial"

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

    def test_replay_recomputes_instance(self, tmp_path):
        from bayesrisk.bounds import example1_construction
        from bayesrisk.cli import _instance_payload

        source, est, cost = example1_construction(0.1, 0.01)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(_instance_payload(source, est, cost, "L1")))
        assert run(["verify-theorem1", "--replay", path]) == 0

    def test_replay_rechecks_identity_gap(self, tmp_path, monkeypatch):
        import bayesrisk.cli as cli

        real = cli._logloss_check

        def off_by_1e6(source, est):
            report, rhs = real(source, est)
            return report, rhs + 1e-6

        monkeypatch.setattr(cli, "_logloss_check", off_by_1e6)
        assert run(["verify-theorem2", "--trials", "1", "--out-dir", tmp_path]) == 1
        assert run(["verify-theorem2", "--replay", tmp_path / "violation_0.json"]) == 1

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

    def test_pdfa_sources_match_golden(self, tmp_path):
        sources = f"pdfa:{DATA / 'machine_half.json'},pdfa:{DATA / 'machine_quarter.json'}"
        code = run(["pipeline", "--source", sources, "--truncate", "8", "--n-grid", "50,200",
                    "--trials", "30", "--seed", "7", "--out-dir", tmp_path])
        assert code == 0
        assert (tmp_path / "report.csv").read_bytes() == (GOLDEN / "pipeline_pdfa_report.csv").read_bytes()
        assert (tmp_path / "summary.json").read_bytes() == (
            GOLDEN / "pipeline_pdfa_summary.json"
        ).read_bytes()

    @staticmethod
    def binary_machines(tmp_path):
        from bayesrisk.pdfa import Pdfa

        paths = []
        for name, (stop, pa, to) in {"m1": (0.25, 0.5, 1), "m2": (0.5, 0.25, 0)}.items():
            machine = Pdfa.build(
                ("a", "b"),
                4,
                [(stop, {"a": (pa, to), "b": (1.0 - stop - pa, 0)}), (0.5, {"a": (0.25, 0), "b": (0.25, 1)})],
            )
            path = tmp_path / f"{name}.json"
            path.write_text(machine.to_json())
            paths.append(f"pdfa:{path}")
        return ",".join(paths)

    def test_pdfa_classes_share_one_domain(self, tmp_path, monkeypatch):
        import bayesrisk.cli as cli

        seen = []

        def capture(config):
            seen.append(config)
            return real(config)

        real = cli.run_pac_experiment
        monkeypatch.setattr(cli, "run_pac_experiment", capture)
        sources = self.binary_machines(tmp_path)
        code = run(["pipeline", "--source", sources, "--truncate", "6", "--sample-size", "50",
                    "--trials", "30", "--out-dir", tmp_path / "run"])
        assert code == 0
        domains = {id(d.domain) for d in seen[0].source.class_dists}
        assert len(domains) == 1

    def test_pdfa_manifest_is_small_and_replays_bit_for_bit(self, tmp_path):
        sources = self.binary_machines(tmp_path)
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
        sources = f"{self.binary_machines(tmp_path)},pdfa:{DATA / 'machine_half.json'}"
        code = run(["pipeline", "--source", sources, "--truncate", "4", "--out-dir", tmp_path / "run"])
        assert code == 2

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
        ],
    )
    def test_golden_run(self, tmp_path, name, args):
        assert run(["tightness", *args, "--out-dir", tmp_path]) == 0
        for output in ("report.csv", "best_instance.json"):
            assert (tmp_path / output).read_bytes() == (GOLDEN / f"tightness_{name}_{output}").read_bytes()
