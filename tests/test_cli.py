"""CLI contract: subcommands, flags, exit codes, deterministic outputs."""

import json
from pathlib import Path

import pytest

from qtextgen.harness.cli import main
from qtextgen.harness.config import RunConfig


def _tiny_config(tmp_path, **kw) -> Path:
    cfg = dict(
        epochs=1,
        batch_size=4,
        out_dir=str(tmp_path / "out"),
        datasets=["proverbs"],
        models=["mlp"],
    )
    cfg.update(kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["synth-data", "--bogus"]) == 1

    def test_missing_required_flag(self, capsys):
        assert main(["train", "--dataset", "proverbs"]) == 1

    def test_bad_config_key_is_usage_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"epoch": 3}))
        assert main(["synth-data", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("bad_value", [
        {"learning_rate": -1.0},
        {"beta1": 1.5},
        {"adam_eps": 0.0},
        {"model_overrides": {"mlp": {"d_modle": 8}}},
    ])
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, bad_value):
        bad = _tiny_config(tmp_path, **bad_value)
        assert main(["benchmark", "--config", str(bad)]) == 1
        assert not (tmp_path / "out").exists()

    def test_missing_checkpoint_is_runtime_error(self, tmp_path, capsys):
        code = main(["generate", "--model", "mlp", "--dataset", "proverbs",
                     "--prompt", "actions", "--out", str(tmp_path)])
        assert code == 2

    def test_unknown_dataset_name(self, tmp_path, capsys):
        code = main(["train", "--model", "mlp", "--dataset", "nope", "--out", str(tmp_path)])
        assert code == 1


class TestSynthData:
    def test_twice_with_same_seed_is_byte_identical(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["synth-data", "--seed", "42", "--out", str(out_a)]) == 0
        assert main(["synth-data", "--seed", "42", "--out", str(out_b)]) == 0
        for name in ("simple_sentences", "short_stories", "quantum_phrases", "haiku", "proverbs"):
            for suffix in (".txt", ".manifest.json"):
                fa = (out_a / "data" / f"{name}{suffix}").read_bytes()
                fb = (out_b / "data" / f"{name}{suffix}").read_bytes()
                assert fa == fb, (name, suffix)

    def test_writes_all_ten_files(self, tmp_path, capsys):
        assert main(["synth-data", "--seed", "1", "--out", str(tmp_path)]) == 0
        files = sorted(p.name for p in (tmp_path / "data").iterdir())
        assert len(files) == 10


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_train")
    cfg_path = _tiny_config(tmp_path)
    code = main(["train", "--model", "mlp", "--dataset", "proverbs", "--config", str(cfg_path)])
    assert code == 0
    return tmp_path


class TestTrainGenerateEvaluate:
    def test_train_writes_checkpoint_and_log(self, trained, capsys):
        out = trained / "out"
        assert (out / "mlp_proverbs.ckpt.json").exists()
        log = json.loads((out / "mlp_proverbs.trainlog.json").read_text())
        assert log["stop_reason"] == "completed"
        assert len(log["train_losses"]) == 1
        assert len(log["epoch_seconds"]) == 1

    def test_generate_from_checkpoint(self, trained, capsys):
        cfg_path = trained / "config.json"
        code = main(["generate", "--model", "mlp", "--dataset", "proverbs",
                     "--config", str(cfg_path), "--prompt", "actions speak", "--max-new", "4"])
        assert code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("actions speak")

    def test_evaluate_writes_metrics(self, trained, capsys):
        cfg_path = trained / "config.json"
        code = main(["evaluate", "--model", "mlp", "--dataset", "proverbs", "--config", str(cfg_path)])
        assert code == 0
        metrics = json.loads((trained / "out" / "mlp_proverbs.metrics.json").read_text())
        assert metrics["model"] == "MLP"
        assert metrics["perplexity"] >= 1.0

    def test_mismatched_checkpoint_is_usage_error(self, trained, tmp_path, capsys):
        payload = json.loads((trained / "out" / "mlp_proverbs.ckpt.json").read_text())
        w_2 = payload["params"]["w_2"]
        w_2["shape"] = w_2["shape"][::-1]
        cfg_path = _tiny_config(tmp_path)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "mlp_proverbs.ckpt.json").write_text(json.dumps(payload))
        for command in (["generate", "--prompt", "actions speak"], ["evaluate"]):
            code = main([command[0], "--model", "mlp", "--dataset", "proverbs", "--config", str(cfg_path), *command[1:]])
            assert code == 1
            assert "w_2" in capsys.readouterr().err


class TestEvaluateMatchesBenchmark:
    def test_evaluate_writes_the_benchmark_cell_report(self, tmp_path, capsys):
        # sampled decoding, so the report also depends on the cell's decode stream
        cfg_path = _tiny_config(tmp_path, decode="sample", temperature=0.9)
        cell = ["--model", "mlp", "--dataset", "proverbs", "--config", str(cfg_path)]
        assert main(["train", *cell]) == 0
        assert main(["evaluate", *cell]) == 0
        assert main(["benchmark", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        reports = json.loads((out / "reports.json").read_text())
        assert json.loads((out / "mlp_proverbs.metrics.json").read_text()) == reports[0]


class TestBenchmarkAndReport:
    def test_tiny_benchmark_and_report_round_trip(self, tmp_path, capsys):
        cfg_path = _tiny_config(tmp_path, models=["mlp", "transformer"])
        assert main(["benchmark", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        assert (out / "results_proverbs.csv").exists()
        assert (out / "results_overall.csv").exists()
        reports = json.loads((out / "reports.json").read_text())
        assert len(reports) == 2
        before = (out / "results_overall.csv").read_text()
        assert main(["report", "--out", str(out)]) == 0
        assert (out / "results_overall.csv").read_text() == before
        stdout = capsys.readouterr().out
        assert "Model,Perplexity,BLEU-1,Distinct-1,Repetition Rate" in stdout
