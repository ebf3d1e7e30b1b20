"""CLI surface: outputs, schemas, determinism, exit codes."""

import copy
import json

import numpy as np
import pytest

from epsakit import complexity, models, ops, training
from epsakit.cli import main
from epsakit.gradcheck import TOLERANCE, report_text
from epsakit.models import build_from_config, config_to_spec


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def one_form(value) -> str:
    """A report's value in the one JSON form, with print's newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def spy(monkeypatch, module, name) -> list:
    """Wrap module.name so that each value it returns is appended to the list."""
    real, values = getattr(module, name), []

    def wrapper(*args, **kwargs):
        values.append(real(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(module, name, wrapper)
    return values


TINY_CONFIG = {
    "name": "custom", "num_classes": 7, "stem_channels": 32,
    "stages": [{"repeats": 1, "mid_channels": 32, "kind": "epsa", "out_channels": 128,
                "psa": {"scales": 4, "kernels": [3, 5, 7, 9], "groups": [1, 4, 8, 8],
                        "se_reduction": 16}}],
}


class TestDescribe:
    def test_small_text(self, capsys):
        code, out, _ = run(capsys, "describe", "epsanet50_small")
        assert code == 0
        assert "112x112" in out and "7x7, 64, stride 2" in out
        assert "[1x1, 64; PSA, 64; 1x1, 256] x3" in out
        assert "1000-d fc" in out

    def test_json_schema_valid(self, capsys, monkeypatch):
        descs = spy(monkeypatch, models, "describe")
        code, out, _ = run(capsys, "describe", "resnet50", "--format", "json")
        assert code == 0
        assert out == one_form(descs[0].to_dict())
        payload = json.loads(out)
        spec = config_to_spec(payload["config"])  # must parse against the schema
        assert spec.name == "resnet50"
        assert [r["output_size"] for r in payload["rows"]] == [112, 56, 56, 28, 14, 7, 1]

    def test_unknown_model_exit_2(self, capsys):
        code, _, err = run(capsys, "describe", "nosuchmodel")
        assert code == 2
        assert "unknown model" in err

    def test_neither_model_nor_config_exit_2(self, capsys):
        code, out, err = run(capsys, "describe")
        assert code == 2 and out == ""
        assert "a model name or --config is required" in err

    def test_config_file(self, capsys, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(TINY_CONFIG))
        code, out, _ = run(capsys, "describe", "--config", str(path), "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["num_classes"] == 7

    def test_bad_config_exit_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, _ = run(capsys, "describe", "--config", str(path))
        assert code == 2

    @pytest.mark.parametrize("edit", [
        lambda c: c["stages"][0]["psa"].update(groups=[0, 1, 1, 1]),
        lambda c: c["stages"][0].update(kind="se", se_reduction=0),
        lambda c: c["stages"][0].update(kind="resnet", mid_channels=0),
        lambda c: c["stages"][0].update(repeats=-2),
        None,
        lambda c: c.update(stages=5),
        lambda c: c["stages"][0]["psa"].update(kernels=5),
        lambda c: c["stages"][0].update(psa=[1]),
        lambda c: c["stages"][0].update(repeats=2.7),
        lambda c: c.update(num_clases=7),
        lambda c: c["stages"][0].update(out_chanels=128),
        lambda c: c["stages"][0]["psa"].update(kernel=3),
        lambda c: c["stages"][0].update(kind="resnet"),
        lambda c: c["stages"][0].update(se_reduction=4),
    ], ids=["psa_group_0", "se_reduction_0", "mid_channels_0", "repeats_-2", "top_level_list",
            "stages_number", "psa_kernels_number", "psa_list", "repeats_float", "unknown_field",
            "unknown_stage_field", "unknown_psa_field", "psa_on_resnet", "se_reduction_on_epsa"])
    def test_malformed_config_exit_2(self, capsys, tmp_path, edit):
        cfg = copy.deepcopy(TINY_CONFIG)
        if edit is None:
            cfg = [cfg]
        else:
            edit(cfg)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(cfg))
        code, out, err = run(capsys, "describe", "--config", str(path))
        assert code == 2
        assert out == "" and err.startswith("error:")

    def test_model_too_big_to_build_exit_2(self, capsys, tmp_path, monkeypatch):
        """A config whose arrays do not fit in memory is a configuration
        error. The build is stubbed: really allocating could get the test
        killed on a host that overcommits memory."""
        def too_big(cfg, seed=0):
            raise MemoryError("Unable to allocate 671. GiB for an array")

        monkeypatch.setattr(models, "build_from_config", too_big)
        path = tmp_path / "big.json"
        path.write_text("{}")
        code, out, err = run(capsys, "describe", "--config", str(path))
        assert code == 2 and out == ""
        assert err == "error: Unable to allocate 671. GiB for an array\n"


class TestComplexity:
    def test_single_model_values(self, capsys, monkeypatch):
        reports = spy(monkeypatch, complexity, "analyze")
        code, out, _ = run(capsys, "complexity", "epsanet50_small", "--format", "json")
        assert code == 0
        assert out == one_form(reports[0].to_dict())
        payload = json.loads(out)
        assert payload["params_millions"] == 22.56
        assert payload["total_params"] == 22_561_715

    def test_three_row_table(self, capsys):
        code, out, _ = run(capsys, "complexity", "resnet50", "senet50", "epsanet50_large")
        assert code == 0
        assert out.count("\n") >= 4
        assert "epsanet50_large" in out and "baseline: resnet50" in out

    def test_comparison_json_is_the_compare_table(self, capsys, monkeypatch):
        """The form is under test, not the numbers: tiny models stand in."""
        monkeypatch.setattr(models, "build_model",
                            lambda name: build_from_config({**TINY_CONFIG, "name": name}))
        tables = spy(monkeypatch, complexity, "compare")
        code, out, _ = run(capsys, "complexity", "resnet50", "epsanet50_small", "--format", "json")
        assert code == 0
        assert out == one_form(tables[0])
        assert [r["model_name"] for r in json.loads(out)["rows"]] == ["resnet50", "epsanet50_small"]

    def test_input_size_scaling(self, capsys):
        _, out224, _ = run(capsys, "complexity", "epsanet50_small", "--format", "json")
        _, out448, _ = run(capsys, "complexity", "epsanet50_small", "--format", "json",
                           "--input-size", "448")
        p224 = json.loads(out224)
        p448 = json.loads(out448)
        assert p448["total_params"] == p224["total_params"]
        assert 3.9 < p448["total_flops"] / p224["total_flops"] < 4.01

    def test_text_and_json_same_numbers(self, capsys):
        _, text, _ = run(capsys, "complexity", "resnet50")
        _, js, _ = run(capsys, "complexity", "resnet50", "--format", "json")
        payload = json.loads(js)
        assert f"{payload['params_millions']:.2f}M" in text
        assert f"{payload['flops_giga']:.2f}G" in text


class TestGradcheck:
    def test_deterministic_report(self, capsys, gradcheck_run):
        # The CLI run against an independent in-process run of the same suite.
        code, out, _ = run(capsys, "gradcheck", "psa", "--seed", "7")
        assert code == 0
        assert "gradient checks passed" in out
        assert out == report_text(gradcheck_run("psa", 7)) + "\n"

    def test_json_report_matches_the_suite(self, capsys, gradcheck_run):
        code, out, _ = run(capsys, "gradcheck", "ops", "--format", "json")
        assert code == 0
        want = [
            {"name": r.name, "max_rel_error": r.max_rel_error,
             "tolerance": TOLERANCE, "passed": r.passed}
            for r in gradcheck_run("ops", 0)
        ]
        assert json.loads(out) == want and all(r["passed"] for r in want)

    def test_corrupted_backward_nonzero_exit(self, capsys, monkeypatch):
        # the SE weighter's Sigmoid layer looks the op up in ops
        sigmoid = ops.sigmoid

        def wrong(x):
            y, vjp = sigmoid(x)
            return ops.GradPair(y, lambda dy: (-vjp(dy)[0], {}))

        monkeypatch.setattr(ops, "sigmoid", wrong)
        code, out, _ = run(capsys, "gradcheck", "psa")
        assert code == 3
        assert "FAIL" in out


class TestTrainToy:
    def test_writes_history_and_summary(self, capsys, tmp_path):
        outdir = tmp_path / "run"
        code, out, _ = run(capsys, "train-toy", "--epochs", "2", "--output", str(outdir))
        assert code == 0
        summary = json.loads((outdir / "summary.json").read_text())
        assert summary["diverged"] is False
        csv = (outdir / "history.csv").read_text()
        assert csv.startswith("epoch,step,lr,loss,accuracy\n")
        assert json.loads(out)["steps"] == summary["steps"]

    def test_same_seed_identical_csv_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(capsys, "train-toy", "--epochs", "2", "--output", str(a))
        run(capsys, "train-toy", "--epochs", "2", "--output", str(b))
        assert (a / "history.csv").read_bytes() == (b / "history.csv").read_bytes()

    def test_lr_zero_flags_no_learning(self, capsys):
        code, out, _ = run(capsys, "train-toy", "--lr", "0", "--epochs", "2")
        assert code == 0
        assert json.loads(out)["no_learning"] is True

    def test_zero_epochs_exit_2(self, capsys, tmp_path):
        code, out, _ = run(capsys, "train-toy", "--epochs", "0", "--output", str(tmp_path))
        assert code == 2
        assert out == "" and not (tmp_path / "summary.json").exists()

    def test_unusable_output_exit_2_before_training(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(training, "train", lambda *args: calls.append(args))
        taken = tmp_path / "taken"
        taken.write_text("")
        code, out, err = run(capsys, "train-toy", "--epochs", "2", "--output", str(taken))
        assert code == 2 and out == "" and err.startswith("error:")
        assert calls == []

    @pytest.mark.parametrize("flag,value", [("--lr", "nan"), ("--momentum", "inf")])
    def test_non_finite_rate_exit_2(self, capsys, flag, value):
        code, out, err = run(capsys, "train-toy", flag, value, "--epochs", "1")
        assert code == 2 and out == ""
        assert flag[2:] in err and "finite" in err and "diverged" not in err

    def test_divergence_exit_3(self, capsys):
        code, _, err = run(capsys, "train-toy", "--lr", "1e300", "--epochs", "1")
        assert code == 3
        assert "diverged" in err

    def test_divergence_leaves_its_record(self, capsys, tmp_path, monkeypatch):
        """The steps before the failure go to history.csv and the failure's
        fields to summary.json, the same bytes on every run."""
        errors = []

        def train(*args):
            try:
                return real(*args)
            except training.TrainingDiverged as err:
                errors.append(err)
                raise

        real = training.train
        monkeypatch.setattr(training, "train", train)
        runs = []
        for name in ("a", "b"):
            argv = ("train-toy", "--lr", "1e12", "--epochs", "2", "--output", str(tmp_path / name))
            assert run(capsys, *argv) == (3, "", f"training diverged: {errors[-1]}\n")
            runs.append([(tmp_path / name / f).read_bytes() for f in ("history.csv", "summary.json")])
        assert runs[0] == runs[1]
        err = errors[0]
        assert runs[0][0].decode() == err.history.to_csv()
        assert runs[0][0].count(b"\n") == 1 + err.step > 1  # header, then each completed step
        assert json.loads(runs[0][1]) == {
            "diverged": True, "step": err.step, "phase": err.phase, "layer": err.layer,
            "last_finite_loss": err.last_finite_loss}

    def test_non_finite_update_exit_3(self, capsys, monkeypatch):
        real = training.sgd_step

        def poisoned(params, grads, state, cfg, **kwargs):
            new, state = real(params, grads, state, cfg, **kwargs)
            new["stem.conv.weight"] = np.full_like(new["stem.conv.weight"], np.inf)
            return new, state

        monkeypatch.setattr(training, "sgd_step", poisoned)
        code, out, err = run(capsys, "train-toy", "--epochs", "1")
        assert code == 3 and out == ""
        assert "update" in err and "stem.conv.weight" in err


class TestAblation:
    def test_rows_and_flags(self, capsys, monkeypatch):
        reports = spy(monkeypatch, complexity, "analyze")
        code, out, _ = run(capsys, "ablation", "--format", "json")
        assert code == 0
        assert out == one_form({"rows": [
            {"kernels": list(cfg.kernels), "groups": list(cfg.groups),
             "params": r.total_params, "params_millions": r.params_m,
             "flops": r.total_flops, "flops_giga": r.flops_g, "forward_64px_finite": True,
             "default": cfg.groups == models.SMALL_GROUPS}
            for cfg, r in zip(models.ablation_configs(), reports, strict=True)]})
        rows = json.loads(out)["rows"]
        assert len(rows) == 3
        assert all(r["kernels"] == [3, 5, 7, 9] for r in rows)
        assert all(r["forward_64px_finite"] for r in rows)
        defaults = [r for r in rows if r["default"]]
        assert len(defaults) == 1 and defaults[0]["groups"] == [1, 4, 8, 16]
        params = {tuple(r["groups"]): r["params"] for r in rows}
        assert params[(16, 16, 16, 16)] < params[(4, 8, 16, 16)] < params[(1, 4, 8, 16)]

    def test_text_table(self, capsys):
        code, out, _ = run(capsys, "ablation")
        assert code == 0
        header, *rows = out.splitlines()
        assert header.split() == ["kernels", "groups", "params(M)", "flops(G)", "default"]
        assert len(rows) == 3 and all(row.startswith("(3, 5, 7, 9)") for row in rows)
        starred = [row for row in rows if row.endswith("*")]
        assert len(starred) == 1 and "(1, 4, 8, 16)" in starred[0]
        assert all("*" not in row[:-1] for row in rows)


class TestNonFiniteExit:
    def test_non_finite_forward_exit_3(self, capsys, monkeypatch):
        real = models.forward

        def forward(model, x):
            name = "layer2.0.bn2.gamma"
            model.net.params()[name][...] = np.nan  # set_param would refuse it
            return real(model, x)

        monkeypatch.setattr(models, "forward", forward)
        code, out, err = run(capsys, "ablation")
        assert code == 3 and out == ""
        assert "layer2.0.bn2" in err and "forward" in err


class TestOutputFile:
    def test_output_flag_writes_file(self, capsys, tmp_path):
        path = tmp_path / "desc.json"
        code, out, _ = run(capsys, "describe", "resnet50", "--format", "json",
                           "--output", str(path))
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["name"] == "resnet50"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_output_file_holds_the_bytes_stdout_gets(self, capsys, tmp_path, fmt):
        config = tmp_path / "model.json"
        config.write_text(json.dumps(TINY_CONFIG))
        argv = ("describe", "--config", str(config), "--format", fmt)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out.endswith("\n")
        path = tmp_path / "desc.out"
        assert run(capsys, *argv, "--output", str(path)) == (0, "", "")
        assert path.read_text() == out


@pytest.mark.parametrize("argv", [
    ("describe", "resnet50"), ("complexity", "resnet50"), ("ablation",),
], ids=lambda argv: argv[0])
def test_seed_is_not_a_flag_where_it_would_change_nothing(capsys, argv):
    """describe, complexity and ablation print the same bytes at every
    seed, so they take no --seed; a usage error exits 2 before any work."""
    code, out, err = run(capsys, *argv, "--seed", "3")
    assert code == 2 and out == ""
    assert "--seed" in err
