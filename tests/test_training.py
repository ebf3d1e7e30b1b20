"""Loss, optimizer, schedule, toy data, and end-to-end training behavior."""

import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epsakit import defaults, models, training
from epsakit.ops import BatchNormParams, finite_difference_array
from epsakit.tensor import NonFiniteError
from epsakit.training import (
    ToyDataset,
    TrainConfig,
    TrainingDiverged,
    label_smoothed_ce,
    load_params,
    lr_at,
    make_toy_dataset,
    save_params,
    sgd_step,
    train,
)


class TestLabelSmoothedCE:
    def test_alpha_zero_is_plain_ce(self, rng):
        logits = rng.standard_normal((4, 5))
        labels = np.array([0, 2, 4, 1])
        loss, _ = label_smoothed_ce(logits, labels, 0.0)
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        want = -logp[np.arange(4), labels].mean()
        assert loss == pytest.approx(want, abs=1e-12)

    def test_uniform_logits_loss_is_log_k(self):
        for k in (2, 4, 10):
            logits = np.zeros((3, k))
            labels = np.arange(3) % k
            for alpha in (0.0, 0.1, 0.5):
                loss, _ = label_smoothed_ce(logits, labels, alpha)
                assert loss == pytest.approx(np.log(k), abs=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        logits = rng.standard_normal((2, 5))
        labels = np.array([1, 3])
        _, grad = label_smoothed_ce(logits, labels, 0.1)
        fd = finite_difference_array(
            lambda a: label_smoothed_ce(a, labels, 0.1)[0], logits, 1e-6
        )
        np.testing.assert_allclose(grad, fd, atol=1e-6)

    def test_invalid_label_rejected(self):
        with pytest.raises(ValueError):
            label_smoothed_ce(np.zeros((2, 3)), np.array([0, 3]), 0.1)

    @pytest.mark.parametrize("alpha", [-0.1, 1.0, 1.5, float("nan")])
    def test_alpha_outside_unit_interval_rejected(self, alpha):
        """The range `TrainConfig.label_smoothing` enforces; outside it the
        targets have negative entries."""
        with pytest.raises(ValueError, match="alpha"):
            label_smoothed_ce(np.zeros((2, 3)), np.array([0, 1]), alpha)


class TestSgdStep:
    def test_noop_with_zero_everything(self):
        cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
        p = {"w": np.array([1.0, 2.0])}
        g = {"w": np.zeros(2)}
        new, state = sgd_step(p, g, None, cfg)
        assert np.array_equal(new["w"], p["w"])

    def test_vanilla_gradient_descent(self):
        cfg = TrainConfig(lr=0.5, momentum=0.0, weight_decay=0.0)
        p = {"w": np.array([1.0, -2.0])}
        g = {"w": np.array([0.2, 0.4])}
        new, _ = sgd_step(p, g, None, cfg)
        np.testing.assert_allclose(new["w"], [1.0 - 0.5 * 0.2, -2.0 - 0.5 * 0.4], atol=0)

    def test_two_steps_match_hand_recurrence(self):
        cfg = TrainConfig(lr=0.1, momentum=0.9, weight_decay=0.01)
        w = 2.0
        p = {"w": np.array([w])}
        state = None
        grads = [0.3, -0.5]
        v_hand = 0.0
        w_hand = w
        for g in grads:
            p, state = sgd_step(p, {"w": np.array([g])}, state, cfg)
            v_hand = 0.9 * v_hand + g + 0.01 * w_hand
            w_hand = w_hand - 0.1 * v_hand
            assert p["w"][0] == pytest.approx(w_hand, abs=1e-15)

    def test_no_decay_names_skip_l2(self):
        cfg = TrainConfig(lr=1.0, momentum=0.0, weight_decay=0.5)
        p = {"w": np.array([2.0]), "gamma": np.array([2.0])}
        g = {"w": np.array([0.0]), "gamma": np.array([0.0])}
        new, _ = sgd_step(p, g, None, cfg, no_decay={"gamma"})
        assert new["w"][0] == pytest.approx(1.0)
        assert new["gamma"][0] == 2.0

    def test_monotone_descent_on_quadratic(self):
        cfg = TrainConfig(lr=0.1, momentum=0.0, weight_decay=0.0)
        p = {"w": np.array([5.0, -3.0])}
        state = None
        prev = float((p["w"] ** 2).sum())
        for _ in range(20):
            p, state = sgd_step(p, {"w": 2 * p["w"]}, state, cfg)
            val = float((p["w"] ** 2).sum())
            assert val < prev
            prev = val

    def test_shape_mismatch_rejected(self):
        cfg = TrainConfig()
        with pytest.raises(ValueError):
            sgd_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, None, cfg)


class TestLrSchedule:
    def test_paper_checkpoints(self):
        cfg = TrainConfig(lr=0.1, lr_decay_every=30)
        assert lr_at(0, cfg) == 0.1
        assert lr_at(30, cfg) == 0.01
        assert lr_at(60, cfg) == 0.001
        assert lr_at(90, cfg) == 0.0001

    def test_boundary(self):
        cfg = TrainConfig(lr=0.1, lr_decay_every=30)
        assert lr_at(29, cfg) == 0.1

    def test_every_epoch_decay(self):
        cfg = TrainConfig(lr=1.0, lr_decay_every=1)
        assert lr_at(3, cfg) == pytest.approx(1e-3)

    @given(e1=st.integers(0, 200), e2=st.integers(0, 200))
    @settings(max_examples=40, deadline=None)
    def test_piecewise_non_increasing(self, e1, e2):
        cfg = TrainConfig(lr=0.1, lr_decay_every=30)
        lo, hi = sorted((e1, e2))
        assert lr_at(hi, cfg) <= lr_at(lo, cfg)
        assert lr_at(e1, cfg) == lr_at(30 * (e1 // 30), cfg)


class TestToyDataset:
    def test_deterministic(self):
        a = make_toy_dataset(seed=7, m=16, classes=4, size=16)
        b = make_toy_dataset(seed=7, m=16, classes=4, size=16)
        assert np.array_equal(a.images.data, b.images.data)
        assert np.array_equal(a.labels, b.labels)

    def test_labels_cover_all_classes(self):
        ds = make_toy_dataset(seed=1, m=16, classes=4, size=16)
        assert set(ds.labels.tolist()) == {0, 1, 2, 3}

    def test_linear_probe_beats_chance(self):
        """Least-squares probe on raw pixels confirms separability."""
        ds = make_toy_dataset(seed=2, m=32, classes=4, size=16)
        x = ds.images.data.reshape(32, -1)
        x = np.hstack([x, np.ones((32, 1))])
        y = np.eye(4)[ds.labels]
        w, *_ = np.linalg.lstsq(x, y, rcond=None)
        acc = (np.argmax(x @ w, axis=1) == ds.labels).mean()
        assert acc > 0.5  # chance is 0.25

    def test_requires_sample_per_class(self):
        with pytest.raises(ValueError):
            make_toy_dataset(seed=0, m=2, classes=4, size=8)


def tiny_setup(epochs=2, lr=0.05, alpha=0.1, seed=3, model_seed=11):
    ds = make_toy_dataset(seed=7, m=16, classes=4, size=32)
    model = models.build_toy_epsanet(
        num_classes=4, widths=(16, 32), blocks=(1, 1), stem_channels=16, seed=model_seed
    )
    cfg = TrainConfig(lr=lr, label_smoothing=alpha, batch_size=8, epochs=epochs, seed=seed)
    return model, ds, cfg


class TestTrainLoop:
    def test_identical_seeds_identical_histories(self):
        h1 = train(*(lambda m, d, c: (m, d, c))(*tiny_setup()))
        h2 = train(*tiny_setup())
        assert h1.to_csv() == h2.to_csv()
        assert h1.summary == h2.summary

    def test_zero_lr_flat_loss(self):
        model, ds, _ = tiny_setup()
        cfg = TrainConfig(lr=0.0, label_smoothing=0.1, batch_size=8, epochs=3, seed=3)
        h = train(model, ds, cfg)
        losses = [e["mean_loss"] for e in h.epochs]
        assert max(losses) - min(losses) < 1e-12
        assert h.summary["no_learning"] is True

    def test_divergence_reported_distinctly(self):
        model, ds, _ = tiny_setup()
        cfg = TrainConfig(lr=1e12, batch_size=8, epochs=3, seed=3)
        with pytest.raises(TrainingDiverged):
            train(model, ds, cfg)

    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("name", ["lr", "momentum", "weight_decay", "lr_decay_factor"])
    def test_non_finite_rate_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    def test_head_class_mismatch_rejected(self):
        model, ds, cfg = tiny_setup()
        bad = ToyDataset(ds.images, ds.labels % 2, 2)
        with pytest.raises(ValueError):
            train(model, bad, cfg)

    def test_net_loss_reduction_at_least_80pct_without_smoothing(self):
        ds = make_toy_dataset(**defaults.TOY_DATASET)
        model = models.build_toy_epsanet(
            num_classes=4,
            widths=defaults.TOY_MODEL["widths"],
            blocks=defaults.TOY_MODEL["blocks"],
            stem_channels=defaults.TOY_MODEL["stem_channels"],
            seed=defaults.TOY_MODEL["seed"],
        )
        cfg = TrainConfig(lr=0.05, label_smoothing=0.0, batch_size=8, epochs=20, seed=3)
        h = train(model, ds, cfg)
        assert h.summary["loss_reduction_pct"] >= 80.0

    def test_csv_format(self):
        h = train(*tiny_setup(epochs=1))
        lines = h.to_csv().strip().split("\n")
        assert lines[0] == "epoch,step,lr,loss,accuracy"
        assert len(lines) == 1 + 2  # 16 samples / batch 8 = 2 steps


def _rewrite(path, entries):
    """Write entries as a checkpoint archive at path, with no suffix added."""
    with open(path, "wb") as fh:
        np.savez(fh, **entries)


class TestCheckpoint:
    def test_roundtrip_restores_outputs(self, tmp_path):
        model, ds, cfg = tiny_setup(epochs=1)
        train(model, ds, cfg)
        logits_before = model.net.apply(ds.images, training=False)[0]
        save_params(model, tmp_path / "ckpt")

        fresh = models.build_toy_epsanet(
            num_classes=4, widths=(16, 32), blocks=(1, 1), stem_channels=16, seed=999
        )
        assert not np.allclose(fresh.net.apply(ds.images, training=False)[0], logits_before)
        load_params(fresh, tmp_path / "ckpt")
        np.testing.assert_allclose(
            fresh.net.apply(ds.images, training=False)[0], logits_before, atol=0
        )

    @staticmethod
    def _saved_then_changed(ckpt):
        """Save a model to ckpt, then change its parameters; returns the
        model and the saved values."""
        model, _, _ = tiny_setup()
        save_params(model, ckpt)
        saved = {k: v.copy() for k, v in {**model.net.params(), **model.net.state()}.items()}
        for name, value in model.net.params().items():
            model.net.set_param(name, value + 1.0)
        return model, saved

    @staticmethod
    def _assert_loads(ckpt, saved):
        fresh, _, _ = tiny_setup(model_seed=5)
        load_params(fresh, ckpt)
        for k, v in {**fresh.net.params(), **fresh.net.state()}.items():
            assert np.array_equal(v, saved[k]), k

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "ckpt"
        model, saved = self._saved_then_changed(ckpt)
        real = np.savez

        def failing(fh, **entries):
            real(fh, **dict(list(entries.items())[:3]))
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", failing)
        with pytest.raises(OSError, match="disk full"):
            save_params(model, ckpt)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        self._assert_loads(ckpt, saved)

    def test_failed_rename_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "ckpt"
        model, saved = self._saved_then_changed(ckpt)

        def failing(src, dst):
            raise OSError("rename failed")

        monkeypatch.setattr(training.os, "replace", failing)
        with pytest.raises(OSError, match="rename failed"):
            save_params(model, ckpt)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        self._assert_loads(ckpt, saved)

    def test_save_replaces_previous_checkpoint(self, tmp_path):
        model, _, _ = tiny_setup()
        save_params(model, tmp_path / "ckpt")
        for name, value in model.net.params().items():
            model.net.set_param(name, value + 1.0)
        save_params(model, tmp_path / "ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        fresh, _, _ = tiny_setup(model_seed=5)
        load_params(fresh, tmp_path / "ckpt")
        for k, v in fresh.net.params().items():
            assert np.array_equal(v, model.net.params()[k]), k

    def test_save_refuses_a_directory_that_is_not_a_checkpoint(self, tmp_path):
        (tmp_path / "notes.txt").write_text("keep me")
        with pytest.raises(ValueError, match="holds no checkpoint"):
            save_params(tiny_setup()[0], tmp_path)
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_save_refuses_a_file_that_is_not_a_checkpoint(self, tmp_path):
        (tmp_path / "ckpt").write_text("keep me")
        with pytest.raises(ValueError, match="holds no checkpoint"):
            save_params(tiny_setup()[0], tmp_path / "ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        assert (tmp_path / "ckpt").read_text() == "keep me"

    def test_save_refuses_a_zip_archive_that_is_not_a_checkpoint(self, tmp_path):
        doc = tmp_path / "notes.docx"
        with zipfile.ZipFile(doc, "w") as archive:
            archive.writestr("[Content_Types].xml", "<Types/>")
            archive.writestr("word/document.xml", "<w:document/>")
        before = doc.read_bytes()
        with pytest.raises(ValueError, match="holds no checkpoint"):
            save_params(tiny_setup()[0], doc)
        assert [p.name for p in tmp_path.iterdir()] == ["notes.docx"]
        assert doc.read_bytes() == before

    def test_save_refuses_an_empty_zip_archive(self, tmp_path):
        empty = tmp_path / "ckpt"
        zipfile.ZipFile(empty, "w").close()
        before = empty.read_bytes()
        with pytest.raises(ValueError, match="holds no checkpoint"):
            save_params(tiny_setup()[0], empty)
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt"]
        assert empty.read_bytes() == before

    def test_save_removes_only_its_own_stale_temporary_files(self, tmp_path):
        # Left by a save to ckpt killed before its rename.
        (tmp_path / ".ckpt.27fc0d40734ee638.tmp").write_bytes(b"partial archive")
        kept = [".ckpt.notes.tmp", ".ckpt.27fc0d40734ee6.tmp", ".ckpt.27FC0D40734EE638.tmp",
                ".ckpt2.27fc0d40734ee638.tmp", "ckpt.27fc0d40734ee638.tmp"]
        for name in kept:
            (tmp_path / name).write_text("keep me")
        save_params(tiny_setup()[0], tmp_path / "ckpt")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["ckpt", *kept])
        assert all((tmp_path / name).read_text() == "keep me" for name in kept)


class TestCheckpointValidation:
    @staticmethod
    def _saved(tmp_path):
        model, _, _ = tiny_setup()
        save_params(model, tmp_path / "ckpt")
        with np.load(tmp_path / "ckpt") as archive:
            return model, {name: archive[name] for name in archive.files}

    def test_missing_entry_rejected(self, tmp_path):
        model, entries = self._saved(tmp_path)
        del entries["fc.bias"]
        _rewrite(tmp_path / "ckpt", entries)
        with pytest.raises(KeyError, match="fc.bias"):
            load_params(model, tmp_path / "ckpt")

    def test_extra_entry_rejected(self, tmp_path):
        model, entries = self._saved(tmp_path)
        entries["fc.extra"] = entries["fc.bias"]
        _rewrite(tmp_path / "ckpt", entries)
        with pytest.raises(KeyError, match="fc.extra"):
            load_params(model, tmp_path / "ckpt")

    def test_wrong_shape_rejected_before_any_write(self, tmp_path):
        model, entries = self._saved(tmp_path)
        fresh = models.build_toy_epsanet(
            num_classes=4, widths=(16, 32), blocks=(1, 1), stem_channels=16, seed=5
        )
        before = {k: v.copy() for k, v in fresh.net.params().items()}
        entries["stem.conv.weight"] = np.zeros((3, 16, 7, 7))
        _rewrite(tmp_path / "ckpt", entries)
        with pytest.raises(ValueError):
            load_params(fresh, tmp_path / "ckpt")
        for k, v in fresh.net.params().items():
            assert np.array_equal(v, before[k]), k

    def test_negative_running_var_rejected_before_any_write(self, tmp_path):
        model, entries = self._saved(tmp_path)
        entries["stem.bn.running_var"][0] = -1.0
        _rewrite(tmp_path / "ckpt", entries)
        fresh = models.build_toy_epsanet(
            num_classes=4, widths=(16, 32), blocks=(1, 1), stem_channels=16, seed=5
        )
        before = {k: v.copy() for k, v in {**fresh.net.params(), **fresh.net.state()}.items()}
        with pytest.raises(ValueError, match="stem.bn.running_var"):
            load_params(fresh, tmp_path / "ckpt")
        for k, v in {**fresh.net.params(), **fresh.net.state()}.items():
            assert np.array_equal(v, before[k]), k

    def test_load_refuses_what_is_not_a_checkpoint(self, tmp_path):
        np.save(tmp_path / "x.npy", np.zeros(3))
        (tmp_path / "old").mkdir()
        (tmp_path / "old" / "manifest.json").write_text("{}")
        with zipfile.ZipFile(tmp_path / "notes.docx", "w") as archive:
            archive.writestr("word/document.xml", "<w:document/>")
        model = tiny_setup()[0]
        before = {k: v.copy() for k, v in {**model.net.params(), **model.net.state()}.items()}
        for path in (tmp_path / "x.npy", tmp_path / "old", tmp_path / "notes.docx"):
            with pytest.raises(ValueError, match="holds no checkpoint"):
                load_params(model, path)
        for k, v in {**model.net.params(), **model.net.state()}.items():
            assert np.array_equal(v, before[k]), k

    def test_load_refuses_an_empty_zip_archive(self, tmp_path):
        zipfile.ZipFile(tmp_path / "ckpt", "w").close()
        model = tiny_setup()[0]
        before = {k: v.copy() for k, v in {**model.net.params(), **model.net.state()}.items()}
        with pytest.raises(ValueError, match="holds no checkpoint"):
            load_params(model, tmp_path / "ckpt")
        for k, v in {**model.net.params(), **model.net.state()}.items():
            assert np.array_equal(v, before[k]), k

    @pytest.mark.parametrize("name, dtype", [
        ("fc.bias", np.complex128),
        ("stem.bn.running_mean", np.complex128),
        ("fc.bias", np.bool_),
    ])
    def test_entry_of_no_real_number_dtype_rejected_before_any_write(self, tmp_path, name, dtype):
        _, entries = self._saved(tmp_path)
        entries[name] = entries[name].astype(dtype)
        _rewrite(tmp_path / "ckpt", entries)
        fresh, _, _ = tiny_setup(model_seed=5)
        before = {k: v.copy() for k, v in {**fresh.net.params(), **fresh.net.state()}.items()}
        with pytest.raises(ValueError, match=name):
            load_params(fresh, tmp_path / "ckpt")
        for k, v in {**fresh.net.params(), **fresh.net.state()}.items():
            assert np.array_equal(v, before[k]), k

    def test_load_accepts_integer_entries(self, tmp_path):
        model, entries = self._saved(tmp_path)
        entries["fc.bias"] = np.arange(entries["fc.bias"].size, dtype=np.int64)
        _rewrite(tmp_path / "ckpt", entries)
        load_params(model, tmp_path / "ckpt")
        assert np.array_equal(model.net.params()["fc.bias"], entries["fc.bias"])

    def test_load_accepts_huge_finite_values(self, tmp_path):
        """1e200 squared overflows; the finiteness check must still pass it."""
        model, entries = self._saved(tmp_path)
        entries["fc.bias"][0] = 1e200
        entries["layer2.0.bn3.running_mean"][-1] = -1e200
        _rewrite(tmp_path / "ckpt", entries)
        with np.errstate(all="raise"):
            load_params(model, tmp_path / "ckpt")
        assert np.array_equal(model.net.params()["fc.bias"], entries["fc.bias"])
        assert np.array_equal(model.net.state()["layer2.0.bn3.running_mean"],
                              entries["layer2.0.bn3.running_mean"])

    @pytest.mark.parametrize("name", ["fc.bias", "layer2.0.bn3.running_mean"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_entry_rejected_before_any_write(self, tmp_path, name, value):
        _, entries = self._saved(tmp_path)
        entries[name][0] = value
        _rewrite(tmp_path / "ckpt", entries)
        fresh, _, _ = tiny_setup(model_seed=5)
        before = {k: v.copy() for k, v in {**fresh.net.params(), **fresh.net.state()}.items()}
        with pytest.raises(ValueError, match=name):
            load_params(fresh, tmp_path / "ckpt")
        for k, v in {**fresh.net.params(), **fresh.net.state()}.items():
            assert np.array_equal(v, before[k]), k


def test_divergence_caused_by_non_finite_error():
    model, ds, _ = tiny_setup()
    cfg = TrainConfig(lr=1e12, batch_size=8, epochs=3, seed=3)
    with pytest.raises(TrainingDiverged) as info:
        train(model, ds, cfg)
    assert isinstance(info.value.__cause__, NonFiniteError)


class TestDivergenceReport:
    """TrainingDiverged names the step, the phase, the layer and the last finite loss."""

    def test_nan_parameter_named_in_forward(self):
        model, ds, cfg = tiny_setup()
        name = "layer2.0.bn2.gamma"
        model.net.params()[name][...] = np.nan  # set_param would refuse it
        with pytest.raises(TrainingDiverged) as info:
            train(model, ds, cfg)
        err = info.value
        assert (err.step, err.phase, err.layer, err.last_finite_loss) == (0, "forward", "layer2.0.bn2", None)
        assert isinstance(err.__cause__, NonFiniteError)

    def test_nan_gradient_named_in_backward(self):
        model, ds, cfg = tiny_setup()
        bn = dict(dict(model.net.children())["layer1.0"].children())["bn1"]

        def apply(x, training):
            y, vjp = BatchNormParams.apply(bn, x, training)
            return y, lambda dy: (np.full(x.shape, np.nan), vjp(dy)[1])

        bn.apply = apply
        with pytest.raises(TrainingDiverged) as info:
            train(model, ds, cfg)
        err = info.value
        assert (err.step, err.phase, err.layer) == (0, "backward", "layer1.0.bn1")
        assert np.isfinite(err.last_finite_loss)

    def test_non_finite_loss_from_finite_logits(self):
        """Logits of +-1e308 are finite, so the forward passes them; the loss
        over them is not. The loss phase names no layer and has no cause."""
        model, ds, cfg = tiny_setup()
        model.net.set_param("fc.bias", np.array([1e308, -1e308, 0.0, 0.0]))
        with pytest.raises(TrainingDiverged) as info:
            train(model, ds, cfg)
        err = info.value
        assert (err.step, err.phase, err.layer, err.last_finite_loss) == (0, "loss", None, None)
        assert err.__cause__ is None

    def test_reports_step_and_last_finite_loss(self, monkeypatch):
        losses = []

        def recording(logits, labels, alpha):
            loss, grad = label_smoothed_ce(logits, labels, alpha)
            losses.append(loss)
            return loss, grad

        monkeypatch.setattr(training, "label_smoothed_ce", recording)
        model, ds, _ = tiny_setup()
        with pytest.raises(TrainingDiverged) as info:
            train(model, ds, TrainConfig(lr=1e12, batch_size=8, epochs=3, seed=3))
        err = info.value
        assert (err.step, err.phase) == (len(losses), "forward") and err.step > 0
        assert err.last_finite_loss == losses[-1] and np.isfinite(losses[-1])
        assert err.layer.startswith("layer")

    def test_non_finite_update_rebinds_nothing(self, monkeypatch):
        name = "layer2.0.conv3.weight"

        def poisoned(params, grads, state, cfg, **kwargs):
            new, state = sgd_step(params, grads, state, cfg, **kwargs)
            new[name] = np.full_like(new[name], np.inf)
            return new, state

        monkeypatch.setattr(training, "sgd_step", poisoned)
        model, ds, cfg = tiny_setup()
        before = {k: v.copy() for k, v in model.net.params().items()}
        with pytest.raises(TrainingDiverged) as info:
            train(model, ds, cfg)
        err = info.value
        assert (err.step, err.phase, err.layer) == (0, "update", name)
        assert np.isfinite(err.last_finite_loss)
        assert all(np.array_equal(v, before[k]) for k, v in model.net.params().items())
