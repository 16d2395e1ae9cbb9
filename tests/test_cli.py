"""Command-line surface: flags, exit codes, output files, determinism."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kellyfe import cli, data, losses, trainer

# numpy's words for an allocation the host refuses; the tests raise it instead of asking for the array
REFUSED = "Unable to allocate 1.31 TiB for an array with shape (90000000000, 2) and data type float64"


def _refuse(*args, **kwargs):
    raise MemoryError(REFUSED)


def _generate(tmp_path, name, samples=120, seed=0, label_flip=0.0, capsys=None):
    out = tmp_path / name
    argv = [
        "generate",
        "--classes", "3",
        "--frequencies", "0.6,0.3,0.1",
        "--samples", str(samples),
        "--separation", "4.0",
        "--seed", str(seed),
        "--label-flip", str(label_flip),
        "--out", str(out),
        "--no-timestamp",
    ]
    assert cli.main(argv) == 0
    return out


class TestGenerate:
    def test_counts_line_and_file(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        code = cli.main([
            "generate", "--classes", "3", "--frequencies", "0.9,0.09,0.01",
            "--samples", "1000", "--out", str(out), "--no-timestamp",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert "900,90,10" in lines
        assert out.exists()
        ds = data.load_dataset(out)
        np.testing.assert_array_equal(np.bincount(ds.true_labels), [900, 90, 10])

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--classes", "2", "--frequencies", "0.5,0.5", "--samples", "10"])
        assert exc.value.code == 2

    def test_bad_frequencies_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "generate", "--classes", "2", "--frequencies", "0.5,0.9",
                "--samples", "10", "--out", str(tmp_path / "x.csv"),
            ])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "frequencies, samples, counts",
        [
            ("0.5,0.5", 41, "21,20"),  # a tie goes to the lower class
            ("0.6,0.3,0.1", 60, "36,18,6"),  # float sum 0.9999999999999999
            ("0.8,0.2", 33, "26,7"),
            ("0.7,0.2,0.1", 92, "64,19,9"),  # normalized once instead of twice: 65,18,9
        ],
    )
    def test_counts_for_ties_and_inexact_sums(self, tmp_path, capsys, frequencies, samples, counts):
        code = cli.main([
            "generate", "--classes", str(frequencies.count(",") + 1), "--frequencies", frequencies,
            "--samples", str(samples), "--out", str(tmp_path / "x.csv"), "--no-timestamp",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0] == counts

    @pytest.mark.parametrize(
        "classes, frequencies, message",
        [
            pytest.param(c, f, m, id=f)
            for c, f, m in [
                ("3", "nan,0.5,0.5", "frequencies must be finite"),
                ("3", "0.5,nan,0.5", "frequencies must be finite"),
                ("3", "0.5,0.5", "one per class"),
                ("2", "0,0", "summing to 1"),
                ("2", "a,b", "could not convert string to float"),
            ]
        ],
    )
    def test_nan_frequency_is_one_line_usage_error(self, tmp_path, capsys, classes, frequencies, message):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "generate", "--classes", classes, "--frequencies", frequencies, "--samples", "10",
                "--out", str(out), "--no-timestamp",
            ])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("separation", ["nan", "inf", "-inf"])
    def test_non_finite_separation_is_one_line_usage_error(self, tmp_path, capsys, separation):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "generate", "--classes", "2", "--frequencies", "0.5,0.5", "--samples", "10",
                f"--separation={separation}", "--out", str(out), "--no-timestamp",
            ])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "cluster_separation must be finite" in errors[0]
        assert not out.exists()

    @pytest.mark.parametrize("flip", ["-0.3", "nan", "1.0"])
    def test_bad_label_flip_is_one_line_usage_error(self, tmp_path, capsys, flip):
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([
                "generate", "--classes", "2", "--frequencies", "0.5,0.5", "--samples", "10",
                f"--label-flip={flip}", "--out", str(out), "--no-timestamp",
            ])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "flip_fraction must lie in [0, 1)" in errors[0]
        assert not out.exists()

    def test_label_flip_exact_count(self, tmp_path, capsys):
        out = _generate(tmp_path, "flipped.csv", samples=100, label_flip=0.2)
        ds = data.load_dataset(out)
        assert int((ds.reference_labels != ds.true_labels).sum()) == 20

    def test_unwritable_output_exits_1(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        code = cli.main([
            "generate", "--classes", "2", "--frequencies", "0.5,0.5",
            "--samples", "10", "--out", str(missing_dir), "--no-timestamp",
        ])
        assert code == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--classes", "1", "--frequencies", "1"], "at least 2 classes"),
            (["--classes", "2", "--frequencies", "0.5,0.5", "--features", "1"], "at least 2 features"),
            (["--classes", "3", "--frequencies", "0.5,0.3,0.2", "--samples", "2"], "one sample per class"),
            # counts past numpy's integers; none of them allocates
            (["--classes", "2", "--frequencies", "0.5,0.5", "--samples", str(10**30)], "at most 2**53 samples"),
            (["--classes", "2", "--frequencies", "0.5,0.5", "--samples", str(2**63)], "at most 2**53 samples"),
            (["--classes", "2", "--frequencies", "1,0", "--samples", str(2**63 - 1)], "at most 2**53 samples"),
        ],
    )
    def test_unloadable_dataset_is_usage_error(self, tmp_path, capsys, flags, message):
        out = tmp_path / "bad.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["generate", "--samples", "10", *flags, "--out", str(out), "--no-timestamp"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert "Warning" not in err
        assert not out.exists()

    def test_refused_allocation_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(data, "generate", _refuse)
        out = tmp_path / "x.csv"
        code = cli.main([
            "generate", "--classes", "2", "--frequencies", "0.5,0.5", "--samples", "10",
            "--out", str(out), "--no-timestamp",
        ])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [f"error: out of memory: {REFUSED}"]
        assert not out.exists()

    def test_timestamp_header_togglable(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        cli.main(["generate", "--classes", "2", "--frequencies", "0.5,0.5",
                  "--samples", "10", "--out", str(out)])
        with_ts = capsys.readouterr().out.splitlines()
        assert with_ts[0].startswith("# run ")
        cli.main(["generate", "--classes", "2", "--frequencies", "0.5,0.5",
                  "--samples", "10", "--out", str(out), "--no-timestamp"])
        without_ts = capsys.readouterr().out.splitlines()
        assert not without_ts[0].startswith("# run ")


class TestTrain:
    def _train_args(self, tmp_path, out_name, **over):
        train_csv = _generate(tmp_path, "train.csv", samples=150, seed=1)
        val_csv = _generate(tmp_path, "val.csv", samples=90, seed=2)
        args = [
            "train",
            "--loss", over.get("loss", "efe"),
            "--mode", over.get("mode", "grpr"),
            "--train", str(train_csv),
            "--val", str(val_csv),
            "--out-dir", str(tmp_path / out_name),
            "--max-iterations", "40",
            "--seed", "5",
            "--no-timestamp",
        ]
        if "gamma" in over:
            args += ["--gamma", over["gamma"]]
        return args

    def test_outputs_exist_and_parse(self, tmp_path, capsys):
        assert cli.main(self._train_args(tmp_path, "run")) == 0
        out = tmp_path / "run"
        assert (out / "model.json").exists()
        assert (out / "history.csv").exists()
        assert (out / "metrics.json").exists()
        from kellyfe.network import load_params

        params = load_params(out / "model.json")
        assert params.specs[0].input_width == 2
        history = trainer.read_history(out / "history.csv")
        assert len(history) == 40
        metrics = json.loads((out / "metrics.json").read_text())
        assert len(metrics["precision"]) == 3

    def test_supervised_loss_without_labels_exits_3(self, tmp_path, capsys):
        args = self._train_args(tmp_path, "bad", loss="lovasz", mode="ngnp")
        assert cli.main(args) == 3

    def test_focal_gamma_zero_equals_ce_history(self, tmp_path, capsys):
        args_f = self._train_args(tmp_path, "focal0", loss="focal", gamma="0")
        args_c = self._train_args(tmp_path, "ce", loss="ce")
        assert cli.main(args_f) == 0
        assert cli.main(args_c) == 0
        bytes_f = (tmp_path / "focal0" / "history.csv").read_bytes()
        bytes_c = (tmp_path / "ce" / "history.csv").read_bytes()
        assert bytes_f == bytes_c

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        assert cli.main(self._train_args(tmp_path, "run_a")) == 0
        assert cli.main(self._train_args(tmp_path, "run_b")) == 0
        for name in ("model.json", "history.csv", "metrics.json"):
            assert (tmp_path / "run_a" / name).read_bytes() == (tmp_path / "run_b" / name).read_bytes()

    @pytest.mark.parametrize("loss", list(losses.LOSSES))
    def test_rerun_is_byte_identical_for_every_loss(self, tmp_path, capsys, loss):
        for out_name in ("run_a", "run_b"):
            assert cli.main(self._train_args(tmp_path, out_name, loss=loss, mode="grnp")) == 0
        for name in ("model.json", "history.csv", "metrics.json"):
            assert (tmp_path / "run_a" / name).read_bytes() == (tmp_path / "run_b" / name).read_bytes()

    @pytest.mark.parametrize("flag", ["--patience", "--max-iterations", "--batch-size"])
    def test_zero_flag_is_one_line_usage_error(self, tmp_path, capsys, flag):
        args = self._train_args(tmp_path, "zero")
        if flag in args:
            args[args.index(flag) + 1] = "0"
        else:
            args += [flag, "0"]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "must be >= 1" in errors[0]

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("label", "label outside 0..2"),
            ("huge_label", "label outside 0..2"),
            ("huge_true_label", "true_label outside 0..2"),
            ("ragged", "expected 7 fields, got 6"),
            ("nan_feature", "non-finite feature"),
            ("inf_prior", "non-finite prior"),
            ("negative_prior", "prior outside [0, 1]"),
            ("long_field", "field larger than field limit (131072)"),
        ],
    )
    def test_malformed_dataset_is_one_line_usage_error(self, tmp_path, capsys, defect, message):
        args = self._train_args(tmp_path, "malformed")
        train_csv = tmp_path / "train.csv"
        lines = train_csv.read_text().splitlines()
        cells = lines[5].split(",")  # line 6; columns f0,f1,label,true_label,prior_0..2
        if defect == "label":
            cells[2] = "3"
        elif defect == "huge_label":
            cells[2] = "100000000000000000000"
        elif defect == "huge_true_label":
            cells[3] = "-100000000000000000000"
        elif defect == "ragged":
            cells.pop()
        elif defect == "nan_feature":
            cells[0] = "nan"
        elif defect == "negative_prior":
            cells[-1] = "-5"
        elif defect == "long_field":
            cells[0] = "1" * 131073
        else:
            cells[-1] = "inf"
        lines[5] = ",".join(cells)
        train_csv.write_text("\n".join(lines) + "\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"{train_csv}:6: {message}" in errors[0]
        assert not (tmp_path / "malformed").exists()

    def test_non_utf8_dataset_is_one_line_usage_error(self, tmp_path, capsys):
        args = self._train_args(tmp_path, "malformed")
        train_csv = tmp_path / "train.csv"
        lines = train_csv.read_bytes().splitlines()
        lines[5] = b"\xff" + lines[5]
        train_csv.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"{train_csv}: not UTF-8 text" in errors[0]
        assert not (tmp_path / "malformed").exists()

    def test_mismatched_class_counts_are_one_line_usage_error(self, tmp_path, capsys):
        args = self._train_args(tmp_path, "mismatched")
        val_csv = tmp_path / "val2.csv"
        assert cli.main([
            "generate", "--classes", "2", "--frequencies", "0.5,0.5", "--samples", "40",
            "--out", str(val_csv), "--no-timestamp",
        ]) == 0
        args[args.index("--val") + 1] = str(val_csv)
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert len(errors) == 1 and "3 classes" in errors[0] and "and 2" in errors[0]

    def test_missing_dataset_is_usage_error(self, tmp_path):
        args = [
            "train", "--loss", "ce", "--mode", "grnp",
            "--train", str(tmp_path / "nope.csv"), "--val", str(tmp_path / "nope.csv"),
            "--out-dir", str(tmp_path / "o"),
        ]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2

    def test_unwritable_out_dir_exits_1(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        args = self._train_args(tmp_path, "unused")
        args[args.index("--out-dir") + 1] = str(blocker / "nested")
        assert cli.main(args) == 1

    def test_non_finite_run_exits_1_with_one_error_line(self, tmp_path, capsys):
        args = self._train_args(tmp_path, "diverged")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha_lr": 1e300}))
        assert cli.main(args + ["--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert lines[-1] == "error: the validation pass went non-finite at iteration 1"
        assert sum("error:" in line for line in lines) == 1
        assert not (tmp_path / "diverged").exists()

    def test_refused_allocation_exits_1_with_one_error_line(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(trainer, "init_he", _refuse)
        assert cli.main(self._train_args(tmp_path, "refused")) == 1
        assert capsys.readouterr().err.splitlines() == [f"error: out of memory: {REFUSED}"]
        assert not (tmp_path / "refused").exists()

    def test_hidden_width_past_numpy_limit_exits_1_with_one_error_line(self, tmp_path, capsys):
        # numpy refuses this parameter vector's size before it allocates anything
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"hidden_widths": [2**62]}))
        assert cli.main(self._train_args(tmp_path, "huge") + ["--config", str(cfg)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: out of memory: {6 * 2**62 + 5} parameters: ")
        assert not (tmp_path / "huge").exists()

    @pytest.mark.parametrize(
        "flags, doc, message",
        [
            (["--gamma", "-1"], {}, "gamma_mod"),
            (["--gamma", "nan"], {}, "gamma_mod"),
            ([], {"class_weights": [1, 0, 1]}, "class_weights"),
            ([], {"class_weights": [1, 2]}, "class_weights has 2 entries for 3 classes"),
            (["--seed", "-1"], {}, "seed must be >= 0"),
            ([], {"seed": -1}, "seed must be >= 0"),
            ([], {"alpha_lr": True}, "invalid config: alpha_lr must be a number"),
            ([], {"gamma_mod": "2"}, "invalid config: gamma_mod must be a number"),
            ([], {"class_weights": ["2", True, 1]}, "invalid config: class_weights must be a number"),
            ([], {"class_weights": [2, True, 1]}, "invalid config: class_weights must be a number"),
            ([], {"train": 5, "val": "val.csv", "out_dir": "o"}, "config key 'train' must be a path string"),
            ([], {"val": ["a"]}, "config key 'val' must be a path string"),
            ([], {"out_dir": 3}, "config key 'out_dir' must be a path string"),
            ([], {"hidden_widths": 5}, "invalid config: hidden_widths must be a list of numbers"),
            ([], {"class_weights": 5}, "invalid config: class_weights must be a list of numbers"),
        ],
    )
    def test_bad_numeric_input_is_one_line_usage_error(self, tmp_path, capsys, flags, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        args = self._train_args(tmp_path, "bad", loss="wfocal", mode="grnp") + flags + ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"batch_size": 1.5}, "batch_size must be an integer"),
            ({"seed": 1.5}, "seed must be an integer"),
            ({"seed": True}, "seed must be an integer"),
            ({"patience": 2.5}, "patience must be an integer"),
            ({"max_iterations": 3.5}, "max_iterations must be an integer"),
            ({"hidden_widths": [2.7]}, "hidden_widths must be integers"),
        ],
    )
    def test_non_integer_config_count_is_one_line_usage_error(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        args = self._train_args(tmp_path, "bad", loss="wfocal", mode="grnp") + ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"invalid config: {message}" in errors[0]
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"beta_fm": 1.5}, "beta_fm must lie in [0, 1)"),
            ({"beta_sm": -0.1}, "beta_sm must lie in [0, 1)"),
            ({"alpha_lr": float("inf")}, "alpha_lr must be finite and > 0"),
        ],
    )
    def test_bad_adam_config_is_one_line_usage_error(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        args = self._train_args(tmp_path, "bad", loss="ce", mode="grnp") + ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"invalid config: {message}" in errors[0]
        assert not (tmp_path / "bad").exists()

    def test_non_utf8_config_is_one_line_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"loss": "\xff"}')
        args = self._train_args(tmp_path, "bad", loss="ce", mode="grnp") + ["--config", str(cfg)]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and f"cannot read config {cfg}" in errors[0]
        assert not (tmp_path / "bad").exists()

    def test_config_file_with_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"loss": "ce", "turbo": True}))
        args = ["train", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2

    def test_config_file_supplies_paths_and_fields(self, tmp_path, capsys):
        train_csv = _generate(tmp_path, "train.csv", samples=120, seed=3)
        val_csv = _generate(tmp_path, "val.csv", samples=60, seed=4)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "loss": "wce",
            "mode": "grnp",
            "max_iterations": 15,
            "seed": 9,
            "train": str(train_csv),
            "val": str(val_csv),
            "out_dir": str(tmp_path / "from_config"),
        }))
        assert cli.main(["train", "--config", str(cfg), "--no-timestamp"]) == 0
        history = trainer.read_history(tmp_path / "from_config" / "history.csv")
        assert len(history) == 15


class TestVerify:
    def test_small_suites_pass(self, capsys):
        assert cli.main(["verify", "--suite", "kelly", "--trials", "30", "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "PASS kelly-closed-form-vs-grid" in out
        assert "FAIL" not in out

    def test_lovasz_suite(self, capsys):
        assert cli.main(["verify", "--suite", "lovasz", "--trials", "50", "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "PASS lovasz-vertex-agreement" in out

    def test_gradients_suite(self, capsys):
        assert cli.main(["verify", "--suite", "gradients", "--trials", "6", "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "PASS gradient-efe" in out

    def test_gradients_suite_seed_44_passes(self, capsys):
        # instance 87 first draws a pre-activation of 6.8e-8, which the
        # 1e-6 finite-difference step crosses; its features are redrawn
        assert cli.main(["verify", "--suite", "gradients", "--seed", "44", "--no-timestamp"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "9/9 properties passed" in out

    def test_gradient_instances_keep_kinks_out_of_reach(self):
        from kellyfe.verify import _gradient_instance

        h = 1e-6
        redrawn = 0
        for i in range(100):
            k, n = (2, 3, 4)[i % 3], (1, 2, 8)[(i // 3) % 3]
            rng = np.random.default_rng(np.random.SeedSequence([44, 77, i]))
            _, params, features, _, _ = _gradient_instance(rng, k, n, h)
            first = params.layers[0]
            z = features @ first.weights.T + first.biases
            assert np.abs(z).min() > 2.0 * h * max(1.0, np.abs(features).max())
            # without the rule the features are the draw after the init seed
            rng = np.random.default_rng(np.random.SeedSequence([44, 77, i]))
            rng.integers(2**31)
            redrawn += features.tobytes() != rng.standard_normal((n, 3)).tobytes()
        assert redrawn == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--seed", "-1"], "--seed must be >= 0"),
            (["--suite", "kelly", "--trials", "-3"], "--trials must be >= 1"),
            (["--suite", "kelly", "--trials", "0"], "--trials must be >= 1"),
        ],
    )
    def test_bad_seed_or_trials_is_one_line_usage_error(self, capsys, flags, message):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", *flags, "--no-timestamp"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        errors = [line for line in captured.err.splitlines() if "error:" in line]
        assert len(errors) == 1 and message in errors[0]

    def test_unknown_suite_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "everything"])
        assert exc.value.code == 2

    def test_property_failure_exits_1(self, capsys, monkeypatch):
        from kellyfe import verify
        from kellyfe.verify import PropertyResult

        broken = [PropertyResult("forced-failure", False, 1.0, 0.0)]
        monkeypatch.setitem(verify.SUITES, "kelly", lambda seed, trials: broken)
        assert cli.main(["verify", "--suite", "kelly", "--no-timestamp"]) == 1
        assert "FAIL forced-failure" in capsys.readouterr().out


# a config document is valid fragments of TrainConfig fields overwritten by up to two _ANY values,
# under field names or an unknown key; the hidden widths stay small, as a wide layer is an allocation
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
_FIELDS = {
    "loss": st.sampled_from(trainer.LOSS_NAMES),
    "mode": st.sampled_from(trainer.MODE_NAMES),  # some pairs are incompatible
    "hidden_widths": st.lists(st.integers(1, 8), max_size=3),
    "dropout_retention": st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    "gamma_mod": st.floats(min_value=0.0, allow_infinity=False),
    "class_weights": st.none() | st.lists(_POSITIVE, min_size=3, max_size=3),
    "alpha_lr": _POSITIVE,
    "beta_fm": _UNIT,
    "beta_sm": _UNIT,
    "batch_size": st.integers(1, 2**70),
    "max_iterations": st.integers(1, 2**70),
    "patience": st.integers(1, 2**70),
    "ema_decay": _UNIT,
    "seed": st.integers(0, 2**70),
}
_ANY = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(),  # NaN, infinities and huge magnitudes included
    st.text(max_size=4),
    st.lists(st.integers(-1, 8) | st.floats(), max_size=4),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)
_DOCUMENTS = st.builds(
    lambda valid, bad: {**valid, **bad},
    st.fixed_dictionaries({}, optional=_FIELDS),
    st.dictionaries(st.sampled_from([*_FIELDS, "turbo"]), _ANY, max_size=2),
)


@pytest.fixture(scope="module")
def tiny_csv(tmp_path_factory):
    return _generate(tmp_path_factory.mktemp("fuzz"), "tiny.csv", samples=40)


def test_fuzz_fragments_cover_every_config_field():
    assert set(_FIELDS) == {f.name for f in fields(trainer.TrainConfig)}


@settings(max_examples=150, deadline=None, derandomize=True)
@given(doc=_DOCUMENTS)
def test_fuzzed_config_exits_with_a_documented_code(tiny_csv, doc):
    config = tiny_csv.parent / "config.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    argv = [
        "train", "--train", str(tiny_csv), "--val", str(tiny_csv), "--out-dir", str(tiny_csv.parent / "out"),
        "--config", str(config), "--max-iterations", "2", "--no-timestamp",
    ]
    try:
        assert cli.main(argv) in (0, 1, 2, 3)
    except SystemExit as exc:
        assert exc.code == 2
