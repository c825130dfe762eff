import concurrent.futures
import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cardiotox import cli as cli_module
from cardiotox import pipeline as pipeline_module
from cardiotox.cli import main
from cardiotox.learners import ForestModel, KernelSpec, SvmModel, mlp_init, svm_fit
from cardiotox.persistence import save_bundle
from cardiotox.pipeline import PreprocessChain, Stage, ToxTreePipeline
from cardiotox.preprocess import ScalerParams

from conftest import MALFORMED_TREE_EDITS, identity_chain, packed_ints, resigned, unpacked_ints


def write_activities(path, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["compound_key", "smiles", "value", "kind", "unit", "cell_line", "reference_ordinal"])
        writer.writerows(rows)


def write_descriptors(path, keys, matrix, names):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Name", *names])
        for key, row in zip(keys, matrix):
            writer.writerow([key, *("" if np.isnan(v) else repr(float(v)) for v in row)])


def write_compounds(path, keys, pic50s):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["compound_key", "smiles", "pic50"])
        for key, p in zip(keys, pic50s):
            writer.writerow([key, "C", repr(float(p))])


def synthetic_problem(rng, per_class=25):
    """PIC50 buckets with clear gaps; feature f0 tracks PIC50, f1/f2 are noise."""
    buckets = [(6.2, 7.5), (5.1, 5.9), (4.55, 4.95), (3.0, 4.4)]
    pic50 = np.concatenate([rng.uniform(lo, hi, per_class) for lo, hi in buckets])
    order = rng.permutation(len(pic50))
    pic50 = pic50[order]
    f0 = pic50 + rng.normal(scale=0.02, size=len(pic50))
    noise = rng.normal(size=(len(pic50), 2))
    matrix = np.column_stack([f0, noise])
    keys = [f"c{i}" for i in range(len(pic50))]
    return keys, matrix, pic50


def stump_stage_model(threshold):
    """Single depth-1 tree: blocker (class 0) iff feature 0 > threshold."""
    tree = ([0, -1, -1], [threshold], [[0, 1], [1, 0]])
    return ForestModel.from_trees([tree], n_features=1, n_classes=2)


def class_code_pipeline():
    """Pipeline reading a class code in f0: 3=strong, 2=moderate, 1=weak, 0=non."""
    stages = [
        Stage(6.0, ["6stub"], [stump_stage_model(2.5)]),
        Stage(5.0, ["5stub"], [stump_stage_model(1.5)]),
        Stage(4.5, ["4o5stub"], [stump_stage_model(0.5)]),
    ]
    return ToxTreePipeline(identity_chain(), stages)


class TestCurate:
    def test_curation_outputs(self, tmp_path, capsys):
        activities = tmp_path / "activities.csv"
        write_activities(
            activities,
            [
                ["dup", "CCO", "1", "IC50", "uM", "", ""],
                ["dup", "CCO", "1.5", "IC50", "uM", "", ""],
                ["wide", "CCN", "1", "IC50", "uM", "", ""],
                ["wide", "CCN", "100", "IC50", "uM", "", ""],
                ["single", "CCC", "10", "IC50", "uM", "", ""],
                ["kionly", "CCS", "10", "Ki", "uM", "", ""],
            ],
        )
        code = main(["curate", "--activities", str(activities), "--out", str(tmp_path / "out")])
        assert code == 0
        report = (tmp_path / "out" / "curation_report.txt").read_text()
        actions = dict(line.split("\t")[:2] for line in report.splitlines())
        assert actions == {"dup": "merged", "wide": "discarded", "single": "kept", "kionly": "discarded"}
        with open(tmp_path / "out" / "compounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["compound_key"] for r in rows} == {"dup", "single"}

    def test_empty_activities_file(self, tmp_path, capsys):
        activities = tmp_path / "activities.csv"
        write_activities(activities, [])
        code = main(["curate", "--activities", str(activities), "--out", str(tmp_path)])
        assert code == 2
        assert "no activity records" in capsys.readouterr().err

    def test_unique_input_passthrough_count(self, tmp_path):
        activities = tmp_path / "activities.csv"
        write_activities(activities, [[f"c{i}", "C", "1", "IC50", "uM", "", ""] for i in range(5)])
        assert main(["curate", "--activities", str(activities), "--out", str(tmp_path / "o")]) == 0
        with open(tmp_path / "o" / "compounds.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 5

    def test_key_overrides_merge_aliases(self, tmp_path):
        activities = tmp_path / "activities.csv"
        write_activities(
            activities,
            [["cid7", "CCO", "1", "IC50", "uM", "", ""], ["alias-of-7", "CCO", "1.5", "IC50", "uM", "", ""]],
        )
        overrides = tmp_path / "overrides.tsv"
        overrides.write_text("alias-of-7\tcid7\n")
        code = main(
            ["curate", "--activities", str(activities), "--key-overrides", str(overrides),
             "--out", str(tmp_path / "o")]
        )
        assert code == 0
        with open(tmp_path / "o" / "compounds.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["compound_key"] for r in rows] == ["cid7"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One quick hERG training run shared by the predict/evaluate tests."""
    rng = np.random.default_rng(7)
    root = tmp_path_factory.mktemp("train")
    keys, matrix, pic50 = synthetic_problem(rng)
    descriptors = root / "descriptors.csv"
    compounds = root / "compounds.csv"
    write_descriptors(descriptors, keys, matrix, ["f0", "f1", "f2"])
    write_compounds(compounds, keys, pic50)
    out = root / "run"
    code = main(
        [
            "train", "--descriptors", str(descriptors), "--compounds", str(compounds),
            "--target", "herg", "--grid", "quick", "--folds", "3",
            "--seed", "11", "--out", str(out),
        ]
    )
    assert code == 0
    bundle = out / "herg-toxtree.toxtree.json"
    assert bundle.exists()
    return {"root": root, "bundle": bundle, "descriptors": descriptors,
            "compounds": compounds, "keys": keys, "pic50": pic50, "out": out}


class TestTrain:
    def test_cv_report_parseable(self, trained):
        with open(trained["out"] / "cv_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        assert {r["threshold"] for r in rows} == {"6", "5", "4.5"}
        for row in rows:
            float(row["ac_cv"])
            assert row["stage"]

    def test_seed_repeat_identical_bundle_bytes(self, trained, tmp_path):
        out2 = tmp_path / "again"
        code = main(
            [
                "train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--target", "herg", "--grid", "quick", "--folds", "3",
                "--seed", "11", "--out", str(out2),
            ]
        )
        assert code == 0
        assert (out2 / "herg-toxtree.toxtree.json").read_bytes() == trained["bundle"].read_bytes()

    def test_missing_whitelist_feature_named(self, trained, tmp_path, capsys):
        whitelist = tmp_path / "wl.txt"
        whitelist.write_text("f0\nghost_feature\n")
        code = main(
            [
                "train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--whitelist", str(whitelist), "--grid", "quick", "--folds", "2",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 2
        assert "ghost_feature" in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["herg", "nav15"])
    @pytest.mark.parametrize("source", ["comment-only-whitelist", "key-only-header"])
    def test_no_feature_columns_exits_2(self, trained, tmp_path, capsys, target, source):
        descriptors = trained["descriptors"]
        args = []
        if source == "comment-only-whitelist":
            whitelist = tmp_path / "wl.txt"
            whitelist.write_text("# no features\n\n")
            args = ["--whitelist", str(whitelist)]
        else:
            descriptors = tmp_path / "keys.csv"
            write_descriptors(descriptors, trained["keys"], np.empty((len(trained["keys"]), 0)), [])
        code = main(
            [
                "train", "--descriptors", str(descriptors), "--compounds", str(trained["compounds"]),
                "--target", target, "--grid", "quick", "--folds", "2", "--out", str(tmp_path / "o"), *args,
            ]
        )
        assert code == 2
        assert "error: training rows have no feature columns" in capsys.readouterr().err
        assert not (tmp_path / "o" / "cv_report.csv").exists()

    def test_nav_target_trains_with_pca(self, trained, tmp_path, capsys):
        out = tmp_path / "nav"
        code = main(
            [
                "train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--target", "nav15", "--grid", "quick", "--folds", "2",
                "--seed", "3", "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "nav15-toxtree.toxtree.json").exists()
        assert "PCA keeps" in capsys.readouterr().out

    def test_resample_flag_builds_plain_stages(self, trained, tmp_path):
        out = tmp_path / "res"
        code = main(
            [
                "train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--target", "herg", "--grid", "quick", "--folds", "2", "--resample", "under",
                "--out", str(out), "--seed", "5",
            ]
        )
        assert code == 0
        with open(out / "cv_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["sampling"] for r in rows} == {"under"}

    def test_config_file_with_flag_override(self, trained, tmp_path):
        config = tmp_path / "run.cfg"
        out = tmp_path / "cfgout"
        config.write_text(f"grid=quick\nfolds=3\nseed=11\ntarget=herg\nout={out}\n")
        code = main(
            [
                "train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--config", str(config),
            ]
        )
        assert code == 0
        assert (out / "herg-toxtree.toxtree.json").read_bytes() == trained["bundle"].read_bytes()

    def test_thread_count_does_not_change_bundle(self, trained, tmp_path):
        out = tmp_path / "threads"
        code = main(
            [
                "train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--target", "herg", "--grid", "quick", "--folds", "3",
                "--seed", "11", "--threads", "4", "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "herg-toxtree.toxtree.json").read_bytes() == trained["bundle"].read_bytes()

    @pytest.mark.parametrize("key, value", [("grid", "full"), ("target", "mouse"), ("resample", "sideways")])
    def test_config_value_outside_flag_choices_exits_1(self, trained, tmp_path, capsys, key, value):
        config = tmp_path / "run.cfg"
        config.write_text(f"folds=3\n{key}={value}\n")
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                     "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"error: config {key}: invalid choice '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "herg-toxtree.toxtree.json").exists()

    @pytest.mark.parametrize("line, message", [
        ("folds = x", "config argument --folds: invalid int value: 'x'"),
        ("thresholds = 6,7", "config argument --thresholds: thresholds must come from {6, 5, 4.5}"),
    ])
    def test_config_value_failing_its_flag_type_exits_1(self, trained, tmp_path, capsys, line, message):
        config = tmp_path / "run.cfg"
        config.write_text(f"{line}\n")
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                     "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_config_file_with_a_byte_order_mark(self, trained, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("thresholds=6\ngrid=quick\nfolds=2\n", encoding="utf-8-sig")
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                     "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 0
        assert (tmp_path / "o" / "cv_report.csv").read_text().count("\n") == 3  # header + 2 quick configs

    def test_unknown_config_key_exits_1(self, trained, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("grid=quick\nfold=3\n")
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                     "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: config line 2: unknown key 'fold'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "herg-toxtree.toxtree.json").exists()

    def test_config_key_set_twice_exits_1(self, trained, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("folds=3\ngrid=quick\n# again\nfolds = 2\n")
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                     "--config", str(config), "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error: config line 4: duplicate key 'folds' (first on line 1)" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("resample", ["original", "over", "under"])
    def test_cv_report_counts_the_resampled_stage_set(self, trained, tmp_path, resample):
        out = tmp_path / "o"
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                     "--grid", "quick", "--folds", "2", "--resample", resample, "--out", str(out)])
        assert code == 0
        with open(out / "cv_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        pic50 = np.asarray(trained["pic50"])
        for row in rows:
            blk = int(np.sum(pic50 >= float(row["threshold"])))
            raw = (blk, len(pic50) - blk)
            expected = {"original": raw, "over": (max(raw),) * 2, "under": (min(raw),) * 2}[resample]
            assert (int(row["blk"]), int(row["nblk"])) == expected
        assert {r["threshold"] for r in rows} == {"6", "5", "4.5"}

    def test_config_file_reread_by_each_call(self, trained, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        argv = ["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--config", str(config), "--out", str(tmp_path / "o")]
        config.write_text("folds=3\ngrid = full\n")
        assert main(argv) == 1
        assert "error: config grid: invalid choice 'full'" in capsys.readouterr().err
        config.write_text("folds=3\ngrid = quick\ntarget = mouse\n")
        assert main(argv) == 1
        assert "error: config target: invalid choice 'mouse'" in capsys.readouterr().err

    def test_flag_overrides_invalid_config_value(self, trained, tmp_path):
        # A config value that a flag overrides is never read, so it is never checked either.
        config = tmp_path / "run.cfg"
        config.write_text("grid = full\n")
        out = tmp_path / "o"
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                     "--target", "herg", "--grid", "quick", "--folds", "3", "--seed", "11",
                     "--config", str(config), "--out", str(out)])
        assert code == 0
        assert (out / "herg-toxtree.toxtree.json").read_bytes() == trained["bundle"].read_bytes()

    @pytest.mark.parametrize("failure", ["seed-flag", "config-choice"])
    def test_usage_error_leaves_no_out_directory(self, trained, tmp_path, capsys, failure):
        out = tmp_path / "d"
        argv = ["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--out", str(out)]
        if failure == "seed-flag":
            argv += ["--seed", "-1"]
        else:
            (tmp_path / "run.cfg").write_text("grid = full\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 1
        assert not out.exists()

    def test_duplicate_compound_key_exits_2(self, trained, tmp_path, capsys):
        compounds = tmp_path / "c.csv"
        write_compounds(compounds, [*trained["keys"], "c0"], [*trained["pic50"], 3.0])
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(compounds),
                     "--grid", "quick", "--folds", "3", "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"line {len(trained['keys']) + 2}: duplicate compound key 'c0'" in capsys.readouterr().err
        assert not (tmp_path / "o" / "herg-toxtree.toxtree.json").exists()

    def test_fold_warnings_are_noted(self, tmp_path, capsys):
        keys, matrix, pic50 = synthetic_problem(np.random.default_rng(3), per_class=15)
        write_descriptors(tmp_path / "d.csv", keys, matrix, ["f0", "f1", "f2"])
        write_compounds(tmp_path / "c.csv", keys, pic50)
        code = main(["train", "--descriptors", str(tmp_path / "d.csv"), "--compounds", str(tmp_path / "c.csv"),
                     "--grid", "quick", "--thresholds", "6", "--folds", "20", "--out", str(tmp_path / "o")])
        assert code == 0
        err = capsys.readouterr().err
        assert "note: stage 6rf-ovrs: class 'blocker' has 15 samples, fewer than k=20 folds" in err

    def test_fold_too_small_to_resample_names_stage_and_fold(self, tmp_path, capsys):
        # Two blockers at PIC50 6 over 3 folds: some fold trains on one, which SMOTE cannot over-sample.
        keys, matrix, pic50 = synthetic_problem(np.random.default_rng(3), per_class=10)
        keep = np.concatenate([np.flatnonzero(pic50 >= 6.0)[:2], np.flatnonzero(pic50 < 6.0)])
        write_descriptors(tmp_path / "d.csv", [keys[i] for i in keep], matrix[keep], ["f0", "f1", "f2"])
        write_compounds(tmp_path / "c.csv", [keys[i] for i in keep], pic50[keep])
        code = main(["train", "--descriptors", str(tmp_path / "d.csv"), "--compounds", str(tmp_path / "c.csv"),
                     "--target", "herg", "--grid", "quick", "--folds", "3", "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: stage 6rf-ovrs: CV fold ")
        assert " of 3: cannot resample its training rows: minority class too small for SMOTE (1 row, needs 2)" in err
        assert "class 'blocker' has 2 samples, fewer than k=3 folds" in err
        assert not (tmp_path / "o").exists()

    def test_usage_error_exit_code(self, capsys):
        assert main(["train", "--descriptors", "x.csv"]) == 1  # missing --compounds

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_is_usage_error(self, trained, tmp_path, monkeypatch, capsys, threads):
        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        # The grower imports the pool only when it starts one.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        code = main(
            [
                "train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--target", "herg", "--grid", "quick", "--folds", "3", "--threads", threads,
                "--out", str(tmp_path),
            ]
        )
        assert code == 1
        assert "--threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "herg-toxtree.toxtree.json").exists()

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("folds", "1", "--folds must be at least 2, got 1"),
            ("seed", "-1", "--seed must be at least 0, got -1"),
            ("pca-energy", "1.5", "--pca-energy must be in (0, 1], got 1.5"),
            ("pca-energy", "nan", "--pca-energy must be in (0, 1], got nan"),
            ("pca-energy", "0", "--pca-energy must be in (0, 1], got 0.0"),
        ],
    )
    def test_bad_folds_or_pca_energy_is_usage_error(self, tmp_path, capsys, source, flag, value, message):
        # The input files do not exist, so only a check made before reading them exits 1.
        argv = ["train", "--descriptors", str(tmp_path / "d.csv"), "--compounds", str(tmp_path / "c.csv"),
                "--target", "nav15", "--out", str(tmp_path / "o")]
        if source == "flag":
            argv += [f"--{flag}", value]
        else:
            (tmp_path / "run.cfg").write_text(f"{flag}={value}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        assert main(argv) == 1
        assert f"error: {message}" in capsys.readouterr().err


def unconverged_svm_fit(kind, c):
    """svm_fit that reports converged=False for one (kernel, C) config."""

    def fit(x, y, kernel, c_value):
        model = svm_fit(x, y, kernel, c_value)
        return replace(model, converged=False) if (kernel.kind, c_value) == (kind, c) else model

    return fit


class TestConvergenceReport:
    def nav_train(self, trained, out):
        return main(
            [
                "train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                "--target", "nav15", "--grid", "quick", "--folds", "2", "--seed", "3", "--out", str(out),
            ]
        )

    def test_cv_report_marks_and_demotes_unconverged_config(self, trained, tmp_path, monkeypatch):
        monkeypatch.setattr(pipeline_module, "svm_fit", unconverged_svm_fit("linear", 1.0))
        assert self.nav_train(trained, tmp_path) == 0
        with open(tmp_path / "cv_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        stages = {r["stage"] for r in rows}
        assert stages == {"6svm", "5svm-ovrs", "4o5svm"}
        for stage in stages:
            ranked = [r for r in rows if r["stage"] == stage]
            assert [r["converged"] for r in ranked] == ["true", "true", "false"]
            assert ranked[-1]["config"] == "svm(linear,C=1)"

    def test_cv_report_converged_empty_for_forests(self, trained):
        with open(trained["out"] / "cv_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and {r["converged"] for r in rows} == {""}

    def test_unconverged_final_stage_warns(self, trained, tmp_path, monkeypatch, capsys):
        # Only the final fits, which cmd_train makes, come back unconverged; tuning's fits do not.
        fit = cli_module.fit_config
        monkeypatch.setattr(cli_module, "fit_config", lambda *args: replace(fit(*args), converged=False))
        assert self.nav_train(trained, tmp_path) == 0
        err = capsys.readouterr().err
        for stage in ("6svm", "5svm-ovrs", "4o5svm"):
            assert f"warning: stage {stage} SVM svm(" in err
        assert err.count("did not converge") == 3

    def test_converged_final_stages_do_not_warn(self, trained, tmp_path, capsys):
        assert self.nav_train(trained, tmp_path) == 0
        assert "did not converge" not in capsys.readouterr().err


class TestPredict:
    def test_predictions_match_truths(self, trained, tmp_path):
        out = tmp_path / "pred"
        code = main(
            ["predict", "--bundle", str(trained["bundle"]), "--descriptors", str(trained["descriptors"]),
             "--out", str(out)]
        )
        assert code == 0
        with open(out / "predictions.csv") as fh:
            rows = {r["compound_key"]: r for r in csv.DictReader(fh)}
        from cardiotox.dataset import assign_class

        expected = {
            "strong": "strong-blocker", "moderate": "moderate-blocker",
            "weak": "weak-blocker", "non": "non-blocker",
        }
        hits = sum(
            rows[k]["outcome"] == expected[assign_class(p).name.lower()]
            for k, p in zip(trained["keys"], trained["pic50"])
        )
        assert hits / len(trained["keys"]) >= 0.95
        assert all(r["deciding_stage"] for r in rows.values())

    @pytest.mark.parametrize(
        "command, flag",
        [
            pytest.param("predict", "--threads", id="predict"),
            pytest.param("evaluate", "--threads", id="evaluate"),
            pytest.param("curate", "--threads", id="curate"),
            pytest.param("predict", "--seed", id="predict-seed"),
            pytest.param("evaluate", "--seed", id="evaluate-seed"),
            pytest.param("curate", "--seed", id="curate-seed"),
        ],
    )
    def test_threads_flag_is_train_only(self, trained, tmp_path, capsys, command, flag):
        inputs = {
            "predict": ["--bundle", str(trained["bundle"]), "--descriptors", str(trained["descriptors"])],
            "evaluate": ["--bundle", str(trained["bundle"]), "--descriptors", str(trained["descriptors"]),
                         "--compounds", str(trained["compounds"])],
            "curate": ["--activities", str(tmp_path / "unused.csv")],
        }[command]
        code = main([command, *inputs, flag, "1", "--out", str(tmp_path)])
        assert code == 1
        assert flag in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_keys_keep_one_row_each(self, tmp_path):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        write_descriptors(tmp_path / "d.csv", ["a", "a", "b"], np.array([[3.0], [0.0], [2.0]]), ["f0"])
        out = tmp_path / "o"
        code = main(["predict", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     "--out", str(out)])
        assert code == 0
        with open(out / "predictions.csv") as fh:
            rows = [(r["compound_key"], r["outcome"]) for r in csv.DictReader(fh)]
        assert rows == [("a", "strong-blocker"), ("a", "non-blocker"), ("b", "moderate-blocker")]

    @pytest.mark.parametrize("broken", ["bundle-is-a-directory", "out-is-a-file"])
    def test_file_system_error_exits_2(self, trained, tmp_path, capsys, broken):
        bundle, out = trained["bundle"], tmp_path / "o"
        if broken == "bundle-is-a-directory":
            bundle = tmp_path
        else:
            out.write_text("not a directory\n")
        code = main(["predict", "--bundle", str(bundle), "--descriptors", str(trained["descriptors"]),
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_unreadable_bundle_leaves_no_out_directory(self, trained, tmp_path):
        out = tmp_path / "d"
        code = main(["predict", "--bundle", str(tmp_path), "--descriptors", str(trained["descriptors"]),
                     "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_empty_descriptor_file(self, trained, tmp_path):
        desc = tmp_path / "empty.csv"
        desc.write_text("Name,f0,f1,f2\n")
        out = tmp_path / "o"
        code = main(["predict", "--bundle", str(trained["bundle"]), "--descriptors", str(desc), "--out", str(out)])
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert lines == ["compound_key,outcome,deciding_stage,stage_probability"]

    def test_missing_feature_cell_gives_error_row(self, trained, tmp_path):
        desc = tmp_path / "holey.csv"
        desc.write_text("Name,f0,f1,f2\nok,6.5,0,0\nbad,,0,0\n")
        out = tmp_path / "o"
        code = main(["predict", "--bundle", str(trained["bundle"]), "--descriptors", str(desc), "--out", str(out)])
        assert code == 2
        with open(out / "predictions.csv") as fh:
            rows = {r["compound_key"]: r for r in csv.DictReader(fh)}
        assert rows["ok"]["outcome"] == "strong-blocker"
        assert rows["bad"]["outcome"].startswith("error:")
        assert "f0" in rows["bad"]["outcome"]

    def test_missing_feature_column_gives_error_rows(self, trained, tmp_path, capsys):
        desc = tmp_path / "no-f1.csv"
        desc.write_text("Name,f0,f2\na,6.5,0\nb,3.0,0\n")
        out = tmp_path / "o"
        code = main(["predict", "--bundle", str(trained["bundle"]), "--descriptors", str(desc), "--out", str(out)])
        assert code == 2
        with open(out / "predictions.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["compound_key"], r["outcome"]) for r in rows] == [
            ("a", "error: missing feature 'f1'"), ("b", "error: missing feature 'f1'")]
        write_compounds(tmp_path / "c.csv", ["a", "b"], [6.5, 3.0])
        code = main(["evaluate", "--bundle", str(trained["bundle"]), "--descriptors", str(desc),
                     "--compounds", str(tmp_path / "c.csv"), "--out", str(tmp_path / "e")])
        assert code == 2
        assert "error: missing feature 'f1'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_bundle_without_whitelist_exits_2_once(self, tmp_path, capsys, command):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        bundle = json.loads(bundle_path.read_text())
        bundle["payload"]["preprocessing"]["whitelist"] = None
        bundle_path.write_text(resigned(bundle))
        write_descriptors(tmp_path / "d.csv", ["a", "b"], np.array([[3.0], [0.0]]), ["f0"])
        write_compounds(tmp_path / "c.csv", ["a", "b"], [6.5, 3.5])
        extra = ["--compounds", str(tmp_path / "c.csv")] if command == "evaluate" else []
        code = main([command, "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     *extra, "--out", str(tmp_path / "o")])
        assert code == 2
        assert capsys.readouterr().err.count("'whitelist' cannot hold a NoneType") == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_bundle_without_scaler_exits_2(self, tmp_path, capsys, command):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        bundle = json.loads(bundle_path.read_text())
        bundle["payload"]["preprocessing"]["scaler"] = None
        bundle_path.write_text(resigned(bundle))
        write_descriptors(tmp_path / "d.csv", ["a", "b"], np.array([[3.0], [0.0]]), ["f0"])
        write_compounds(tmp_path / "c.csv", ["a", "b"], [6.5, 3.5])
        extra = ["--compounds", str(tmp_path / "c.csv")] if command == "evaluate" else []
        code = main([command, "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     *extra, "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'scaler' cannot hold a NoneType" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_svm_decision_gives_error_row(self, tmp_path):
        # On purpose, K(huge, sv) overflows to inf for both support vectors, so f = inf - inf = NaN.
        svm = SvmModel(KernelSpec("linear").resolve(2), 1.0, [[2.0, 0.0], [0.0, 2.0]], [1.0, -1.0], 0.0)
        bundle_path = tmp_path / "svm.toxtree.json"
        save_bundle(ToxTreePipeline(identity_chain("f0", "f1"), [Stage(6.0, ["6svm"], [svm])]), bundle_path)
        write_descriptors(tmp_path / "d.csv", ["ok", "huge"], np.array([[1.0, 0.0], [1.7e308, 1.7e308]]),
                          ["f0", "f1"])
        out = tmp_path / "o"
        code = main(["predict", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     "--out", str(out)])
        assert code == 2
        with open(out / "predictions.csv") as fh:
            rows = {r["compound_key"]: r for r in csv.DictReader(fh)}
        assert rows["ok"]["outcome"] == "strong-blocker"
        assert rows["huge"]["outcome"] == "error: SVM decision value is NaN (feature values overflow)"


class TestMalformedBundle:
    def test_out_of_range_tree_feature_exits_2(self, tmp_path, capsys):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        bundle = json.loads(bundle_path.read_text())
        forest = bundle["payload"]["stages"][0]["models"][0]
        forest["feature"] = packed_ints([999, *unpacked_ints(forest["feature"])[1:]])
        bundle_path.write_text(resigned(bundle))
        write_descriptors(tmp_path / "d.csv", ["a"], np.array([[3.0]]), ["f0"])
        code = main(["predict", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "forest" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", MALFORMED_TREE_EDITS.values(), ids=MALFORMED_TREE_EDITS.keys())
    def test_malformed_compact_tree_exits_2(self, tmp_path, capsys, edit):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        bundle = json.loads(bundle_path.read_text())
        edit(bundle["payload"]["stages"][0]["models"][0])
        bundle_path.write_text(resigned(bundle))
        write_descriptors(tmp_path / "d.csv", ["a"], np.array([[3.0]]), ["f0"])
        code = main(["predict", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "stage/forest: " in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.csv").exists()

    def test_mlp_stage_exits_2(self, tmp_path, capsys):
        # Stages are forests or SVMs; an MLP bundles on its own but not as a stage.
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(mlp_init([1, 4, 2], "relu", seed=0), bundle_path)
        mlp = json.loads(bundle_path.read_text())
        save_bundle(class_code_pipeline(), bundle_path)
        bundle = json.loads(bundle_path.read_text())
        assert bundle["rows"] == {}  # forest stages hold no float matrix, so the MLP brings its weight rows
        bundle["payload"]["stages"][0]["models"][0], bundle["rows"] = mlp["payload"], mlp["rows"]
        bundle_path.write_text(resigned(bundle))
        write_descriptors(tmp_path / "d.csv", ["a"], np.array([[3.0]]), ["f0"])
        code = main(["predict", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "'models' cannot hold a list of MlpModel" in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.csv").exists()

    def test_mismatched_consensus_members_exit_2(self, tmp_path, capsys):
        pair = Stage(4.5, ["4o5a", "4o5b"], [stump_stage_model(0.5), stump_stage_model(1.5)])
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(ToxTreePipeline(identity_chain(), [pair]), bundle_path)
        bundle = json.loads(bundle_path.read_text())
        bundle["payload"]["stages"][0]["models"][1]["n_features"] = 2
        bundle_path.write_text(resigned(bundle))
        write_descriptors(tmp_path / "d.csv", ["a"], np.array([[3.0]]), ["f0"])
        code = main(["predict", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "different feature counts (1 vs 2)" in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(
                lambda p: p["stages"][0]["models"][0]["kernel"].__setitem__("gamma", None),
                "kernel gamma and coef0 must be resolved",
                id="unresolved-gamma",
            ),
            pytest.param(
                lambda p: p["stages"][0]["models"][0]["kernel"].__setitem__("coef0", None),
                "kernel gamma and coef0 must be resolved",
                id="unresolved-poly-coef0",
            ),
            pytest.param(
                lambda p: p["preprocessing"]["whitelist"].pop(),
                "whitelist gives 1 columns, scaler expects 2",
                id="whitelist-narrower-than-scaler",
            ),
        ],
    )
    def test_inconsistent_svm_bundle_exits_2(self, tmp_path, capsys, edit, message):
        svm = SvmModel(KernelSpec("poly", degree=2).resolve(2), 1.0, [[2.0, 0.0], [0.0, 2.0]], [1.0, -1.0], 0.0)
        chain = PreprocessChain(["f0", "f1"], ScalerParams(np.zeros(2), np.ones(2)), None)
        bundle_path = tmp_path / "svm.toxtree.json"
        save_bundle(ToxTreePipeline(chain, [Stage(6.0, ["6svm"], [svm])]), bundle_path)
        bundle = json.loads(bundle_path.read_text())
        edit(bundle["payload"])
        bundle_path.write_text(resigned(bundle))
        write_descriptors(tmp_path / "d.csv", ["a"], np.array([[1.0, 0.0]]), ["f0", "f1"])
        code = main(["predict", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.csv").exists()

    @pytest.mark.parametrize(
        "edit, message",
        [
            pytest.param(lambda b: b.__setitem__("schema_version", 2), "schema_version 2", id="schema-2"),
            pytest.param(lambda b: b.__setitem__("schema_version", 5), "schema_version 5", id="schema-5"),
            pytest.param(lambda b: b.__setitem__("schema_version", 4), "schema_version 4", id="schema-4"),
            pytest.param(lambda b: b.__setitem__("schema_version", 6), "schema_version 6", id="schema-6"),
            pytest.param(lambda b: b.__setitem__("schema_version", 7), "schema_version 7", id="schema-7"),
            pytest.param(lambda b: b.__setitem__("metadata", "tampered"), "metadata", id="metadata-not-object"),
        ],
    )
    def test_unreadable_bundle_exits_2(self, tmp_path, capsys, edit, message):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        bundle = json.loads(bundle_path.read_text())
        edit(bundle)
        bundle_path.write_text(json.dumps(bundle))
        write_descriptors(tmp_path / "d.csv", ["a"], np.array([[3.0]]), ["f0"])
        code = main(["predict", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "predictions.csv").exists()


class TestEvaluate:
    def test_compounds_with_a_byte_order_mark(self, trained, tmp_path):
        marked = tmp_path / "compounds.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + trained["compounds"].read_bytes())
        outputs = {}
        for name, compounds in (("plain", trained["compounds"]), ("marked", marked)):
            code = main(["evaluate", "--bundle", str(trained["bundle"]), "--descriptors", str(trained["descriptors"]),
                         "--compounds", str(compounds), "--out", str(tmp_path / name)])
            assert code == 0
            outputs[name] = (tmp_path / name / "metrics.csv").read_bytes()
        assert outputs["marked"] == outputs["plain"]
        assert not outputs["plain"].startswith(b"\xef\xbb\xbf")

    def test_whitelist_with_a_byte_order_mark(self, trained, tmp_path):
        whitelist = tmp_path / "wl.txt"
        whitelist.write_text("f0\nf1\n", encoding="utf-8-sig")
        code = main(["train", "--descriptors", str(trained["descriptors"]), "--compounds", str(trained["compounds"]),
                     "--whitelist", str(whitelist), "--thresholds", "6", "--grid", "quick", "--folds", "2",
                     "--out", str(tmp_path / "o")])
        assert code == 0
        bundle = json.loads((tmp_path / "o" / "herg-toxtree.toxtree.json").read_text())
        assert bundle["payload"]["preprocessing"]["whitelist"] == ["f0", "f1"]

    def test_missing_feature_cell_names_the_compound(self, trained, tmp_path, capsys):
        desc = tmp_path / "holey.csv"
        rows = trained["descriptors"].read_text().splitlines()
        name, _, rest = rows[5].partition(",")
        rows[5] = f"{name},,{rest.partition(',')[2]}"  # blank f0 in one row
        desc.write_text("\n".join(rows) + "\n")
        out = tmp_path / "o"
        code = main(["evaluate", "--bundle", str(trained["bundle"]), "--descriptors", str(desc),
                     "--compounds", str(trained["compounds"]), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == f"error: missing feature 'f0' in compound {name!r}\n"
        assert not (out / "metrics.csv").exists()

    def test_perfect_pipeline_scores_one(self, tmp_path):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        keys = [f"c{i}" for i in range(40)]
        codes = np.repeat([3.0, 2.0, 1.0, 0.0], 10)
        pic50 = np.repeat([6.5, 5.5, 4.7, 3.5], 10)
        write_descriptors(tmp_path / "d.csv", keys, codes[:, None], ["f0"])
        write_compounds(tmp_path / "c.csv", keys, pic50)
        out = tmp_path / "o"
        code = main(
            ["evaluate", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
             "--compounds", str(tmp_path / "c.csv"), "--out", str(out)]
        )
        assert code == 0
        csv_rows = list(csv.DictReader(io.StringIO((out / "metrics.csv").read_text())))
        for row in csv_rows[:3]:
            assert row["AC"] == "100.0" and row["MCC"] == "100.0"
        assert csv_rows[3]["threshold"] == "multiclass" and csv_rows[3]["AC"] == "100.0"
        assert "multiclass accuracy: 100.0" in (out / "metrics.txt").read_text()

    def test_published_nav_counts_reproduced(self, tmp_path, capsys):
        # 173 rows crafted so the threshold-5 confusion is TP 100 / FN 14 / TN 50 / FP 9
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        codes, pic50 = [], []
        codes += [2.0] * 100; pic50 += [5.5] * 100   # predicted moderate, truth blocker@5 -> TP
        codes += [1.0] * 14;  pic50 += [5.5] * 14    # predicted weak -> FN at threshold 5
        codes += [0.0] * 50;  pic50 += [4.0] * 50    # predicted non, truth non -> TN
        codes += [2.0] * 9;   pic50 += [4.0] * 9     # predicted moderate, truth non -> FP
        keys = [f"c{i}" for i in range(173)]
        write_descriptors(tmp_path / "d.csv", keys, np.array(codes)[:, None], ["f0"])
        write_compounds(tmp_path / "c.csv", keys, pic50)
        out = tmp_path / "o"
        code = main(
            ["evaluate", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
             "--compounds", str(tmp_path / "c.csv"), "--out", str(out)]
        )
        assert code == 0
        rows = {r["threshold"]: r for r in csv.DictReader(io.StringIO((out / "metrics.csv").read_text()))}
        row = rows["5"]
        assert (row["TP"], row["FN"], row["TN"], row["FP"]) == ("100", "14", "50", "9")
        assert row["MCC"] == "71.2"
        assert row["AC"] == "86.7" and row["F1"] == "89.7"
        assert "71.2" in capsys.readouterr().out

    def test_inconclusive_outcomes_count_as_non_blockers(self, tmp_path):
        # the weak-stage stumps disagree with equal confidence on code 1
        pair = Stage(4.5, ["4o5a", "4o5b"], [stump_stage_model(0.5), stump_stage_model(1.75)])
        stages = [Stage(6.0, ["6stub"], [stump_stage_model(2.5)]),
                  Stage(5.0, ["5stub"], [stump_stage_model(1.5)]), pair]
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(ToxTreePipeline(identity_chain(), stages), bundle_path)
        keys = [f"c{i}" for i in range(6)]
        write_descriptors(tmp_path / "d.csv", keys, np.array([[3.0], [2.0], [1.0], [0.0], [1.0], [1.0]]), ["f0"])
        write_compounds(tmp_path / "c.csv", keys, [6.5, 5.5, 4.7, 3.5, 4.7, 3.5])
        out = tmp_path / "o"
        code = main(
            ["evaluate", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
             "--compounds", str(tmp_path / "c.csv"), "--out", str(out)]
        )
        assert code == 0
        rows = {r["threshold"]: r for r in csv.DictReader(io.StringIO((out / "metrics.csv").read_text()))}
        assert (rows["4.5"]["TP"], rows["4.5"]["FN"], rows["4.5"]["TN"], rows["4.5"]["FP"]) == ("2", "2", "2", "0")
        assert rows["multiclass"]["AC"] == "50.0"
        lines = (out / "metrics.txt").read_text().splitlines()
        header = next(line for line in lines if "inconclusive" in line).split()
        confusion = {line.split()[0]: line.split()[1:] for line in lines[lines.index("confusion (rows = truth):") + 2:]}
        column = header.index("inconclusive")
        assert {name: int(cells[column]) for name, cells in confusion.items()} == {
            "strong": 0, "moderate": 0, "weak": 2, "non": 1,
        }

    def test_mismatched_keys_error_lists_orphans(self, tmp_path, capsys):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        write_descriptors(tmp_path / "d.csv", ["a", "b"], np.array([[3.0], [0.0]]), ["f0"])
        write_compounds(tmp_path / "c.csv", ["a", "zzz"], [6.5, 3.0])
        code = main(
            ["evaluate", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
             "--compounds", str(tmp_path / "c.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "zzz" in err and "b" in err

    def test_duplicate_descriptor_key_exits_2(self, tmp_path, capsys):
        bundle_path = tmp_path / "stub.toxtree.json"
        save_bundle(class_code_pipeline(), bundle_path)
        write_descriptors(tmp_path / "d.csv", ["a", "b", "a"], np.array([[3.0], [0.0], [0.0]]), ["f0"])
        write_compounds(tmp_path / "c.csv", ["a", "b"], [6.5, 3.0])
        code = main(
            ["evaluate", "--bundle", str(bundle_path), "--descriptors", str(tmp_path / "d.csv"),
             "--compounds", str(tmp_path / "c.csv"), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert "descriptor row keys appear more than once: ['a']" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.csv").exists()


@pytest.mark.parametrize("command, flag, code", [
    ("curate", "--activities", 2),
    ("curate", "--key-overrides", 2),
    ("train", "--whitelist", 2),
    ("predict", "--descriptors", 2),
    ("predict", "--bundle", 2),
    ("evaluate", "--compounds", 2),
    ("predict", "--config", 1),
])
def test_undecodable_input_exits_with_its_code(trained, tmp_path, capsys, command, flag, code):
    activities = tmp_path / "activities.csv"
    write_activities(activities, [["c1", "CCO", "1", "IC50", "uM", "", ""]])
    overrides = tmp_path / "overrides.tsv"
    overrides.write_text("alias\tc1\n")
    whitelist = tmp_path / "wl.txt"
    whitelist.write_text("f0\nf1\n")
    config = tmp_path / "run.cfg"
    config.write_text("# settings for a predict run\n")
    inputs = {
        "curate": {"--activities": activities, "--key-overrides": overrides},
        "train": {"--descriptors": trained["descriptors"], "--compounds": trained["compounds"],
                  "--whitelist": whitelist, "--grid": "quick", "--folds": "2"},
        "predict": {"--bundle": trained["bundle"], "--descriptors": trained["descriptors"], "--config": config},
        "evaluate": {"--bundle": trained["bundle"], "--descriptors": trained["descriptors"],
                     "--compounds": trained["compounds"]},
    }[command]
    # A cp1252 spreadsheet export writes "é" as the lone byte 0xE9, which is not UTF-8.
    data = Path(inputs[flag]).read_bytes()
    offset = len(data) // 2
    bad = tmp_path / f"bad-{Path(inputs[flag]).name}"
    bad.write_bytes(data[:offset] + "é".encode("cp1252") + data[offset:])
    argv = [command, *(str(v) for item in {**inputs, flag: bad}.items() for v in item), "--out", str(tmp_path / "o")]
    assert main(argv) == code
    assert capsys.readouterr().err == f"error: {bad} is not UTF-8 text: byte offset {offset}: invalid continuation byte\n"


def test_import_leaves_thread_pool_unloaded():
    # Every command imports the CLI; only a forest fit with --threads > 1
    # needs concurrent.futures (and the logging, queue and traceback it loads).
    src = Path(cli_module.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, cardiotox.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
