"""What the benchmark (perfbench/) needs from the package: its span recorder
wraps public functions by name and reads fitted forests, its per-stage
counters name the stages train builds, and its coverage check needs
predict and evaluate to call the per-row prediction functions. A rename or a
lost call here would otherwise only show as a crash or a failed check of a
traced benchmark run, or as counters silently at zero."""

import ast
import functools
import importlib
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from cardiotox import cli
from cardiotox.learners import forest_fit
from cardiotox.pipeline import Stage

from conftest import labeled, make_blobs
from test_cli import synthetic_problem, write_compounds, write_descriptors

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
RUN_PATH = SPANS_PATH.with_name("run.py")


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_to_a_callable():
    for _layer, module_name, func, _hook in load_spans().TARGETS:
        target = getattr(importlib.import_module(module_name), func, None)
        assert callable(target), f"{module_name}.{func}"


def test_recorder_reads_fitted_forest(rng, tmp_path):
    spans = load_spans()
    x, y = make_blobs(rng, [[0, 0], [4, 4]], 20)
    forest = forest_fit(labeled(x, y), 3, max_depth=4, seed=0)
    assert isinstance(forest.trees, list) and len(forest.trees) == 3
    recorder = spans.Recorder()
    spans._count_forest(recorder, (), {}, forest)
    recorder.dump(str(tmp_path / "trace.json"))
    counts = json.loads((tmp_path / "trace.json").read_text())["counts"]
    assert counts["forest.trees"] == 3
    assert counts["forest.max_depth"] == forest.observed_max_depth()
    assert isinstance(forest.observed_max_depth(), int) and 1 <= forest.observed_max_depth() <= 4


# The command lines perfbench/run.py's Bench.one_pass runs, copied as literals.
BENCH_ARGVS = [
    *(["train", "--target", target, "--grid", "quick", "--folds", "3", "--threads", "1",
       "--descriptors", "D", "--compounds", "C", "--out", "O"] for target in ("herg", "nav15")),
    ["predict", "--bundle", "B", "--descriptors", "D", "--out", "O"],
    ["evaluate", "--bundle", "B", "--descriptors", "D", "--compounds", "C", "--out", "O"],
]


@pytest.mark.parametrize("argv", BENCH_ARGVS, ids=["train-herg", "train-nav15", "predict", "evaluate"])
def test_benchmark_command_lines_parse(argv):
    args = cli._build_parser().parse_args(argv)
    assert args.command == argv[0] and args.out == "O"


class _Member:
    """A stage model that is never asked to predict."""

    def stage_predict(self, row):
        raise AssertionError("not called")


def bench_assignment(name: str):
    """The value perfbench/run.py assigns to ``name`` at module level, as an
    ast node, read without running the module."""
    (value,) = [
        node.value
        for node in ast.parse(RUN_PATH.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]
    ]
    return value


def test_benchmark_stage_counters_name_the_stages_train_builds():
    stages = ast.literal_eval(bench_assignment("STAGES"))
    # What cmd_train names each stage of every target's default architecture (no --resample).
    built = [
        Stage(threshold, [cli._stage_name(threshold, target.family, s) for s in strategies],
              [_Member() for _ in strategies]).name
        for target in cli._TARGETS.values()
        for threshold, strategies in target.sampling.items()
    ]
    assert built == list(stages)


# Layers the coverage check needs that only train calls; the other learner and
# pipeline layers it needs are the prediction path.
TRAIN_ONLY = {"forest.forest_fit", "svm.svm_fit", "pipeline.tune_grid"}


def predict_path_layers() -> dict[str, list[str]]:
    """Per target, the busy learner and pipeline layers of its perfbench
    workload (``WORKLOADS`` in perfbench/run.py) that the prediction path
    must call."""
    out = {}
    for call in bench_assignment("WORKLOADS").values:
        busy = next(ast.literal_eval(kw.value) for kw in call.keywords if kw.arg == "busy")
        out[ast.literal_eval(call.args[0])] = [
            name for name in busy if name.split(".")[0] in ("forest", "svm", "pipeline") and name not in TRAIN_ONLY
        ]
    return out


@pytest.fixture(scope="module")
def bundles(tmp_path_factory):
    """A quick bundle of each target, with the holdout files to score."""
    root = tmp_path_factory.mktemp("bench-contract")
    keys, matrix, pic50 = synthetic_problem(np.random.default_rng(5))
    files = {}
    for part, rows in (("train", slice(0, 80)), ("holdout", slice(80, None))):
        files[part] = (root / f"{part}-d.csv", root / f"{part}-c.csv")
        write_descriptors(files[part][0], keys[rows], matrix[rows], ["f0", "f1", "f2"])
        write_compounds(files[part][1], keys[rows], pic50[rows])
    out = {}
    for target in cli._TARGETS:
        assert cli.main(["train", "--target", target, "--grid", "quick", "--folds", "3", "--descriptors",
                         str(files["train"][0]), "--compounds", str(files["train"][1]),
                         "--out", str(root / target)]) == 0
        out[target] = root / target / f"{target}-toxtree.toxtree.json"
    return out, files["holdout"]


@pytest.mark.parametrize("command", ["predict", "evaluate"])
@pytest.mark.parametrize("target", sorted(cli._TARGETS))
def test_prediction_commands_call_the_layers_the_benchmark_traces(bundles, tmp_path, monkeypatch, target, command):
    layers = predict_path_layers()[target]
    assert "pipeline.pipeline_predict" in layers
    modules = {f"{layer}.{func}": module for layer, module, func, _ in load_spans().TARGETS}
    calls = Counter()
    package = [m for n, m in sorted(sys.modules.items()) if n == "cardiotox" or n.startswith("cardiotox.")]
    def counted(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in layers:
        original = getattr(importlib.import_module(modules[name]), name.split(".")[1])
        wrapper = counted(name, original)
        # Every module attribute bound to the function, as the span recorder wraps them.
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    bundle_paths, (descriptors, compounds) = bundles
    argv = [command, "--bundle", str(bundle_paths[target]), "--descriptors", str(descriptors)]
    if command == "evaluate":
        argv += ["--compounds", str(compounds)]
    assert cli.main([*argv, "--out", str(tmp_path)]) == 0
    assert {name: calls[name] for name in layers if not calls[name]} == {}
