"""What the benchmark (perfbench/) needs from the package: its span recorder
wraps public functions by name and reads fitted forests, and its per-stage
counters name the stages train builds. A rename here would otherwise only
show as a crash of a traced benchmark run, or as counters silently at zero."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from cardiotox import cli
from cardiotox.learners import forest_fit
from cardiotox.pipeline import Stage

from conftest import labeled, make_blobs

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


def test_benchmark_stage_counters_name_the_stages_train_builds():
    # perfbench/run.py's STAGES, read without running the module.
    (stages,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(RUN_PATH.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["STAGES"]
    ]
    # What cmd_train names each stage of every target's default architecture (no --resample).
    built = [
        Stage(threshold, [cli._stage_name(threshold, target.family, s) for s in strategies],
              [_Member() for _ in strategies]).name
        for target in cli._TARGETS.values()
        for threshold, strategies in target.sampling.items()
    ]
    assert built == list(stages)
