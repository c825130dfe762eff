"""cardiotox benchmark: seeded inputs, CLI commands run as a user runs them.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):

* ``herg-train``  - ``cardiotox train --target herg --grid quick --folds 3``,
  then ``predict`` and ``evaluate`` on a disjoint holdout. Forests dominate.
* ``nav15-train`` - the same with ``--target nav15`` on fewer, wider rows.
  SMO fits and the Jacobi eigensolve dominate; no forest runs.

Each run draws several input sets from ``--seed`` and is closed-loop: one
process, one command at a time, for ``--seconds``. Every run repeats the
first set once, to check that outputs are reproducible, and then takes a
fresh set for each pass as long as time allows. A timing
is the mean over the sets a run reached of each set's median pass, set-up
time is the median over the sets, and bundle size and accuracy are means
over the sets reached. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` untraced and traced repetitions alternate and the last line
carries the per-layer metrics (medians over traced repetitions, spans from
``spans.py``). Every command must exit 0, every input row must be predicted,
and repeated commands on one seed must write byte-identical bundles,
``cv_report.csv``, ``predictions.csv`` and ``metrics.csv``; otherwise the
result says ``"correct": false`` and the exit code is 1.

The benchmark writes only under ``.perfbench_work/`` in the checkout and
removes its own directory there when it ends.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from gen import InputSpec, generate
from spans import COUNTERS, TARGETS, stage_metric, summarize

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
# A single command that runs longer than this is killed and counted failed,
# so that a hung command cannot keep a run going.
COMMAND_LIMIT_S = 120.0
STAGES = ("6rf-ovrs", "5rf-ovrs", "consensus(4o5rf,4o5rf-ovrs)", "6svm", "5svm-ovrs", "4o5svm")
OUTCOME_CLASS = {"strong-blocker": 0, "moderate-blocker": 1, "weak-blocker": 2, "non-blocker": 3}


@dataclass(frozen=True)
class Workload:
    target: str
    spec: InputSpec
    # Layers that must record calls, and layers that must record none.
    busy: tuple[str, ...]
    idle: tuple[str, ...]


WORKLOADS = {
    "herg-train": Workload(
        "herg",
        InputSpec(n_train=170, n_eval=1000, n_features=40),
        busy=("dataset.parse_descriptor_csv", "features.filter_low_information", "preprocess.fit_scaler",
              "resample.balance", "resample.smote", "forest.forest_fit", "forest.forest_vote_counts",
              "forest.forest_predict_proba", "pipeline.tune_grid", "pipeline.pipeline_predict",
              "persistence.save_bundle", "persistence.load_bundle", "cli.cmd_train", "cli.cmd_predict",
              "cli.cmd_evaluate"),
        idle=("svm.svm_fit", "svm.svm_decision_many", "preprocess.sym_eig"),
    ),
    "nav15-train": Workload(
        "nav15",
        InputSpec(n_train=130, n_eval=1000, n_features=100, latent_noise=0.8),
        busy=("dataset.parse_descriptor_csv", "features.filter_low_information", "preprocess.fit_scaler",
              "preprocess.fit_pca", "preprocess.sym_eig", "resample.balance", "svm.svm_fit",
              "svm.svm_decision_many", "svm.svm_decision", "pipeline.tune_grid", "pipeline.pipeline_predict",
              "persistence.save_bundle", "persistence.load_bundle", "cli.cmd_train", "cli.cmd_predict",
              "cli.cmd_evaluate"),
        idle=("forest.forest_fit",),
    ),
}


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Command:
    seconds: float
    max_rss_kb: int
    exit_code: int


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    max_rss_kb: int = 0
    # metric -> input set -> samples taken on that set
    samples: dict[str, dict[int, list[float]]] = field(default_factory=dict)
    by_dataset: dict[str, dict[int, float]] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)

    def add(self, name: str, index: int, value: float) -> None:
        self.samples.setdefault(name, {}).setdefault(index, []).append(value)

    def balanced(self, name: str) -> float:
        """Mean over input sets of each set's median sample.

        Every set counts once however many passes ran on it, so the set that
        every run repeats does not outweigh the others, and the mean over
        sets evens out how much one draw of rows costs more than another.
        """
        return statistics.fmean(statistics.median(v) for v in self.samples[name].values())

    def pooled(self, name: str) -> float:
        """Median over every sample of ``name``, whichever set it ran on."""
        return statistics.median(x for v in self.samples[name].values() for x in v)

    def per_dataset(self, name: str, index: int, value: float) -> None:
        """Values fixed by the input set (checked equal on repeats via digests)."""
        self.by_dataset.setdefault(name, {})[index] = value

    def same_digest(self, name: str, path: Path) -> None:
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        first = self.digests.setdefault(name, digest)
        if digest != first:
            raise CheckFailed(f"{name} differs between repetitions with one seed")


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_command(argv: list[str], log: Path) -> Command:
    """Run one child process to completion; wall time and its own peak RSS."""
    with open(log, "w", encoding="utf-8") as fh:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=_env(), stdout=fh, stderr=subprocess.STDOUT, cwd=ROOT)
        timer = threading.Timer(COMMAND_LIMIT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(elapsed, usage.ru_maxrss, proc.returncode)


def cli_argv(trace: Path | None, args: list[str]) -> list[str]:
    if trace is not None:
        return [sys.executable, str(BENCH_DIR / "traced.py"), str(trace), *args]
    return [sys.executable, "-m", "cardiotox.cli", *args]


def read_truth(compounds: Path) -> dict[str, int]:
    out = {}
    with open(compounds, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            p = float(row["pic50"])
            out[row["compound_key"]] = 0 if p >= 6.0 else 1 if p >= 5.0 else 2 if p >= 4.5 else 3
    return out


def read_descriptor_keys(path: Path) -> list[str]:
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [row[0] for row in reader]


def check_predictions(path: Path, keys: list[str], truth: dict[str, int]) -> float:
    """One non-error row per input row, in input order; returns the multiclass accuracy."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [r["compound_key"] for r in rows] != keys:
        raise CheckFailed(f"{path.name}: expected one row per input row, in input order")
    errors = sum(1 for r in rows if r["outcome"].startswith("error"))
    if errors:
        raise CheckFailed(f"{path.name}: {errors} error rows")
    hits = sum(1 for r in rows if OUTCOME_CLASS.get(r["outcome"]) == truth[r["compound_key"]])
    return hits / len(rows)


def check_metrics(path: Path, accuracy: float, truth: dict[str, int]) -> None:
    """evaluate's multiclass accuracy matches predict's rows, and beats the majority class."""
    with open(path, encoding="utf-8", newline="") as fh:
        reported = {row[0]: row[1] for row in csv.reader(fh)}["multiclass"]
    if abs(float(reported) - 100.0 * accuracy) > 0.05 + 1e-9:
        raise CheckFailed(f"evaluate reports {reported}% but predictions.csv scores {100 * accuracy:.3f}%")
    majority = max(np.bincount(list(truth.values()), minlength=4)) / len(truth)
    if accuracy <= majority:
        raise CheckFailed(f"holdout accuracy {accuracy:.3f} does not beat the majority class {majority:.3f}")


@dataclass
class Dataset:
    """One generated input set."""

    index: int
    paths: dict[str, Path]
    eval_keys: list[str]
    truth: dict[str, int]


class Bench:
    def __init__(self, name: str, seed: int, seconds: float, trace: bool):
        self.name, self.seed, self.seconds, self.trace = name, seed, seconds, trace
        self.workload = WORKLOADS[name]
        self.work = WORK / f"{name}-{seed}-{os.getpid()}"
        self.tally = Tally()
        self.datasets: list[Dataset] = []
        self.traces: list[dict] = []
        # Timings of the passes over input set 0, the one set every run covers
        # both untraced and (with --trace 1) traced; their difference is the
        # tracing overhead, free of the cost differences between input sets.
        self.set0: dict[str, float] = {}
        self.passes = 0
        self.timed_s = 0.0

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        """Import the package once; generating input set 0 twice must give byte-identical files."""
        self.work.mkdir(parents=True)
        warm = run_command([sys.executable, "-c", "import cardiotox.cli"], self.work / "warm.log")
        if warm.exit_code != 0:
            raise CheckFailed("cannot import cardiotox (see warm.log)")
        first = self.dataset(0)
        again = self.generate(0, self.work / "inputs-again").paths
        for key, path in again.items():
            self.tally.same_digest(f"input {key}", first.paths[key])
            self.tally.same_digest(f"input {key}", path)

    def dataset(self, j: int) -> Dataset:
        """Input set ``j``, generated when a pass first needs it.

        Each generation is one sample of setup_s, so set-up is timed several
        times, spread over the run like the passes.
        """
        if j == len(self.datasets):
            start = perf_counter()
            self.datasets.append(self.generate(j, self.work / f"inputs-{j}"))
            self.tally.add("setup_s", j, perf_counter() - start)
        return self.datasets[j]

    def generate(self, j: int, out: Path) -> Dataset:
        out.mkdir()
        try:
            paths = generate(self.workload.spec, self.seed * 1000 + j, out, self.workload.target)
        except ValueError as exc:
            raise CheckFailed(f"input generator: {exc}") from exc
        return Dataset(j, paths, read_descriptor_keys(paths["eval_descriptors"]), read_truth(paths["eval_compounds"]))

    # -- timed passes -------------------------------------------------------

    def step(self, out: Path, name: str, args: list[str], traced: bool) -> Command:
        """Run one cardiotox command; each command is one operation."""
        trace = out / f"{name}.trace.json" if traced else None
        log = out / f"{name}.log"
        result = run_command(cli_argv(trace, args), log)
        self.tally.attempted += 1
        self.tally.max_rss_kb = max(self.tally.max_rss_kb, result.max_rss_kb)
        if result.exit_code != 0:
            self.tally.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise CheckFailed(f"{name} exited {result.exit_code}:\n{tail}")
        if trace is not None:
            self.traces.append(json.loads(trace.read_text(encoding="utf-8")))
        return result

    def one_pass(self, ds: Dataset, traced: bool) -> None:
        """train, then predict and evaluate on the holdout."""
        out = self.work / f"pass-{self.passes}"
        out.mkdir()
        self.passes += 1
        tag = "traced " if traced else ""
        self.traces.clear()
        w = self.workload

        def timed(metric: str, value: float) -> None:
            self.tally.add(tag + metric, ds.index, value)
            if ds.index == 0:
                self.set0[tag + metric] = value

        train = self.step(out, "train", [
            "train", "--target", w.target, "--grid", "quick", "--folds", "3", "--threads", "1",
            "--descriptors", str(ds.paths["train_descriptors"]),
            "--compounds", str(ds.paths["train_compounds"]), "--out", str(out / "train")], traced)
        timed("train_s", train.seconds)
        bundle = out / "train" / f"{w.target}-toxtree.toxtree.json"
        self.tally.same_digest(f"bundle {ds.index}", bundle)
        self.tally.same_digest(f"cv_report.csv {ds.index}", out / "train" / "cv_report.csv")
        self.tally.per_dataset("bundle_bytes", ds.index, bundle.stat().st_size)

        n_rows = len(ds.eval_keys)
        common = ["--bundle", str(bundle), "--descriptors", str(ds.paths["eval_descriptors"])]
        predict = self.step(out, "predict", ["predict", *common, "--out", str(out / "predict")], traced)
        predictions = out / "predict" / "predictions.csv"
        accuracy = check_predictions(predictions, ds.eval_keys, ds.truth)
        self.tally.same_digest(f"predictions.csv {ds.index}", predictions)
        evaluate = self.step(out, "evaluate", [
            "evaluate", *common, "--compounds", str(ds.paths["eval_compounds"]), "--out", str(out / "evaluate")],
            traced)
        check_metrics(out / "evaluate" / "metrics.csv", accuracy, ds.truth)
        self.tally.same_digest(f"metrics.csv {ds.index}", out / "evaluate" / "metrics.csv")
        timed("predict_rows_per_s", n_rows / predict.seconds)
        timed("evaluate_rows_per_s", n_rows / evaluate.seconds)
        self.tally.per_dataset("holdout_acc_pct", ds.index, 100.0 * accuracy)
        if traced:
            self.add_layers(ds.index)
        shutil.rmtree(out)

    def add_layers(self, index: int) -> None:
        # Start every metric at 0, so that a counter this pass never
        # incremented still adds its sample to the median.
        merged: dict[str, float] = dict.fromkeys(pass_metric_names(), 0)
        for trace in self.traces:
            for key, value in summarize(trace).items():
                merged[key] = max(merged.get(key, 0), value) if key == "forest.max_depth" else merged.get(key, 0) + value
        for name in self.workload.busy:
            if not merged.get(f"{name}.calls"):
                raise CheckFailed(f"coverage: {name} recorded no call on {self.name}")
        for name in self.workload.idle:
            if merged.get(f"{name}.calls"):
                raise CheckFailed(f"coverage: {name} recorded {merged[f'{name}.calls']} calls on {self.name}")
        merged["forest.s_per_tree"] = merged.get("forest.forest_fit.s", 0.0) / max(merged.get("forest.trees", 0), 1)
        merged["cli.self_s"] = sum(merged.get(f"cli.{c}.self_s", 0.0) for c in ("cmd_train", "cmd_predict", "cmd_evaluate"))
        for key, value in merged.items():
            self.tally.add("layer " + key, index, value)

    def run_passes(self) -> None:
        """Go through the input sets until the time is up.

        Passes 0 and 1 both run input set 0, so every run checks that one
        seed gives identical outputs; with --trace 1, odd passes are traced,
        so that repeat also compares a traced with an untraced command. Each
        later pass takes a fresh set (1, 2, ...): training cost depends on the
        draw (tuning may pick a larger model for one set than for another),
        so a run averages over as many sets as it reaches. A pass starts only
        if it is expected to end within ``--seconds``.
        """
        start = perf_counter()
        durations: list[float] = []
        while True:
            elapsed = perf_counter() - start
            if self.passes >= 2 and elapsed + statistics.median(durations) > self.seconds:
                break
            t0 = perf_counter()
            ds = self.dataset(max(self.passes - 1, 0))
            self.one_pass(ds, traced=self.trace and self.passes % 2 == 1)
            durations.append(perf_counter() - t0)
        self.timed_s = perf_counter() - start

    # -- results ------------------------------------------------------------

    def values(self) -> dict[str, float]:
        t = self.tally
        out = {
            "setup_s": t.pooled("setup_s"),
            "train_s": t.balanced("train_s"),
            "predict_rows_per_s": t.balanced("predict_rows_per_s"),
            "evaluate_rows_per_s": t.balanced("evaluate_rows_per_s"),
            "peak_rss_mb": t.max_rss_kb / 1024.0,
            "bundle_bytes": statistics.fmean(t.by_dataset["bundle_bytes"].values()),
            "holdout_acc_pct": statistics.fmean(t.by_dataset["holdout_acc_pct"].values()),
        }
        if self.trace:
            for key in t.samples:
                if key.startswith("layer "):
                    out[key[len("layer "):]] = t.pooled(key)
            for metric in ("train_s", "predict_rows_per_s", "evaluate_rows_per_s"):
                out[f"trace.{metric}_overhead"] = self.set0["traced " + metric] - self.set0[metric]
        return out


def pass_metric_names() -> list[str]:
    """Every span and counter metric one traced pass reports."""
    names = [f"{layer}.{func}.{kind}" for layer, _, func, _ in TARGETS for kind in ("s", "self_s", "calls")]
    return names + list(COUNTERS) + [stage_metric(s) for s in STAGES]


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer"] if trace else spec["end_to_end"]


def environment(bench: Bench) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    spec = bench.workload.spec
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "blas_threads_env": blas,
        "threads": 1,
        "seed": bench.seed,
        "input_shapes": {"train": [spec.n_train, spec.n_features], "eval": [spec.n_eval, spec.n_features]},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "cardiotox" / "cli.py").is_file():
        print(f"error: the cardiotox sources are missing ({SRC / 'cardiotox'}); run from a full checkout",
              file=sys.stderr)
        return 2

    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace))
    correct, error = True, None
    try:
        bench.setup()
        bench.run_passes()
    except CheckFailed as exc:
        correct, error = False, str(exc)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    metrics = {}
    if correct:
        values = bench.values()
        declared = declared_metrics(bench.trace)
        missing = [m["name"] for m in declared if m["name"] not in values]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared if m["name"] in values}
        if missing:
            correct, error = False, f"metrics not measured: {', '.join(missing)}"
    attempted = max(bench.tally.attempted, 1)
    detail = {
        "workload": bench.name,
        "passes": bench.passes,
        "timed_s": bench.timed_s,
        "ops_failed_share": {"value": bench.tally.failed / attempted, "unit": "ratio"},
        "samples": bench.tally.samples if not bench.trace else {k: v for k, v in bench.tally.samples.items() if not k.startswith("layer ")},
        "digests": bench.tally.digests,
        "per_input_set": bench.tally.by_dataset,
        "environment": environment(bench),
        "error": error,
    }
    print(json.dumps(detail, sort_keys=True))
    if error:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": bench.tally.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
