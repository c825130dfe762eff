"""Span recorder that times cardiotox's layers from outside the package.

``install`` replaces each public function named in ``TARGETS`` with a
wrapper, at every module attribute that holds it. The CLI and the pipeline
import ``forest_fit``, ``svm_fit``, ``balance`` and friends by name, so
patching only the defining module would miss those calls. The wrapper keeps
(name, start, end, parent) for every call in memory; ``dump`` writes them
out when the process ends. A few cheap counters are read off arguments and
return values as calls finish (forest depth is read at dump time, outside
every span). Nothing in the package changes.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import re
import sys
from collections import Counter
from time import perf_counter


def _count_cells(rec, args, kwargs, table):
    rec.counts["dataset.cells_parsed"] += table.values.size


def _count_rows_out(rec, args, kwargs, dataset):
    rec.counts["resample.rows_out"] += dataset.matrix.shape[0]


def _count_pca(rec, args, kwargs, model):
    rec.counts["preprocess.pca_components"] += model.n_components


def _count_forest(rec, args, kwargs, model):
    rec.counts["forest.trees"] += len(model.trees)
    rec.forests.append(model)


def _count_svm(rec, args, kwargs, model):
    rec.counts["svm.fits"] += 1
    rec.counts["svm.unconverged"] += 0 if model.converged else 1
    rec.counts["svm.support_vectors"] += model.support_vectors.shape[0]


def _count_folds(rec, args, kwargs, result):
    space = args[0] if args else kwargs["space"]
    k = args[2] if len(args) > 2 else kwargs.get("k", 10)
    rec.counts["pipeline.fold_fits"] += len(space) * k


_UNSAFE = re.compile(r"[^A-Za-z0-9_.-]")


def stage_metric(stage_name: str) -> str:
    """Metric name for outcomes decided by a stage (unsafe characters -> '-')."""
    return "pipeline.decided." + _UNSAFE.sub("-", stage_name)


def _count_outcome(rec, args, kwargs, outcome):
    if outcome.outcome.value == "inconclusive":
        rec.counts["pipeline.inconclusive"] += 1
    rec.counts[stage_metric(outcome.stage_name)] += 1


def _count_bundle(rec, args, kwargs, _):
    sink = args[1] if len(args) > 1 else kwargs["sink"]
    rec.counts["persistence.bundle_bytes"] += os.path.getsize(sink)


# (layer, defining module, public function, counter read off the result)
TARGETS = (
    ("dataset", "cardiotox.dataset", "parse_descriptor_csv", _count_cells),
    ("dataset", "cardiotox.dataset", "parse_compounds_csv", None),
    ("features", "cardiotox.features", "filter_low_information", None),
    ("preprocess", "cardiotox.preprocess", "fit_scaler", None),
    ("preprocess", "cardiotox.preprocess", "fit_pca", _count_pca),
    ("preprocess", "cardiotox.preprocess", "sym_eig", None),
    ("resample", "cardiotox.resample", "balance", _count_rows_out),
    ("resample", "cardiotox.resample", "smote", None),
    ("resample", "cardiotox.resample", "nearmiss", None),
    ("forest", "cardiotox.learners.forest", "forest_fit", _count_forest),
    ("forest", "cardiotox.learners.forest", "forest_vote_counts", None),
    ("forest", "cardiotox.learners.forest", "forest_predict_proba", None),
    ("svm", "cardiotox.learners.svm", "svm_fit", _count_svm),
    ("svm", "cardiotox.learners.svm", "svm_decision", None),
    ("svm", "cardiotox.learners.svm", "svm_decision_many", None),
    ("pipeline", "cardiotox.pipeline", "tune_grid", _count_folds),
    ("pipeline", "cardiotox.pipeline", "pipeline_predict", _count_outcome),
    ("persistence", "cardiotox.persistence", "save_bundle", _count_bundle),
    ("persistence", "cardiotox.persistence", "load_bundle", None),
    ("cli", "cardiotox.cli", "cmd_train", None),
    ("cli", "cardiotox.cli", "cmd_predict", None),
    ("cli", "cardiotox.cli", "cmd_evaluate", None),
)

COUNTERS = (
    "dataset.cells_parsed",
    "resample.rows_out",
    "preprocess.pca_components",
    "forest.trees",
    "forest.max_depth",
    "svm.fits",
    "svm.unconverged",
    "svm.support_vectors",
    "pipeline.fold_fits",
    "pipeline.inconclusive",
    "persistence.bundle_bytes",
)


class Recorder:
    """In-memory spans and counters for one process."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.forests: list = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(idx)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target at each cardiotox module attribute bound to it."""
        importlib.import_module("cardiotox.cli")
        modules = [m for n, m in sorted(sys.modules.items()) if n == "cardiotox" or n.startswith("cardiotox.")]
        for layer, module_name, func, hook in TARGETS:
            original = getattr(importlib.import_module(module_name), func)
            wrapper = self._wrap(f"{layer}.{func}", original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def dump(self, path: str) -> None:
        depth = max((f.observed_max_depth() for f in self.forests), default=0)
        counts = dict(self.counts)
        counts["forest.max_depth"] = depth
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans, "counts": counts}, fh)


def summarize(trace: dict) -> dict[str, float]:
    """Per-function total seconds, self seconds and calls, plus the counters.

    A span's self time is its duration minus its direct children's; the
    package is single-threaded here (``--threads 1``), so children nest.
    """
    names, spans = trace["names"], trace["spans"]
    child = [0.0] * len(spans)
    for name_id, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
        out[f"{name}.calls"] = 0
    for i, (name_id, start, end, parent) in enumerate(spans):
        name = names[name_id]
        out[f"{name}.s"] += end - start
        out[f"{name}.self_s"] += end - start - child[i]
        out[f"{name}.calls"] += 1
    out.update(trace["counts"])
    return out
