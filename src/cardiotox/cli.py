"""Batch command-line front end: curate -> train -> predict / evaluate.

Every command is deterministic given its inputs and --seed (bundles embed a
fixed created-at constant and a content fingerprint instead of wall-clock
data). Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from . import dataset as ds
from . import features as feat
from . import metrics as mx
from . import persistence
from .errors import (
    BundleError,
    CardiotoxError,
    InvalidInputError,
    ParseError,
    TrainingDivergedError,
    UsageError,
)
from .pipeline import (
    OUTCOME_CLASS,
    ConsensusPair,
    ForestConfig,
    PreprocessChain,
    SubModel,
    SvmConfig,
    ToxTreePipeline,
    fit_config,
    herg_rf_space,
    pipeline_predict,
    svm_space,
    tune_grid,
)
from .resample import ResamplePlan, Strategy, balance

DEFAULT_SEED = 1729
DEFAULT_THRESHOLDS = ds.CUTOFFS
_CUTOFF_TEXT = ", ".join(f"{t:g}" for t in ds.CUTOFFS)

_STRATEGY_SUFFIX = {Strategy.ORIGINAL: "", Strategy.OVER_SAMPLE: "-ovrs", Strategy.UNDER_SAMPLE: "-unds"}

# Default per-stage sampling when --resample is not given: the architectures
# that won the published grid searches. The hERG weak stage is a consensus of
# the original and over-sampled forests.
_HERG_DEFAULT_SAMPLING = dict(zip(ds.CUTOFFS, (Strategy.OVER_SAMPLE, Strategy.OVER_SAMPLE, "consensus")))
_NAV_DEFAULT_SAMPLING = dict(zip(ds.CUTOFFS, (Strategy.ORIGINAL, Strategy.OVER_SAMPLE, Strategy.ORIGINAL)))


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="cardiotox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; explicit flags override it")
        p.add_argument("--seed", type=int, default=None, help=f"RNG seed (default {DEFAULT_SEED})")
        p.add_argument("--out", default=None, help="output directory (default .)")

    p = sub.add_parser("curate", help="deduplicate activities and emit PIC50 compounds")
    add_common(p)
    p.add_argument("--activities", required=True, help="activity CSV path")
    p.add_argument("--cell-preference", default=None, help="comma list, most preferred first")
    p.add_argument("--key-overrides", default=None, help="raw_key<TAB>canonical_key file")

    p = sub.add_parser("train", help="tune, fit, and bundle a ToxTree pipeline")
    add_common(p)
    p.add_argument("--threads", type=int, default=None, help="forest worker threads (default 1)")
    p.add_argument("--descriptors", required=True)
    p.add_argument("--compounds", required=True)
    p.add_argument("--target", choices=("herg", "nav15"), default=None)
    p.add_argument("--thresholds", default=None, help=f"descending subset of {_CUTOFF_TEXT}")
    p.add_argument(
        "--resample",
        choices=("original", "over", "under"),
        default=None,
        help="force one sampling strategy for every stage (default: per-target architecture)",
    )
    p.add_argument("--whitelist", default=None, help="feature whitelist file")
    p.add_argument("--folds", type=int, default=None, help="CV folds for tuning (default 10)")
    p.add_argument("--grid", choices=("paper", "quick"), default=None, help="hyperparameter space")
    p.add_argument("--pca-energy", type=float, default=None, help="nav15 energy rule (default 0.9)")

    p = sub.add_parser("predict", help="classify descriptor rows with a trained bundle")
    add_common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--descriptors", required=True)

    p = sub.add_parser("evaluate", help="score a bundle against labeled compounds")
    add_common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--descriptors", required=True)
    p.add_argument("--compounds", required=True)

    # Config-file values bypass argparse, so each command keeps its flags' choices to check them against.
    for p in sub.choices.values():
        p.set_defaults(flag_choices={a.dest: a.choices for a in p._actions if a.choices})
    return parser


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _merged(args: argparse.Namespace, key: str, default, convert=None):
    value = getattr(args, key, None)
    if value is None:
        raw = args.config_values.get(key)
        if raw is not None:
            choices = getattr(args, "flag_choices", {}).get(key)
            if choices is not None and raw not in choices:
                raise UsageError(f"config {key}: invalid choice {raw!r} (choose from {', '.join(choices)})")
            value = raw
    if value is None:
        return default
    if convert is not None and isinstance(value, str):
        try:
            value = convert(value)
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {key}: {value!r} ({exc})") from exc
    return value


def _parse_thresholds(text: str) -> tuple[float, ...]:
    values = tuple(float(t) for t in text.split(",") if t.strip())
    if not values:
        raise ValueError("no thresholds given")
    if any(v not in ds.CUTOFFS for v in values):
        raise ValueError(f"thresholds must come from {{{_CUTOFF_TEXT}}}")
    if list(values) != sorted(values, reverse=True) or len(set(values)) != len(values):
        raise ValueError("thresholds must be strictly descending")
    return values


def _out_dir(args) -> Path:
    out = Path(_merged(args, "out", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _file_fingerprint(*paths: str) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(Path(p).read_bytes())
    return digest.hexdigest()


def cmd_curate(args) -> int:
    out = _out_dir(args)
    prefs = _merged(args, "cell_preference", ",".join(ds.DEFAULT_CELL_PREFERENCE))
    cell_preference = [p.strip() for p in prefs.split(",") if p.strip()]
    overrides = None
    overrides_path = _merged(args, "key_overrides", None)
    if overrides_path:
        overrides = ds.load_key_overrides(overrides_path)
    records = ds.parse_activity_csv(args.activities)
    compounds, report = ds.resolve_duplicates(records, cell_preference, overrides)
    ds.write_compounds_csv(compounds, out / "compounds.csv")
    (out / "curation_report.txt").write_text(report.to_text(), encoding="utf-8")
    kept = sum(1 for e in report.entries if e.action in ("kept", "merged"))
    dropped = len(report.entries) - kept
    print(f"curated {len(records)} records into {len(compounds)} compounds ({dropped} keys discarded)")
    print(f"wrote {out / 'compounds.csv'} and {out / 'curation_report.txt'}")
    return 0


def _aligned_data(table: ds.DescriptorTable, compounds, require_exact: bool):
    desc_keys = set(table.row_keys)
    if len(desc_keys) < len(table.row_keys):
        repeated = sorted(k for k, n in Counter(table.row_keys).items() if n > 1)
        raise InvalidInputError(f"descriptor row keys appear more than once: {repeated}")
    by_key = {c.compound_key: c for c in compounds}
    comp_keys = set(by_key)
    if require_exact and desc_keys != comp_keys:
        orphans_d = sorted(desc_keys - comp_keys)
        orphans_c = sorted(comp_keys - desc_keys)
        raise InvalidInputError(
            "descriptor and compound key sets differ; "
            f"descriptor-only: {orphans_d or 'none'}; compound-only: {orphans_c or 'none'}"
        )
    rows = [i for i, key in enumerate(table.row_keys) if key in by_key]
    if not rows:
        raise InvalidInputError("no compound keys match the descriptor rows")
    keys = [table.row_keys[i] for i in rows]
    matrix = table.values[rows]
    pic50 = np.array([by_key[k].pic50 for k in keys])
    aligned = [by_key[k] for k in keys]
    return keys, matrix, pic50, aligned


def _impute_missing(table: ds.DescriptorTable) -> ds.DescriptorTable:
    # thresholds at the row count drop nothing; the pass only fills gaps
    imputed, _ = feat.filter_low_information(table, table.n_rows, table.n_rows)
    return imputed


def _stage_name(threshold: float, family: str, strategy: Strategy) -> str:
    prefix = f"{threshold:g}".replace(".", "o")
    return f"{prefix}{family}{_STRATEGY_SUFFIX[strategy]}"


def _grid_for(args, target: str) -> list:
    grid = _merged(args, "grid", "paper")
    if target == "herg":
        if grid == "paper":
            return herg_rf_space()
        return [ForestConfig(10), ForestConfig(30)]
    if grid == "paper":
        return svm_space()
    return [SvmConfig("linear", 1.0), SvmConfig("rbf", 1.0), SvmConfig("rbf", 10.0)]


def _cv_report_rows(threshold, name, strategy, tuning, family):
    rows = []
    for res in tuning.ranked:
        cfg = res.config
        row = {
            "threshold": f"{threshold:g}",
            "stage": name,
            "sampling": strategy.value if isinstance(strategy, Strategy) else strategy,
            "blk": tuning.class_distribution[0],
            "nblk": tuning.class_distribution[1],
            "ac_cv": mx.format_percent(res.ac_cv),
            "f1_cv": mx.format_percent(res.f1_cv),
            "config": res.describe(),
            "n_estimators": getattr(cfg, "n_estimators", ""),
            "max_depth": res.observed_max_depth if family == "rf" else "",
            "kernel": getattr(cfg, "kernel", ""),
            "C": getattr(cfg, "c", ""),
            "degree": getattr(cfg, "degree", "") if getattr(cfg, "kernel", "") == "poly" else "",
            "converged": "" if res.converged is None else str(res.converged).lower(),
        }
        rows.append(row)
    return rows


def cmd_train(args) -> int:
    out = _out_dir(args)
    seed = _merged(args, "seed", DEFAULT_SEED, int)
    threads = _merged(args, "threads", 1, int)
    if threads < 1:
        raise UsageError(f"--threads must be at least 1, got {threads}")
    target = _merged(args, "target", "herg")
    space = _grid_for(args, target)
    thresholds = _merged(args, "thresholds", DEFAULT_THRESHOLDS, _parse_thresholds)
    folds = _merged(args, "folds", 10, int)
    if folds < 2:
        raise UsageError(f"--folds must be at least 2, got {folds}")
    resample_flag = _merged(args, "resample", None)
    pca_energy = _merged(args, "pca_energy", 0.90, float)
    if not 0.0 < pca_energy <= 1.0:  # NaN fails too
        raise UsageError(f"--pca-energy must be in (0, 1], got {pca_energy}")

    table = ds.parse_descriptor_csv(args.descriptors)
    compounds = ds.parse_compounds_csv(args.compounds)
    whitelist_path = _merged(args, "whitelist", None)
    whitelist = feat.load_feature_whitelist(whitelist_path) if whitelist_path else list(table.feature_names)
    table = _impute_missing(table.select(whitelist))

    keys, matrix, pic50, aligned = _aligned_data(table, compounds, require_exact=False)
    if len(keys) < len(table.row_keys) or len(keys) < len(compounds):
        print(
            f"note: training on {len(keys)} keys present in both inputs "
            f"({len(table.row_keys)} descriptor rows, {len(compounds)} compounds)",
            file=sys.stderr,
        )

    chain, processed = PreprocessChain.fit(matrix, whitelist, pca_energy if target == "nav15" else None)
    if chain.pca is not None:
        print(f"PCA keeps {chain.pca.n_components} components ({chain.pca.energy_captured:.4f} energy)")

    family = "rf" if target == "herg" else "svm"
    default_sampling = _HERG_DEFAULT_SAMPLING if target == "herg" else _NAV_DEFAULT_SAMPLING

    report_rows = []
    stage_objs = []
    for threshold in thresholds:
        stage_ds = ds.binarize(aligned, threshold, processed)
        counts = stage_ds.class_counts()
        if 0 in counts:
            raise InvalidInputError(
                f"threshold {threshold:g} leaves an empty class (blk {counts[0]}, nblk {counts[1]})"
            )
        if resample_flag is not None:
            strategies = [Strategy(resample_flag)]
        else:
            configured = default_sampling[threshold]
            strategies = (
                [Strategy.ORIGINAL, Strategy.OVER_SAMPLE] if configured == "consensus" else [configured]
            )

        members = []
        for strategy in strategies:
            plan = ResamplePlan(strategy, seed=seed + int(threshold * 10))
            tuning = tune_grid(space, stage_ds, k=folds, seed=seed, plan=plan)
            best = tuning.best.config
            name = _stage_name(threshold, family, strategy)
            for warning in tuning.fold_warnings:
                print(f"note: stage {name}: {warning}", file=sys.stderr)
            report_rows.extend(_cv_report_rows(threshold, name, strategy, tuning, family))
            model = fit_config(best, balance(stage_ds, plan), seed, threads)
            if family == "svm" and not model.converged:
                print(f"warning: stage {name} SVM {best.describe()} did not converge "
                      "within the update cap", file=sys.stderr)
            members.append(SubModel(name, threshold, model))
            print(f"stage {name}: best {tuning.best.describe()} "
                  f"(AC_cv {mx.format_percent(tuning.best.ac_cv)}, F1_cv {mx.format_percent(tuning.best.f1_cv)})")
        stage_objs.append(members[0] if len(members) == 1 else ConsensusPair(members[0], members[1]))

    pipeline = ToxTreePipeline(chain, stage_objs)

    bundle_path = out / f"{target}-toxtree{persistence.BUNDLE_EXTENSION}"
    persistence.save_bundle(
        pipeline,
        bundle_path,
        seed=seed,
        fingerprint=_file_fingerprint(args.descriptors, args.compounds),
        hyperparameters={"target": target, "folds": folds, "grid": _merged(args, "grid", "paper")},
    )

    report_path = out / "cv_report.csv"
    fieldnames = [
        "threshold", "stage", "sampling", "blk", "nblk", "ac_cv", "f1_cv",
        "config", "n_estimators", "max_depth", "kernel", "C", "degree", "converged",
    ]
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(report_rows)
    print(f"wrote {bundle_path} and {report_path}")
    return 0


def _load_pipeline(path: str) -> ToxTreePipeline:
    pipeline = persistence.load_bundle(path)
    if not isinstance(pipeline, ToxTreePipeline):
        raise InvalidInputError("bundle does not contain a pipeline")
    return pipeline


def _whitelist_rows(pipeline: ToxTreePipeline, table: ds.DescriptorTable) -> np.ndarray:
    """The table's columns in the pipeline's whitelist order. A feature the
    table lacks is an all-NaN column, so each row reports it missing."""
    whitelist = pipeline.preprocessing.whitelist
    if whitelist is None:
        raise InvalidInputError("bundle's preprocessing chain has no feature whitelist")
    column = {name: j for j, name in enumerate(table.feature_names)}
    rows = np.full((table.n_rows, len(whitelist)), np.nan)
    for k, name in enumerate(whitelist):
        if name in column:
            rows[:, k] = table.values[:, column[name]]
    return rows


def cmd_predict(args) -> int:
    out = _out_dir(args)
    pipeline = _load_pipeline(args.bundle)
    table = ds.parse_descriptor_csv(args.descriptors)
    rows = _whitelist_rows(pipeline, table)
    path = out / "predictions.csv"
    errors = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["compound_key", "outcome", "deciding_stage", "stage_probability"])
        for key, row in zip(table.row_keys, rows):
            try:
                result = pipeline_predict(pipeline, row)
            except InvalidInputError as exc:
                writer.writerow([key, f"error: {exc}", "", ""])
                errors += 1
                continue
            prob = "" if result.probability is None else repr(result.probability)
            writer.writerow([key, result.outcome.value, result.stage_name, prob])
    print(f"wrote {path} ({table.n_rows - errors} predictions, {errors} errors)")
    return 2 if errors else 0


def cmd_evaluate(args) -> int:
    out = _out_dir(args)
    pipeline = _load_pipeline(args.bundle)
    table = ds.parse_descriptor_csv(args.descriptors)
    compounds = ds.parse_compounds_csv(args.compounds)
    # Keys are unique and match exactly, so pic50 follows the descriptor rows.
    _, _, pic50, _ = _aligned_data(table, compounds, require_exact=True)

    # Predicted potency class per row; None for an inconclusive outcome.
    rows = _whitelist_rows(pipeline, table)
    predicted = [OUTCOME_CLASS.get(pipeline_predict(pipeline, row).outcome) for row in rows]
    truth_labels = [ds.assign_class(p).label_index for p in pic50]
    pred_labels = [mx.INCONCLUSIVE if c is None else c.label_index for c in predicted]
    q_multi = mx.multiclass_accuracy(pred_labels, truth_labels)
    confusion = mx.multiclass_confusion(truth_labels, pred_labels, ds.MULTICLASS_NAMES)

    named_counts = []
    scores = []
    for stage in pipeline.stages:
        weakest_blocker = ds.assign_class(stage.threshold)
        truth = [p >= stage.threshold for p in pic50]
        # Inconclusive counts as non-blocker at every threshold.
        pred = [c is not None and c >= weakest_blocker for c in predicted]
        counts = mx.confusion_from_labels(truth, pred, True)
        named_counts.append((f"{stage.threshold:g}", counts))
        scores.append(mx.binary_metrics(counts))

    text_lines = ["binary metrics by threshold", ""]
    text_lines.append(mx.binary_report_text(named_counts, label_header="threshold").rstrip())
    text_lines.append("")
    text_lines.append("threshold  CCR    MCC")
    for (label, _), m in zip(named_counts, scores):
        text_lines.append(f"{label:<9}  {mx.format_percent(m.ccr):<5}  {mx.format_percent(m.mcc)}")
    text_lines.append("")
    text_lines.append(f"multiclass accuracy: {mx.format_percent(q_multi)}")
    text_lines.append("")
    header = list(ds.MULTICLASS_NAMES) + (["inconclusive"] if confusion.has_inconclusive else [])
    text_lines.append("confusion (rows = truth):")
    name_width = max(len(n) for n in header + list(ds.MULTICLASS_NAMES)) + 2
    text_lines.append(" " * name_width + "  ".join(h.rjust(12) for h in header))
    for i, name in enumerate(ds.MULTICLASS_NAMES):
        cells = "  ".join(str(int(v)).rjust(12) for v in confusion.counts[i])
        text_lines.append(name.ljust(name_width) + cells)
    text = "\n".join(text_lines) + "\n"

    (out / "metrics.txt").write_text(text, encoding="utf-8")
    csv_lines = ["threshold,AC,CCR,MCC,SN,SP,F1,TP,FN,TN,FP"]
    for (label, counts), m in zip(named_counts, scores):
        percents = ",".join(mx.format_percent(v) for v in (m.ac, m.ccr, m.mcc, m.sn, m.sp, m.f1))
        csv_lines.append(f"{label},{percents},{counts.tp},{counts.fn},{counts.tn},{counts.fp}")
    csv_lines.append(f"multiclass,{mx.format_percent(q_multi)},,,,,,,,,")
    (out / "metrics.csv").write_text("\n".join(csv_lines) + "\n", encoding="utf-8")

    print(text, end="")
    print(f"wrote {out / 'metrics.txt'} and {out / 'metrics.csv'}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # Read once per call, so a later call in this process sees later edits.
        args.config_values = _load_config_file(args.config) if args.config else {}
        handler = {
            "curate": cmd_curate,
            "train": cmd_train,
            "predict": cmd_predict,
            "evaluate": cmd_evaluate,
        }[args.command]
        return handler(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, InvalidInputError, BundleError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except CardiotoxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
