"""Batch command-line front end: curate -> train -> predict / evaluate.

Every command is deterministic given its inputs and train's --seed (bundles
embed a fixed created-at constant and a content fingerprint instead of
wall-clock data). Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import sys
from collections import Counter
from dataclasses import dataclass
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
    ForestConfig,
    PreprocessChain,
    Stage,
    SvmConfig,
    ToxTreePipeline,
    fit_config,
    herg_rf_space,
    pipeline_predict,
    svm_space,
    tune_grid,
)
from .resample import ResamplePlan, Strategy, balance

_CUTOFF_TEXT = ", ".join(f"{t:g}" for t in ds.CUTOFFS)

_STRATEGY_SUFFIX = {Strategy.ORIGINAL: "", Strategy.OVER_SAMPLE: "-ovrs", Strategy.UNDER_SAMPLE: "-unds"}


@dataclass(frozen=True)
class _Target:
    """One target's ToxTree architecture."""

    family: str  # stage model: "rf" (random forest) or "svm"; also the stage-name infix
    grids: dict[str, list]  # --grid name -> tuning space
    sampling: dict[float, tuple[Strategy, ...]]  # per cut-off when --resample is not given; two make a consensus stage
    pca: bool  # PCA (--pca-energy) follows the scaler


# The architectures that won the published grid searches. The hERG weak stage
# is a consensus of the original and over-sampled forests.
_ORIG, _OVER = (Strategy.ORIGINAL,), (Strategy.OVER_SAMPLE,)
_TARGETS = {
    "herg": _Target("rf", {"paper": herg_rf_space(), "quick": [ForestConfig(10), ForestConfig(30)]},
                    dict(zip(ds.CUTOFFS, (_OVER, _OVER, _ORIG + _OVER))), pca=False),
    "nav15": _Target("svm", {"paper": svm_space(),
                             "quick": [SvmConfig("linear", 1.0), SvmConfig("rbf", 1.0), SvmConfig("rbf", 10.0)]},
                     dict(zip(ds.CUTOFFS, (_ORIG, _OVER, _ORIG))), pca=True),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


def _parse_thresholds(text: str) -> tuple[float, ...]:
    """The --thresholds type: a strictly descending subset of the cut-offs."""
    try:
        values = tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not values:
        raise argparse.ArgumentTypeError("no thresholds given")
    if any(v not in ds.CUTOFFS for v in values):
        raise argparse.ArgumentTypeError(f"thresholds must come from {{{_CUTOFF_TEXT}}}")
    if list(values) != sorted(values, reverse=True) or len(set(values)) != len(values):
        raise argparse.ArgumentTypeError("thresholds must be strictly descending")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="cardiotox", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="flat key=value file; explicit flags override it")
        p.add_argument("--out", default=".", help="output directory, made when the first output is written "
                       "(default %(default)s)")

    p = sub.add_parser("curate", help="deduplicate activities and emit PIC50 compounds")
    add_common(p)
    p.add_argument("--activities", required=True, help="activity CSV path")
    p.add_argument("--cell-preference", default=",".join(ds.DEFAULT_CELL_PREFERENCE),
                   help="comma list, most preferred first (default %(default)s)")
    p.add_argument("--key-overrides", default=None, help="raw_key<TAB>canonical_key file")

    p = sub.add_parser("train", help="tune, fit, and bundle a ToxTree pipeline")
    add_common(p)
    p.add_argument("--seed", type=int, default=1729, help="RNG seed, at least 0 (default %(default)s)")
    p.add_argument("--threads", type=int, default=1, help="forest worker threads (default %(default)s)")
    p.add_argument("--descriptors", required=True)
    p.add_argument("--compounds", required=True)
    p.add_argument("--target", choices=tuple(_TARGETS), default="herg",
                   help="architecture to build (default %(default)s)")
    p.add_argument("--thresholds", type=_parse_thresholds, default=_CUTOFF_TEXT,
                   help="descending subset of %(default)s (default all)")
    p.add_argument(
        "--resample",
        choices=tuple(s.value for s in Strategy),
        default=None,
        help="force one sampling strategy for every stage (default: per-target architecture)",
    )
    p.add_argument("--whitelist", default=None, help="feature whitelist file")
    p.add_argument("--folds", type=int, default=10, help="CV folds for tuning (default %(default)s)")
    p.add_argument("--grid", choices=("paper", "quick"), default="paper",
                   help="hyperparameter space (default %(default)s)")
    p.add_argument("--pca-energy", type=float, default=0.9, help="nav15 energy rule (default %(default)s)")

    p = sub.add_parser("predict", help="classify descriptor rows with a trained bundle")
    add_common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--descriptors", required=True)

    p = sub.add_parser("evaluate", help="score a bundle against labeled compounds")
    add_common(p)
    p.add_argument("--bundle", required=True)
    p.add_argument("--descriptors", required=True)
    p.add_argument("--compounds", required=True)

    parser.commands = sub.choices
    return parser


def _load_config_file(path: str, known_keys: set[str]) -> dict[str, str]:
    values: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    try:
        for lineno, line in ds.content_lines(path, error=UsageError):
            if "=" not in line:
                raise ParseError(f"expected key=value, got {line!r}", line=lineno)
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in known_keys:
                raise ParseError(f"unknown key {key!r} (not a flag of any command)", line=lineno)
            ds.note_first_line(first_lines, key, lineno, "key")
            values[key] = value.strip()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    except ParseError as exc:
        raise UsageError(f"config {exc}") from None
    return values


def _parse_with_config(parser: _Parser, argv: list[str] | None) -> argparse.Namespace:
    """Parse argv; a --config file's values become defaults of the running
    command's own flags, so argparse converts them and explicit flags win."""
    args = parser.parse_args(argv)
    if not args.config:
        return args
    # A config file may serve several commands, so it may set any command's flag, and nothing else.
    known = {a.dest for p in parser.commands.values() for a in p._actions if a.option_strings} - {"help", "config"}
    # Read once per call, so a later call in this process sees later edits.
    values = _load_config_file(args.config, known)
    command = parser.commands[args.command]
    own = {a.dest: a for a in command._actions if a.dest in values}
    command.set_defaults(**{key: values[key] for key in own})
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:  # argv parsed once already, so a config value failed its flag's type
        raise UsageError(f"config {exc}") from None
    # argparse checks choices for flags only, so a config value that no flag overrode is checked here.
    for key, action in own.items():
        if action.choices is not None and getattr(args, key) not in action.choices:
            choices = ", ".join(action.choices)
            raise UsageError(f"config {key}: invalid choice {values[key]!r} (choose from {choices})")
    return args


def _output(args, name: str) -> Path:
    """The path of one output file, making the --out directory on first use."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out / name


def _file_fingerprint(*paths: str) -> str:
    digest = hashlib.sha256()
    for p in paths:
        digest.update(Path(p).read_bytes())
    return digest.hexdigest()


def cmd_curate(args) -> int:
    cell_preference = [p.strip() for p in args.cell_preference.split(",") if p.strip()]
    overrides = ds.load_key_overrides(args.key_overrides) if args.key_overrides else None
    records = ds.parse_activity_csv(args.activities)
    compounds, report = ds.resolve_duplicates(records, cell_preference, overrides)
    compounds_path = _output(args, "compounds.csv")
    ds.write_compounds_csv(compounds, compounds_path)
    report_path = _output(args, "curation_report.txt")
    report_path.write_text(report.to_text(), encoding="utf-8")
    kept = sum(1 for e in report.entries if e.action in ("kept", "merged"))
    dropped = len(report.entries) - kept
    print(f"curated {len(records)} records into {len(compounds)} compounds ({dropped} keys discarded)")
    print(f"wrote {compounds_path} and {report_path}")
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


def _cv_report_rows(threshold, name, strategy, class_counts, tuning):
    """cv_report.csv rows, one per configuration; the keys are its columns."""
    rows = []
    for res in tuning.ranked:
        cfg = res.config
        row = {
            "threshold": f"{threshold:g}",
            "stage": name,
            "sampling": strategy.value,
            "blk": class_counts[0],
            "nblk": class_counts[1],
            "ac_cv": mx.format_percent(res.ac_cv),
            "f1_cv": mx.format_percent(res.f1_cv),
            "config": cfg.describe(),
            "n_estimators": getattr(cfg, "n_estimators", ""),
            "max_depth": "" if res.observed_max_depth is None else res.observed_max_depth,
            "kernel": getattr(cfg, "kernel", ""),
            "C": getattr(cfg, "c", ""),
            "degree": getattr(cfg, "degree", "") if getattr(cfg, "kernel", "") == "poly" else "",
            "converged": "" if res.converged is None else str(res.converged).lower(),
        }
        rows.append(row)
    return rows


def cmd_train(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be at least 0, got {args.seed}")
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")
    if args.folds < 2:
        raise UsageError(f"--folds must be at least 2, got {args.folds}")
    if not 0.0 < args.pca_energy <= 1.0:  # NaN fails too
        raise UsageError(f"--pca-energy must be in (0, 1], got {args.pca_energy}")
    target = _TARGETS[args.target]

    table = ds.parse_descriptor_csv(args.descriptors)
    compounds = ds.parse_compounds_csv(args.compounds)
    whitelist = feat.load_feature_whitelist(args.whitelist) if args.whitelist else list(table.feature_names)
    table = _impute_missing(table.select(whitelist))

    keys, matrix, pic50, aligned = _aligned_data(table, compounds, require_exact=False)
    if len(keys) < len(table.row_keys) or len(keys) < len(compounds):
        print(
            f"note: training on {len(keys)} keys present in both inputs "
            f"({len(table.row_keys)} descriptor rows, {len(compounds)} compounds)",
            file=sys.stderr,
        )

    chain, processed = PreprocessChain.fit(matrix, whitelist, args.pca_energy if target.pca else None)
    if chain.pca is not None:
        print(f"PCA keeps {chain.pca.n_components} components ({chain.pca.energy_captured:.4f} energy)")

    report_rows = []
    stage_objs = []
    for threshold in args.thresholds:
        stage_ds = ds.binarize(aligned, threshold, processed)
        counts = stage_ds.class_counts()
        if 0 in counts:
            raise InvalidInputError(
                f"threshold {threshold:g} leaves an empty class (blk {counts[0]}, nblk {counts[1]})"
            )
        strategies = (Strategy(args.resample),) if args.resample else target.sampling[threshold]

        names, models = [], []
        for strategy in strategies:
            plan = ResamplePlan(strategy, seed=args.seed + int(threshold * 10))
            name = _stage_name(threshold, target.family, strategy)
            train_ds = balance(stage_ds, plan)
            try:
                tuning = tune_grid(target.grids[args.grid], stage_ds, k=args.folds, seed=args.seed, plan=plan)
            except InvalidInputError as exc:
                raise InvalidInputError(f"stage {name}: {exc}") from exc
            best = tuning.best.config
            for warning in tuning.fold_warnings:
                print(f"note: stage {name}: {warning}", file=sys.stderr)
            report_rows.extend(_cv_report_rows(threshold, name, strategy, train_ds.class_counts(), tuning))
            model = fit_config(best, train_ds, args.seed, args.threads)
            if not getattr(model, "converged", True):
                print(f"warning: stage {name} SVM {best.describe()} did not converge "
                      "within the update cap", file=sys.stderr)
            names.append(name)
            models.append(model)
            print(f"stage {name}: best {best.describe()} "
                  f"(AC_cv {mx.format_percent(tuning.best.ac_cv)}, F1_cv {mx.format_percent(tuning.best.f1_cv)})")
        stage_objs.append(Stage(threshold, names, models))

    pipeline = ToxTreePipeline(chain, stage_objs)

    bundle_path = _output(args, f"{args.target}-toxtree{persistence.BUNDLE_EXTENSION}")
    persistence.save_bundle(
        pipeline,
        bundle_path,
        seed=args.seed,
        fingerprint=_file_fingerprint(args.descriptors, args.compounds),
        hyperparameters={"target": args.target, "folds": args.folds, "grid": args.grid},
    )

    report_path = _output(args, "cv_report.csv")
    with open(report_path, "w", encoding="utf-8", newline="") as fh:
        # Every stage tunes a non-empty grid, so there is a first row.
        writer = csv.DictWriter(fh, fieldnames=list(report_rows[0]))
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
    column = {name: j for j, name in enumerate(table.feature_names)}
    rows = np.full((table.n_rows, len(whitelist)), np.nan)
    for k, name in enumerate(whitelist):
        if name in column:
            rows[:, k] = table.values[:, column[name]]
    return rows


def _routed(pipeline: ToxTreePipeline, table: ds.DescriptorTable):
    """Each descriptor row's key with its PredictionOutcome, or with the
    InvalidInputError that stopped the row."""
    for key, row in zip(table.row_keys, _whitelist_rows(pipeline, table)):
        try:
            result = pipeline_predict(pipeline, row)
        except InvalidInputError as exc:
            result = exc
        yield key, result


def cmd_predict(args) -> int:
    pipeline = _load_pipeline(args.bundle)
    table = ds.parse_descriptor_csv(args.descriptors)
    path = _output(args, "predictions.csv")
    errors = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["compound_key", "outcome", "deciding_stage", "stage_probability"])
        for key, result in _routed(pipeline, table):
            if isinstance(result, InvalidInputError):
                writer.writerow([key, f"error: {result}", "", ""])
                errors += 1
                continue
            prob = "" if result.probability is None else repr(result.probability)
            writer.writerow([key, result.outcome.value, result.stage_name, prob])
    print(f"wrote {path} ({table.n_rows - errors} predictions, {errors} errors)")
    return 2 if errors else 0


def cmd_evaluate(args) -> int:
    pipeline = _load_pipeline(args.bundle)
    table = ds.parse_descriptor_csv(args.descriptors)
    compounds = ds.parse_compounds_csv(args.compounds)
    # Keys are unique and match exactly, so pic50 follows the descriptor rows.
    _, _, pic50, _ = _aligned_data(table, compounds, require_exact=True)

    predicted = []
    for key, result in _routed(pipeline, table):
        if isinstance(result, InvalidInputError):
            raise InvalidInputError(f"{result} in compound {key!r}") from result
        cls = OUTCOME_CLASS.get(result.outcome)  # None for Inconclusive
        predicted.append(mx.INCONCLUSIVE if cls is None else cls.label_index)
    truth = [ds.assign_class(p).label_index for p in pic50]
    confusion = mx.multiclass_confusion(truth, predicted, ds.MULTICLASS_NAMES)
    # A stage's cut-off makes blockers of its class and every stronger one.
    cutoffs = [(f"{s.threshold:g}", ds.assign_class(s.threshold).label_index + 1) for s in pipeline.stages]
    text, csv_text = mx.evaluation_report(confusion, cutoffs)

    text_path = _output(args, "metrics.txt")
    text_path.write_text(text, encoding="utf-8")
    csv_path = _output(args, "metrics.csv")
    csv_path.write_text(csv_text, encoding="utf-8")
    print(text, end="")
    print(f"wrote {text_path} and {csv_path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = _parse_with_config(parser, argv)
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
    except (ParseError, InvalidInputError, BundleError, OSError) as exc:
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
