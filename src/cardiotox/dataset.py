"""Activity ingestion, duplicate curation, potency labeling, and stratified splitting.

Potencies are normalized to PIC50 = -log10(concentration in molar). Compounds are
labeled at the 1 uM / 10 uM / 30 uM cut-offs (PIC50 6, 5, 4.5) into strong, moderate,
weak, and non-blocker classes, or binarized at a single threshold.
"""

from __future__ import annotations

import contextlib
import csv
import enum
import math
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import InvalidInputError, ParseError

# Decimal exponent of each supported concentration unit relative to molar.
# Using exponents (not scale factors) keeps pic50_from_potency exact at the
# canonical cut-offs: 1 uM -> 6.0, 10 uM -> 5.0.
UNIT_EXPONENTS = {"M": 0, "mM": 3, "uM": 6, "nM": 9}
POTENCY_KINDS = ("IC50", "Ki", "EC50")

BINARY_CLASS_NAMES = ("blocker", "non-blocker")
MULTICLASS_NAMES = ("strong", "moderate", "weak", "non")

DEFAULT_CELL_PREFERENCE = ("HEK293", "CHO")


# PIC50 cut-offs of the 1 uM, 10 uM and 30 uM potencies, strongest first: the
# i-th separates the i-th strongest PotencyClass from the weaker ones.
CUTOFFS = (6.0, 5.0, 4.5)


class PotencyClass(enum.IntEnum):
    """Blocker intensity classes, ordered STRONG > MODERATE > WEAK > NON."""

    NON = 0
    WEAK = 1
    MODERATE = 2
    STRONG = 3

    @property
    def label_index(self) -> int:
        """Index of this class in MULTICLASS_NAMES (strong first)."""
        return 3 - int(self)


@dataclass(frozen=True)
class ActivityRecord:
    """One raw assay measurement for a compound."""

    compound_key: str
    smiles: str
    potency_value: float
    potency_kind: str
    unit: str
    cell_line: str | None = None
    reference_ordinal: int | None = None

    def __post_init__(self):
        if not math.isfinite(self.potency_value) or self.potency_value <= 0:
            raise InvalidInputError(
                f"potency_value must be a finite positive real, got {self.potency_value!r}"
            )
        if self.unit not in UNIT_EXPONENTS:
            raise InvalidInputError(f"unsupported unit {self.unit!r}")
        if self.potency_kind not in POTENCY_KINDS:
            raise InvalidInputError(f"unsupported potency kind {self.potency_kind!r}")

    @property
    def pic50(self) -> float:
        return pic50_from_potency(self.potency_value, self.unit)


@dataclass(frozen=True)
class Compound:
    """A curated compound with a single normalized PIC50."""

    compound_key: str
    smiles: str
    pic50: float

    def __post_init__(self):
        if not math.isfinite(self.pic50):
            raise InvalidInputError(f"pic50 must be finite, got {self.pic50!r}")


@dataclass
class DescriptorTable:
    """Compounds x named descriptors; NaN cells mark missing values."""

    row_keys: list[str]
    feature_names: list[str]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2:
            raise InvalidInputError("descriptor values must be a 2-D array")
        if self.values.shape != (len(self.row_keys), len(self.feature_names)):
            raise InvalidInputError(
                f"descriptor shape {self.values.shape} does not match "
                f"{len(self.row_keys)} rows x {len(self.feature_names)} features"
            )
        if len(set(self.feature_names)) != len(self.feature_names):
            raise InvalidInputError("feature names must be unique")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    def select(self, features: Sequence[str]) -> "DescriptorTable":
        """Column subset in the given order. Unknown names raise, naming the feature."""
        index = {name: j for j, name in enumerate(self.feature_names)}
        cols = []
        for name in features:
            if name not in index:
                raise InvalidInputError(f"missing descriptor feature {name!r}")
            cols.append(index[name])
        return DescriptorTable(list(self.row_keys), list(features), self.values[:, cols])


@dataclass
class LabeledDataset:
    """Dense feature matrix with one class index per row."""

    matrix: np.ndarray
    labels: np.ndarray
    class_names: tuple[str, ...]

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.labels = np.asarray(self.labels, dtype=int)
        self.class_names = tuple(self.class_names)
        if self.matrix.ndim != 2:
            raise InvalidInputError("matrix must be 2-D")
        if self.labels.shape != (self.matrix.shape[0],):
            raise InvalidInputError("labels length must equal the row count")
        if self.matrix.size and np.isnan(self.matrix).any():
            raise InvalidInputError("matrix must not contain NaN cells")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise InvalidInputError("label index out of range for class_names")

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_features(self) -> int:
        return self.matrix.shape[1]

    def class_counts(self) -> tuple[int, ...]:
        return tuple(int(np.sum(self.labels == i)) for i in range(len(self.class_names)))

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=int)
        return LabeledDataset(self.matrix[idx], self.labels[idx], self.class_names)


@dataclass(frozen=True)
class CurationEntry:
    key: str
    action: str  # kept | merged | discarded
    reason: str


@dataclass
class CurationReport:
    entries: list[CurationEntry] = field(default_factory=list)

    def add(self, key: str, action: str, reason: str) -> None:
        self.entries.append(CurationEntry(key, action, reason))

    def to_text(self) -> str:
        """One KEY<TAB>ACTION<TAB>REASON line per curated compound."""
        return "".join(f"{e.key}\t{e.action}\t{e.reason}\n" for e in self.entries)


def pic50_from_potency(value: float, unit: str) -> float:
    """Convert a concentration to PIC50 = -log10(value in molar).

    Raises InvalidInputError on non-positive or non-finite values and on
    unsupported units.
    """
    if unit not in UNIT_EXPONENTS:
        raise InvalidInputError(f"unsupported unit {unit!r}")
    value = float(value)
    if not math.isfinite(value) or value <= 0:
        raise InvalidInputError(f"potency value must be a finite positive real, got {value!r}")
    return -math.log10(value) + UNIT_EXPONENTS[unit]


def resolve_duplicates(
    records: Sequence[ActivityRecord],
    cell_preference: Sequence[str] = DEFAULT_CELL_PREFERENCE,
    key_overrides: dict[str, str] | None = None,
) -> tuple[list[Compound], CurationReport]:
    """Collapse repeated measurements of the same compound into one PIC50.

    Per compound key: non-IC50 records are dropped first; if a preferred cell
    line is present only its records are considered; a unique latest
    reference_ordinal wins outright; otherwise the PIC50s are averaged unless
    they span more than 1.0 log unit, in which case the compound is discarded.

    ``key_overrides`` optionally maps raw keys to canonical keys before
    grouping (offline stand-in for an external ID-exchange step).
    """
    if not records:
        raise InvalidInputError("no activity records to curate")

    groups: dict[str, list[ActivityRecord]] = {}
    for rec in records:
        key = rec.compound_key
        if key_overrides:
            key = key_overrides.get(key, key)
        groups.setdefault(key, []).append(rec)

    report = CurationReport()
    compounds: list[Compound] = []
    for key, group in groups.items():
        ic50 = [r for r in group if r.potency_kind == "IC50"]
        if not ic50:
            report.add(key, "discarded", "no IC50 records")
            continue

        selected = ic50
        for tag in cell_preference:
            matching = [r for r in ic50 if r.cell_line == tag]
            if matching:
                selected = matching
                break

        if len(selected) == 1:
            rec = selected[0]
            compounds.append(Compound(key, rec.smiles, rec.pic50))
            report.add(key, "kept", "single record" if len(group) == 1 else "single record after filtering")
            continue

        with_refs = [r for r in selected if r.reference_ordinal is not None]
        if with_refs:
            top = max(r.reference_ordinal for r in with_refs)
            winners = [r for r in with_refs if r.reference_ordinal == top]
            if len(winners) == 1:
                rec = winners[0]
                compounds.append(Compound(key, rec.smiles, rec.pic50))
                report.add(key, "kept", f"latest reference (ordinal {top})")
                continue

        pic50s = [r.pic50 for r in selected]
        span = max(pic50s) - min(pic50s)
        if span > 1.0:
            report.add(key, "discarded", f"pic50 span {span:.3f} exceeds 1.0")
            continue
        mean = sum(pic50s) / len(pic50s)
        compounds.append(Compound(key, selected[0].smiles, mean))
        report.add(key, "merged", f"mean of {len(selected)} records (span {span:.3f})")

    return compounds, report


def assign_class(pic50: float) -> PotencyClass:
    """Map a PIC50 to its potency class (blocker side inclusive at each cut).

    A cut-off maps to the weakest class that is a blocker at it.
    """
    pic50 = float(pic50)
    if math.isnan(pic50):
        raise InvalidInputError("pic50 is NaN")
    for cls, cutoff in zip(reversed(PotencyClass), CUTOFFS):
        if pic50 >= cutoff:
            return cls
    return PotencyClass.NON


def binarize(
    compounds: Sequence[Compound],
    threshold: float,
    matrix: np.ndarray | None = None,
) -> LabeledDataset:
    """Label compounds blocker (pic50 >= threshold) vs non-blocker.

    ``matrix`` optionally attaches feature rows aligned with ``compounds``;
    without it the dataset carries a rows x 0 matrix (labels only).
    """
    threshold = float(threshold)
    if not math.isfinite(threshold):
        raise InvalidInputError("threshold must be finite")
    pic50s = np.array([c.pic50 for c in compounds], dtype=float)
    if pic50s.size and np.isnan(pic50s).any():
        raise InvalidInputError("pic50 values must not be NaN")
    labels = np.where(pic50s >= threshold, 0, 1)
    if matrix is None:
        matrix = np.empty((len(compounds), 0))
    return LabeledDataset(matrix, labels, BINARY_CLASS_NAMES)


@dataclass
class FoldPlan:
    """Stratified fold assignment: disjoint row-index arrays covering the data."""

    folds: list[np.ndarray]
    warnings: list[str] = field(default_factory=list)

    def iter_train_val(self) -> Iterable[tuple[np.ndarray, np.ndarray]]:
        all_rows = np.concatenate(self.folds)
        for i, val in enumerate(self.folds):
            mask = np.ones(len(all_rows), dtype=bool)
            mask[val] = False
            yield np.sort(np.flatnonzero(mask)), val


def stratified_kfold(dataset: LabeledDataset, k: int, seed: int) -> FoldPlan:
    """Partition rows into k folds with per-class counts differing by at most 1.

    Classes smaller than k produce a warning in the plan but the partition
    stays valid (some folds simply lack that class).
    """
    if k < 2:
        raise InvalidInputError(f"k must be at least 2, got {k}")
    warnings: list[str] = []
    for c, name in enumerate(dataset.class_names):
        size = int(np.sum(dataset.labels == c))
        if size == 0:
            raise InvalidInputError(f"class {name!r} has no samples")
        if size < k:
            warnings.append(f"class {name!r} has {size} samples, fewer than k={k} folds")

    rng = np.random.default_rng(seed)
    assignments = [[] for _ in range(k)]
    offset = 0
    for c in range(len(dataset.class_names)):
        idx = rng.permutation(np.flatnonzero(dataset.labels == c))
        base, extra = divmod(len(idx), k)
        # Rotate which folds receive the extras so total fold sizes stay within +-1.
        counts = [base + (1 if (f - offset) % k < extra else 0) for f in range(k)]
        offset = (offset + extra) % k
        pos = 0
        for f in range(k):
            assignments[f].extend(idx[pos : pos + counts[f]])
            pos += counts[f]
    folds = [np.sort(np.array(a, dtype=int)) for a in assignments]
    return FoldPlan(folds, warnings)


@contextlib.contextmanager
def text_stream(source, mode: str = "r", error: type[Exception] = ParseError):
    """A caller's open text stream, used as is and never closed here, or a
    path opened as UTF-8 with newline="" (as the csv module needs) and closed
    on exit. Reading skips a leading byte-order mark, as spreadsheet
    "CSV UTF-8" exports write one; writing adds none. A path whose bytes are
    not UTF-8 raises ``error`` naming the file and the first bad byte."""
    if hasattr(source, "read" if mode == "r" else "write"):
        yield source
        return
    path = os.fspath(source)
    with open(path, mode, encoding="utf-8-sig" if mode == "r" else "utf-8", newline="") as stream:
        try:
            yield stream
        except UnicodeDecodeError as exc:
            # The decoder reports offsets within the chunk it was reading, so
            # decode the whole file to find the byte's offset in it.
            try:
                Path(path).read_bytes().decode("utf-8")
            except UnicodeDecodeError as whole:
                exc = whole
            raise error(f"{path} is not UTF-8 text: byte offset {exc.start}: {exc.reason}") from None


def content_lines(source, error: type[Exception] = ParseError) -> Iterator[tuple[int, str]]:
    """Yield (line number, text before any '#', stripped) for each line of a
    text file that has such text; ``error`` is text_stream's."""
    with text_stream(source, error=error) as stream:
        for lineno, raw in enumerate(stream, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                yield lineno, text


def note_first_line(first_lines: dict[str, int], entry: str, line: int, what: str) -> None:
    """Record the line an entry first appears on; a repeat raises ParseError naming both lines."""
    if entry in first_lines:
        raise ParseError(f"duplicate {what} {entry!r} (first on line {first_lines[entry]})", line=line)
    first_lines[entry] = line


def _csv_rows(stream, what: str, required: Sequence[str] = ()) -> Iterator[tuple[int, list[str]]]:
    """Yield (physical line, cells) for each non-blank row of a CSV stream, the
    header first with its names stripped. Blank lines are skipped, before the
    header too. A repeated column name, a missing ``required`` one, or a row
    whose width differs from the header's raises ParseError naming its line."""
    reader = csv.reader(stream)
    header = next((row for row in reader if row), None)
    if header is None:
        raise ParseError(f"empty {what} stream (no header row)", line=1)
    header = [name.strip() for name in header]
    repeated = sorted(name for name, count in Counter(header).items() if count > 1)
    if repeated:
        raise ParseError(f"duplicate column names: {', '.join(repeated)}", line=reader.line_num)
    missing = [name for name in required if name not in header]
    if missing:
        raise ParseError(f"missing required columns: {', '.join(missing)}", line=reader.line_num)
    yield reader.line_num, header
    for row in reader:
        if row:
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} columns, found {len(row)}", line=reader.line_num)
            yield reader.line_num, row


def parse_descriptor_csv(source) -> DescriptorTable:
    """Read a descriptor CSV (header row; first column is the compound key).

    Empty cells and NaN/Infinity tokens become missing values (NaN cells);
    everything else must parse as a finite real. Ragged rows and duplicate
    column names raise ParseError with the offending line number.
    """
    with text_stream(source) as stream:
        reader = _csv_rows(stream, "descriptor")
        _, header = next(reader)
        feature_names = header[1:]
        row_keys: list[str] = []
        rows: list[list[float]] = []
        for line, cells in reader:
            row_keys.append(cells[0].strip())
            try:
                rows.append([float(t) if t else math.nan for t in map(str.strip, cells[1:])])
            except ValueError:
                for name, token in zip(feature_names, map(str.strip, cells[1:])):
                    try:
                        float(token or "nan")
                    except ValueError:
                        raise ParseError(
                            f"cell {token!r} in feature {name!r} is not a real number", line=line
                        ) from None
                raise
        values = np.array(rows, dtype=float) if rows else np.empty((0, len(feature_names)))
        # NaN and Infinity tokens, and overflow to inf, count as missing.
        values[~np.isfinite(values)] = np.nan
        return DescriptorTable(row_keys, feature_names, values)


_UNIT_ALIASES = {"m": "M", "mm": "mM", "um": "uM", "nm": "nM"}
_KIND_ALIASES = {"ic50": "IC50", "ki": "Ki", "ec50": "EC50"}
_ACTIVITY_REQUIRED = ("compound_key", "smiles", "value", "kind", "unit")


def parse_activity_csv(source) -> list[ActivityRecord]:
    """Read activity measurements from a CSV with named columns.

    Required columns: compound_key, smiles, value, kind, unit. Optional:
    cell_line, reference_ordinal. Unit and kind tokens are case-insensitive;
    unknown tokens raise ParseError.
    """
    with text_stream(source) as stream:
        reader = _csv_rows(stream, "activity", _ACTIVITY_REQUIRED)
        _, header = next(reader)
        records: list[ActivityRecord] = []
        for line, cells in reader:
            row = dict(zip(header, cells))
            unit = _UNIT_ALIASES.get(row["unit"].strip().replace("µ", "u").replace("μ", "u").lower())
            if unit is None:
                raise ParseError(f"unsupported unit token {row['unit']!r}", line=line)
            kind = _KIND_ALIASES.get(row["kind"].strip().lower())
            if kind is None:
                raise ParseError(f"unsupported potency kind {row['kind']!r}", line=line)
            try:
                value = float(row["value"])
            except ValueError:
                raise ParseError(f"value {row['value']!r} is not a number", line=line) from None
            ordinal_token = row.get("reference_ordinal", "").strip()
            try:
                ordinal = int(ordinal_token) if ordinal_token else None
            except ValueError:
                raise ParseError(f"reference_ordinal {ordinal_token!r} is not an integer", line=line) from None
            try:
                records.append(
                    ActivityRecord(
                        compound_key=row["compound_key"].strip(),
                        smiles=row["smiles"].strip(),
                        potency_value=value,
                        potency_kind=kind,
                        unit=unit,
                        cell_line=row.get("cell_line", "").strip() or None,
                        reference_ordinal=ordinal,
                    )
                )
            except InvalidInputError as exc:
                raise ParseError(str(exc), line=line) from None
        return records


def load_key_overrides(source) -> dict[str, str]:
    """Read a key override file: raw_key<TAB>canonical_key per line, '#'
    comments. A raw key mapped twice raises ParseError."""
    overrides: dict[str, str] = {}
    first_lines: dict[str, int] = {}
    for line, text in content_lines(source):
        parts = text.split("\t")
        if len(parts) != 2:
            raise ParseError("expected raw_key<TAB>canonical_key", line=line)
        raw_key, canonical = (part.strip() for part in parts)
        note_first_line(first_lines, raw_key, line, "raw key")
        overrides[raw_key] = canonical
    return overrides


def write_compounds_csv(compounds: Sequence[Compound], sink) -> None:
    """Write curated compounds as compound_key,smiles,pic50 rows."""
    with text_stream(sink, "w") as stream:
        writer = csv.writer(stream)
        writer.writerow(["compound_key", "smiles", "pic50"])
        for c in compounds:
            writer.writerow([c.compound_key, c.smiles, repr(c.pic50)])


def parse_compounds_csv(source) -> list[Compound]:
    """Read compounds written by write_compounds_csv. Keys must be unique."""
    with text_stream(source) as stream:
        reader = _csv_rows(stream, "compound", ("compound_key", "smiles", "pic50"))
        _, header = next(reader)
        compounds = []
        first_lines: dict[str, int] = {}
        for line, cells in reader:
            row = dict(zip(header, cells))
            try:
                pic50 = float(row["pic50"])
            except ValueError:
                raise ParseError(f"pic50 {row['pic50']!r} is not a number", line=line) from None
            key = row["compound_key"].strip()
            note_first_line(first_lines, key, line, "compound key")
            try:
                compounds.append(Compound(key, row["smiles"].strip(), pic50))
            except InvalidInputError as exc:
                raise ParseError(str(exc), line=line) from None
        return compounds
