"""Seeded synthetic descriptor and compound CSVs at the hERG class mix.

Every compound gets a PIC50 in one of four buckets (strong >= 6, moderate
[5, 6), weak [4.5, 5), non < 4.5). The strong share is the hERG set's
1,596 of 8,380; the other shares split the remainder so that every
threshold (6, 5, 4.5) leaves both classes populated. Descriptors come in
three kinds: informative columns that load on a latent potency score,
correlated columns built from the informative ones, and pure noise
(some of them integer counts, as PaDEL emits). Training files carry a small
share of blank (missing) cells; holdout files are complete, because
``cardiotox evaluate`` rejects missing cells. All rows of one seed have
distinct keys, so the training and holdout sets are disjoint.

The same seed always gives byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

STRONG_SHARE = 1596 / 8380
# Share of blank cells in the training files (holdout files have none).
MISSING_SHARE = 0.002
MODERATE_SHARE = 0.30
WEAK_SHARE = 0.15
THRESHOLDS = (6.0, 5.0, 4.5)
BUCKET_RANGES = ((6.0, 8.5), (5.0, 6.0), (4.5, 5.0), (3.0, 4.5))
# Seeds the descriptor "chemistry" (loadings, scales, column order), which stays
# fixed; the workload seed draws the compounds. Seeds then change the rows but
# not how hard the problem is, so run-to-run cost reflects the program.
STRUCTURE_SEED = 8380


@dataclass(frozen=True)
class InputSpec:
    """Shape of one generated input set."""

    n_train: int
    n_eval: int
    n_features: int
    # Spread of the latent score around the potency; it sets how far the
    # classes overlap, and so how hard SMO works and how deep trees grow.
    latent_noise: float = 0.4


def _bucket_counts(n: int) -> list[int]:
    strong = round(n * STRONG_SHARE)
    moderate = round(n * MODERATE_SHARE)
    weak = round(n * WEAK_SHARE)
    return [strong, moderate, weak, n - strong - moderate - weak]


def _pic50(rng: np.random.Generator, n: int) -> np.ndarray:
    parts = [rng.uniform(lo, hi, size=c) for c, (lo, hi) in zip(_bucket_counts(n), BUCKET_RANGES)]
    values = np.round(np.concatenate(parts), 3)
    return values[rng.permutation(n)]


def _descriptors(rng: np.random.Generator, pic50: np.ndarray, d: int, latent_noise: float) -> np.ndarray:
    n = pic50.shape[0]
    n_inf = max(2, d // 4)
    n_corr = max(1, d // 4)
    n_noise = d - n_inf - n_corr
    n_counts = n_noise // 4
    fixed = np.random.default_rng(STRUCTURE_SEED)
    loadings = fixed.uniform(0.2, 0.8, size=n_inf) * fixed.choice([-1.0, 1.0], size=n_inf)
    mix = fixed.normal(size=(n_inf, n_corr)) / np.sqrt(n_inf)
    scale = fixed.uniform(0.5, 50.0, size=d - n_counts)
    offset = fixed.uniform(-10.0, 10.0, size=d - n_counts)
    order = fixed.permutation(d)

    latent = (pic50 - 5.0) / 1.2 + latent_noise * rng.normal(size=n)
    informative = latent[:, None] * loadings + rng.normal(size=(n, n_inf))
    correlated = informative @ mix + 0.3 * rng.normal(size=(n, n_corr))
    noise = rng.normal(size=(n, n_noise - n_counts))
    continuous = np.hstack([informative, correlated, noise]) * scale + offset
    counts = rng.poisson(3.0, size=(n, n_counts)).astype(float)
    return np.hstack([continuous, counts])[:, order]


def _write_descriptors(path: Path, keys, names, matrix, missing: np.ndarray | None) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["Name", *names])
        for i, key in enumerate(keys):
            cells = [f"{v:.6g}" for v in matrix[i]]
            if missing is not None:
                for j in np.flatnonzero(missing[i]):
                    cells[j] = ""
            writer.writerow([key, *cells])


def _write_compounds(path: Path, keys, pic50) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["compound_key", "smiles", "pic50"])
        for key, p in zip(keys, pic50):
            writer.writerow([key, "C", f"{p:.3f}"])


def check_thresholds(pic50: np.ndarray, label: str) -> None:
    """Raise ValueError unless every threshold leaves both classes non-empty."""
    for t in THRESHOLDS:
        blockers = int(np.sum(pic50 >= t))
        if blockers == 0 or blockers == pic50.shape[0]:
            raise ValueError(f"{label}: threshold {t:g} leaves an empty class")


def generate(spec: InputSpec, seed: int, out: Path, prefix: str) -> dict[str, Path]:
    """Write <prefix>-train/-eval descriptor and compound CSVs under ``out``."""
    rng = np.random.default_rng(seed)
    n = spec.n_train + spec.n_eval
    pic50 = np.concatenate([_pic50(rng, spec.n_train), _pic50(rng, spec.n_eval)])
    matrix = _descriptors(rng, pic50, spec.n_features, spec.latent_noise)
    keys = [f"CPD{seed % 100000:05d}-{i:06d}" for i in range(n)]
    names = [f"D{j:03d}" for j in range(spec.n_features)]
    missing = rng.random((spec.n_train, spec.n_features)) < MISSING_SHARE
    train, held = slice(0, spec.n_train), slice(spec.n_train, n)
    check_thresholds(pic50[train], f"{prefix} train")
    check_thresholds(pic50[held], f"{prefix} eval")

    paths = {
        "train_descriptors": out / f"{prefix}-train-descriptors.csv",
        "train_compounds": out / f"{prefix}-train-compounds.csv",
        "eval_descriptors": out / f"{prefix}-eval-descriptors.csv",
        "eval_compounds": out / f"{prefix}-eval-compounds.csv",
    }
    _write_descriptors(paths["train_descriptors"], keys[train], names, matrix[train], missing)
    _write_compounds(paths["train_compounds"], keys[train], pic50[train])
    _write_descriptors(paths["eval_descriptors"], keys[held], names, matrix[held], None)
    _write_compounds(paths["eval_compounds"], keys[held], pic50[held])
    return paths
