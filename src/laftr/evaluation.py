"""Held-out link prediction scoring and hyperparameter cross-validation."""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .errors import UndefinedMetricError
from .graph import AdjacencyMatrix, ObservationMask, _deal_units, split_observations
from .model import ModelState, link_probability
from .optimizer import FitConfig, FitReport, fit

__all__ = [
    "SplitResult",
    "predict_links",
    "auc_from_scores",
    "class_counts",
    "heldout_scorer",
    "evaluate_split",
    "cross_validate_lambda",
    "run_splits",
]


def predict_links(state: ModelState, pairs) -> np.ndarray:
    """Link probability for each (i, j) pair, in order, as a float64 array.

    ``pairs`` must be shaped (M, 2), or be empty; anything else is a
    ValueError. Indices that are not integers are a TypeError, as in
    link_probability.
    """
    pairs = np.asarray(pairs)
    if pairs.size == 0:
        return np.zeros(0)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError(f"pairs must be shaped (M, 2), got {pairs.shape}")
    return link_probability(state, pairs[:, 0], pairs[:, 1])


def class_counts(labels: np.ndarray) -> tuple[int, int]:
    """Positives and negatives among the labels.

    ValueError for a label other than 0 or 1; UndefinedMetricError unless
    both classes occur.
    """
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos + n_neg != labels.size:
        raise ValueError("labels must be 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError(
            f"AUC needs both classes; got {n_pos} positives and {n_neg} negatives"
        )
    return n_pos, n_neg


def auc_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC: P(random positive outranks random negative), ties at half credit.

    The rank sum of the positives comes from one argsort: equal scores form
    a group (-0.0 equals 0.0), and the group at sorted positions
    [start, end) has the average rank (start + end + 1) / 2. Twice that rank
    sum is summed as an integer, so it is exact, and each float after it is
    exact while M(M+1) < 2^53 for M scores; the AUC then has the bits of the
    scipy ``rankdata`` formula (tests/conftest.py ``oracle_rank_auc``). A NaN
    score gives nan.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValueError(f"scores {scores.shape}, labels {labels.shape}: must be 1-D of equal length")
    n_pos, n_neg = class_counts(labels)
    order = np.argsort(scores)
    ordered = scores[order]
    if np.isnan(ordered[-1]):  # argsort puts NaN last
        return float("nan")
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], scores.size]
    group_pos = np.add.reduceat(labels[order] == 1, starts, dtype=np.int64)
    twice_rank_sum = int(group_pos @ (starts + ends + 1))
    u = (twice_rank_sum - n_pos * (n_pos + 1)) / 2
    return u / (n_pos * n_neg)


def heldout_scorer(y: AdjacencyMatrix, test_mask: ObservationMask):
    """The held-out AUC as a function of a state, for the entries of the test mask.

    It gathers the test entries and their labels once; single-class labels
    raise UndefinedMetricError here, before anything is fitted.
    """
    rows, cols = np.nonzero(test_mask.observed)
    labels = y.entries[rows, cols]
    class_counts(labels)
    return lambda state: auc_from_scores(link_probability(state, rows, cols), labels)


def evaluate_split(
    y: AdjacencyMatrix,
    train_mask: ObservationMask,
    test_mask: ObservationMask,
    config: FitConfig,
) -> tuple[float, FitReport]:
    """Fit on the train mask and score every test entry by AUC.

    Only the train mask is handed to the fitter, so held-out entries cannot
    influence the learned model. Single-class held-out labels raise
    UndefinedMetricError before anything is fitted.
    """
    if (train_mask.observed & test_mask.observed).any():
        raise ValueError("train and test masks overlap")
    score = heldout_scorer(y, test_mask)
    report = fit(y, train_mask, config)
    return score(report.final_state), report


def cross_validate_lambda(
    y: AdjacencyMatrix,
    train_mask: ObservationMask,
    grid,
    folds: int,
    seed: int,
    config: FitConfig,
) -> tuple[float, list[tuple[float, float]]]:
    """k-fold cross-validation of the penalty weight over the observed train entries.

    The observed entries are dealt into ``folds`` nearly equal folds by
    split_observations' routine (graph._deal_units) with the given seed. A
    symmetric mask is dealt by unordered pairs {i, j}, its upper triangle,
    so no fold trains on the mirror of an entry it validates on.
    Each grid value is scored by mean validation AUC over the usable folds
    (folds whose validation labels are single-class are skipped with a
    warning). Returns the best value (ties go to the smaller lambda)
    and the full (lambda, mean_auc) table in grid order.
    """
    grid = [float(g) for g in grid]
    if not grid:
        raise ValueError("lambda grid must be non-empty")
    if folds < 2:
        raise ValueError(f"folds must be >= 2, got {folds}")

    observed = train_mask.observed
    symmetric = np.array_equal(observed, observed.T)
    dealt = _deal_units(np.triu(observed) if symmetric else observed, folds, seed, symmetric)

    # fold usability depends only on the labels, not on lambda
    usable: list[tuple[ObservationMask, ObservationMask]] = []
    for f, val in enumerate(dealt):
        if len(np.unique(y.entries[val])) < 2:
            warnings.warn(f"fold {f} skipped: single-class validation labels")
            continue
        usable.append((ObservationMask(y.n, observed & ~val), ObservationMask(y.n, val)))
    if not usable:
        raise UndefinedMetricError("every cross-validation fold was single-class")

    table: list[tuple[float, float]] = []
    for lam in grid:
        lam_config = replace(config, lam=lam)
        aucs = [evaluate_split(y, tr, val, lam_config)[0] for tr, val in usable]
        table.append((lam, float(np.mean(aucs))))

    best_lambda = min(table, key=lambda row: (-row[1], row[0]))[0]
    return best_lambda, table


@dataclass(frozen=True)
class SplitResult:
    """Outcome of one seeded train/test split."""

    seed: int
    lam: float
    k_final: int
    auc: float
    seconds: float
    train_mask: ObservationMask
    test_mask: ObservationMask


def run_splits(
    y: AdjacencyMatrix,
    n_splits: int,
    train_fraction: float,
    config: FitConfig,
    tie_symmetric: bool | None = None,
) -> list[SplitResult]:
    """Repeat the split/fit/score protocol for seeds config.seed .. config.seed+n_splits-1.

    Splits run one after another; results are ordered by seed.
    """
    if n_splits < 1:
        raise ValueError(f"n_splits must be >= 1, got {n_splits}")
    results = []
    for split_seed in range(config.seed, config.seed + n_splits):
        t0 = time.perf_counter()
        train, test = split_observations(y, train_fraction, split_seed, tie_symmetric)
        auc, report = evaluate_split(y, train, test, replace(config, seed=split_seed))
        results.append(SplitResult(
            seed=split_seed,
            lam=config.lam,
            k_final=report.final_state.k_plus,
            auc=auc,
            seconds=time.perf_counter() - t0,
            train_mask=train,
            test_mask=test,
        ))
    return results
