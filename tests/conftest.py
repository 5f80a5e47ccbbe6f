"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the implementation's computation paths:
the objective oracle uses direct -y log p - (1-y) log(1-p) sums instead of
the softplus form, the AUC oracle enumerates positive/negative pairs, and
gradient checks use central finite differences. The W-step oracle is the
descent over the individual observed entries that the pattern-pair W step
must reproduce, and the sweep oracle scores one (n, k) flip at a time in
the order the batched sweep kernel must reproduce flip for flip. The split,
mask-writing and scoring oracles are the
one-entry-at-a-time loops whose output the array versions must reproduce
bit for bit.
"""

import math

import numpy as np
import pytest

from laftr import AdjacencyMatrix, ModelState, NumericalError, ObservationMask
from laftr.model import sigmoid, softplus
from laftr.optimizer import FLIP_TOLERANCE, _apply_flip


def oracle_nll(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> float:
    """Direct log-form cross-entropy over observed entries (no softplus)."""
    logits = (state.z @ state.w) @ state.z.T
    p = 1.0 / (1.0 + np.exp(-logits))
    q = 1.0 / (1.0 + np.exp(logits))  # 1 - p, finite in log for saturated logits
    terms = -y.entries * np.log(p) - (1 - y.entries) * np.log(q)
    return float(terms[mask.observed].sum())


def oracle_objective(y: AdjacencyMatrix, mask: ObservationMask, state: ModelState) -> float:
    return oracle_nll(y, mask, state) + state.k_plus * state.lam**2


def oracle_flip_delta(y, mask, state, n, k) -> float:
    """Objective change from flipping z[n, k], by full from-scratch recompute."""
    z_flipped = state.z.copy()
    z_flipped[n, k] = 1.0 - z_flipped[n, k]
    flipped = ModelState.from_factors(z_flipped, state.w, state.lam)
    return oracle_objective(y, mask, flipped) - oracle_objective(y, mask, state)


def exhaustive_flip_improvements(y, mask, state) -> np.ndarray:
    """Objective deltas of every single z-coordinate flip, by recompute."""
    deltas = np.zeros(state.z.shape)
    for n in range(state.z.shape[0]):
        for k in range(state.z.shape[1]):
            deltas[n, k] = oracle_flip_delta(y, mask, state, n, k)
    return deltas


def _softplus_scalar(a: float) -> float:
    return max(a, 0.0) + math.log1p(math.exp(max(-abs(a), -500.0)))


def oracle_sweep_pass(y, mask, state, apply: bool) -> bool:
    """The sweep pass scoring one (n, k) at a time, with scalar diagonal terms.

    Same row-major order, strict-improvement margin and incremental patches
    as the library's batched pass: with apply=True every improving flip is
    taken; with apply=False the scan stops at the first improving flip.
    """
    improved = False
    n_nodes, k_plus = state.z.shape
    if k_plus == 0:
        return False
    obs, yv, w = mask.observed, y.entries, state.w
    for n in range(n_nodes):
        js = np.flatnonzero(obs[n])
        js = js[js != n]
        is_ = np.flatnonzero(obs[:, n])
        is_ = is_[is_ != n]
        y_all = np.concatenate([yv[n, js], yv[is_, n]]).astype(float)
        # row-side entries first, then column-side, in one working vector
        a_all = np.concatenate([state.logits[n, js], state.logits[is_, n]])
        shifts = np.concatenate([state.left_cache[js, :], state.right_cache[is_, :]])
        sp_all = float(softplus(a_all).sum())
        diag_obs = bool(obs[n, n])
        if diag_obs:
            a_nn = float(state.logits[n, n])
            y_nn = float(yv[n, n])
            left_n = state.left_cache[n, :].copy()
            right_n = state.right_cache[n, :].copy()

        for k in range(k_plus):
            d = 1.0 - 2.0 * state.z[n, k]
            da = d * shifts[:, k]
            a_new = a_all + da
            sp_new = float(softplus(a_new).sum())
            delta = sp_new - sp_all - float(y_all @ da)
            if diag_obs:
                da_nn = d * (left_n[k] + right_n[k]) + w[k, k]
                delta += -y_nn * da_nn + _softplus_scalar(a_nn + da_nn) - _softplus_scalar(a_nn)
            if delta < -FLIP_TOLERANCE:
                if not apply:
                    return True
                _apply_flip(state, n, k)
                improved = True
                a_all, sp_all = a_new, sp_new
                if diag_obs:
                    a_nn += da_nn
                    left_n += d * w[:, k]
                    right_n += d * w[k, :]
    return improved


def oracle_optimize_w(y, mask, state, config):
    """optimize_w's backtracking descent, run over the individual observed entries.

    Same step rule, Armijo constant, stall guard and stopping rules as the
    library's W step, but on flat per-observed-entry logit vectors with the
    gradient formed as Z^T R Z from the N x N residual matrix R.
    """
    if state.k_plus == 0:
        return state
    z = state.z
    obs_i, obs_j = np.nonzero(mask.observed)
    y_obs = y.entries[obs_i, obs_j].astype(float)
    w = state.w.copy()

    a_obs = ((z @ w) @ z.T)[obs_i, obs_j]
    f = float(softplus(a_obs).sum() - y_obs @ a_obs)
    if not np.isfinite(f):
        raise NumericalError("non-finite objective entering W descent", state)

    step_start = 1.0
    n = state.n
    residual_full = np.zeros((n, n))
    for _ in range(config.w_max_steps):
        residual_full[obs_i, obs_j] = sigmoid(a_obs) - y_obs
        grad = z.T @ residual_full @ z
        if np.abs(grad).max() < config.w_grad_tol:
            break
        grad_sq = float((grad * grad).sum())
        g_obs = ((z @ grad) @ z.T)[obs_i, obs_j]

        step = step_start
        accepted = False
        while step > 1e-20:
            a_new = a_obs - step * g_obs
            f_new = float(softplus(a_new).sum() - y_obs @ a_new)
            if np.isfinite(f_new) and f_new <= f - 1e-4 * step * grad_sq:
                accepted = True
                break
            step *= 0.5
        if not accepted or f_new >= f:
            break
        w -= step * grad
        a_obs = a_new
        step_start = min(1.0, 2.0 * step)
        if (f - f_new) < 1e-12 * max(1.0, abs(f)):
            f = f_new
            break
        f = f_new
    state.w = w
    state.rebuild_caches()
    return state


def oracle_split_observations(adj: AdjacencyMatrix, train_fraction, seed, tie_symmetric):
    """split_observations over a list of (i, j) unit tuples, dealt one by one."""
    n = adj.n
    rng = np.random.default_rng(seed)
    if tie_symmetric:
        units = [(i, j) for i in range(n) for j in range(i + 1, n)]
    else:
        units = [(i, j) for i in range(n) for j in range(n) if i != j]
    m = len(units)
    n_train = int(math.floor(train_fraction * m + 1e-9))
    order = rng.permutation(m)

    train = np.zeros((n, n), dtype=bool)
    test = np.zeros((n, n), dtype=bool)
    for rank, unit_idx in enumerate(order):
        i, j = units[unit_idx]
        target = train if rank < n_train else test
        target[i, j] = True
        if tie_symmetric:
            target[j, i] = True
    return ObservationMask(n, train), ObservationMask(n, test)


def oracle_write_mask(train: ObservationMask, test: ObservationMask) -> str:
    """write_mask formatted one entry at a time."""
    lines = []
    either = train.observed | test.observed
    for i, j in np.argwhere(either):
        lines.append(f"{i} {j} {1 if train.observed[i, j] else 0}")
    return "\n".join(lines) + "\n"


def oracle_link_probabilities(state: ModelState, pairs) -> list[float]:
    """Per-pair scalar sigmoid of the cached logits, in input order."""
    return [float(sigmoid(state.logits[i, j])) for i, j in pairs]


def oracle_auc(scores, labels) -> float:
    """Pairwise enumeration: concordant pairs plus half credit for ties."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def random_instance(rng, n, k, density=0.4):
    """Random adjacency, full off-diagonal mask, and a random coherent state."""
    entries = (rng.random((n, n)) < density).astype(np.int8)
    np.fill_diagonal(entries, 0)
    y = AdjacencyMatrix(n, entries)
    mask = ObservationMask.full(n)
    z = (rng.random((n, k)) < 0.5).astype(float)
    w = rng.normal(0.0, 1.0, (k, k))
    state = ModelState.from_factors(z, w, lam=0.5)
    return y, mask, state


def assert_monotone_trace(report, slack=1e-9):
    trace = np.asarray(report.objective_trace)
    assert trace.size > 0
    assert (np.diff(trace) <= slack).all(), f"objective trace increased: {trace}"


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
