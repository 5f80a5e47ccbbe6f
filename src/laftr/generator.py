"""Synthetic data: Indian buffet process draws and graphs sampled from the model.

The sampler follows the sequential buffet construction: customer i takes an
already-tasted dish k with probability (count so far)/i, then tries
Poisson(alpha/i) brand-new dishes. The total dish count is therefore a sum
of independent Poisson(alpha/i) draws, i.e. Poisson(alpha * H_n) exactly,
which the tests use as an oracle.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import AdjacencyMatrix
from .model import ModelState, _node_pattern_logits, sigmoid

__all__ = [
    "sample_ibp",
    "sample_edges",
    "sample_lfrm",
    "planted_blocks",
    "block_weights",
]


# rows of the graph drawn per block of sample_edges
_EDGE_BLOCK_ROWS = 32


def _as_rng(seed) -> np.random.Generator:
    return seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)


def sample_ibp(n: int, alpha: float, seed) -> np.ndarray:
    """Draw a binary feature-allocation matrix for n customers.

    Row i samples each existing dish k with probability counts[k]/(i+1) and
    appends Poisson(alpha/(i+1)) new dishes. Columns appear in discovery
    order. ``seed`` may be an int or an existing Generator (the stream is
    consumed, which lets callers chain draws deterministically).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= alpha < math.inf:
        raise ValueError(f"alpha must be >= 0 and finite, got {alpha}")
    rng = _as_rng(seed)

    # z and counts grow by doubling; float64 counts are whole numbers, so
    # counts / i has the bits it had with int64 counts
    z = np.zeros((n, 8), dtype=np.int8)
    counts = np.zeros(8)
    k = 0
    for i in range(1, n + 1):
        if k:
            taken = z[i - 1, :k]
            np.less(rng.random(k), counts[:k] / i, out=taken)
            counts[:k] += taken
        n_new = int(rng.poisson(alpha / i))
        if n_new:
            if k + n_new > counts.size:
                size = max(2 * counts.size, k + n_new)
                z = np.pad(z, ((0, 0), (0, size - counts.size)))
                counts = np.pad(counts, (0, size - counts.size))
            z[i - 1, k:k + n_new] = 1
            counts[k:k + n_new] = 1
            k += n_new
    return np.ascontiguousarray(z[:, :k])


def sample_edges(z: np.ndarray, w: np.ndarray, seed) -> AdjacencyMatrix:
    """Draw a directed graph from fixed factors: y_ij ~ Bernoulli(sigma(z_i W z_j)).

    The diagonal is fixed at 0 to match the no-self-link convention. The
    logits are those ModelState.logits gives for the same factors, and a
    link's probability depends only on its pair of membership patterns, so
    the sigmoid is taken once per pattern pair. Rows are drawn in blocks of
    _EDGE_BLOCK_ROWS: the uniforms and the final generator state are those
    of one (n, n) draw, so the graph is that of sigmoid(logits) compared
    with rng.random((n, n)), and no N x N float array is formed.
    """
    rng = _as_rng(seed)
    table, inverse = _node_pattern_logits(ModelState.from_factors(z, w, 0.0))
    probs = sigmoid(table)
    n = inverse.size
    y = np.empty((n, n), dtype=np.int8)
    for start in range(0, n, _EDGE_BLOCK_ROWS):
        rows = inverse[start:start + _EDGE_BLOCK_ROWS]
        np.less(rng.random((rows.size, n)), probs.take(rows, 0).take(inverse, 1),
                out=y[start:start + rows.size])
    np.fill_diagonal(y, 0)
    symmetric = bool((y == y.T).all())
    return AdjacencyMatrix(n, y, symmetric_hint=symmetric)


def sample_lfrm(
    n: int, alpha: float, sigma_w: float, seed
) -> tuple[np.ndarray, np.ndarray, AdjacencyMatrix]:
    """Full generative draw: Z from the buffet prior, Gaussian W, Bernoulli edges."""
    if not 0 < sigma_w < math.inf:
        raise ValueError(f"sigma_w must be positive and finite, got {sigma_w}")
    rng = _as_rng(seed)
    z = sample_ibp(n, alpha, rng)
    k = z.shape[1]
    w = rng.normal(0.0, sigma_w, (k, k))
    y = sample_edges(z, w, rng)
    return z, w, y


def planted_blocks(n: int, k: int) -> np.ndarray:
    """Membership matrix assigning nodes to k disjoint, near-equal blocks."""
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    z = np.zeros((n, k))
    bounds = np.linspace(0, n, k + 1).astype(int)
    for block in range(k):
        z[bounds[block] : bounds[block + 1], block] = 1.0
    return z


def block_weights(k: int, on: float = 6.0, off: float = -6.0) -> np.ndarray:
    """Interaction matrix with ``on`` on the diagonal and ``off`` elsewhere; both must be finite."""
    if not (math.isfinite(on) and math.isfinite(off)):
        raise ValueError(f"block weights must be finite, got on={on}, off={off}")
    return np.full((k, k), off) + (on - off) * np.eye(k)
