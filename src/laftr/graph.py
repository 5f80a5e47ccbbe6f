"""Loading, representing, and splitting binary relational data, and its text formats.

An adjacency matrix is dense N x N with entries in {0, 1}; the datasets this
package targets are at most a few thousand nodes, so dense storage keeps the
downstream arithmetic simple. Observation masks record which entries
are visible to the fitter (train) versus held out (test); the diagonal is
excluded by default since self-links are meaningless for these graphs.

Every text format of the package is read and written here: the dense
matrix, the edge list, the mask file, and the pair file and predictions
CSV of ``laftr predict``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, TextIO

import numpy as np

from .errors import ParseError

__all__ = [
    "AdjacencyMatrix",
    "ObservationMask",
    "load_edge_list",
    "load_dense_matrix",
    "split_observations",
    "write_dense",
    "write_mask",
    "load_mask",
    "load_pairs",
    "write_predictions",
]


@dataclass(frozen=True)
class AdjacencyMatrix:
    """Dense binary relation over ``n`` nodes.

    ``symmetric_hint`` records whether the source data looked symmetric at
    load time; split routines use it to decide whether mirrored entries
    should share a train/test assignment.
    """

    n: int
    entries: np.ndarray
    symmetric_hint: bool = False

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=np.int8)
        if entries.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {entries.shape}")
        if not np.isin(entries, (0, 1)).all():
            raise ValueError("adjacency entries must be 0 or 1")
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


@dataclass(frozen=True)
class ObservationMask:
    """Boolean N x N mask of which entries of Y are observed.

    Masks with zero observed entries are legal (they arise from degenerate
    splits); operations that require observations validate locally.
    """

    n: int
    observed: np.ndarray

    def __post_init__(self):
        observed = np.asarray(self.observed, dtype=bool)
        if observed.shape != (self.n, self.n):
            raise ValueError(f"mask must be {self.n}x{self.n}, got {observed.shape}")
        observed.setflags(write=False)
        object.__setattr__(self, "observed", observed)

    @property
    def count(self) -> int:
        return int(self.observed.sum())

    @classmethod
    def full(cls, n: int, include_diagonal: bool = False) -> "ObservationMask":
        """Mask observing every entry (off-diagonal only unless requested)."""
        observed = np.ones((n, n), dtype=bool)
        if not include_diagonal:
            np.fill_diagonal(observed, False)
        return cls(n, observed)


def _iter_data_lines(stream: Iterable[str]):
    """Yield (line_number, stripped_line) skipping blanks and '#' comments."""
    for lineno, raw in enumerate(stream, start=1):
        line = raw.strip()
        if line and line[0] != "#":
            yield lineno, line


# the ASCII bytes str.split() and str.strip() treat as whitespace
_SPACE = np.zeros(256, dtype=bool)
_SPACE[list(b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f ")] = True


def _read_lines(stream: Iterable[str] | TextIO) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Read a text stream whole: its UTF-8 bytes, their uint8 view and its line bounds.

    Line k (numbered k + 1) is ``data[bounds[k]:bounds[k + 1]]``, its
    "\\n" included, so no line is empty and the lines are those that
    iterating the stream yields. A stream without ``read`` is an iterable
    of lines.
    """
    if hasattr(stream, "read"):
        text = stream.read()
    else:
        text = "\n".join(line.removesuffix("\n") for line in stream)
    data = text.encode("utf-8", "surrogatepass")
    buf = np.frombuffer(data, dtype=np.uint8)
    if not buf.size:
        return data, buf, np.zeros(1, dtype=np.intp)
    starts = np.flatnonzero(buf[:-1] == ord("\n")) + 1
    return data, buf, np.concatenate(([0], starts, [buf.size]))


def _lines_of(bounds: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """Sorted indices of the lines that hold a flagged byte."""
    return np.unique(np.searchsorted(bounds, np.flatnonzero(flagged), side="right") - 1)


def _parse_lines(data: bytes, bounds: np.ndarray, lines: np.ndarray, parse_line) -> dict:
    """``{k: parse_line(stripped line, line number)}`` for the data lines among ``lines``.

    Blank and '#' lines are skipped as _iter_data_lines skips them. The
    lines are parsed in order, so the first bad one raises.
    """
    parsed = {}
    for k in lines.tolist():
        line = data[bounds[k]:bounds[k + 1]].decode("utf-8", "surrogatepass").strip()
        if line and line[0] != "#":
            parsed[k] = parse_line(line, k + 1)
    return parsed


def _index_width(n: int) -> int:
    """Decimal digits of the largest node index below ``n``."""
    return len(str(max(n - 1, 0)))


def _pair_rows(rows: np.ndarray, cols: np.ndarray, n: int, sep: bytes, tail: bytes) -> np.ndarray:
    """Fixed-width uint8 rows "<rows[m]><sep><cols[m]><tail>" for indices below ``n``.

    Each index is laid out left-aligned in _index_width(n) bytes, padded
    with zero bytes that _unpad removes. The zero bytes of ``tail`` are
    left for the caller to fill.
    """
    width = _index_width(n)
    digits = np.arange(n).astype(f"S{width}").view(np.uint8).reshape(n, width)
    out = np.zeros((len(rows), 2 * width + 1 + len(tail)), dtype=np.uint8)
    out[:, :width] = np.take(digits, rows, axis=0)
    out[:, width] = ord(sep)
    out[:, width + 1:2 * width + 1] = np.take(digits, cols, axis=0)
    for k, byte in enumerate(tail, start=2 * width + 1):  # a scalar per column fills fastest
        if byte:
            out[:, k] = byte
    return out


def _unpad(rows: np.ndarray) -> str:
    """The text of fixed-width uint8 rows with their zero padding bytes removed."""
    return str(rows[rows != 0], "ascii")


def load_edge_list(stream: Iterable[str] | TextIO, n: int | None = None) -> AdjacencyMatrix:
    """Parse "src dst [value]" lines (tab- or space-separated) into a matrix.

    Node ids are non-negative integers; the optional third token must be 0
    or 1 (default 1). If ``n`` is omitted it is inferred as 1 + max id.
    Repeating a line is idempotent; giving one pair two different values is
    a ParseError at the second line. The result carries symmetric_hint=False:
    an edge list is read as a directed relation.
    """
    edges: dict[tuple[int, int], int] = {}
    max_id = -1
    for lineno, line in _iter_data_lines(stream):
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(f"expected 'src dst [value]', got {line!r}", lineno)
        try:
            src, dst = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer node id in {line!r}", lineno) from None
        if src < 0 or dst < 0:
            raise ParseError(f"negative node id in {line!r}", lineno)
        if n is not None and (src >= n or dst >= n):
            raise ParseError(f"node id out of range (n={n}) in {line!r}", lineno)
        value = 1
        if len(parts) == 3:
            try:
                value = int(parts[2])
            except ValueError:
                raise ParseError(f"non-integer edge value in {line!r}", lineno) from None
            if value not in (0, 1):
                raise ParseError(f"edge value must be 0 or 1, got {value}", lineno)
        if edges.setdefault((src, dst), value) != value:
            raise ParseError(f"conflicting value for pair ({src}, {dst}) in {line!r}", lineno)
        max_id = max(max_id, src, dst)

    if n is None and max_id < 0:
        raise ParseError("cannot infer node count from an empty edge list; pass n")
    size = n if n is not None else max_id + 1
    entries = np.zeros((size, size), dtype=np.int8)
    for (src, dst), value in edges.items():
        entries[src, dst] = value
    return AdjacencyMatrix(size, entries, symmetric_hint=False)


def load_dense_matrix(stream: Iterable[str] | TextIO) -> AdjacencyMatrix:
    """Parse N rows of N whitespace-separated {0,1} tokens.

    Blank lines and lines starting with '#' are skipped. The file is read
    whole and checked with array masks; a line they cannot vouch for (a
    comment, a token such as ``01`` or ``+1``, any other byte) is parsed
    with ``int()`` token by token, so it is accepted or rejected exactly as
    a line-by-line parse would. symmetric_hint is set by checking the
    parsed matrix against its transpose.
    """
    data, buf, bounds = _read_lines(stream)
    digit = (buf | 1) == ord("1")  # b"0" or b"1"
    bad = ~(digit | _SPACE[buf])
    bad[1:] |= digit[1:] & digit[:-1]  # a token longer than one byte
    slow = _lines_of(bounds, bad)
    counts = np.add.reduceat(digit, bounds[:-1], dtype=np.intp)  # tokens per fast line
    counts[slow] = 0
    slow_rows = _parse_lines(data, bounds, slow, _dense_row)
    for k, row in slow_rows.items():
        counts[k] = len(row)

    row_lines = np.flatnonzero(counts)
    size = row_lines.size
    if size == 0:
        raise ParseError("empty matrix file")
    ragged = row_lines[counts[row_lines] != size]
    if ragged.size:
        k = int(ragged[0])
        raise ParseError(f"ragged row: expected {size} tokens, got {counts[k]}", k + 1)
    fast = np.ones(len(bounds) - 1, dtype=bool)
    fast[slow] = False
    if slow.size:
        digit &= np.repeat(fast, np.diff(bounds))
    entries = np.empty((size, size), dtype=np.int8)
    entries[fast[row_lines]] = (buf[digit] - ord("0")).reshape(-1, size)
    for k, row in slow_rows.items():
        entries[np.searchsorted(row_lines, k)] = row
    symmetric = bool((entries == entries.T).all())
    return AdjacencyMatrix(size, entries, symmetric_hint=symmetric)


def _dense_row(line: str, lineno: int) -> list[int]:
    """One stripped data line of a dense matrix file, parsed token by token."""
    try:
        row = [int(t) for t in line.split()]
    except ValueError:
        raise ParseError(f"non-integer token in row {line!r}", lineno) from None
    if any(v not in (0, 1) for v in row):
        raise ParseError("matrix tokens must be 0 or 1", lineno)
    return row


def write_dense(adj: AdjacencyMatrix) -> str:
    """Serialize to the dense format; load_dense_matrix round-trips it bit-exactly."""
    out = np.full((adj.n, 2 * adj.n), ord(" "), dtype=np.uint8)
    out[:, 0::2] = adj.entries + ord("0")
    out[:, -1:] = ord("\n")  # a slice, so that n = 0 gives no IndexError
    return out.tobytes().decode("ascii") or "\n"


def _deal_units(units: np.ndarray, sections, seed: int, mirror: bool) -> list[np.ndarray]:
    """Deal the True entries of the boolean unit mask ``units`` into disjoint parts, reproducibly.

    The units, in row-major order (that of ``np.argwhere``), are permuted by
    one ``np.random.default_rng(seed).permutation`` call and the permutation
    is cut as ``np.array_split(permutation, sections)`` cuts it: ``sections``
    is a part count, for nearly equal parts, or a list of cut points. Part f
    is a boolean mask of the units at the ranks of cut f. With ``mirror``,
    each part also holds the transpose of each of its units. The unit order
    and the single permutation call fix which units a seed deals where;
    changing either changes every saved split and fold.
    """
    m = np.count_nonzero(units)
    chunks = np.array_split(np.random.default_rng(seed).permutation(m), sections)
    parts, rest = [], units
    # each part is scattered through the unit mask but the last, which is what
    # the others leave: a split then costs one scatter
    for chunk in chunks[:-1]:
        dealt = np.zeros(m, dtype=bool)
        dealt[chunk] = True
        part = np.zeros(units.shape, dtype=bool)
        part[units] = dealt
        rest = rest & ~part
        parts.append(part)
    parts.append(rest)
    return [part | part.T for part in parts] if mirror else parts


def split_observations(
    adj: AdjacencyMatrix,
    train_fraction: float,
    seed: int,
    tie_symmetric: bool | None = None,
) -> tuple[ObservationMask, ObservationMask]:
    """Partition off-diagonal entries into train and test masks, reproducibly.

    When ``tie_symmetric`` (default: the matrix's symmetric_hint), (i, j) and
    (j, i) always land in the same partition and the fraction applies to the
    (N^2-N)/2 unordered pairs. Train gets floor(train_fraction * M) of the M
    eligible units; test gets the rest. Diagonal entries are never eligible.

    The eligible units are the True entries of a boolean unit mask (the
    strict upper triangle when tied, else the off-diagonal), dealt by
    _deal_units into the first floor(train_fraction * M) ranks of the
    permutation and the rest; cross_validate_lambda deals its folds with
    the same routine.
    """
    if not (0.0 < train_fraction <= 1.0):
        raise ValueError(f"train_fraction must be in (0, 1], got {train_fraction}")
    if tie_symmetric is None:
        tie_symmetric = adj.symmetric_hint
    n = adj.n
    units = np.triu(np.ones((n, n), dtype=bool), 1) if tie_symmetric else ~np.eye(n, dtype=bool)
    # guard against FP sitting a hair below an exact integer product
    n_train = int(math.floor(train_fraction * np.count_nonzero(units) + 1e-9))
    train, test = _deal_units(units, [n_train], seed, tie_symmetric)
    return ObservationMask(n, train), ObservationMask(n, test)


def write_mask(train: ObservationMask, test: ObservationMask) -> str:
    """Serialize a split as "i j {0|1}" lines (1 = train), row-major order."""
    either = train.observed | test.observed
    n = train.n
    rows = np.repeat(np.arange(n, dtype=np.int32), either.sum(axis=1))
    cols = np.broadcast_to(np.arange(n, dtype=np.int32), (n, n))[either]
    out = _pair_rows(rows, cols, n, b" ", b" 0\n")
    out[:, -2] += train.observed[either]
    return _unpad(out) or "\n"


def load_mask(stream: Iterable[str] | TextIO, n: int) -> tuple[ObservationMask, ObservationMask]:
    """Parse a mask file back into (train, test) masks.

    Repeating a line is idempotent; flagging one pair both 1 and 0 is a
    ParseError at the second line, so no entry is both trained on and held out.
    """
    train = np.zeros((n, n), dtype=bool)
    test = np.zeros((n, n), dtype=bool)
    for lineno, line in _iter_data_lines(stream):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"expected 'i j flag', got {line!r}", lineno)
        try:
            i, j, flag = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise ParseError(f"non-integer token in {line!r}", lineno) from None
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"index out of range (n={n}) in {line!r}", lineno)
        if flag not in (0, 1):
            raise ParseError(f"mask flag must be 0 or 1, got {flag}", lineno)
        if (test if flag == 1 else train)[i, j]:
            raise ParseError(f"conflicting flag for pair ({i}, {j}) in {line!r}", lineno)
        (train if flag == 1 else test)[i, j] = True
    return ObservationMask(n, train), ObservationMask(n, test)


def load_pairs(stream: Iterable[str] | TextIO, n: int) -> np.ndarray:
    """Parse a pair file, 'i j' or 'i,j' lines, into an (M, 2) int64 array of indices below ``n``.

    Blank lines and '#' comments are skipped. As in load_dense_matrix,
    array masks accept the plain lines and every other line goes through
    ``_pair``, which accepts or rejects it token by token; a bad line is a
    ParseError that names it.
    """
    data, buf, bounds = _read_lines(stream)
    digit = (buf >= ord("0")) & (buf <= ord("9"))
    edges = np.diff(digit.view(np.int8), prepend=0, append=0)
    starts, ends = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    counts = np.diff(np.searchsorted(starts, bounds))  # digit runs per line
    width = _index_width(n)
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(width):  # the k-th digit from the right of every run
        pos = ends - 1 - k
        inside = pos >= starts
        values[inside] += (buf[pos[inside]] - ord("0")) * np.int64(10**k)

    slow = counts != 2
    slow[_lines_of(bounds, ~(digit | _SPACE[buf] | (buf == ord(","))))] = True
    token_line = np.repeat(np.arange(slow.size), counts)
    # a run longer than n - 1's digits has leading zeros or is out of range: _pair decides
    slow[token_line[(ends - starts > width) | (values >= n)]] = True
    pairs = np.empty((slow.size, 2), dtype=np.int64)
    pairs[~slow] = values[~slow[token_line]].reshape(-1, 2)
    is_pair = ~slow
    for k, pair in _parse_lines(data, bounds, np.flatnonzero(slow),
                                functools.partial(_pair, n=n)).items():
        pairs[k] = pair
        is_pair[k] = True
    return pairs[is_pair]


def _pair(line: str, lineno: int, n: int) -> tuple[int, int]:
    """One stripped data line of a pair file, parsed token by token."""
    parts = line.replace(",", " ").split()
    if len(parts) != 2:
        raise ParseError(f"expected 'i j', got {line!r}", lineno)
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"non-integer pair in {line!r}", lineno) from None
    if not (0 <= i < n and 0 <= j < n):
        raise ParseError(f"pair index out of range (n={n}) in {line!r}", lineno)
    return i, j


def write_predictions(pairs: np.ndarray, values, index, n: int) -> str:
    """The predictions CSV: an 'i,j,probability' header, then one row per pair.

    ``pairs`` is (M, 2) of indices below ``n``; row m's probability is
    ``values[index[m]]``, as model.distinct_link_probabilities returns
    them. Pairs or an index that are not of an integer dtype (bool, float,
    str) are a TypeError that names the dtype. A pair index outside
    0..n-1, or an ``index`` entry outside ``values``, negative ones
    included, is an IndexError; an ``index`` of another length than the
    pairs is a ValueError, and ``values`` not of a bool, integer or float
    dtype (a string, say) a TypeError. The rows are laid out as arrays.
    Each value is formatted once as %.17g, which round-trips a float, and
    gathered by ``index``; the bytes are those of formatting every row's
    probability with %.17g.
    """
    pairs, index, values = np.asarray(pairs), np.asarray(index), np.asarray(values)
    for name, a in (("pair indices", pairs), ("probability index", index)):
        if a.dtype.kind not in "iu":
            raise TypeError(f"{name} must be integers, got dtype {a.dtype}")
    if not ((pairs >= 0) & (pairs < n)).all():
        raise IndexError(f"pair index out of range for n={n}")
    if values.dtype.kind not in "biuf":
        raise TypeError(f"probabilities must be real numbers, got dtype {values.dtype}")
    if values.ndim != 1:
        raise ValueError(f"values must be 1-D, got shape {values.shape}")
    if index.shape != (len(pairs),):
        raise ValueError(f"{len(pairs)} pairs but index of shape {index.shape}")
    if not ((index >= 0) & (index < values.size)).all():
        raise IndexError(f"probability index out of range for {values.size} values")
    text = np.array(["%.17g" % v for v in values.astype(np.float64).tolist()],
                    dtype=np.bytes_)
    width = text.itemsize
    out = _pair_rows(pairs[:, 0], pairs[:, 1], n, b",", b"," + bytes(width) + b"\n")
    out[:, -1 - width:-1] = text.view(np.uint8).reshape(text.size, width)[index]
    return "i,j,probability\n" + _unpad(out)
