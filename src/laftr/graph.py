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
from typing import BinaryIO, Iterable, TextIO

import numpy as np

from .errors import ParseError

__all__ = [
    "AdjacencyMatrix",
    "ObservationMask",
    "decode_utf8",
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
        given = np.asarray(self.entries)
        if given.shape != (self.n, self.n):
            raise ValueError(f"entries must be {self.n}x{self.n}, got {given.shape}")
        # checked before the int8 cast, which would wrap 256 to 0 and truncate 0.5 and NaN
        binary = given == 0
        binary |= given == 1
        if not binary.all():
            raise ValueError("adjacency entries must be 0 or 1")
        entries = np.array(given, dtype=np.int8)  # a copy: the caller's array stays writeable
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
        observed = np.array(self.observed, dtype=bool)  # a copy: the caller's array stays writeable
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


# the ASCII bytes str.split() and str.strip() treat as whitespace
_SPACES = b"\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f "
# the most decimal digits that always fit an int64
_INT64_DIGITS = 18


def _read_lines(stream: Iterable[str] | TextIO | BinaryIO) -> tuple[bytes, np.ndarray, np.ndarray]:
    """Read a stream whole: its UTF-8 bytes, their uint8 view and its line bounds.

    Line k (numbered k + 1) is ``data[bounds[k]:bounds[k + 1]]``, its line
    end included, so no line is empty and the lines are those that
    iterating the stream yields. A stream without ``read`` is an iterable
    of lines. A binary stream is read as text-mode ``open(..., encoding=
    "utf-8")`` reads the file: "\\n", "\\r\\n" and a lone "\\r" end a line,
    and a byte that is not UTF-8 is a ParseError that names its line.
    """
    if hasattr(stream, "read"):
        text = stream.read()
    else:
        text = "\n".join(line.removesuffix("\n") for line in stream)
    binary = isinstance(text, bytes)
    data = text if binary else text.encode("utf-8", "surrogatepass")
    buf = np.frombuffer(data, dtype=np.uint8)
    if not buf.size:
        return data, buf, np.zeros(1, dtype=np.intp)
    ends = buf[:-1] == ord("\n")
    if binary and b"\r" in data:
        ends |= (buf[:-1] == ord("\r")) & (buf[1:] != ord("\n"))
    bounds = np.concatenate(([0], np.flatnonzero(ends) + 1, [buf.size]))
    if binary and not data.isascii():
        decode_utf8(data)
    return data, buf, bounds


def decode_utf8(data: bytes) -> str:
    """The UTF-8 text of ``data``; a byte that is not UTF-8 is a ParseError that names
    its line, with lines ended as text-mode ``open`` ends them ("\\n", "\\r\\n", a lone "\\r")."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ParseError(f"undecodable byte 0x{data[exc.start]:02x}: {exc.reason}", line) from None


def _others(data: bytes, allowed: bytes) -> np.ndarray:
    """Where ``data`` holds a byte that is neither ASCII whitespace nor one of ``allowed``.

    One bytes.translate pass maps every byte, faster than numpy compares
    or a lookup table.
    """
    return np.frombuffer(data.translate(_others_table(allowed)), dtype=bool)


@functools.cache
def _others_table(allowed: bytes) -> bytes:
    """The translate table of _others: 1 at each byte neither whitespace nor in ``allowed``."""
    return bytes(byte not in _SPACES + allowed for byte in range(256))


def _lines_of(bounds: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Sorted indices of the lines that hold a byte at one of ``positions``."""
    return np.unique(np.searchsorted(bounds, positions, side="right") - 1)


def _line_text(data: bytes, bounds: np.ndarray, k: int) -> str:
    """Line k, stripped."""
    return data[bounds[k]:bounds[k + 1]].decode("utf-8", "surrogatepass").strip()


def _parse_lines(data: bytes, bounds: np.ndarray, lines: np.ndarray, parse_line):
    """``{k: parse_line(line k stripped, k + 1)}`` for the data lines among ``lines``, and an error.

    Blank and '#' lines are skipped. The lines are parsed in order up to
    the first bad one, whose ParseError is returned with the lines before
    it (None if every line parses).
    """
    parsed = {}
    for k in lines.tolist():
        line = _line_text(data, bounds, k)
        if line and line[0] != "#":
            try:
                parsed[k] = parse_line(line, k + 1)
            except ParseError as exc:
                return parsed, exc
    return parsed, None


def _int_token(token: str) -> int:
    """The value of a token of ASCII digits after an optional '+'; any other is a ValueError."""
    digits = token[1:] if token[:1] == "+" else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a token of digits: {token!r}")
    return int(digits)


def _index_width(n: int) -> int:
    """Decimal digits of the largest node index below ``n``."""
    return len(str(max(n - 1, 0)))


def _int_lines(stream, limits: tuple, parse_line, separators: bytes, defaults: tuple):
    """Read lines of integer tokens into an (M, len(limits)) int64 array, in file order.

    Column c of a row is below limits[c] (None: no bound); a line may omit
    the last len(defaults) tokens, which then take those values. The file
    is read whole and parsed with array passes: a digit run ends where a
    digit is followed by another byte, and each value is gathered digit
    by digit leftwards from its run end, at most as many digits as the
    widest limit has (and at most 18, which an int64 always holds). A
    line of such runs parted by ASCII whitespace and ``separators`` bytes,
    with as many runs as the first such line and values in range, is read
    from them: when every line is such a line, the rows are the values in
    order. Every other line (a comment, a blank line, another byte such
    as the '+' of ``+1``, a run longer than that width) goes through
    ``parse_line`` as _parse_lines calls it, which accepts or rejects it
    token by token, returning its row with the defaults filled in.

    Returns (rows, lines, error, text): row m is of line lines[m]
    (0-based); error is the ParseError of the first bad line or None, and
    the rows are those of the lines before it; text(k) is line k stripped.
    """
    data, buf, bounds = _read_lines(stream)
    ncols, n_lines = len(limits), len(bounds) - 1
    width = min(_INT64_DIGITS, max(_INT64_DIGITS if limit is None else _index_width(limit)
                                   for limit in limits))
    code = buf - np.uint8(ord("0"))  # a digit's value, or 10 and up for any other byte
    digit = np.zeros(buf.size + 1, dtype=bool)
    np.less(code, 10, out=digit[:-1])
    ends = np.flatnonzero(digit[:-1] > digit[1:])  # a digit before a non-digit ends a run
    values = code.take(ends).astype(np.int64)
    alive = np.ones(ends.size, dtype=bool)  # the runs with a digit k places left of their end
    pos = ends.copy()
    for k in range(1, width + 1):
        pos -= 1
        d = code.take(pos)
        alive &= d < 10
        alive[:1] &= pos[:1] >= 0  # only a run at the file's start can reach past it
        if k == width or not alive.any():
            break
        d *= alive
        values += d * np.int64(10**k)

    # the usual file, every line with as many runs as the first, shows in one
    # pass over the lines; else each line's runs are counted
    low = ncols - len(defaults)
    tokens = int(np.searchsorted(ends, bounds[1])) if n_lines else ncols
    uniform = (low <= tokens <= ncols and ends.size == tokens * n_lines
               and (ends[::tokens] >= bounds[:-1]).all()
               and (ends[tokens - 1::tokens] < bounds[1:]).all())
    counts = tokens if uniform else np.diff(np.searchsorted(ends, bounds))
    fast = np.ones(n_lines, dtype=bool) if uniform else (counts >= low) & (counts <= ncols)
    fast[_lines_of(bounds, np.flatnonzero(_others(data, b"0123456789" + separators)))] = False
    fast[_lines_of(bounds, ends[alive])] = False  # longer than any value in range
    if not uniform:
        tokens = counts[fast.argmax()] if fast.any() else ncols  # the runs of the first fast line
        fast &= counts == tokens
    rows = (values if fast.all() else values[np.repeat(fast, counts)]).reshape(-1, tokens)
    if tokens < ncols:
        rows = np.column_stack((rows, np.broadcast_to(defaults[tokens - ncols:],
                                                      (len(rows), ncols - tokens))))
    lines = np.flatnonzero(fast)
    out = np.zeros(len(rows), dtype=bool)
    for column, limit in enumerate(limits):
        if limit is not None:
            out |= rows[:, column] >= limit
    if out.any():
        fast[lines[out]] = False
        rows, lines = rows[~out], lines[~out]

    parsed, error = _parse_lines(data, bounds, np.flatnonzero(~fast), parse_line)
    if parsed:
        slow = np.fromiter(parsed, dtype=np.intp, count=len(parsed))
        every = np.empty((n_lines, ncols), dtype=np.int64)
        every[lines] = rows
        every[slow] = list(parsed.values())
        fast[slow] = True
        lines = np.flatnonzero(fast)
        rows = every[lines]
    if error is not None:
        before = np.searchsorted(lines, error.line_number - 1)
        rows, lines = rows[:before], lines[:before]
    return rows, lines, error, functools.partial(_line_text, data, bounds)


def _flag_pairs(rows: np.ndarray, lines: np.ndarray, error, text, size: int, what: str):
    """The (size, size) boolean masks of the pairs (i, j) that rows (i, j, flag) flag 1 and 0.

    Repeating a row is idempotent. A pair flagged both 1 and 0 is a
    ParseError ("conflicting <what> ...") at the first line that flags it
    otherwise than its first line did, and ``error``, which follows every
    row (see _int_lines), is raised after that check.
    """
    ones = np.zeros((size, size), dtype=bool).ravel()  # a 2-D request fails as numpy fails it
    zeros = np.zeros_like(ones)
    keys = rows[:, 0] * size + rows[:, 1]
    flags = rows[:, 2] == 1
    ones[keys[flags]] = True
    zeros[keys[~flags]] = True
    both = ones & zeros
    if both.any():
        first = {}
        for m in np.flatnonzero(both[keys]).tolist():
            if first.setdefault(int(keys[m]), flags[m]) != flags[m]:
                i, j = rows[m, :2].tolist()
                raise ParseError(f"conflicting {what} for pair ({i}, {j}) in {text(lines[m])!r}",
                                 int(lines[m]) + 1)
    if error is not None:
        raise error
    return ones.reshape(size, size), zeros.reshape(size, size)


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


def load_edge_list(stream: Iterable[str] | TextIO | BinaryIO,
                   n: int | None = None) -> AdjacencyMatrix:
    """Parse "src dst [value]" lines (tab- or space-separated) into a matrix.

    Node ids are non-negative integers; the optional third token must be 0
    or 1 (default 1). If ``n`` is omitted it is inferred as 1 + max id.
    Repeating a line is idempotent; giving one pair two different values is
    a ParseError at the second line. The result carries symmetric_hint=False:
    an edge list is read as a directed relation. The lines are read by
    _int_lines, with ``_edge`` as the per-line parse.
    """
    rows, lines, error, text = _int_lines(stream, (n, n, 2), functools.partial(_edge, n=n),
                                          b"", (1,))
    size = n if n is not None else int(rows[:, :2].max(initial=-1)) + 1
    ones, _ = _flag_pairs(rows, lines, error, text, size, "value")
    if n is None and not len(rows):
        raise ParseError("cannot infer node count from an empty edge list; pass n")
    return AdjacencyMatrix(size, ones.view(np.int8), symmetric_hint=False)


def _edge(line: str, lineno: int, n: int | None) -> tuple[int, int, int]:
    """One stripped data line of an edge list, parsed token by token."""
    parts = line.split()
    if len(parts) not in (2, 3):
        raise ParseError(f"expected 'src dst [value]', got {line!r}", lineno)
    try:
        src, dst = _int_token(parts[0]), _int_token(parts[1])
    except ValueError:
        raise ParseError(f"non-integer node id in {line!r}", lineno) from None
    if n is not None and (src >= n or dst >= n):
        raise ParseError(f"node id out of range (n={n}) in {line!r}", lineno)
    if max(src, dst) > np.iinfo(np.int64).max:  # no matrix has room for it
        raise ParseError(f"node id too large in {line!r}", lineno)
    value = 1
    if len(parts) == 3:
        try:
            value = _int_token(parts[2])
        except ValueError:
            raise ParseError(f"non-integer edge value in {line!r}", lineno) from None
        if value not in (0, 1):
            raise ParseError(f"edge value must be 0 or 1, got {value}", lineno)
    return src, dst, value


def load_dense_matrix(stream: Iterable[str] | TextIO | BinaryIO) -> AdjacencyMatrix:
    """Parse N rows of N whitespace-separated {0,1} tokens.

    Blank lines and lines starting with '#' are skipped. The file is read
    whole and checked with array masks; a line they cannot vouch for (a
    comment, a token such as ``01`` or ``+1``, any other byte) is parsed
    token by token, so it is accepted or rejected exactly as a line-by-line
    parse would. symmetric_hint is set by checking the parsed matrix
    against its transpose.
    """
    data, buf, bounds = _read_lines(stream)
    digit = (buf | 1) == ord("1")  # b"0" or b"1"
    bad = _others(data, b"01").copy()
    bad[1:] |= digit[1:] & digit[:-1]  # a token longer than one byte
    slow = _lines_of(bounds, np.flatnonzero(bad))
    counts = np.add.reduceat(digit, bounds[:-1], dtype=np.intp)  # tokens per fast line
    counts[slow] = 0
    slow_rows, error = _parse_lines(data, bounds, slow, _dense_row)
    if error is not None:
        raise error
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
        row = [_int_token(t) for t in line.split()]
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


def load_mask(stream: Iterable[str] | TextIO | BinaryIO,
              n: int) -> tuple[ObservationMask, ObservationMask]:
    """Parse a mask file back into (train, test) masks.

    Repeating a line is idempotent; flagging one pair both 1 and 0 is a
    ParseError at the second line, so no entry is both trained on and held
    out. The lines are read by _int_lines, with ``_mask_line`` as the
    per-line parse.
    """
    rows, lines, error, text = _int_lines(stream, (n, n, 2), functools.partial(_mask_line, n=n),
                                          b"", ())
    train, test = _flag_pairs(rows, lines, error, text, n, "flag")
    return ObservationMask(n, train), ObservationMask(n, test)


def _mask_line(line: str, lineno: int, n: int) -> tuple[int, int, int]:
    """One stripped data line of a mask file, parsed token by token."""
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(f"expected 'i j flag', got {line!r}", lineno)
    try:
        i, j, flag = (_int_token(t) for t in parts)
    except ValueError:
        raise ParseError(f"non-integer token in {line!r}", lineno) from None
    if not (i < n and j < n):
        raise ParseError(f"index out of range (n={n}) in {line!r}", lineno)
    if flag not in (0, 1):
        raise ParseError(f"mask flag must be 0 or 1, got {flag}", lineno)
    return i, j, flag


def load_pairs(stream: Iterable[str] | TextIO | BinaryIO, n: int) -> np.ndarray:
    """Parse a pair file, 'i j' or 'i,j' lines, into an (M, 2) int64 array of indices below ``n``.

    Blank lines and '#' comments are skipped. The lines are read by
    _int_lines, with ``_pair`` as the per-line parse; a bad line is a
    ParseError that names it.
    """
    rows, _, error, _ = _int_lines(stream, (n, n), functools.partial(_pair, n=n), b",", ())
    if error is not None:
        raise error
    return rows


def _pair(line: str, lineno: int, n: int) -> tuple[int, int]:
    """One stripped data line of a pair file, parsed token by token."""
    parts = line.replace(",", " ").split()
    if len(parts) != 2:
        raise ParseError(f"expected 'i j', got {line!r}", lineno)
    try:
        i, j = _int_token(parts[0]), _int_token(parts[1])
    except ValueError:
        raise ParseError(f"non-integer pair in {line!r}", lineno) from None
    if not (i < n and j < n):
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
