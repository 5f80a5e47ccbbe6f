"""Loaders, writers, and train/test splitting."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laftr import (
    AdjacencyMatrix,
    ObservationMask,
    ParseError,
    load_dense_matrix,
    load_edge_list,
    load_mask,
    load_pairs,
    split_observations,
    write_dense,
    write_mask,
    write_predictions,
)
from laftr.graph import _deal_units
from conftest import (
    oracle_load_dense_matrix,
    oracle_load_edge_list,
    oracle_load_mask,
    oracle_load_pairs,
    oracle_split_observations,
    oracle_write_dense,
    oracle_write_mask,
    oracle_write_predictions,
    parse_outcome,
)


class TestEdgeList:
    def test_basic_edges(self):
        adj = load_edge_list(io.StringIO("0\t1\n1\t2\n"), n=3)
        expected = np.zeros((3, 3), dtype=np.int8)
        expected[0, 1] = expected[1, 2] = 1
        assert np.array_equal(adj.entries, expected)
        assert adj.symmetric_hint is False

    def test_empty_input_gives_zero_matrix(self):
        adj = load_edge_list(io.StringIO(""), n=2)
        assert adj.n == 2
        assert adj.entries.sum() == 0

    def test_id_out_of_range(self):
        with pytest.raises(ParseError, match="line 1"):
            load_edge_list(io.StringIO("0\t5\n"), n=3)

    def test_infers_node_count(self):
        adj = load_edge_list(io.StringIO("0 4\n"))
        assert adj.n == 5

    def test_empty_input_without_n_is_an_error(self):
        with pytest.raises(ParseError, match="node count"):
            load_edge_list(io.StringIO(""))

    def test_explicit_value_and_duplicates(self):
        adj = load_edge_list(io.StringIO("0 1 1\n0 1 1\n1 0 0\n"), n=2)
        assert adj.entries[0, 1] == 1
        assert adj.entries[1, 0] == 0

    @pytest.mark.parametrize("text", ["0 1 1\n1 0\n0 1 0\n", "0 1 0\n\n0 1\n"])
    def test_conflicting_values_name_the_second_line(self, text):
        with pytest.raises(ParseError, match="line 3: conflicting"):
            load_edge_list(io.StringIO(text), n=2)

    def test_comments_and_blanks_skipped(self):
        adj = load_edge_list(io.StringIO("# header\n\n0 1\n"), n=2)
        assert adj.entries[0, 1] == 1

    @pytest.mark.parametrize("text", ["a b\n", "0 1 2\n", "-1 0\n", "0\n"])
    def test_malformed_lines(self, text):
        with pytest.raises(ParseError):
            load_edge_list(io.StringIO(text), n=3)


class TestDenseMatrix:
    def test_symmetric_hint_true(self):
        adj = load_dense_matrix(io.StringIO("0 1\n1 0\n"))
        assert adj.symmetric_hint is True
        assert adj.entries[0, 1] == 1

    def test_symmetric_hint_false(self):
        adj = load_dense_matrix(io.StringIO("0 1\n0 0\n"))
        assert adj.symmetric_hint is False

    def test_non_binary_token(self):
        with pytest.raises(ParseError):
            load_dense_matrix(io.StringIO("0 2\n0 0\n"))

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match="ragged"):
            load_dense_matrix(io.StringIO("0 1\n0\n"))

    def test_round_trip_bit_exact(self, rng):
        entries = (rng.random((7, 7)) < 0.3).astype(np.int8)
        adj = AdjacencyMatrix(7, entries)
        again = load_dense_matrix(io.StringIO(write_dense(adj)))
        assert np.array_equal(adj.entries, again.entries)


class TestAdjacencyInvariants:
    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            AdjacencyMatrix(2, np.array([[0, 2], [0, 0]]))

    @pytest.mark.parametrize("value", [256, -255, 0.5, np.nan])
    def test_checks_values_before_the_int8_cast(self, value):
        # int8 casts would read 256 as 0, -255 as 1, and 0.5 and NaN as 0
        with pytest.raises(ValueError, match="^adjacency entries must be 0 or 1$"):
            AdjacencyMatrix(2, np.array([[0, value], [1, 0]]))

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.float64])
    def test_keeps_binary_entries(self, dtype):
        # the matrix freezes a copy: the caller's array stays writeable and unchanged
        given = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 1]], dtype=dtype)
        before = given.copy()
        adj = AdjacencyMatrix(3, given)
        assert adj.entries.dtype == np.int8
        assert np.array_equal(adj.entries, before.astype(np.int8))
        assert given.flags.writeable
        assert np.array_equal(given, before)
        given[0, 0] = 1
        assert adj.entries[0, 0] == 0

    def test_entries_frozen(self):
        adj = AdjacencyMatrix(2, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            adj.entries[0, 1] = 1


class TestSplit:
    def test_full_fraction_covers_everything(self):
        adj = AdjacencyMatrix(3, np.zeros((3, 3)))
        train, test = split_observations(adj, 1.0, seed=0, tie_symmetric=False)
        assert train.count == 6
        assert test.count == 0

    def test_counts_80_20(self):
        adj = AdjacencyMatrix(10, np.zeros((10, 10)))
        train, test = split_observations(adj, 0.8, seed=1, tie_symmetric=False)
        assert train.count == 72
        assert test.count == 18

    def test_deterministic_and_seed_sensitive(self):
        adj = AdjacencyMatrix(8, np.zeros((8, 8)))
        t1, _ = split_observations(adj, 0.5, seed=7, tie_symmetric=False)
        t2, _ = split_observations(adj, 0.5, seed=7, tie_symmetric=False)
        t3, _ = split_observations(adj, 0.5, seed=8, tie_symmetric=False)
        assert np.array_equal(t1.observed, t2.observed)
        assert not np.array_equal(t1.observed, t3.observed)

    def test_partition_is_exact(self, rng):
        adj = AdjacencyMatrix(9, np.zeros((9, 9)))
        for fraction in (0.3, 0.5, 0.9):
            train, test = split_observations(adj, fraction, seed=3, tie_symmetric=False)
            assert not (train.observed & test.observed).any()
            union = train.observed | test.observed
            expected = ~np.eye(9, dtype=bool)
            assert np.array_equal(union, expected)

    def test_tie_symmetric_mirrors(self):
        adj = AdjacencyMatrix(10, np.zeros((10, 10)))
        train, test = split_observations(adj, 0.6, seed=5, tie_symmetric=True)
        assert np.array_equal(train.observed, train.observed.T)
        assert np.array_equal(test.observed, test.observed.T)
        # fraction applies to the 45 unordered pairs
        assert train.count == 2 * 27

    def test_tie_defaults_to_symmetric_hint(self):
        entries = np.zeros((6, 6), dtype=np.int8)
        entries[0, 1] = entries[1, 0] = 1
        adj = AdjacencyMatrix(6, entries, symmetric_hint=True)
        train, test = split_observations(adj, 0.5, seed=0)
        assert np.array_equal(train.observed, train.observed.T)

    def test_diagonal_never_observed(self):
        adj = AdjacencyMatrix(5, np.zeros((5, 5)))
        train, test = split_observations(adj, 0.7, seed=2, tie_symmetric=False)
        assert not np.diagonal(train.observed).any()
        assert not np.diagonal(test.observed).any()

    @pytest.mark.parametrize("fraction", [0.0, -0.1, 1.2])
    def test_bad_fraction(self, fraction):
        adj = AdjacencyMatrix(3, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            split_observations(adj, fraction, seed=0)


class TestSplitProperties:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 30),
        percent=st.integers(1, 100),
        seed=st.integers(0, 2**32 - 1),
        tie_symmetric=st.sampled_from([None, True, False]),
        symmetric_hint=st.booleans(),
    )
    def test_partition_invariants(self, n, percent, seed, tie_symmetric, symmetric_hint):
        adj = AdjacencyMatrix(n, np.zeros((n, n)), symmetric_hint=symmetric_hint)
        train, test = split_observations(adj, percent / 100, seed, tie_symmetric)
        train, test = train.observed, test.observed
        assert not (train & test).any()
        assert np.array_equal(train | test, ~np.eye(n, dtype=bool))
        tied = symmetric_hint if tie_symmetric is None else tie_symmetric
        if tied:
            assert np.array_equal(train, train.T)
            assert np.array_equal(test, test.T)
        # a unit is an unordered pair when tied, an ordered one otherwise
        units = n * (n - 1) // (2 if tied else 1)
        train_units = int(train.sum()) // (2 if tied else 1)
        assert train_units == percent * units // 100


class TestDealUnits:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 20),
        density=st.sampled_from([0.0, 0.3, 1.0]),
        sections=st.one_of(st.integers(1, 6), st.lists(st.integers(0, 400), max_size=3).map(sorted)),
        seed=st.integers(0, 2**32 - 1),
        mirror=st.booleans(),
    )
    def test_parts_partition_the_units(self, n, density, sections, seed, mirror):
        units = np.random.default_rng(seed).random((n, n)) < density
        if mirror:
            units = np.triu(units)
        parts = _deal_units(units, sections, seed, mirror)
        covered = units | units.T if mirror else units
        sizes = [len(c) for c in np.array_split(np.arange(units.sum()), sections)]
        assert len(parts) == len(sizes)
        assert np.array_equal(sum(part.astype(int) for part in parts), covered.astype(int))
        for part, size in zip(parts, sizes):
            assert np.count_nonzero(part & units) == size
            if mirror:
                assert np.array_equal(part, part.T)


class TestArrayPathsMatchOracles:
    """The array split and mask writer against the one-entry-at-a-time loops."""

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(1, 40),
        fraction=st.sampled_from([0.05, 0.3, 0.5, 0.8, 0.95, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        tie_symmetric=st.booleans(),
    )
    def test_split_and_mask_text_match(self, n, fraction, seed, tie_symmetric):
        adj = AdjacencyMatrix(n, np.zeros((n, n)))
        train, test = split_observations(adj, fraction, seed, tie_symmetric)
        want_train, want_test = oracle_split_observations(adj, fraction, seed, tie_symmetric)
        assert np.array_equal(train.observed, want_train.observed)
        assert np.array_equal(test.observed, want_test.observed)
        assert write_mask(train, test) == oracle_write_mask(want_train, want_test)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        train_density=st.sampled_from([0.0, 0.2, 0.7, 1.0]),
        test_density=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_mask_text_matches_on_arbitrary_masks(self, n, train_density, test_density, seed):
        rng = np.random.default_rng(seed)
        train = rng.random((n, n)) < train_density
        test = ~train & (rng.random((n, n)) < test_density)
        train_mask, test_mask = ObservationMask(n, train), ObservationMask(n, test)
        assert write_mask(train_mask, test_mask) == oracle_write_mask(train_mask, test_mask)


# tokens of 0 or 1 that the single-digit fast path leaves to the per-line parse
ODD_BITS = ["01", "+1", "00", "+0"]
# int() reads the last three as 0 or 1, but a token is ASCII digits after an optional '+'
BAD_TOKENS = ["2", "x", "1.0", "0x1", "10", "1,0", "-0", "0_1", "\u0661"]
FILLER_LINES = ["", "   ", "\t\r", "# comment 0 1", "  #x", "#"]


@st.composite
def dense_lines(draw, tokens):
    """Rows of a dense matrix file in varied spacing, with blank and comment lines between."""
    n = draw(st.integers(1, 7))
    lines = []
    for _ in range(n):
        lines += draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2))
        row = draw(st.lists(tokens, min_size=n, max_size=n))
        seps = draw(st.lists(st.sampled_from([" ", "  ", "\t", " \t", "\x0b"]),
                             min_size=n - 1, max_size=n - 1))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\r", "\x1c"]))
        lines.append(lead + "".join(t + sep for t, sep in zip(row, seps)) + row[-1] + trail)
    lines += draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2))
    return lines


def join_lines(draw, lines):
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


class TestDenseMatrixMatchesOracle:
    """The array parser and writer against the one-line-at-a-time loops."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), odd=st.booleans(), as_lines=st.booleans())
    def test_accepted_files_parse_alike(self, data, odd, as_lines):
        bits = st.sampled_from(["0", "1"] * 4 + (ODD_BITS if odd else []))
        text = join_lines(data.draw, data.draw(dense_lines(bits)))
        got = parse_outcome(load_dense_matrix, text, as_lines=as_lines)
        want = oracle_load_dense_matrix(io.StringIO(text))
        assert isinstance(got, AdjacencyMatrix), got
        assert np.array_equal(got.entries, want.entries)
        assert got.symmetric_hint == want.symmetric_hint

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(["token", "ragged", "line"]))
    def test_injected_faults_fail_alike(self, data, kind):
        lines = data.draw(dense_lines(st.sampled_from(["0", "1", "01"])))
        at = data.draw(st.integers(0, len(lines) - 1))
        stripped = lines[at].strip()
        is_row = stripped and stripped[0] != "#"
        if kind == "token":
            bad = data.draw(st.sampled_from(BAD_TOKENS))
            lines[at] = lines[at] + " " + bad if is_row else bad
        elif kind == "ragged":
            lines[at] = lines[at] + " 0 1" if is_row else "1"
        else:
            lines.insert(at, data.draw(st.sampled_from(["0 a", "\u00a0x", "1 1 \x00"])))
        text = join_lines(data.draw, lines)
        want = parse_outcome(oracle_load_dense_matrix, text)
        assert isinstance(want, tuple)
        assert parse_outcome(load_dense_matrix, text) == want

    @pytest.mark.parametrize("text", ["", "\n\n", "# only a comment\n", "0 1\n1\n", "1 1 1\n"])
    def test_degenerate_files_fail_alike(self, text):
        want = parse_outcome(oracle_load_dense_matrix, text)
        assert isinstance(want, tuple)
        assert parse_outcome(load_dense_matrix, text) == want

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(0, 30), density=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_write_dense_bytes_match(self, n, density, seed):
        entries = np.random.default_rng(seed).random((n, n)) < density
        adj = AdjacencyMatrix(n, entries)
        assert write_dense(adj) == oracle_write_dense(adj)


class TestMaskFile:
    def test_round_trip(self):
        adj = AdjacencyMatrix(6, np.zeros((6, 6)))
        train, test = split_observations(adj, 0.75, seed=11, tie_symmetric=False)
        text = write_mask(train, test)
        train2, test2 = load_mask(io.StringIO(text), 6)
        assert np.array_equal(train.observed, train2.observed)
        assert np.array_equal(test.observed, test2.observed)

    def test_bad_flag(self):
        with pytest.raises(ParseError):
            load_mask(io.StringIO("0 1 2\n"), 3)

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            load_mask(io.StringIO("0 9 1\n"), 3)

    @pytest.mark.parametrize("text", ["0 1 0\n1 0 1\n0 1 1\n", "0 1 1\n\n0 1 0\n"])
    def test_pair_in_both_masks_names_the_second_line(self, text):
        with pytest.raises(ParseError, match="line 3: conflicting flag for pair \\(0, 1\\)"):
            load_mask(io.StringIO(text), 2)

    def test_repeated_lines_are_idempotent(self):
        train, test = load_mask(io.StringIO("0 1 1\n0 1 1\n1 0 0\n1 0 0\n"), 2)
        assert train.observed.tolist() == [[False, True], [False, False]]
        assert test.observed.tolist() == [[False, False], [True, False]]


@st.composite
def pair_lines(draw, n):
    """'i j' / 'i,j' lines in varied spacing, with blank and comment lines between."""
    index = st.integers(0, n - 1)
    token = st.one_of(index.map(str), index.map(lambda v: f"0{v}"), index.map(lambda v: f"+{v}"))
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        lines += draw(st.lists(st.sampled_from(["", "  ", "\t\r", "# 1 2", " #"]), max_size=2))
        sep = draw(st.sampled_from([" ", ",", " , ", "\t", ",,", " ,\t", "\x0c"]))
        lead = draw(st.sampled_from(["", " ", ","]))
        trail = draw(st.sampled_from(["", " ", "\r", ","]))
        lines.append(lead + draw(token) + sep + draw(token) + trail)
    return lines


class TestPairsFile:
    """The pair file of `laftr predict`: the array parser against the line-by-line oracle."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 9, 10, 11, 999, 1000, 1500]))
    def test_accepted_files_parse_alike(self, data, n):
        eol = data.draw(st.sampled_from(["\n", "\r\n"]))
        text = eol.join(data.draw(pair_lines(n))) + data.draw(st.sampled_from(["", eol]))
        got = parse_outcome(load_pairs, text, n)
        want = parse_outcome(oracle_load_pairs, text, n)
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and np.array_equal(got, want)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 12, 100]))
    def test_injected_faults_fail_alike(self, data, n):
        lines = data.draw(pair_lines(n))
        bad = data.draw(st.sampled_from(["5", "1 2 3", "a b", "1.5 0", ",", "0 1 #",
                                         f"0 {n}", f"{n + 7},0", "-1 0", "0 -0x1"]))
        lines.insert(data.draw(st.integers(0, len(lines))), bad)
        text = "\n".join(lines) + "\n"
        want = parse_outcome(oracle_load_pairs, text, n)
        assert isinstance(want, tuple)
        assert parse_outcome(load_pairs, text, n) == want


# token separators of an edge list or mask line, ASCII whitespace all
INT_SEPARATORS = [" ", "  ", "\t", " \t", "\x0b", "\x1c"]


@st.composite
def flag_lines(draw, n, counts):
    """Lines "i j flag" of a mask file or edge list, with blank and comment lines between.

    Each line has one of ``counts`` tokens; a 2-token line flags 1, as in an
    edge list. Its pair comes from a few drawn pairs, each with one flag,
    so lines repeat but never conflict. Ids are below ``n`` (below 30 when
    it is None), and each token is plain or has '0' or '+' before it.
    """
    index = st.integers(0, (30 if n is None else n) - 1)
    flags = draw(st.dictionaries(st.tuples(index, index), st.sampled_from([0, 1]),
                                 min_size=1, max_size=4))
    form = st.sampled_from(["{}", "{}", "0{}", "+{}", "00{}"])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        lines += draw(st.lists(st.sampled_from(FILLER_LINES), max_size=2))
        (i, j), flag = draw(st.sampled_from(sorted(flags.items())))
        count = draw(st.sampled_from(counts)) if flag == 1 else 3
        words = [draw(form).format(v) for v in (i, j, flag)[:count]]
        seps = draw(st.lists(st.sampled_from(INT_SEPARATORS), min_size=count, max_size=count))
        lead = draw(st.sampled_from(["", " ", "\t"]))
        trail = draw(st.sampled_from(["", " ", "\r", "\x0c"]))
        lines.append(lead + "".join(sep + w for sep, w in zip(["", *seps], words)) + trail)
    return lines


def conflicting_copy(line: str) -> str:
    """The line's pair with the other flag: a 2-token edge line flags 1."""
    parts = line.split()
    flag = int(parts[2]) if len(parts) == 3 else 1
    return f"{parts[0]} {parts[1]} {1 - flag}"


def inject_faults(data, lines, bad_lines):
    """Insert a bad line, a conflicting repeat of a data line after that line, or both.

    The repeat is placed first, so the bad line may land before or after it.
    """
    kinds = data.draw(st.lists(st.sampled_from(["bad", "conflict"]), min_size=1, max_size=2))
    for kind in sorted(kinds, reverse=True):
        if kind == "bad":
            bad = data.draw(st.sampled_from(bad_lines))
            lines.insert(data.draw(st.integers(0, len(lines))), bad)
            continue
        rows = [k for k, line in enumerate(lines) if line.strip() and line.strip()[0] != "#"]
        if not rows:
            lines.append("0 0 1")
            rows = [len(lines) - 1]
        k = data.draw(st.sampled_from(rows))
        lines.insert(data.draw(st.integers(k + 1, len(lines))), conflicting_copy(lines[k]))
    return lines


def assert_same_outcome(got, want):
    """The same ParseError (message, line), or equal arrays, matrices or (train, test) masks."""
    assert type(got) is type(want), (got, want)
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    elif isinstance(want, AdjacencyMatrix):
        assert got.n == want.n and got.symmetric_hint == want.symmetric_hint
        assert np.array_equal(got.entries, want.entries)
    elif isinstance(want[0], ObservationMask):
        assert all(np.array_equal(a.observed, b.observed) for a, b in zip(got, want))
    else:
        assert got == want


class TestMaskFileMatchesOracle:
    """load_mask against the line-by-line oracle: the same masks, or the same error and line."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 2, 9, 10, 11, 999, 1000]),
           as_lines=st.booleans())
    def test_accepted_files_parse_alike(self, data, n, as_lines):
        text = join_lines(data.draw, data.draw(flag_lines(n, [3])))
        want = oracle_load_mask(io.StringIO(text), n)
        assert_same_outcome(parse_outcome(load_mask, text, n, as_lines=as_lines), want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 3, 10, 100]), as_lines=st.booleans())
    def test_injected_faults_fail_alike(self, data, n, as_lines):
        bad_lines = [f"{n} 0 1", f"0 0{n} 0", f"+{n + 5} 0 1", "0 0 2", "0 0 +2", "0 0 02",
                     "0 0", "0 0 1 1", "-0 0 1", "0 -1 0", "++1 0 0", "+ 0 1", "1_0 0 1",
                     "\u0661 0 1", "0x1 0 0", "0 0 1.0", "0,0,1", "0 0 1 #", "a b c"]
        lines = inject_faults(data, data.draw(flag_lines(n, [3])), bad_lines)
        text = join_lines(data.draw, lines)
        want = parse_outcome(oracle_load_mask, text, n)
        assert isinstance(want[0], str)
        assert parse_outcome(load_mask, text, n, as_lines=as_lines) == want

    @pytest.mark.parametrize("text, error", [
        ("0 1 1\n0 1 0\n0 x 0\n", "line 2: conflicting flag for pair (0, 1) in '0 1 0'"),
        ("0 1 1\n0 x 0\n0 1 0\n", "line 2: non-integer token in '0 x 0'"),
        ("1 0 0\n# c\n1 0 1\n0 5 1\n", "line 3: conflicting flag for pair (1, 0) in '1 0 1'"),
        ("1 0 0\n0 5 1\n1 0 1\n", "line 2: index out of range (n=2) in '0 5 1'"),
    ])
    def test_first_bad_line_wins(self, text, error):
        assert parse_outcome(oracle_load_mask, text, 2) == (error, int(error[5]))
        assert parse_outcome(load_mask, text, 2) == (error, int(error[5]))


class TestEdgeListMatchesOracle:
    """load_edge_list against the line-by-line oracle, with ``n`` given and inferred."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.sampled_from([None, None, 1, 2, 10, 11, 1000]),
           counts=st.sampled_from([[2], [3], [2, 3]]), as_lines=st.booleans())
    def test_accepted_files_parse_alike(self, data, n, counts, as_lines):
        text = join_lines(data.draw, data.draw(flag_lines(n, counts)))
        want = parse_outcome(oracle_load_edge_list, text, n)  # an error only without n or edges
        assert_same_outcome(parse_outcome(load_edge_list, text, n, as_lines=as_lines), want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.sampled_from([None, 1, 3, 100]),
           counts=st.sampled_from([[2], [3], [2, 3]]), as_lines=st.booleans())
    def test_injected_faults_fail_alike(self, data, n, counts, as_lines):
        bad_lines = ["0 0 2", "0 0 +2", "0 0 02", "0", "0 0 1 1", "-0 0", "0 -1", "++1 0",
                     "+ 0", "1_0 0", "\u0661 0", "0x1 0", "0 0 1.0", "0,0", "0 0 #", "a b"]
        if n is not None:
            bad_lines += [f"{n} 0", f"0 0{n} 0", f"+{n + 5} 0 1"]
        lines = inject_faults(data, data.draw(flag_lines(n, counts)), bad_lines)
        text = join_lines(data.draw, lines)
        want = parse_outcome(oracle_load_edge_list, text, n)
        assert isinstance(want[0], str)
        assert parse_outcome(load_edge_list, text, n, as_lines=as_lines) == want

    @pytest.mark.parametrize("text, error", [
        ("0 1\n0 1 0\n0 x\n", "line 2: conflicting value for pair (0, 1) in '0 1 0'"),
        ("0 1\n0 x\n0 1 0\n", "line 2: non-integer node id in '0 x'"),
    ])
    def test_first_bad_line_wins(self, text, error):
        assert parse_outcome(oracle_load_edge_list, text) == (error, 2)
        assert parse_outcome(load_edge_list, text) == (error, 2)


class TestTokenRule:
    """A token is ASCII digits after an optional '+'; int() reads more than that."""

    @pytest.mark.parametrize("parse, text, args, error", [
        (load_dense_matrix, "0_1 1\n1 0\n", (), "line 1: non-integer token in row '0_1 1'"),
        (load_dense_matrix, "0 1\n-0 0\n", (), "line 2: non-integer token in row '-0 0'"),
        (load_pairs, "1_0 1\n", (20,), "line 1: non-integer pair in '1_0 1'"),
        (load_pairs, "\u0661 0\n", (2,), "line 1: non-integer pair in '\u0661 0'"),
        (load_mask, "1_0 1 1\n", (20,), "line 1: non-integer token in '1_0 1 1'"),
        (load_mask, "0 0 1\n0 \uff11 1\n", (2,), "line 2: non-integer token in '0 \uff11 1'"),
        (load_edge_list, "1_0 1\n", (20,), "line 1: non-integer node id in '1_0 1'"),
        (load_edge_list, "0 1 \u0661\n", (), "line 1: non-integer edge value in '0 1 \u0661'"),
    ])
    def test_other_integer_forms_are_parse_errors(self, parse, text, args, error):
        assert parse_outcome(parse, text, *args) == (error, int(error[5]))

    @pytest.mark.parametrize("parse, text, args, oracle", [
        (load_pairs, "+1 01\n", (2,), oracle_load_pairs),
        (load_mask, "+1 01 +0\n", (2,), oracle_load_mask),
        (load_edge_list, "00 +1 01\n", (), oracle_load_edge_list),
    ])
    def test_plus_and_leading_zeros_keep_their_meaning(self, parse, text, args, oracle):
        assert_same_outcome(parse_outcome(parse, text, *args), oracle(io.StringIO(text), *args))


class TestIntegerLineLayouts:
    """Layouts that the array pass of the integer-line readers must not misread."""

    @pytest.mark.parametrize("parse, text, args", [
        (load_pairs, "5 1\n3 4", (1000,)),  # the first run has no byte before it
        (load_mask, "7 1 1\n3 4 0", (1000,)),
        (load_edge_list, "9 1\n3 4", ()),
        (load_pairs, "0 1\n2\n3 4 5\n", (10,)),  # a short and a long line: as many runs
        (load_mask, "0 0 1\n0 0\n0 0 1 1\n", (10,)),
        (load_edge_list, "0 0\n0\n0 0 1\n", ()),
        (load_edge_list, "0 1\n0 0 1\n1 1 0\n", ()),  # two and three tokens
        (load_edge_list, "0 1\n0 99999999999999999999\n", ()),  # past any int64
    ])
    def test_parse_as_the_oracle(self, parse, text, args):
        oracle = {load_pairs: oracle_load_pairs, load_mask: oracle_load_mask,
                  load_edge_list: oracle_load_edge_list}[parse]
        assert_same_outcome(parse_outcome(parse, text, *args), parse_outcome(oracle, text, *args))


class TestBinaryStreams:
    """A binary stream, as the CLI opens its input files, reads as text-mode open() reads it."""

    @pytest.mark.parametrize("parse, text, args", [
        (load_pairs, "0 1\r1 0\r\n# c\r\r1,1", (2,)),
        (load_mask, "0 1 1\r\n1 0 0\r# \u00e9\n", (2,)),
        (load_edge_list, "0 1\r1 0 0\n\r1 1\r", ()),
        (load_dense_matrix, "0 1\r1 0\r\n", ()),
        (load_pairs, "0 1\n0 x\r1 0\n", (2,)),
    ])
    def test_bytes_parse_as_a_text_mode_file(self, tmp_path, parse, text, args):
        path = tmp_path / "f.txt"
        path.write_bytes(text.encode("utf-8"))
        with open(path, encoding="utf-8") as handle:
            want = parse_outcome(parse, handle.read(), *args)
        assert_same_outcome(parse_outcome(parse, path.read_bytes(), *args), want)

    @pytest.mark.parametrize("parse, args", [(load_pairs, (2,)), (load_mask, (2,)),
                                             (load_edge_list, ()), (load_dense_matrix, ())])
    @pytest.mark.parametrize("line", ["0 1\xff", "# \xe9", "\xed\xa0\x80"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, parse, args, line):
        data = b"0 1 1\n\n" + line.encode("latin-1") + b"\n0 x\n"
        message, lineno = parse_outcome(parse, data, *args)
        assert message.startswith("line 3: undecodable byte 0x") and lineno == 3


# zeros of both signs, nan, the infinities, the least subnormal and 1
_SPECIAL_PROBS = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0]


class TestPredictionsCsv:
    """write_predictions against the per-row %-format oracle, and its input errors."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.sampled_from([1, 9, 10, 99, 100, 1000, 1001]),
           as_array=st.booleans())
    def test_rows_match_the_oracle(self, data, n, as_array):
        base = data.draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
        values = base + [float(np.nextafter(v, 2.0)) for v in base] + _SPECIAL_PROBS
        m = data.draw(st.integers(0, 40))
        pairs = np.array(data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                            min_size=m, max_size=m)), dtype=np.int64).reshape(m, 2)
        index = np.array(data.draw(st.lists(st.integers(0, len(values) - 1), min_size=m,
                                            max_size=m)), dtype=np.int64)
        probs = [values[k] for k in index.tolist()]
        if as_array:
            values = np.array(values, dtype=float)
        assert (write_predictions(pairs, values, index, n)
                == oracle_write_predictions(pairs, probs, n))

    def test_zero_and_negative_zero_are_told_apart(self):
        pairs = np.array([[0, 1], [1, 0], [1, 1]])
        csv = write_predictions(pairs, [0.0, -0.0], np.array([0, 1, 0]), 2)
        assert csv == "i,j,probability\n0,1,0\n1,0,-0\n1,1,0\n"
        assert csv == oracle_write_predictions(pairs, [0.0, -0.0, 0.0], 2)

    def test_empty_pairs_give_the_header_alone(self):
        empty = np.zeros(0, dtype=np.int64)
        assert write_predictions(empty.reshape(0, 2), [], empty, 3) == "i,j,probability\n"

    @pytest.mark.parametrize("pair", [[-1, 0], [0, -3], [3, 0], [0, 7]])
    def test_index_out_of_range_is_an_index_error(self, pair):
        with pytest.raises(IndexError, match=r"pair index out of range for n=3$"):
            write_predictions(np.array([[0, 1], pair]), [0.5], np.array([0, 0]), 3)

    @pytest.mark.parametrize("index", [[-1, 0], [0, 2], [5, 0]])
    def test_probability_index_out_of_range_is_an_index_error(self, index):
        with pytest.raises(IndexError, match=r"^probability index out of range for 2 values$"):
            write_predictions(np.array([[0, 1], [1, 2]]), [0.25, 0.5], np.array(index), 3)

    @pytest.mark.parametrize("probs", [[0.5], [0.5, 0.5, 0.5], np.array([0.5, 0.5, 0.5]), []])
    def test_probs_of_another_length_are_a_value_error(self, probs):
        # row m's probability is values[index[m]]: the index has one entry per row
        index = np.zeros(len(probs), dtype=np.int64)
        with pytest.raises(ValueError, match=rf"^2 pairs but index of shape \({len(probs)},\)$"):
            write_predictions(np.array([[0, 1], [1, 2]]), [0.5], index, 3)

    @pytest.mark.parametrize("values", [0.5, [[0.5, 0.25]]])
    def test_values_that_are_not_1d_are_a_value_error(self, values):
        with pytest.raises(ValueError, match=r"^values must be 1-D, got shape \("):
            write_predictions(np.array([[0, 1], [1, 2]]), values, np.array([0, 0]), 3)

    @pytest.mark.parametrize("probs", [["0.5", "0.5"], [0.5, "0.5"], [0.5, None], [0.5, 1j]])
    def test_probs_that_are_not_real_numbers_are_a_type_error(self, probs):
        with pytest.raises(TypeError, match="probabilities must be real numbers"):
            write_predictions(np.array([[0, 1], [1, 2]]), probs, np.array([0, 1]), 3)

    @pytest.mark.parametrize("pairs", [np.array([[0.0, 1.0], [1.0, 2.0]]),
                                       np.array([[False, True], [True, True]]),
                                       np.array([["0", "1"], ["1", "2"]])])
    def test_pairs_that_are_not_integers_are_a_type_error(self, pairs):
        with pytest.raises(TypeError, match=rf"^pair indices must be integers, got dtype {pairs.dtype}$"):
            write_predictions(pairs, [0.5], np.array([0, 0]), 3)

    @pytest.mark.parametrize("index", [np.array([0.0, 0.0]), np.array([False, True]),
                                       np.array(["0", "0"])])
    def test_index_that_is_not_integer_is_a_type_error(self, index):
        with pytest.raises(TypeError,
                           match=rf"^probability index must be integers, got dtype {index.dtype}$"):
            write_predictions(np.array([[0, 1], [1, 2]]), [0.5, 0.25], index, 3)


class TestObservationMask:
    def test_full_excludes_diagonal_by_default(self):
        mask = ObservationMask.full(4)
        assert mask.count == 12
        assert not np.diagonal(mask.observed).any()

    def test_full_with_diagonal(self):
        mask = ObservationMask.full(4, include_diagonal=True)
        assert mask.count == 16

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ObservationMask(3, np.zeros((2, 2), dtype=bool))

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.float64])
    def test_keeps_a_copy_of_the_given_mask(self, dtype):
        # the mask freezes a copy: the caller's array stays writeable and unchanged
        given = np.array([[0, 1, 1], [1, 0, 0], [0, 0, 1]], dtype=dtype)
        before = given.copy()
        mask = ObservationMask(3, given)
        assert mask.observed.dtype == bool
        assert np.array_equal(mask.observed, before.astype(bool))
        assert not mask.observed.flags.writeable
        assert given.flags.writeable
        assert np.array_equal(given, before)
        given[0, 0] = 1
        assert not mask.observed[0, 0]
