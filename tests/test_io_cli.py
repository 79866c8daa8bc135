"""File formats, splits, run configuration, serialization, and the CLI."""

import dataclasses
import importlib
import json
import logging
import os
import pkgutil

import numpy as np
import pytest

import s3ribp
import s3ribp.cli as cli
from s3ribp import (
    ChainConfig,
    ChainRunner,
    CountMatrix,
    DomainError,
    HyperParams,
    ParseError,
    PosteriorSummary,
    RunConfig,
    SIGMA_CEILING,
    load_counts,
    load_raw_matrix,
    load_summary,
    make_splits,
    rca_transform,
    run_chain,
    save_counts,
    save_summary,
)
from s3ribp.cli import cli_dispatch
from s3ribp.container import (
    MAGIC,
    atomic_write_bytes,
    canonical_bytes,
    read_records,
    write_records,
)
from s3ribp.io import _parse_count

from conftest import cells
from test_mcmc import tiny_data, tiny_hyper


def write_file(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return str(path)


class TestLoadCountsDense:
    def test_small_dense_file(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\tc1\nr0\t1\t0\nr1\t2\t3\n")
        data = load_counts(path)
        assert (data.n_rows, data.n_cols) == (2, 2)
        assert data.n_nonzero == 3
        assert cells(data) == [[0, 0, 1], [1, 0, 2], [1, 1, 3]]
        assert data.row_labels == ("r0", "r1")
        assert data.col_labels == ("c0", "c1")

    def test_comma_delimited(self, tmp_path):
        path = write_file(tmp_path / "m.csv", ",a,b\nx,1,2\ny,0,4\n")
        data = load_counts(path)
        assert data.col_labels == ("a", "b")
        assert data.counts_at([1], [1]).tolist() == [4]

    def test_duplicate_row_label_reports_line(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\nr0\t1\nr0\t2\n")
        with pytest.raises(ParseError, match="duplicate row label") as err:
            load_counts(path)
        assert err.value.line == 3

    def test_duplicate_column_label_reports_line(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\ta\ta\nr0\t1\t2\n")
        with pytest.raises(ParseError, match="duplicate column label") as err:
            load_counts(path)
        assert err.value.line == 1

    def test_negative_count_reports_line(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\nr0\t1\nr1\t-2\n")
        with pytest.raises(ParseError, match="negative") as err:
            load_counts(path)
        assert err.value.line == 3

    def test_fractional_count_reports_line(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\nr0\t1.5\n")
        with pytest.raises(ParseError, match="not an integer") as err:
            load_counts(path)
        assert err.value.line == 2

    def test_non_numeric_count(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\nr0\tthree\n")
        with pytest.raises(ParseError, match="not a number"):
            load_counts(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\tc1\nr0\t1\n")
        with pytest.raises(ParseError, match="expected 3 fields") as err:
            load_counts(path)
        assert err.value.line == 2

    def test_header_only_rejected(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\tc1\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_counts(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\n\n")
        with pytest.raises(ParseError, match="empty"):
            load_counts(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\n\nr0\t2\n\n")
        data = load_counts(path)
        assert data.counts_at([0], [0]).tolist() == [2]


class TestLoadCountsTriplet:
    def test_with_header(self, tmp_path):
        path = write_file(tmp_path / "t.tsv", "row\tcol\tcount\na\tx\t2\nb\ty\t1\n")
        data = load_counts(path)
        assert (data.n_rows, data.n_cols) == (2, 2)
        assert cells(data) == [[0, 0, 2], [1, 1, 1]]
        assert data.row_labels == ("a", "b")

    def test_without_header(self, tmp_path):
        # a numeric third field on line 1 marks the line as data, not header
        path = write_file(tmp_path / "t.tsv", "a\tx\t2\nb\ty\t1\n")
        data = load_counts(path)
        assert data.n_nonzero == 2
        assert data.row_labels == ("a", "b")

    def test_labels_first_seen_order(self, tmp_path):
        path = write_file(tmp_path / "t.tsv", "b\ty\t1\na\ty\t2\na\tx\t3\n")
        data = load_counts(path)
        assert data.row_labels == ("b", "a")
        assert data.col_labels == ("y", "x")
        assert data.counts_at([1], [1]).tolist() == [3]

    def test_duplicate_cell_reports_both_lines(self, tmp_path):
        path = write_file(
            tmp_path / "t.tsv", "row\tcol\tcount\na\tx\t1\nb\tx\t4\na\tx\t2\n"
        )
        with pytest.raises(ParseError, match="first seen on line 2") as err:
            load_counts(path)
        assert err.value.line == 4

    def test_duplicate_zero_cell_still_rejected(self, tmp_path):
        path = write_file(tmp_path / "t.tsv", "a\tx\t0\na\tx\t0\n")
        with pytest.raises(ParseError, match="duplicate cell"):
            load_counts(path)

    def test_zero_count_registers_labels_only(self, tmp_path):
        path = write_file(tmp_path / "t.tsv", "a\tx\t0\nb\ty\t3\n")
        data = load_counts(path)
        assert (data.n_rows, data.n_cols) == (2, 2)
        assert cells(data) == [[1, 1, 3]]
        assert data.counts_at([0], [0]).tolist() == [0]

    def test_fractional_count_reports_line(self, tmp_path):
        path = write_file(tmp_path / "t.tsv", "a\tx\t1\nb\ty\t2.5\n")
        with pytest.raises(ParseError, match="not an integer") as err:
            load_counts(path)
        assert err.value.line == 2

    def test_ragged_line_rejected(self, tmp_path):
        path = write_file(tmp_path / "t.tsv", "a\tx\t1\nb\ty\n")
        with pytest.raises(ParseError, match="expected 3 fields"):
            load_counts(path, fmt="triplet")


class TestDigestAcrossReaders:
    def test_one_digest_whatever_the_reader(self, tmp_path):
        # a checkpoint written after one reader resumes after another
        counts = [[1, 0, 2], [0, 3, 0]]
        want = CountMatrix.from_dense(counts, ("a", "b"), ("x", "y", "z")).digest()
        dense = write_file(tmp_path / "d.tsv", "\tx\ty\tz\na\t1\t0\t2\nb\t0\t3\t0\n")
        triplet = write_file(tmp_path / "t.tsv", "a\tx\t1\na\ty\t0\na\tz\t2\nb\ty\t3\n")
        assert load_counts(dense).digest() == want
        assert load_counts(triplet).digest() == want
        # the same cells with labels first seen in another order
        other = write_file(tmp_path / "o.tsv", "b\ty\t3\na\tx\t1\na\tz\t2\n")
        assert load_counts(other).digest() != want


class TestFormatDetection:
    def test_empty_corner_means_dense(self, tmp_path):
        # two columns + row label = 3 fields per line, but the empty corner
        # cell of the header marks the file as dense
        path = write_file(tmp_path / "m.tsv", "\tc0\tc1\nr0\t1\t2\n")
        data = load_counts(path)
        assert (data.n_rows, data.n_cols) == (1, 2)

    def test_three_field_nonempty_corner_means_triplet(self, tmp_path):
        path = write_file(tmp_path / "t.tsv", "row\tcol\tcount\na\tx\t5\n")
        data = load_counts(path)
        assert (data.n_rows, data.n_cols) == (1, 1)
        assert data.counts_at([0], [0]).tolist() == [5]

    def test_ambiguous_two_column_dense_needs_explicit_format(self, tmp_path):
        # a dense file whose corner carries a label is indistinguishable from
        # a triplet file; auto reads it as a triplet, fmt="dense" fixes it
        path = write_file(tmp_path / "m.tsv", "id\tc0\tc1\nr0\t1\t2\n")
        auto = load_counts(path)
        assert (auto.n_rows, auto.n_cols) == (1, 1)
        assert auto.row_labels == ("r0",)
        dense = load_counts(path, fmt="dense")
        assert (dense.n_rows, dense.n_cols) == (1, 2)
        assert dense.counts_at([0], [1]).tolist() == [2]

    def test_unknown_format_rejected(self, tmp_path):
        path = write_file(tmp_path / "m.tsv", "\tc0\nr0\t1\n")
        with pytest.raises(DomainError, match="unknown format"):
            load_counts(path, fmt="sparse")


class TestSaveLoadRoundTrip:
    def build_matrix(self, rng, n=7, d=5):
        # every row and column gets at least one positive entry so the
        # triplet format (which only records positive cells) loses nothing
        dense = rng.integers(0, 4, size=(n, d))
        for i in range(n):
            dense[i, rng.integers(d)] += 1
        for j in range(d):
            dense[rng.integers(n), j] += 1
        return CountMatrix.from_dense(
            dense,
            row_labels=tuple(f"row {i}" for i in range(n)),
            col_labels=tuple(f"col {j}" for j in range(d)),
        )

    def test_dense_round_trip(self, tmp_path, rng):
        data = self.build_matrix(rng)
        save_counts(data, tmp_path / "m.tsv", fmt="dense")
        back = load_counts(tmp_path / "m.tsv")
        assert cells(back) == cells(data)
        assert back.row_labels == data.row_labels
        assert back.col_labels == data.col_labels

    def test_dense_round_trip_keeps_zero_rows(self, tmp_path):
        data = CountMatrix.from_dense(np.array([[0, 0], [3, 0]]))
        save_counts(data, tmp_path / "m.tsv", fmt="dense")
        back = load_counts(tmp_path / "m.tsv")
        assert (back.n_rows, back.n_cols) == (2, 2)
        assert cells(back) == [[1, 0, 3]]

    def test_triplet_round_trip(self, tmp_path, rng):
        data = self.build_matrix(rng)
        save_counts(data, tmp_path / "t.tsv", fmt="triplet")
        back = load_counts(tmp_path / "t.tsv")
        assert cells(back) == cells(data)
        assert back.row_labels == data.row_labels
        assert back.col_labels == data.col_labels

    def test_save_unknown_format_rejected(self, tmp_path):
        data = CountMatrix.from_dense(np.eye(2, dtype=int))
        with pytest.raises(DomainError, match="unknown format"):
            save_counts(data, tmp_path / "m.bin", fmt="npz")


class TestSparsityReport:
    def test_trade_shaped_file_profile(self, tmp_path, rng, caplog):
        n, d, nnz = 126, 744, 16000
        flat = rng.choice(n * d, size=nnz, replace=False)
        data = CountMatrix(
            n,
            d,
            flat // d,
            flat % d,
            rng.integers(1, 10, size=nnz),
            tuple(f"r{i}" for i in range(n)),
            tuple(f"c{j}" for j in range(d)),
        )
        save_counts(data, tmp_path / "t.tsv", fmt="triplet")
        with caplog.at_level(logging.INFO, logger="s3ribp.io"):
            back = load_counts(tmp_path / "t.tsv")
        assert (back.n_rows, back.n_cols) == (n, d)
        assert back.n_nonzero == 16000
        assert abs(back.density - 0.1707) < 1e-3
        assert "16000 non-zeros" in caplog.text
        assert "density 0.171" in caplog.text


class TestLoadRawMatrix:
    def test_fractional_values_allowed(self, tmp_path):
        path = write_file(tmp_path / "raw.tsv", "\ta\tb\nr\t1.5\t2\ns\t0.25\t4\n")
        values, row_labels, col_labels = load_raw_matrix(path)
        np.testing.assert_allclose(values, [[1.5, 2.0], [0.25, 4.0]])
        assert row_labels == ("r", "s")
        assert col_labels == ("a", "b")

    def test_negative_value_rejected(self, tmp_path):
        path = write_file(tmp_path / "raw.tsv", "\ta\nr\t-0.5\n")
        with pytest.raises(ParseError, match="negative") as err:
            load_raw_matrix(path)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "text, message",
        [
            ("\ta\ta\nr\t1.5\t2\n", "line 1: duplicate column label 'a'"),
            ("\ta\tb\nr\t1.5\t2\nr\t1\t0.5\n", "line 3: duplicate row label 'r'"),
        ],
        ids=["column", "row"],
    )
    def test_duplicate_label_reports_line(self, tmp_path, text, message):
        path = write_file(tmp_path / "raw.tsv", text)
        with pytest.raises(ParseError, match=message):
            load_raw_matrix(path)

    def test_feeds_comparative_advantage_transform(self, tmp_path):
        path = write_file(tmp_path / "raw.tsv", "\ta\tb\nr\t3\t1\ns\t1\t3\n")
        values, row_labels, col_labels = load_raw_matrix(path)
        # shares (.75,.25)/(.25,.75) against world (.5,.5) -> index 1.5 / 0.5
        rounded = rca_transform(values, mode="round", row_labels=row_labels, col_labels=col_labels)
        assert rounded.dense.tolist() == [[2, 0], [0, 2]]
        binary = rca_transform(values, mode="binary", row_labels=row_labels, col_labels=col_labels)
        assert binary.dense.tolist() == [[1, 0], [0, 1]]

    def test_format_resolved_and_triplet_refused(self, tmp_path):
        # auto reads the file as load_counts would; the rca transform needs
        # a dense file, so a triplet file is refused by name
        trip = write_file(tmp_path / "trip.tsv", "row\tcol\tcount\na\tx\t1\nb\ty\t2\n")
        for fmt in ("auto", "triplet"):
            with pytest.raises(DomainError, match="rca preprocessing .* triplet"):
                load_raw_matrix(trip, fmt)
        dense = write_file(tmp_path / "raw.tsv", "\ta\tb\nr\t1.5\t2\n")
        assert load_raw_matrix(dense, "dense")[1] == ("r",)
        with pytest.raises(DomainError, match="unknown format"):
            load_raw_matrix(dense, "xml")

    def test_zero_row_named_in_error(self):
        with pytest.raises(DomainError, match="'empty'"):
            rca_transform(
                np.array([[0.0, 0.0], [1.0, 2.0]]),
                row_labels=("empty", "full"),
            )


def line_rows(path):
    """The file's non-blank lines as (line number, stripped cells): the
    line-by-line reader that the bulk readers replaced, kept as an oracle."""
    with open(path, encoding="utf-8") as fh:
        lines = [(no, ln.rstrip("\n")) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        raise ParseError("file is empty", line=1)
    return [(no, [c.strip() for c in ln.split("\t" if "\t" in ln else ",")]) for no, ln in lines]


def line_dense(rows, allow_float):
    header_no, header = rows[0]
    col_labels = tuple(header[1:])
    if not col_labels:
        raise ParseError("dense header has no column labels", line=header_no)
    for i, lab in enumerate(col_labels):
        if lab in col_labels[:i]:
            raise ParseError(f"duplicate column label {lab!r}", line=header_no)
    row_labels, values = [], []
    for lineno, cells in rows[1:]:
        if len(cells) != len(col_labels) + 1:
            raise ParseError(f"expected {len(col_labels) + 1} fields, got {len(cells)}", line=lineno)
        if cells[0] in row_labels:
            raise ParseError(f"duplicate row label {cells[0]!r}", line=lineno)
        row_labels.append(cells[0])
        values.append([_parse_count(c, lineno, allow_float) for c in cells[1:]])
    if not row_labels:
        raise ParseError("dense file has no data rows", line=header_no)
    return np.asarray(values, dtype=np.float64), tuple(row_labels), col_labels


def line_triplet(rows):
    first_no, first = rows[0]
    if len(first) != 3:
        raise ParseError(f"expected 3 fields, got {len(first)}", line=first_no)
    try:
        float(first[2])
        lines = rows
    except ValueError:
        lines = rows[1:]
    row_index, col_index, seen = {}, {}, {}
    rows_i, cols_i, counts = [], [], []
    for lineno, cells in lines:
        if len(cells) != 3:
            raise ParseError(f"expected 3 fields, got {len(cells)}", line=lineno)
        r, c, v = cells
        counts.append(_parse_count(v, lineno))
        rows_i.append(row_index.setdefault(r, len(row_index)))
        cols_i.append(col_index.setdefault(c, len(col_index)))
    if not lines:
        raise ParseError("triplet file has no data rows", line=1)
    for (lineno, (r, c, _)), cell in zip(lines, zip(rows_i, cols_i)):
        if cell in seen:
            raise ParseError(f"duplicate cell ({r!r}, {c!r}); first seen on line {seen[cell]}", line=lineno)
        seen[cell] = lineno
    return CountMatrix(len(row_index), len(col_index), rows_i, cols_i, counts, tuple(row_index), tuple(col_index))


def line_read(path, fmt, raw=False):
    """``load_raw_matrix`` (raw) or ``load_counts``, read line by line."""
    rows = line_rows(path)
    if fmt == "auto":
        fmt = "triplet" if rows[0][1][0] != "" and all(len(c) == 3 for _, c in rows) else "dense"
    if raw:
        if fmt == "triplet":
            raise DomainError(f"rca preprocessing reads a dense file of raw values, but {path} is read as triplet "
                              "format")
        return line_dense(rows, allow_float=True)
    return line_triplet(rows) if fmt == "triplet" else CountMatrix.from_dense(*line_dense(rows, allow_float=False))


def random_count_file(rng, kind, faults=0):
    """The text of a random dense, raw or triplet file, with ``faults``
    random defects; tab or comma cells padded with spaces, LF, CRLF or CR
    line ends, and blank lines."""
    n, d = int(rng.integers(1, 7)), int(rng.integers(1, 6))
    x = rng.integers(0, 5, size=(n, d)) * (rng.random((n, d)) < 0.6)
    if kind == "raw":
        cell = [[repr(float(v)) for v in row] for row in rng.lognormal(0.0, 3.0, size=(n, d)) * (x > 0)]
    else:
        cell = x.astype(str).tolist()
    if kind == "triplet":
        lines = [[f"r{i}", f"c{j}", cell[i][j]] for i, j in zip(*np.nonzero(x | (rng.random((n, d)) < 0.2)))]
        lines = [lines[i] for i in rng.permutation(len(lines))]
        if not lines or rng.random() < 0.5:
            lines.insert(0, ["row", "col", "count"])
    else:
        lines = [[""] + [f"c{j}" for j in range(d)]] + [[f"r{i}"] + cell[i] for i in range(n)]
    for _ in range(faults):
        line, other = (lines[int(i)] for i in rng.integers(len(lines), size=2))
        at = int(rng.integers(max(len(line), 1)))
        fault = int(rng.integers(4))
        if fault == 0 and line:
            line[at] = str(rng.choice(["x", "", "-1", "1.5", "nan", "inf", "1e400", "-0", "1_0"]))
        elif fault == 1 and line:
            del line[at]
        elif fault == 2 and at < min(2, len(line), len(other)):
            line[at] = other[at]  # a repeated label, or a repeated triplet cell
        elif fault == 3:
            lines.insert(int(rng.integers(len(lines) + 1)), list(line))
    delim, other_delim = ("\t", ",") if rng.random() < 0.5 else (",", "\t")
    # str.strip removes every pad; float alone refuses the separator \x1f
    pads = ["", "", " ", "  ", "\xa0"] + ["\x1f"] * (rng.random() < 0.2)

    def pad(cell):
        return pads[rng.integers(len(pads))] + cell + pads[rng.integers(len(pads))]

    text = [(delim if rng.random() < 0.9 else other_delim).join(map(pad, line)) for line in lines]
    for _ in range(int(rng.integers(3))):
        text.insert(int(rng.integers(len(text) + 1)), str(rng.choice(["", " ", " \t "])))
    end = str(rng.choice(["\n", "\r\n", "\r"]))
    return end.join(text) + (end if rng.random() < 0.8 else "")


def outcome(read, *args):
    """("ok", what ``read(*args)`` returns), or the name of the error it
    raises with its text and line number."""
    try:
        return "ok", read(*args)
    except (ParseError, DomainError) as err:
        return type(err).__name__, (str(err), getattr(err, "line", None))


class TestBulkReadersAgainstLineReader:
    """The bulk readers return what the line-by-line reader returned, and
    raise the same error, text and line number, on every defect."""

    @pytest.mark.parametrize("faults", [0, 1, 3])
    @pytest.mark.parametrize("kind", ["dense", "raw", "triplet"])
    def test_random_files(self, tmp_path, kind, faults):
        rng = np.random.default_rng([7, faults, len(kind)])
        raw, seen = kind == "raw", set()
        for i in range(150):
            path = tmp_path / f"{i}.txt"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(random_count_file(rng, kind, faults))
            for fmt in ("auto", "triplet" if kind == "triplet" else "dense"):
                got = outcome(load_raw_matrix if raw else load_counts, path, fmt)
                want = outcome(line_read, path, fmt, raw)
                assert got[0] == want[0], (got, want)
                seen.add(want[0])
                if want[0] != "ok":
                    assert got == want
                elif raw:
                    assert got[1][0].dtype == want[1][0].dtype == np.float64
                    np.testing.assert_array_equal(got[1][0], want[1][0])
                    assert got[1][1:] == want[1][1:]
                else:
                    assert cells(got[1]) == cells(want[1])
                    assert (got[1].row_labels, got[1].col_labels) == (want[1].row_labels, want[1].col_labels)
                    assert got[1].digest() == want[1].digest()
        assert ("ParseError" if faults else "ok") in seen

    def test_full_precision_floats(self, tmp_path, rng):
        values = rng.lognormal(0.0, 5.0, size=(4, 6)) * (rng.random((4, 6)) < 0.7)
        lines = ["\t" + "\t".join(f"c{j}" for j in range(6))]
        lines += [f"r{i}\t" + "\t".join(f" {v!r} " for v in row) for i, row in enumerate(values.tolist())]
        path = write_file(tmp_path / "raw.tsv", "\r\n".join(lines) + "\r\n")
        got, row_labels, col_labels = load_raw_matrix(path)
        np.testing.assert_array_equal(got, values)
        assert row_labels == tuple(f"r{i}" for i in range(4))
        assert col_labels == tuple(f"c{j}" for j in range(6))

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("\tc0\tc1\nr0\t1\t2\nr1\t-1\nr1\t2\t2\n", 3, "expected 3 fields"),
            ("\tc0\tc1\nr0\t1\tx\nr1\t-1\nr1\t2\t2\n", 2, "'x' is not a number"),
            ("\tc0\tc1\nr0\t1\t2\nr0\t1.5\t2\n", 3, "duplicate row label"),
            ("\tc0\tc1\nr0\t1\t2\nr1\t1.5\t2\nr1\t1\t2\n", 3, "count '1.5' is not an integer"),
            ("a\tx\t1\nb\ty\t-2\nc\tz\n", 2, "count '-2' is negative"),
            ("a\tx\t1\nb\ty\nc\tz\tq\n", 2, "expected 3 fields"),
            ("a\tx\t1\nb\tx\t  inf \na\tx\t1\n", 2, "'inf' is not finite"),
        ],
    )
    def test_first_defect_in_file_order_is_reported(self, tmp_path, text, line, message):
        path = write_file(tmp_path / "m.tsv", text)
        with pytest.raises(ParseError, match=message) as err:
            load_counts(path, "triplet" if text.startswith("a") else "dense")
        assert err.value.line == line
        want = outcome(line_read, path, "triplet" if text.startswith("a") else "dense")
        assert want == ("ParseError", (str(err.value), line))


class TestMakeSplits:
    def test_fraction_gives_ceil_cells(self):
        data = CountMatrix.from_dense(np.ones((10, 10), dtype=int))
        masks = make_splits(data, 0.1, 3, seed=5)
        assert len(masks) == 3
        for mask in masks:
            assert mask.n_held_out == 10
            assert (mask.n_rows, mask.n_cols) == (10, 10)

    def test_ceil_rounds_up(self):
        data = CountMatrix.from_dense(np.ones((3, 3), dtype=int))
        masks = make_splits(data, 0.15, 1, seed=0)
        assert masks[0].n_held_out == 2  # ceil(1.35)

    def test_seed_fold_determinism(self):
        data = CountMatrix.from_dense(np.ones((8, 8), dtype=int))
        first = make_splits(data, 0.2, 3, seed=11)
        second = make_splits(data, 0.2, 3, seed=11)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.held_out, b.held_out)
        assert first[0].held_out.tolist() != first[1].held_out.tolist()
        other = make_splits(data, 0.2, 3, seed=12)
        assert first[0].held_out.tolist() != other[0].held_out.tolist()

    def test_fraction_bounds(self):
        data = CountMatrix.from_dense(np.ones((4, 4), dtype=int))
        with pytest.raises(DomainError):
            make_splits(data, 0.0, 2, seed=0)
        with pytest.raises(DomainError):
            make_splits(data, 1.0, 2, seed=0)
        with pytest.raises(DomainError):
            make_splits(data, 0.5, 0, seed=0)

    def test_fraction_must_leave_training_cells(self):
        data = CountMatrix.from_dense(np.ones((2, 2), dtype=int))
        with pytest.raises(DomainError, match="no training cells"):
            make_splits(data, 0.999, 1, seed=0)


class TestRunConfig:
    def test_json_round_trip(self):
        config = RunConfig(
            dataset="counts.tsv",
            fmt="triplet",
            preproc="rca-round",
            holdout=0.2,
            n_folds=4,
            hyper=tiny_hyper(seed=9),
            out_dir="out",
            options={"command": "fit"},
        )
        assert RunConfig.from_json(config.to_json()) == config

    def test_version_echoed_and_ignored_on_parse(self):
        config = RunConfig(dataset="x.tsv")
        text = config.to_json(version="1.2.3")
        assert json.loads(text)["package_version"] == "1.2.3"
        assert RunConfig.from_json(text) == config

    def test_validation(self):
        with pytest.raises(DomainError, match="preprocessing"):
            RunConfig(dataset="x", preproc="log")
        with pytest.raises(DomainError, match="fraction"):
            RunConfig(dataset="x", holdout=0.0)
        with pytest.raises(DomainError, match="fold"):
            RunConfig(dataset="x", n_folds=0)
        with pytest.raises(DomainError, match="format"):
            RunConfig(dataset="x", fmt="xml")

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError, match="unknown RunConfig key.*'colour'"):
            RunConfig.from_dict({"dataset": "x", "colour": 1})
        with pytest.raises(DomainError, match="unknown HyperParams key.*'bogus'"):
            RunConfig.from_dict({"dataset": "x", "hyper": {"seed": 1, "bogus": 2}})
        with pytest.raises(DomainError, match="JSON object"):
            RunConfig.from_json('{"dataset": "x", "hyper": 3}')


@pytest.fixture(scope="module")
def summary():
    rng = np.random.default_rng(3)
    data = tiny_data(rng)
    return run_chain(data, None, ChainConfig(hyper=tiny_hyper(seed=3)))


class TestSummarySerialization:
    def test_round_trip(self, summary, tmp_path):
        save_summary(summary, tmp_path / "s.bin")
        back = load_summary(tmp_path / "s.bin")
        np.testing.assert_array_equal(back.z_samples, summary.z_samples)
        np.testing.assert_array_equal(back.b_samples, summary.b_samples)
        np.testing.assert_array_equal(back.pi_samples, summary.pi_samples)
        np.testing.assert_array_equal(back.alpha_samples, summary.alpha_samples)
        np.testing.assert_array_equal(back.kplus_trace, summary.kplus_trace)
        assert back.hyper == summary.hyper
        assert back.runtime_seconds == 0.0

    def test_bytes_deterministic_across_reruns(self, summary, tmp_path):
        rng = np.random.default_rng(3)
        again = run_chain(tiny_data(rng), None, ChainConfig(hyper=tiny_hyper(seed=3)))
        save_summary(summary, tmp_path / "a.bin")
        save_summary(again, tmp_path / "b.bin")
        with open(tmp_path / "a.bin", "rb") as fh:
            first = fh.read()
        with open(tmp_path / "b.bin", "rb") as fh:
            second = fh.read()
        assert first == second

    def test_every_field_but_runtime_survives(self, summary, tmp_path):
        # iterates the declared fields, so a field added later cannot be
        # dropped from the file silently
        assert summary.runtime_seconds > 0
        save_summary(summary, tmp_path / "s.bin")
        back = load_summary(tmp_path / "s.bin")
        for f in dataclasses.fields(PosteriorSummary):
            want, got = getattr(summary, f.name), getattr(back, f.name)
            if f.name == "runtime_seconds":
                assert got == 0.0
            elif isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and got.shape == want.shape, f.name
                assert np.array_equal(got, want), f.name
            else:
                assert type(got) is type(want) and got == want, f.name

    def test_wrong_kind_rejected(self, tmp_path):
        write_records(tmp_path / "x.bin", {"a": np.arange(3)}, {"kind": "other"})
        with pytest.raises(ParseError, match="not a posterior summary"):
            load_summary(tmp_path / "x.bin")

    def test_unknown_schema_rejected(self, summary, tmp_path):
        save_summary(summary, tmp_path / "s.bin")
        arrays, meta = read_records(tmp_path / "s.bin")
        # schema 1 also stored burn_in, thin and seed beside the hyperparameters
        write_records(tmp_path / "x.bin", arrays, {**meta, "schema_version": 1})
        with pytest.raises(ParseError, match="not a posterior summary file of schema 2"):
            load_summary(tmp_path / "x.bin")


GOOD_SPEC = {"dtype": "<f8", "offset": 0, "nbytes": 8, "shape": [1]}
BAD_SPEC_VALUES = {"dtype": "no-such-type", "offset": "0", "nbytes": 16, "shape": [1, "a"]}


def one_array_container(spec):
    """A container of 8 body bytes whose one array entry is ``spec``."""
    header = json.dumps({"meta": {}, "arrays": {"w": spec}}).encode()
    return MAGIC + len(header).to_bytes(8, "little") + header + bytes(8)


class TestContainer:
    def test_round_trip(self, tmp_path, rng):
        arrays = {"z": rng.integers(0, 2, size=(4, 3)), "w": rng.normal(size=5)}
        meta = {"kind": "test", "n": 4}
        write_records(tmp_path / "c.bin", arrays, meta)
        back, back_meta = read_records(tmp_path / "c.bin")
        np.testing.assert_array_equal(back["z"], arrays["z"])
        np.testing.assert_array_equal(back["w"], arrays["w"])
        assert back_meta == meta

    def test_equal_content_equal_bytes(self, rng):
        arrays = {"w": rng.normal(size=4)}
        assert canonical_bytes(arrays, {"k": 1}) == canonical_bytes(
            {"w": arrays["w"].copy()}, {"k": 1}
        )

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        with open(path, "wb") as fh:
            fh.write(b"NOTMAGIC" + b"\x00" * 32)
        with pytest.raises(ParseError, match="bad magic"):
            read_records(path)

    def test_truncated_body_rejected(self, tmp_path, rng):
        path = tmp_path / "c.bin"
        write_records(path, {"w": rng.normal(size=64)}, {})
        with open(path, "rb") as fh:
            blob = fh.read()
        with open(path, "wb") as fh:
            fh.write(blob[:-16])
        with pytest.raises(ParseError, match="truncated"):
            read_records(path)

    def test_corrupt_header_rejected(self, tmp_path):
        path = tmp_path / "c.bin"
        import struct

        with open(path, "wb") as fh:
            fh.write(MAGIC + struct.pack("<Q", 4) + b"nope")
        with pytest.raises(ParseError, match="corrupt container header"):
            read_records(path)

    @pytest.mark.parametrize(
        "blob",
        [
            MAGIC + b"\x01",  # the header length itself is cut short
            MAGIC + (100).to_bytes(8, "little") + b"{}",  # the header overruns the file
            MAGIC + (13).to_bytes(8, "little") + b'{"arrays":{}}',  # no "meta"
            MAGIC + (11).to_bytes(8, "little") + b'{"meta":{}}',  # no "arrays"
            *(one_array_container({k: v for k, v in GOOD_SPEC.items() if k != key}) for key in GOOD_SPEC),
            *(one_array_container({**GOOD_SPEC, key: value}) for key, value in BAD_SPEC_VALUES.items()),
        ],
        ids=[
            "short-length", "header-overrun", "no-meta", "no-arrays",
            *(f"no-{key}" for key in GOOD_SPEC),
            *(f"bad-{key}" for key in BAD_SPEC_VALUES),
        ],
    )
    def test_malformed_header_rejected(self, tmp_path, blob):
        path = tmp_path / "c.bin"
        path.write_bytes(blob)
        with pytest.raises(ParseError, match="container header"):
            read_records(path)

    def test_failed_write_leaves_no_file(self, tmp_path):
        target = tmp_path / "out" / "c.bin"
        with pytest.raises(TypeError):
            atomic_write_bytes(target, None)
        assert not target.exists()
        assert os.listdir(tmp_path / "out") == []

    def test_overwrite_is_atomic_replace(self, tmp_path):
        path = tmp_path / "c.txt"
        atomic_write_bytes(path, b"first")
        atomic_write_bytes(path, b"second")
        with open(path, "rb") as fh:
            assert fh.read() == b"second"
        assert os.listdir(tmp_path) == ["c.txt"]


def parse_cli(argv):
    return cli._build_parser().parse_args(argv)


class TestCliHyperResolution:
    def test_fit_defaults_match_stated_values(self):
        args = parse_cli(["fit", "--data", "x.tsv", "--out", "o"])
        hp = cli._resolve_hyper(args, None)
        assert hp == HyperParams()
        assert hp.burn_in == 30_000
        assert hp.n_samples == 1_000
        assert hp.alpha_b == 0.01
        assert hp.mu_b == 1.0
        assert hp.nb_r == 1.0
        assert hp.nb_p == 0.1
        assert hp.c == 50.0
        assert hp.sigma == SIGMA_CEILING
        assert hp.k_max == 50
        assert hp.alpha_prior_shape == 1.0
        assert hp.alpha_prior_scale == 1.0

    def test_flag_beats_config_beats_default(self, tmp_path):
        config = RunConfig(dataset="x.tsv", hyper=HyperParams(c=2.0, nb_p=0.3))
        path = write_file(tmp_path / "cfg.json", config.to_json())
        args = parse_cli(["fit", "--data", "x.tsv", "--out", "o", "--config", path, "--c", "5.0"])
        hp = cli._resolve_hyper(args, cli._load_config_file(args.config))
        assert hp.c == 5.0  # flag wins
        assert hp.nb_p == 0.3  # config file wins over default
        assert hp.burn_in == 30_000  # untouched default survives

    def test_flag_table_names_every_field_once(self):
        names = [name for _, name, _ in cli._HYPER_FLAGS]
        assert sorted(names) == sorted(f.name for f in dataclasses.fields(HyperParams))

    def test_sigma_one_clamps_with_warning(self):
        args = parse_cli(["fit", "--data", "x.tsv", "--out", "o", "--sigma", "1.0"])
        with pytest.warns(UserWarning, match="sigma=1"):
            hp = cli._resolve_hyper(args, None)
        assert hp.sigma == SIGMA_CEILING


@pytest.fixture(scope="module")
def block_file(tmp_path_factory):
    # two row groups with disjoint column support; strong counts so a short
    # chain finds the two features reliably
    rng = np.random.default_rng(5)
    dense = np.zeros((12, 6), dtype=np.int64)
    dense[:6, :3] = rng.poisson(8.0, size=(6, 3))
    dense[6:, 3:] = rng.poisson(8.0, size=(6, 3))
    dense[0, 0] += 1  # guarantee a nonzero in the corner block
    dense[6, 3] += 1
    data = CountMatrix.from_dense(dense)
    path = tmp_path_factory.mktemp("data") / "blocks.tsv"
    save_counts(data, path, fmt="dense")
    return str(path)


FIT_FLAGS = [
    "--k-max", "3", "--burn-in", "250", "--samples", "60", "--seed", "1",
    "--sigma", "0.25", "--c", "1.0", "--nb-p", "0.5", "--alpha-b", "0.5",
    "--eps-trunc", "1e-4",
]


class TestCliCommands:
    def test_generate_ibp(self, tmp_path):
        out = str(tmp_path / "gen")
        assert cli_dispatch(
            ["generate", "--prior", "ibp", "--alpha", "2.0", "--rows", "30",
             "--seed", "3", "--out", out]
        ) == 0
        data = load_counts(os.path.join(out, "matrix.tsv"))
        assert data.n_rows == 30
        assert data.n_cols >= 1
        assert set(np.unique(data.dense)) <= {0, 1}
        with open(os.path.join(out, "run_config.json"), encoding="utf-8") as fh:
            echoed = json.load(fh)
        assert echoed["package_version"]
        assert echoed["options"]["command"] == "generate"
        assert echoed["hyper"]["seed"] == 3

    def test_generate_other_priors(self, tmp_path):
        for prior in ("3p", "s3r"):
            out = str(tmp_path / prior)
            argv = ["generate", "--prior", prior, "--alpha", "1.5", "--rows", "10",
                    "--seed", "2", "--out", out, "--sigma", "0.25", "--c", "1.0",
                    "--k-max", "8", "--nb-p", "0.5"]
            assert cli_dispatch(argv) == 0
            assert os.path.exists(os.path.join(out, "matrix.tsv"))

    def test_fit_eval_report_resume_cycle(self, block_file, tmp_path):
        fit_out = str(tmp_path / "fit")
        argv = ["fit", "--data", block_file, "--out", fit_out,
                "--checkpoint-interval", "200"] + FIT_FLAGS
        assert cli_dispatch(argv) == 0
        summary_path = os.path.join(fit_out, "summary.bin")
        ckpt_path = os.path.join(fit_out, "checkpoint.bin")
        assert os.path.exists(summary_path)
        assert os.path.exists(ckpt_path)
        summary = load_summary(summary_path)
        assert summary.z_samples.shape == (60, 12, 3)
        assert summary.b_samples.shape == (60, 3, 6)
        with open(os.path.join(fit_out, "run_config.json"), encoding="utf-8") as fh:
            echoed = json.load(fh)
        assert echoed["hyper"]["burn_in"] == 250

        # identical flags, fresh directory: byte-identical summary
        fit2_out = str(tmp_path / "fit2")
        assert cli_dispatch(["fit", "--data", block_file, "--out", fit2_out] + FIT_FLAGS) == 0
        with open(summary_path, "rb") as fh:
            first = fh.read()
        with open(os.path.join(fit2_out, "summary.bin"), "rb") as fh:
            assert fh.read() == first

        # resume from the mid-run checkpoint: byte-identical summary
        resume_out = str(tmp_path / "resume")
        assert cli_dispatch(
            ["resume", "--data", block_file, "--checkpoint", ckpt_path, "--out", resume_out]
        ) == 0
        with open(os.path.join(resume_out, "summary.bin"), "rb") as fh:
            assert fh.read() == first

        # topics over the fitted posterior
        topics_out = str(tmp_path / "topics")
        assert cli_dispatch(
            ["topics", "--data", block_file, "--posterior", summary_path, "--out", topics_out]
        ) == 0
        with open(os.path.join(topics_out, "topics.txt"), encoding="utf-8") as fh:
            lines = fh.read().strip().splitlines()
        assert lines and all(line.startswith("F") and "(" in line for line in lines)

        # qq tables
        qq_out = str(tmp_path / "qq")
        assert cli_dispatch(
            ["qq", "--data", block_file, "--posterior", summary_path, "--out", qq_out,
             "--draws", "20", "--seed", "0"]
        ) == 0
        for name in ("qq_model.tsv", "qq_baseline.tsv"):
            with open(os.path.join(qq_out, name), encoding="utf-8") as fh:
                table = fh.read().strip().splitlines()
            assert table[0] == "empirical\tpredicted"
            assert len(table) == 13  # 12 quantile rows + header

        # second layer on the binarized activity pattern
        meta_out = str(tmp_path / "meta")
        argv = ["meta", "--posterior", summary_path, "--out", meta_out,
                "--k-max", "2", "--burn-in", "80", "--samples", "20", "--seed", "4",
                "--sigma", "0.25", "--c", "1.0", "--nb-p", "0.5", "--alpha-b", "0.5",
                "--eps-trunc", "1e-4"]
        assert cli_dispatch(argv) == 0
        meta_summary = load_summary(os.path.join(meta_out, "meta_summary.bin"))
        assert meta_summary.z_samples.shape[1] == 12
        assert os.path.exists(os.path.join(meta_out, "meta_topics.txt"))

    def test_eval_two_folds(self, block_file, tmp_path, capsys):
        out = str(tmp_path / "eval")
        argv = ["eval", "--data", block_file, "--out", out, "--folds", "2",
                "--holdout", "0.1", "--draws", "10",
                "--k-max", "3", "--burn-in", "120", "--samples", "40", "--seed", "2",
                "--sigma", "0.25", "--c", "1.0", "--nb-p", "0.5", "--alpha-b", "0.5",
                "--eps-trunc", "1e-4"]
        assert cli_dispatch(argv) == 0
        with open(os.path.join(out, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert len(report["folds"]) == 2
        assert {"log_perplexity", "infinite_cells", "log_perplexity_finite", "coherence", "k_plus_mode"} <= set(
            report["folds"][0]
        )
        with open(os.path.join(out, "report.txt"), encoding="utf-8") as fh:
            text = fh.read()
        assert "folds: 2" in text
        infinite = sum(f["infinite_cells"] for f in report["folds"])
        assert f"{infinite} held-out cells with zero probability" in capsys.readouterr().out

    def test_fit_with_default_hyperparameters(self, tmp_path):
        # the defaults (c=50, sigma=0.999, eps_trunc=1e-6) once broke the
        # exposure-mass quadrature, so only the schedule is set here
        data = write_file(tmp_path / "x.tsv", "\ta\tb\nr\t3\t0\ns\t1\t2\n")
        out = str(tmp_path / "fit")
        argv = ["fit", "--data", data, "--out", out, "--k-max", "3", "--burn-in", "2", "--samples", "2"]
        assert cli_dispatch(argv) == 0
        summary = load_summary(os.path.join(out, "summary.bin"))
        assert summary.hyper.c == 50.0 and summary.hyper.eps_trunc == 1e-6
        assert summary.n_samples == 2

    def test_rca_preprocessing_path(self, tmp_path):
        raw = write_file(
            tmp_path / "raw.tsv",
            "\ta\tb\nr\t3\t1\ns\t1\t3\n",
        )
        out = str(tmp_path / "fit")
        argv = ["fit", "--data", raw, "--preproc", "rca-binary", "--out", out,
                "--k-max", "2", "--burn-in", "20", "--samples", "5", "--seed", "0",
                "--sigma", "0.25", "--c", "1.0", "--nb-p", "0.5", "--alpha-b", "0.5",
                "--eps-trunc", "1e-4"]
        assert cli_dispatch(argv) == 0
        with open(os.path.join(out, "run_config.json"), encoding="utf-8") as fh:
            assert json.load(fh)["preproc"] == "rca-binary"


class TestCliErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        assert cli_dispatch([]) == 2
        capsys.readouterr()

    def test_missing_required_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["fit"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert cli_dispatch(["train", "--data", "x"]) == 2
        capsys.readouterr()

    def test_unknown_flag_is_usage_error(self, capsys):
        assert cli_dispatch(["fit", "--data", "x", "--out", "o", "--bogus", "1"]) == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        assert cli_dispatch(["--version"]) == 0
        assert "s3ribp" in capsys.readouterr().out

    def test_missing_data_file_exits_one_with_json_line(self, tmp_path, capsys):
        missing = str(tmp_path / "nope.tsv")
        code = cli_dispatch(["fit", "--data", missing, "--out", str(tmp_path / "o")])
        assert code == 1
        err_lines = capsys.readouterr().err.strip().splitlines()
        payload = json.loads(err_lines[-1])
        assert set(payload) == {"error", "message"}
        assert "nope.tsv" in payload["message"]

    def test_corrupt_posterior_exits_one(self, block_file, tmp_path, capsys):
        bogus = write_file(tmp_path / "posterior.bin", "not a container")
        code = cli_dispatch(
            ["topics", "--data", block_file, "--posterior", bogus, "--out", str(tmp_path / "o")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ParseError"

    def test_unknown_config_key_exits_one(self, block_file, tmp_path, capsys):
        config = write_file(tmp_path / "c.json", '{"dataset": "x", "hyper": {"seed": 1, "bogus": 2}}')
        code = cli_dispatch(["fit", "--data", block_file, "--config", config, "--out", str(tmp_path / "o")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DomainError"
        assert "'bogus'" in payload["message"]

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"hyper": {"seed": 1}}', "missing required key(s): 'dataset'"),
            ('{"dataset": "x", "hyper": {"k_max": "5"}}', "'k_max' must be int, got '5'"),
        ],
        ids=["missing-field", "wrong-type"],
    )
    def test_malformed_config_exits_one(self, block_file, tmp_path, capsys, text, message):
        config = write_file(tmp_path / "c.json", text)
        out = tmp_path / "o"
        code = cli_dispatch(["fit", "--data", block_file, "--config", config, "--out", str(out)])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DomainError"
        assert message in payload["message"]
        assert not out.exists()

    def test_parse_error_in_data_exits_one(self, tmp_path, capsys):
        bad = write_file(tmp_path / "bad.tsv", "\tc0\nr0\t-1\n")
        code = cli_dispatch(["fit", "--data", bad, "--out", str(tmp_path / "o")])
        assert code == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "ParseError"
        assert "line 2" in payload["message"]


TINY_FLAGS = [
    "--k-max", "3", "--burn-in", "6", "--samples", "3", "--sigma", "0.25", "--c", "1.0",
    "--nb-p", "0.5", "--alpha-b", "0.5", "--eps-trunc", "1e-4",
]
TINY_HYPER = HyperParams(k_max=3, burn_in=6, n_samples=3, sigma=0.25, c=1.0, nb_p=0.5, alpha_b=0.5, eps_trunc=1e-4)
COMMANDS = ("generate", "fit", "eval", "qq", "topics", "meta", "resume")


@pytest.fixture(scope="module")
def command_runs(block_file, tmp_path_factory):
    """Each subcommand run once at a tiny size: (out dirs, argv tails)."""
    root = tmp_path_factory.mktemp("commands")
    out = {name: str(root / name) for name in COMMANDS}
    summary = os.path.join(out["fit"], "summary.bin")
    data = ["--data", block_file]
    argv = {
        "generate": [
            "--prior", "3p", "--alpha", "1.5", "--rows", "8", "--format", "triplet", "--seed", "2", *TINY_FLAGS,
        ],
        "fit": [*data, "--preproc", "none", "--checkpoint-interval", "4", "--seed", "3", *TINY_FLAGS],
        "eval": [*data, "--folds", "2", "--holdout", "0.2", "--draws", "4", "--top-m", "2", *TINY_FLAGS],
        "qq": [*data, "--posterior", summary, "--draws", "4", "--seed", "5"],
        "topics": [*data, "--format", "dense", "--posterior", summary, "--top-m", "2"],
        "meta": ["--posterior", summary, "--top-m", "2", "--seed", "6", *TINY_FLAGS],
        "resume": [*data, "--checkpoint", os.path.join(out["fit"], "checkpoint.bin")],
    }
    for name in COMMANDS:
        assert cli_dispatch([name, *argv[name], "--out", out[name]]) == 0, name
    return out, argv


class TestCliRunConfig:
    """Every subcommand echoes its source, options and hyperparameters into
    run_config.json, and one whose inputs fail to read leaves no --out."""

    def expected(self, out, block_file):
        # command -> (options besides "command", RunConfig fields besides out_dir and options)
        summary = os.path.join(out["fit"], "summary.bin")
        fitted = TINY_HYPER.replace(seed=3)
        source = {"dataset": block_file, "fmt": "auto", "preproc": "none"}
        return {
            "generate": (
                {"prior": "3p", "alpha": 1.5, "rows": 8},
                {"dataset": os.path.join(out["generate"], "matrix.tsv"), "fmt": "triplet",
                 "hyper": TINY_HYPER.replace(seed=2)},
            ),
            "fit": ({"checkpoint_interval": 4}, {**source, "hyper": fitted}),
            "eval": (
                {"draws": 4, "top_m": 2},
                {**source, "holdout": 0.2, "n_folds": 2, "hyper": TINY_HYPER},
            ),
            # the replicate seed is an option; the hyperparameters stay the posterior's
            "qq": ({"draws": 4, "posterior": summary, "seed": 5}, {**source, "hyper": fitted}),
            "topics": ({"top_m": 2, "posterior": summary}, {**source, "fmt": "dense", "hyper": fitted}),
            "meta": ({"top_m": 2}, {"dataset": summary, "hyper": TINY_HYPER.replace(seed=6)}),
            "resume": (
                {"checkpoint": os.path.join(out["fit"], "checkpoint.bin")},
                {**source, "hyper": fitted},
            ),
        }

    @pytest.mark.parametrize("command", COMMANDS)
    def test_run_config_echoes_the_run(self, command_runs, block_file, command):
        out, _ = command_runs
        options, fields = self.expected(out, block_file)[command]
        with open(os.path.join(out[command], "run_config.json"), encoding="utf-8") as fh:
            text = fh.read()
        echoed = RunConfig.from_json(text)
        assert echoed.options == {"command": command, **options}
        assert echoed.hyper.digest() == fields["hyper"].digest()
        want = RunConfig(out_dir=out[command], options=echoed.options, **fields)
        assert text == want.to_json(version=s3ribp.__version__) + "\n"

    @pytest.mark.parametrize("command", COMMANDS)
    def test_input_error_leaves_no_out_dir(self, command_runs, tmp_path, capsys, command):
        _, argv = command_runs
        junk = write_file(tmp_path / "junk.bin", "not a container")
        bad = {
            "generate": ["--config", str(tmp_path / "no-such-config.json")],
            "fit": ["--data", str(tmp_path / "no-such-data.tsv")],
            "eval": ["--data", str(tmp_path / "no-such-data.tsv")],
            "qq": ["--posterior", junk],
            "topics": ["--posterior", junk],
            "meta": ["--posterior", junk],
            "resume": ["--checkpoint", junk],
        }[command]
        out = tmp_path / "o"
        # argparse keeps the last value of a repeated flag
        assert cli_dispatch([command, *argv[command], *bad, "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert not out.exists()

    def test_qq_refuses_a_posterior_of_another_shape(self, command_runs, tmp_path, capsys):
        _, argv = command_runs
        other = write_file(tmp_path / "other.tsv", "\tc0\tc1\nr0\t1\t2\nr1\t0\t3\n")
        out = tmp_path / "o"
        assert cli_dispatch(["qq", *argv["qq"], "--data", other, "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DomainError"
        assert "fitted on a 12x6 matrix, but the data is 2x2" in payload["message"]
        assert not out.exists()

    def test_topics_names_both_widths(self, command_runs, tmp_path, capsys):
        _, argv = command_runs
        other = write_file(tmp_path / "other.tsv", "\tc0\tc1\nr0\t1\t2\nr1\t0\t3\n")
        out = tmp_path / "o"
        assert cli_dispatch(["topics", *argv["topics"], "--data", other, "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DomainError"
        assert "2 column labels for a weight matrix 6 columns wide" in payload["message"]
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, bad, message",
        [
            ("eval", ["--draws", "0"], "--draws 0 is less than 1"),
            ("eval", ["--top-m", "0"], "--top-m 0 is less than 1"),
            ("eval", ["--holdout", "0.999"], "hold-out fraction leaves no training cells"),
            ("meta", ["--top-m", "0"], "--top-m 0 is less than 1"),
            ("qq", ["--draws", "0"], "--draws 0 is less than 1"),
            ("topics", ["--top-m", "0"], "--top-m 0 is less than 1"),
        ],
        ids=["eval-draws", "eval-top-m", "eval-holdout", "meta-top-m", "qq-draws", "topics-top-m"],
    )
    def test_bad_option_fits_no_chain_and_leaves_no_out_dir(
        self, command_runs, tmp_path, capsys, monkeypatch, command, bad, message
    ):
        _, argv = command_runs
        monkeypatch.setattr(s3ribp.evaluate, "run_chain", lambda *a, **k: pytest.fail("a chain ran before the check"))
        out = tmp_path / "o"
        assert cli_dispatch([command, *argv[command], *bad, "--out", str(out)]) == 1
        payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert payload["error"] == "DomainError"
        assert payload["message"] == message
        assert not out.exists()


def test_package_exports_every_module_name():
    # cli is the command-line entry point and container the byte layer under
    # io; every other module's public names are the package's
    for info in pkgutil.iter_modules(s3ribp.__path__):
        if info.name in ("cli", "container"):
            continue
        module = importlib.import_module(f"s3ribp.{info.name}")
        for name in module.__all__:
            assert name in s3ribp.__all__, f"{info.name}.{name}"
            assert getattr(s3ribp, name) is getattr(module, name), f"{info.name}.{name}"


class TestCliOneChain:
    """One run setting has one form, and a chain's files stay under --out."""

    def test_json_integer_for_a_float_fits_the_same_chain(self, block_file, tmp_path):
        # "c": 1 in a --config file and --c 1 on the command line are one
        # chain: one digest and the same summary bytes
        hyper = {**TINY_HYPER.to_dict(), "c": 1, "burn_in": 6.0}
        config = write_file(tmp_path / "c.json", json.dumps({"dataset": block_file, "hyper": hyper}))
        assert HyperParams(c=1).digest() == HyperParams(c=1.0).digest()
        from_file, from_flags = str(tmp_path / "file"), str(tmp_path / "flags")
        assert cli_dispatch(["fit", "--data", block_file, "--config", config, "--out", from_file]) == 0
        flags = ["1" if flag == "1.0" else flag for flag in TINY_FLAGS]  # --c 1
        assert cli_dispatch(["fit", "--data", block_file, *flags, "--out", from_flags]) == 0
        assert (tmp_path / "file" / "summary.bin").read_bytes() == (tmp_path / "flags" / "summary.bin").read_bytes()

    def test_rca_preprocessing_refuses_a_triplet_file(self, tmp_path, capsys):
        trip = write_file(tmp_path / "trip.tsv", "row\tcol\tcount\na\tx\t1\nb\ty\t2\n")
        out = tmp_path / "o"
        for fmt in ("triplet", "auto"):
            argv = ["fit", "--data", trip, "--format", fmt, "--preproc", "rca-round", "--out", str(out)]
            assert cli_dispatch(argv) == 1
            payload = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert payload["error"] == "DomainError"
            assert "rca preprocessing" in payload["message"] and "triplet" in payload["message"]
        assert not out.exists()

    def test_resume_from_another_directory_writes_only_its_files(self, block_file, tmp_path, monkeypatch):
        # a mid-run checkpoint written under a relative path; resumed from
        # another working directory, the chain checkpoints into the file it
        # was given and writes nothing outside --out
        home, elsewhere = tmp_path / "home", tmp_path / "elsewhere"
        home.mkdir()
        elsewhere.mkdir()
        data = load_counts(block_file)
        hp = TINY_HYPER.replace(seed=4)
        monkeypatch.chdir(home)
        relative = os.path.join("fit", "checkpoint.bin")
        runner = ChainRunner(data, None, ChainConfig(hyper=hp, checkpoint_path=relative, checkpoint_interval=2))
        for _ in range(3):
            runner.step_once()
        runner.save_checkpoint(relative)
        monkeypatch.chdir(elsewhere)
        checkpoint = str(home / relative)
        argv = ["resume", "--data", block_file, "--checkpoint", checkpoint, "--out", str(home / "resumed")]
        assert cli_dispatch(argv) == 0
        assert os.listdir(elsewhere) == []
        # 9 iterations at interval 2: the resumed chain wrote iterations 4, 6 and 8
        assert read_records(checkpoint)[1]["iteration"] == 8
        save_summary(run_chain(data, None, ChainConfig(hyper=hp)), tmp_path / "plain.bin")
        assert (home / "resumed" / "summary.bin").read_bytes() == (tmp_path / "plain.bin").read_bytes()
