"""Alloy representation, dataset parsing, and combination enumeration."""

import csv
import random
import tempfile
from math import comb
from pathlib import Path
from unittest import mock

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from heafusion import alloys
from heafusion.alloys import (
    ELEMENT_SYMBOLS,
    UNIVERSES,
    Alloy,
    Dataset,
    enumerate_combinations,
    parse_dataset,
    read_blocks,
    serialize_dataset,
)
from heafusion.errors import EmptyDataset, KTooLarge, ParseError

from conftest import random_dataset
from oracles import read_rows_reference, rows_dataset


class TestAlloy:
    def test_canonical_order(self):
        assert Alloy(["Ni", "Fe", "Cr", "Co"]) == Alloy(["Fe", "Co", "Ni", "Cr"])
        assert Alloy(["Ni", "Fe"]).elements == ("Fe", "Ni")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Alloy(["Fe", "Fe", "Ni"])

    def test_rejects_singleton(self):
        with pytest.raises(ValueError):
            Alloy(["Fe"])

    def test_rejects_bad_symbol(self):
        with pytest.raises(ValueError):
            Alloy(["Fe", "fe2"])


class TestDataset:
    def test_universe_must_cover_alloys(self):
        with pytest.raises(ValueError):
            Dataset("d", (Alloy(["Fe", "Ni"]),), [True], ("Fe",))

    def test_duplicate_alloys_rejected(self):
        with pytest.raises(ValueError):
            Dataset("d", (Alloy(["Fe", "Ni"]), Alloy(["Ni", "Fe"])), [True, False], ("Fe", "Ni"))

    def test_labels_are_one_read_only_bool_array(self):
        labels = [True, False]
        ds = Dataset("d", (Alloy(["Fe", "Ni"]), Alloy(["Co", "Ni"])), labels, ("Co", "Fe", "Ni"))
        assert ds.labels.dtype == bool and ds.labels.tolist() == [True, False]
        with pytest.raises(ValueError, match="read-only"):
            ds.labels[0] = False
        labels[0] = False  # the dataset holds its own copy
        assert ds.labels.tolist() == [True, False]

    @pytest.mark.parametrize("labels", [[True], [True, False, True], [[True, False]], True])
    def test_label_column_of_another_length_rejected(self, labels):
        with pytest.raises(ValueError, match="label column"):
            Dataset("d", (Alloy(["Fe", "Ni"]), Alloy(["Co", "Ni"])), labels, ("Co", "Fe", "Ni"))

    def test_compared_by_identity(self):
        ds = random_dataset(5, seed=1)
        assert ds == ds
        assert ds != Dataset(ds.name, ds.alloys, ds.labels, ds.universe)


class TestTake:
    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_dataset_of_those_rows(self, seed):
        rng = random.Random(seed)
        ds = random_dataset(rng.randint(1, 60), universe_size=rng.choice([5, 12, 40]), seed=seed)
        indices = rng.sample(range(len(ds)), rng.randint(0, len(ds)))  # any subset, in any order
        if seed % 2:  # the parent's masks built before the split, or by it
            _ = ds.words
        got = ds.take(np.array(indices, dtype=np.intp) if seed % 3 else indices, "[part]")
        expected = rows_dataset(ds, indices, "[part]")
        assert got.name == expected.name and got.universe == ds.universe
        assert got.alloys == expected.alloys
        assert np.array_equal(got.labels, expected.labels) and got.labels.dtype == bool
        assert not got.labels.flags.writeable
        assert got.words.dtype == expected.words.dtype and np.array_equal(got.words, expected.words)
        assert got.words.shape == expected.words.shape and not got.words.flags.writeable


class TestParsing:
    def test_basic_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Co-Ni-Cr,1\n")
        ds = parse_dataset(f)
        assert ds.alloys[0] == Alloy(["Co", "Cr", "Fe", "Ni"])
        assert ds.labels.tolist() == [True]

    @pytest.mark.parametrize(
        "label,expected",
        [("1", True), ("true", True), ("HEA", True), ("hea", True),
         ("0", False), ("False", False), ("NonHEA", False), ("nonhea", False)],
    )
    def test_label_spellings(self, tmp_path, label, expected):
        f = tmp_path / "d.csv"
        f.write_text(f"composition,label\nFe-Ni,{label}\n")
        assert parse_dataset(f).labels.tolist() == [expected]

    def test_duplicate_element_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Fe-Ni-Cr,0\n")
        with pytest.raises(ParseError, match="duplicate element"):
            parse_dataset(f)

    def test_unknown_element(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Xx,0\n")
        with pytest.raises(ParseError, match="unknown element"):
            parse_dataset(f)

    def test_duplicate_alloy(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Ni,1\nNi-Fe,1\n")
        with pytest.raises(ParseError, match="duplicate alloy"):
            parse_dataset(f)

    def test_conflicting_labels_also_duplicate(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Ni,1\nNi-Fe,0\n")
        with pytest.raises(ParseError, match="duplicate alloy"):
            parse_dataset(f)

    def test_empty_file(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\n")
        with pytest.raises(EmptyDataset):
            parse_dataset(f)

    def test_bad_label(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Ni,maybe\n")
        with pytest.raises(ParseError, match="row 2"):
            parse_dataset(f)

    def test_repeated_column(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label,label\nFe-Co,1,0\n")
        with pytest.raises(ParseError, match="'label' more than once") as info:
            parse_dataset(f)
        assert info.value.row == 1

    def test_universe_preset_enforced(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Ni-H-O,1\n")
        with pytest.raises(ParseError, match="universe"):
            parse_dataset(f, universe="E1")

    def test_full_quaternary_enumeration_file(self, tmp_path):
        # every 4-subset of the 26-element universe: C(26,4) = 14,950 rows
        f = tmp_path / "full.csv"
        lines = ["composition,label"]
        lines += [a.composition() + ",0" for a in enumerate_combinations(UNIVERSES["E1"], 4)]
        f.write_text("\n".join(lines) + "\n")
        ds = parse_dataset(f, universe="E1")
        assert len(ds) == 14950

    def test_round_trip(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Co-Ni-Cr,1\nFe-Co-Ni-Mn,0\n")
        ds = parse_dataset(f, universe="E1")
        out = tmp_path / "out.csv"
        serialize_dataset(ds, out)
        again = parse_dataset(out, universe="E1", name=ds.name)
        assert again.alloys == ds.alloys
        assert again.labels.tolist() == ds.labels.tolist() == [True, False]
        assert again.universe == ds.universe


def read_rows(path, columns, optional=()):
    """(row number, cells) of every row `read_blocks` yields."""
    return [(row, list(cells)) for block in read_blocks(path, columns, optional)
            for row, *cells in zip(block.rows.tolist(), *block.columns)]


class TestReadRows:
    def test_columns_by_name_in_any_order_and_case(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("\ufeff Label ,x,COMPOSITION\n1,a,Fe-Ni\n\n , ,\n0,b,Co-Cr\n", encoding="utf-8")
        assert read_rows(f, ("composition", "label")) == [(2, ["Fe-Ni", "1"]), (5, ["Co-Cr", "0"])]

    def test_optional_column_reads_empty_when_absent_or_short(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("a,b\n1,2\n3\n")
        assert read_rows(f, ("a",), ("b", "c")) == [(2, ["1", "2", ""]), (3, ["3", "", ""])]

    @pytest.mark.parametrize(
        "text, row, message",
        [
            ("", 1, "empty"),
            ("a\n1\n", 1, "missing \\['b'\\]"),
            ("a,b,c\n1,2,3\n1\n", 3, "at least 2"),
            ("a,b\n1,2\n1,2,3\n", 3, "at most 2"),
            ("a,B,b\n1,2,3\n", 1, "'b' more than once"),
        ],
        ids=["empty", "missing-column", "short-row", "long-row", "repeated-column"],
    )
    def test_malformed_file_names_its_row(self, tmp_path, text, row, message):
        f = tmp_path / "r.csv"
        f.write_text(text)
        with pytest.raises(ParseError, match=message) as info:
            read_rows(f, ("a", "b"))
        assert info.value.row == row


_PLAIN_CELLS = st.text(alphabet="ab01.-", min_size=1, max_size=4)
# cells that send a block to the csv module: empty, white space, quoted
# (with a comma, a doubled quote or a line break inside), NUL, a lone CR
# and a stray quote; and some that do not: non-ASCII text that is not
# white space, and white space beside other text
_ODD_CELLS = st.sampled_from([
    "", " ", "\t", "\u2003", "\x1c", "\x85", '"q,uoted"', '"say ""hi"""', '"line\nbreak"', '"two\r\nlines"',
    '"cr\rin"', '""', "nul\x00", "\x00", "cr\rsplit", 'mid"quote', "\u00e9t\u00e9", "\ufeffx", "x y", " x",
])
_BLANK_ROWS = st.sampled_from(["", ",,", " , ,\t", "\t,, ", " ,\u2003, ", "\x1c, , ", " ", ",,,"])


@st.composite
def csv_texts(draw):
    """CSV text of a header and rows of three plain cells with one line
    end, with a few faults put in: odd cells, blank rows, rows of another
    width, a cell moved to the next row, lines with another line end; a
    byte-order mark or not, a final line end or not."""
    header = draw(st.sampled_from(["a,b,c", " A ,b,C", "c,b,a", "a,b,c,d", "a,c", '"a",b,"c"']))
    rows = [[draw(_PLAIN_CELLS) for _ in range(3)] for _ in range(draw(st.integers(0, 14)))]
    style = draw(st.sampled_from(["\n", "\r\n", "\n", "\r\n", "\r"]))
    ends = [style] * (len(rows) + 1)
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        i = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["cell", "blank", "width", "shift", "end"]))
        if fault == "cell" and rows[i]:
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(_ODD_CELLS)
        elif fault == "blank":
            rows[i] = [draw(_BLANK_ROWS)]
        elif fault == "width":
            rows[i] = rows[i][:draw(st.integers(0, 2))] or [draw(_PLAIN_CELLS)] * 4
        elif fault == "shift" and len(rows[i]) > 1:
            rows[i - 1].append(rows[i].pop())  # row -1 is the last when i is 0
        elif fault == "end":
            ends[i + 1] = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [header, *(",".join(row) for row in rows)]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.removesuffix(ends[-1])
    return ("\ufeff" if draw(st.booleans()) else "") + text


def outcome(read):
    """The rows a reader returns, or the type, row and message of the
    ParseError it raises."""
    try:
        return read(), None
    except ParseError as exc:
        return None, (type(exc), exc.row, str(exc))


class TestReaderPaths:
    @settings(max_examples=1000, deadline=None)
    @given(text=csv_texts(), block_rows=st.integers(1, 5), read_chars=st.integers(1, 7),
           columns=st.sampled_from([("a", "c"), ("c", "a", "b"), ("b",)]))
    def test_blocks_match_row_reference(self, text, block_rows, read_chars, columns):
        """Small blocks and reads switch from text-split to csv blocks at
        any row; the rows, cells and errors stay those of reading the file
        one row at a time."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "r.csv"
            path.write_text(text, encoding="utf-8", newline="")
            with mock.patch.object(alloys, "BLOCK_ROWS", block_rows), \
                 mock.patch.object(alloys, "_READ_CHARS", read_chars):
                got = outcome(lambda: read_rows(path, columns))
            want = outcome(lambda: [(row, cells) for row, cells in read_rows_reference(path, columns)])
        assert got == want

    @pytest.mark.parametrize("text", [
        "a,b,c\nx,y,z\n,,\np,q,r\n",  # a blank row of empty cells
        "a,b,c\nx,y,z\n , ,\t\np,q,r\n",  # a blank row of white space
        "a,b\n,\nx,y\n",  # a blank first row
        "a,b\nx,y\n,\n",  # a blank last row
        "a\n\nb\n",  # a blank first row of one cell
        "a\nb\n\n",  # a blank last row of one cell
        "a,b,c\nx,y\nz,w,v,u\n",  # rows short and long by one cell
        "a,b,c\nx,y\n\x00,z,w,v\n",  # the same, with a NUL cell where a row would end
        'a,b,c\nx,"y,z",w\np,q,r\n',  # a quoted comma
        'a,b,c\nx,"y\nz",w\np,q,r\n',  # a quoted line end
        "a,b,c\nx,y\rz,w\np,q,r\n",  # a lone CR
        "a,b,c\r\nx,y,z\np,q,r\r\n",  # mixed line ends
    ])
    def test_near_regular_blocks_match_row_reference(self, tmp_path, text):
        path = tmp_path / "r.csv"
        path.write_text(text, encoding="utf-8", newline="")
        columns = ("a",) if text.startswith("a\n") else ("a", "b")
        want = outcome(lambda: [(row, cells) for row, cells in read_rows_reference(path, columns)])
        assert outcome(lambda: read_rows(path, columns)) == want

    @pytest.mark.parametrize("ends", ["\n", "\r\n"])
    def test_regular_file_is_split_as_text(self, tmp_path, ends):
        """A file of plain rows never reaches the csv module past its header."""
        lines = ["composition,label", *(f"Fe-Co-X{i},{i % 2}" for i in range(10))]
        path = tmp_path / "r.csv"
        path.write_text(ends.join(lines) + ends, encoding="utf-8", newline="")
        with mock.patch.object(alloys, "BLOCK_ROWS", 3), \
             mock.patch.object(alloys, "_csv_blocks", side_effect=AssertionError("csv path taken")):
            assert read_rows(path, ("label",)) == [(i + 2, [str(i % 2)]) for i in range(10)]

    def test_cell_beyond_the_csv_field_limit_is_refused(self, tmp_path):
        """A plain block with a cell longer than the csv module allows is
        refused as that module refuses it."""
        path = tmp_path / "r.csv"
        path.write_text("a,b\n1,2\n3," + "x" * 300 + "\n")
        limit = csv.field_size_limit(200)
        try:
            with pytest.raises(ParseError, match=r"field larger than field limit \(200\)"):
                read_rows(path, ("a", "b"))
        finally:
            csv.field_size_limit(limit)

    def test_bytes_not_utf8_report_as_line_reading_does(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_bytes(b"a,b\n" + b"1,2\n" * 5000 + b"3,\xff\n")
        with pytest.raises(ParseError) as info:
            read_rows(path, ("a", "b"))
        with pytest.raises(UnicodeDecodeError) as reference:
            list(read_rows_reference(path, ("a", "b")))
        assert str(info.value) == f"{path} is not UTF-8 CSV: {reference.value}"


class TestEnumeration:
    def test_small_case(self):
        got = enumerate_combinations(("Fe", "Co", "Ni"), 2)
        assert [a.elements for a in got] == [("Co", "Fe"), ("Co", "Ni"), ("Fe", "Ni")]

    def test_universe_presets(self):
        assert len(UNIVERSES["E1"]) == 26
        assert len(UNIVERSES["E2"]) == 21
        assert len(enumerate_combinations(UNIVERSES["E1"], 4)) == 14950
        assert len(enumerate_combinations(UNIVERSES["E2"], 4)) == 5985

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            enumerate_combinations(("Fe", "Ni"), 3)

    @given(
        n=st.integers(min_value=2, max_value=12),
        k=st.integers(min_value=1, max_value=5),
    )
    def test_counts_match_binomial(self, n, k):
        universe = ELEMENT_SYMBOLS[:n]
        if k > n:
            with pytest.raises(KTooLarge):
                enumerate_combinations(universe, k)
        elif k == 1:
            with pytest.raises(ValueError):
                enumerate_combinations(universe, k)  # alloys need >= 2 elements
        else:
            got = enumerate_combinations(universe, k)
            assert len(got) == comb(n, k)
            assert got == sorted(got)
