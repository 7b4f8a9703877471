"""Alloy representation, dataset parsing, and combination enumeration."""

from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from heafusion.alloys import (
    ELEMENT_SYMBOLS,
    UNIVERSES,
    Alloy,
    Dataset,
    LabeledAlloy,
    enumerate_combinations,
    parse_dataset,
    read_blocks,
    serialize_dataset,
)
from heafusion.errors import EmptyDataset, KTooLarge, ParseError


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
            Dataset("d", (LabeledAlloy(Alloy(["Fe", "Ni"]), True),), ("Fe",))

    def test_duplicate_alloys_rejected(self):
        rows = (
            LabeledAlloy(Alloy(["Fe", "Ni"]), True),
            LabeledAlloy(Alloy(["Ni", "Fe"]), False),
        )
        with pytest.raises(ValueError):
            Dataset("d", rows, ("Fe", "Ni"))


class TestParsing:
    def test_basic_row(self, tmp_path):
        f = tmp_path / "d.csv"
        f.write_text("composition,label\nFe-Co-Ni-Cr,1\n")
        ds = parse_dataset(f)
        assert ds.alloys[0] == LabeledAlloy(Alloy(["Co", "Cr", "Fe", "Ni"]), True)

    @pytest.mark.parametrize(
        "label,expected",
        [("1", True), ("true", True), ("HEA", True), ("hea", True),
         ("0", False), ("False", False), ("NonHEA", False), ("nonhea", False)],
    )
    def test_label_spellings(self, tmp_path, label, expected):
        f = tmp_path / "d.csv"
        f.write_text(f"composition,label\nFe-Ni,{label}\n")
        assert parse_dataset(f).alloys[0].label is expected

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
