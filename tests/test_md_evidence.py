"""Evidence extraction: worked fixtures, count oracle, store round-trips."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heafusion import Alloy, BinaryMass, Dataset, LabeledAlloy
from heafusion.alloys import ELEMENT_SYMBOLS, alloy_masks
from heafusion.errors import AlphaOutOfRange, ParseError
from heafusion.md_evidence import (
    CombinationPair,
    ExtractionConfig,
    counts_to_store,
    extract_all,
    extract_counts,
    mass_from_counts,
    read_store,
    write_store,
)

from conftest import EXAMPLE_MASS, as_dataset, random_dataset
from oracles import (
    combine_exact,
    combine_stores,
    count_table,
    evidence_from_pair,
    pair_evidence_oracle,
    pairs_of,
    scan_partition,
)


def la(elements, label=True):
    return LabeledAlloy(Alloy(elements), label)


class TestCombinationPair:
    def test_canonical_side_order(self):
        assert CombinationPair(("Zn",), ("Cu",)) == CombinationPair(("Cu",), ("Zn",))
        pair = CombinationPair(("Zn", "Ga"), ("Cu",))
        assert pair.first == ("Cu",)
        assert pair.second == ("Ga", "Zn")

    def test_rejects_overlap(self):
        with pytest.raises(ValueError):
            CombinationPair(("Cu", "Zn"), ("Zn",))

    def test_rejects_empty_side(self):
        with pytest.raises(ValueError):
            CombinationPair((), ("Zn",))


class TestEvidenceFromPair:
    def test_agreeing_labels(self):
        got = evidence_from_pair(la("Li Be Na Cu".split()), la("Li Be Na Zn".split()), 0.1)
        assert got == (CombinationPair(("Cu",), ("Zn",)), BinaryMass(0.1, 0.0, 0.9))

    def test_disagreeing_labels(self):
        got = evidence_from_pair(
            la("Li Be Na Cu".split(), True), la("Li Be Na Zn".split(), False), 0.1
        )
        assert got == (CombinationPair(("Cu",), ("Zn",)), BinaryMass(0.0, 0.1, 0.9))

    def test_disjoint_pair_is_uninformative(self):
        assert evidence_from_pair(la("Li Be Na Cu".split()), la("K Ca Sc Zn".split()), 0.1) is None

    def test_nested_pair_is_uninformative(self):
        assert evidence_from_pair(la("Li Be Na".split()), la("Li Be Na Cu".split()), 0.1) is None

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.2, 1.5])
    def test_alpha_range(self, alpha):
        with pytest.raises(AlphaOutOfRange):
            evidence_from_pair(la("Li Be".split()), la("Li Na".split()), alpha)


class TestWorkedExamples:
    def test_example1_store_entry(self, example1_dataset):
        store = extract_all(example1_dataset, ExtractionConfig(alpha=0.1))
        mass = store.get(CombinationPair(("Cu",), ("Zn",)))
        for got, want in zip(mass.as_tuple(), EXAMPLE_MASS):
            assert got == pytest.approx(float(want), abs=1e-12)
        # published rounded values within 2e-3
        assert mass.m_first == pytest.approx(0.25, abs=2e-3)
        assert mass.m_second == pytest.approx(0.075, abs=2e-3)
        assert mass.m_both == pytest.approx(0.675, abs=2e-3)

    def test_example2_multi_element_entry(self, example2_dataset):
        store = extract_all(example2_dataset, ExtractionConfig(alpha=0.1))
        mass = store.get(CombinationPair(("Cu",), ("Zn", "Ga")))
        for got, want in zip(mass.as_tuple(), EXAMPLE_MASS):
            assert got == pytest.approx(float(want), abs=1e-12)

    def test_single_alloy_dataset_is_empty(self):
        ds = as_dataset([la("Fe Ni Cr Co".split())])
        assert len(extract_all(ds, ExtractionConfig())) == 0


class TestExtraction:
    def test_symmetric_lookup(self, example1_dataset):
        store = extract_all(example1_dataset, ExtractionConfig(alpha=0.1))
        assert CombinationPair(("Zn",), ("Cu",)) in store
        assert store.get(CombinationPair(("Cu",), ("Zn",))) == store.get(
            CombinationPair(("Zn",), ("Cu",))
        )

    def test_row_order_invariance(self):
        ds = random_dataset(60, universe_size=10, seed=3)
        store = extract_all(ds, ExtractionConfig(alpha=0.2))
        rows = list(ds.alloys)
        random.Random(7).shuffle(rows)
        shuffled = extract_all(ds.with_alloys(rows), ExtractionConfig(alpha=0.2))
        assert pairs_of(store) == pairs_of(shuffled)
        for pair, mass in store.items():
            other = shuffled.get(pair)
            for a, b in zip(mass.as_tuple(), other.as_tuple()):
                assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_brute_force(self, seed):
        ds = random_dataset(120, universe_size=11, seed=seed)
        max_size = 3
        counts = extract_counts(ds, max_subst_size=max_size)
        universe = ds.universe
        by_sides = {}
        for (mask_a, mask_b), (agree, disagree) in counts.items():
            sides = sorted(
                [
                    tuple(sorted(universe[i] for i in range(mask_a.bit_length()) if mask_a >> i & 1)),
                    tuple(sorted(universe[i] for i in range(mask_b.bit_length()) if mask_b >> i & 1)),
                ]
            )
            by_sides[(sides[0], sides[1])] = (agree, disagree)
        oracle = pair_evidence_oracle(
            [(la.alloy.element_set, la.label) for la in ds.alloys], max_size
        )
        assert set(by_sides) == set(oracle)
        for key, pieces in oracle.items():
            assert by_sides[key] == (sum(pieces), len(pieces) - sum(pieces))

    def test_masses_match_exact_fold(self):
        from fractions import Fraction

        ds = random_dataset(60, universe_size=9, seed=5)
        alpha = 0.17
        store = extract_all(ds, ExtractionConfig(alpha=alpha))
        oracle = pair_evidence_oracle(
            [(la.alloy.element_set, la.label) for la in ds.alloys], 3
        )
        a = Fraction(alpha)
        for (first, second), pieces in oracle.items():
            expected = combine_exact(
                [(a, 0, 1 - a) if agree else (0, a, 1 - a) for agree in pieces]
            )
            got = store.get(CombinationPair(first, second))
            for g, w in zip(got.as_tuple(), expected):
                assert g == pytest.approx(float(w), abs=1e-12)

    def test_identical_labels_give_no_dissimilar_mass(self):
        ds = random_dataset(50, universe_size=9, seed=8, positive_rate=1.1)
        store = extract_all(ds, ExtractionConfig(alpha=0.3))
        assert len(store) > 0
        assert all(mass.m_second == 0.0 for _, mass in store.items())

    def test_max_subst_size_filters_pairs(self, example2_dataset):
        store = extract_all(example2_dataset, ExtractionConfig(alpha=0.1, max_subst_size=1))
        assert CombinationPair(("Cu",), ("Zn", "Ga")) not in store


class TestPartitioning:
    def test_dempster_merge_of_partial_stores(self):
        # partial stores built from disjoint row slices, merged pairwise
        ds = random_dataset(80, universe_size=9, seed=13)
        whole = extract_all(ds, ExtractionConfig(alpha=0.1))
        rows = list(ds.alloys)
        # partition the *pair* space: slice i keeps pairs whose first index mod 2 == i
        masks = alloy_masks((r.alloy for r in rows), ds.element_index())
        labels = [r.label for r in rows]
        partials = [
            counts_to_store(count_table(scan_partition(masks, labels, 3, 2, part)), 0.1, ds.universe)
            for part in range(2)
        ]
        merged = combine_stores(partials)
        assert pairs_of(merged) == pairs_of(whole)
        for pair, mass in whole.items():
            for g, w in zip(merged.get(pair).as_tuple(), mass.as_tuple()):
                assert g == pytest.approx(w, abs=1e-12)


def _random_scan_case(rng: random.Random, case: int) -> tuple[Dataset, int | None]:
    """A dataset of 2- to 5-element alloys over a universe drawn from the
    whole element table in random bit order, plus a max_subst_size."""
    n_universe = (3, 5, 9, 16, 26, 31, 32, 33, 47, 63, 64, 65, 80, 103)[case % 14]
    universe = tuple(rng.sample(ELEMENT_SYMBOLS, n_universe))
    n_rows = (0, 1, 2)[case % 3] if case % 7 == 0 else rng.randint(3, 30)
    seen: set[tuple[str, ...]] = set()
    for _ in range(4 * n_rows):
        if len(seen) == n_rows:
            break
        seen.add(tuple(sorted(rng.sample(universe, rng.randint(2, min(5, n_universe))))))
    single_class = (True, False)[case % 2] if case % 5 == 0 else None
    alloys = tuple(
        LabeledAlloy(Alloy(elements), rng.random() < 0.5 if single_class is None else single_class)
        for elements in sorted(seen)
    )
    return Dataset("case", alloys, universe), rng.choice([1, 2, 3, 4, None])


class TestPairKernel:
    def test_matches_reference_scan(self):
        rng = random.Random(2024)
        widest = 0
        for case in range(1200):
            ds, max_size = _random_scan_case(rng, case)
            masks = alloy_masks((la.alloy for la in ds.alloys), ds.element_index())
            limit = max_size
            if limit is None:
                limit = max((len(la.alloy.elements) for la in ds.alloys), default=2) - 1
            got = extract_counts(ds, max_subst_size=max_size)
            assert got == scan_partition(masks, ds.labels(), limit), (case, len(ds.universe))
            for (lo, hi), (agree, disagree) in got.items():
                assert type(lo) is type(hi) is type(agree) is type(disagree) is int
                assert lo < hi
            if got:
                widest = max(widest, max(hi for _, hi in got).bit_length())
        assert widest > 64  # keys above one 64-bit word were exercised


class TestCountsClosedForm:
    @given(
        n_agree=st.integers(0, 60),
        n_disagree=st.integers(0, 60),
        alpha=st.floats(0.01, 0.9),
    )
    @settings(max_examples=200)
    def test_matches_exact_fold(self, n_agree, n_disagree, alpha):
        from fractions import Fraction

        a = Fraction(alpha)
        expected = combine_exact(
            [(a, 0, 1 - a)] * n_agree + [(0, a, 1 - a)] * n_disagree
        )
        got = mass_from_counts(n_agree, n_disagree, alpha)
        for g, w in zip(got.as_tuple(), expected):
            assert g == pytest.approx(float(w), abs=1e-12)


    @pytest.mark.parametrize("n, alpha", [(400, 0.9), (1100, 0.5)])
    def test_many_even_counts_split_evenly(self, n, alpha):
        # (1 - alpha)^n underflows here; the weights n * -ln(1 - alpha) do not
        got = mass_from_counts(n, n, alpha)
        for g, w in zip(got.as_tuple(), (0.5, 0.5, 0.0)):
            assert g == pytest.approx(w, abs=1e-12)

    def test_store_matches_per_key_readout(self):
        ds = random_dataset(60, universe_size=9, seed=4)
        counts = extract_counts(ds)
        store = counts_to_store(count_table(counts), 0.3, ds.universe)
        assert len(store) == len(counts)
        index = ds.element_index()
        for pair, mass in store.items():
            masks = sorted(sum(1 << index[e] for e in side) for side in (pair.first, pair.second))
            assert mass == mass_from_counts(*counts[tuple(masks)], 0.3)

    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRange):
            counts_to_store({}, 1.0, ())


class TestSerialization:
    def test_bit_exact_round_trip(self, tmp_path):
        ds = random_dataset(60, universe_size=10, seed=21)
        store = extract_all(ds, ExtractionConfig(alpha=0.123456789))
        path = tmp_path / "store.csv"
        write_store(store, path)
        again = read_store(path)
        assert pairs_of(again) == pairs_of(store)
        for pair, mass in store.items():
            assert again.get(pair) == mass  # bit-exact
        assert again.content_hash() == store.content_hash()

    def test_header_format(self, tmp_path, example1_dataset):
        store = extract_all(example1_dataset, ExtractionConfig(alpha=0.1))
        path = tmp_path / "store.csv"
        write_store(store, path)
        header = path.read_text().splitlines()[0]
        assert header == "combo_a,combo_b,m_similar,m_dissimilar,m_uncertain"

    @pytest.mark.parametrize(
        "text, row",
        [
            ("", 1),
            ("a,b,c\nCu,Zn,0.1,0,0.9\n", 1),
            ("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nFe,Co,0.5\n", 2),
            ("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nCu,Zn,0.1,0,0.9,7\n", 2),
            ("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nCu,Zn,0.1,0,0.9\nCu,Ag,x,0,1\n", 3),
            ("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nCu,Zn,0.5,0.5,0.5\n", 2),
            ("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nCu,Cu,0.1,0,0.9\n", 2),
            ("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nFe,Xx,0.5,0,0.5\n", 2),
        ],
        ids=["empty", "header", "short-row", "long-row", "float", "sum", "overlap", "symbol"],
    )
    def test_malformed_rows_name_their_row(self, tmp_path, text, row):
        path = tmp_path / "store.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            read_store(path)
        assert info.value.row == row

    def test_columns_are_read_by_header_name(self, tmp_path):
        store = extract_all(random_dataset(30, universe_size=8, seed=22), ExtractionConfig(alpha=0.2))
        path = tmp_path / "store.csv"
        write_store(store, path)
        order = [4, 2, 0, 3, 1]
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[0] = [name.upper() for name in rows[0]]
        path.write_text("".join(",".join(row[i] for i in order) + "\n" for row in rows))
        again = read_store(path)
        assert dict(again.items()) == dict(store.items())
        assert again.content_hash() == store.content_hash()

    def test_repeated_pair_names_both_rows(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nCo,Fe,0.5,0,0.5\nFe,Co,0,0.9,0.1\n")
        with pytest.raises(ParseError, match="repeats row 2") as info:
            read_store(path)
        assert info.value.row == 3
