"""Evidence extraction: worked fixtures, count oracle, store round-trips."""

import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heafusion import Alloy, Dataset, SimilarityStore, md_evidence
from heafusion.alloys import ELEMENT_SYMBOLS, UNIVERSES, element_words
from heafusion.belief import from_weights
from heafusion.errors import AlphaOutOfRange, LengthMismatch, ParseError
from heafusion.md_evidence import (
    CombinationPair,
    ExtractionConfig,
    counts_to_store,
    evidence_weight,
    extract_all,
    extract_counts,
    pair_counts,
    read_store,
    write_store,
)

from conftest import EXAMPLE_MASS, as_dataset, random_dataset
from oracles import (
    BinaryMass,
    alloy_masks,
    combine_exact,
    combine_stores,
    count_table,
    evidence_from_pair,
    fresh_counts_dict,
    mass_from_counts,
    mass_of,
    masses_of,
    pair_evidence_oracle,
    pairs_of,
    read_store_reference,
    scan_partition,
    write_store_reference,
)


def la(elements, label=True):
    """One (alloy, label) row."""
    return Alloy(elements), label


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
        mass = mass_of(store, CombinationPair(("Cu",), ("Zn",)))
        for got, want in zip(mass.as_tuple(), EXAMPLE_MASS):
            assert got == pytest.approx(float(want), abs=1e-12)
        # published rounded values within 2e-3
        assert mass.m_first == pytest.approx(0.25, abs=2e-3)
        assert mass.m_second == pytest.approx(0.075, abs=2e-3)
        assert mass.m_both == pytest.approx(0.675, abs=2e-3)

    def test_example2_multi_element_entry(self, example2_dataset):
        store = extract_all(example2_dataset, ExtractionConfig(alpha=0.1))
        mass = mass_of(store, CombinationPair(("Cu",), ("Zn", "Ga")))
        for got, want in zip(mass.as_tuple(), EXAMPLE_MASS):
            assert got == pytest.approx(float(want), abs=1e-12)

    def test_single_alloy_dataset_is_empty(self):
        ds = as_dataset([la("Fe Ni Cr Co".split())])
        assert len(extract_all(ds, ExtractionConfig())) == 0


class TestExtraction:
    def test_symmetric_lookup(self, example1_dataset):
        store = extract_all(example1_dataset, ExtractionConfig(alpha=0.1))
        assert CombinationPair(("Zn",), ("Cu",)) in pairs_of(store)
        assert mass_of(store, CombinationPair(("Cu",), ("Zn",))) == mass_of(store, 
            CombinationPair(("Zn",), ("Cu",))
        )

    def test_row_order_invariance(self):
        ds = random_dataset(60, universe_size=10, seed=3)
        store = extract_all(ds, ExtractionConfig(alpha=0.2))
        rows = list(range(len(ds)))
        random.Random(7).shuffle(rows)
        shuffled = extract_all(ds.take(rows), ExtractionConfig(alpha=0.2))
        assert pairs_of(store) == pairs_of(shuffled)
        for pair, mass in masses_of(store).items():
            other = mass_of(shuffled, pair)
            for a, b in zip(mass.as_tuple(), other.as_tuple()):
                assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_counts_match_brute_force(self, seed):
        ds = random_dataset(120, universe_size=11, seed=seed)
        max_size = 3
        counts = extract_counts(ds, max_subst_size=max_size)
        universe = ds.bit_names
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
            [(a.element_set, label) for a, label in zip(ds.alloys, ds.labels.tolist())], max_size
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
            [(a.element_set, label) for a, label in zip(ds.alloys, ds.labels.tolist())], 3
        )
        a = Fraction(alpha)
        for (first, second), pieces in oracle.items():
            expected = combine_exact(
                [(a, 0, 1 - a) if agree else (0, a, 1 - a) for agree in pieces]
            )
            got = mass_of(store, CombinationPair(first, second))
            for g, w in zip(got.as_tuple(), expected):
                assert g == pytest.approx(float(w), abs=1e-12)

    def test_identical_labels_give_no_dissimilar_mass(self):
        ds = random_dataset(50, universe_size=9, seed=8, positive_rate=1.1)
        store = extract_all(ds, ExtractionConfig(alpha=0.3))
        assert len(store) > 0
        assert all(mass.m_second == 0.0 for mass in masses_of(store).values())

    def test_max_subst_size_filters_pairs(self, example2_dataset):
        store = extract_all(example2_dataset, ExtractionConfig(alpha=0.1, max_subst_size=1))
        assert CombinationPair(("Cu",), ("Zn", "Ga")) not in pairs_of(store)


class TestPartitioning:
    def test_dempster_merge_of_partial_stores(self):
        # partial stores built from disjoint row slices, merged pairwise
        ds = random_dataset(80, universe_size=9, seed=13)
        whole = extract_all(ds, ExtractionConfig(alpha=0.1))
        # partition the *pair* space: slice i keeps pairs whose first index mod 2 == i
        masks = alloy_masks(ds.alloys, ds.element_index())
        labels = ds.labels.tolist()
        partials = [
            counts_to_store(count_table(scan_partition(masks, labels, 3, 2, part)), 0.1, ds.bit_names)
            for part in range(2)
        ]
        merged = combine_stores(partials)
        assert set(merged) == pairs_of(whole)
        for pair, mass in masses_of(whole).items():
            for g, w in zip(merged[pair].as_tuple(), mass.as_tuple()):
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
    rows = sorted(seen)
    labels = [rng.random() < 0.5 if single_class is None else single_class for _ in rows]
    return Dataset("case", tuple(map(Alloy, rows)), labels, universe), rng.choice([1, 2, 3, 4, None])


class TestPairKernel:
    def test_matches_reference_scan(self):
        rng = random.Random(2024)
        widest = 0
        for case in range(1200):
            ds, max_size = _random_scan_case(rng, case)
            masks = alloy_masks(ds.alloys, ds.element_index())
            limit = max_size
            if limit is None:
                limit = max((len(a.elements) for a in ds.alloys), default=2) - 1
            got = extract_counts(ds, max_subst_size=max_size)
            assert got == scan_partition(masks, ds.labels.tolist(), limit), (case, len(ds.universe))
            for (lo, hi), (agree, disagree) in got.items():
                assert type(lo) is type(hi) is type(agree) is type(disagree) is int
                assert lo < hi
            if got:
                widest = max(widest, max(hi for _, hi in got).bit_length())
        assert widest > 64  # keys above one 64-bit word were exercised

    def test_equal_masks_and_count_pairs_are_one_object(self):
        rng = random.Random(7)
        universe = tuple(rng.sample(ELEMENT_SYMBOLS, 80))
        rows = {tuple(sorted(rng.sample(universe[:12] + universe[-12:], 4))) for _ in range(300)}
        rows = sorted(rows)
        ds = Dataset("wide", tuple(map(Alloy, rows)), [rng.random() < 0.5 for _ in rows], universe)
        got = extract_counts(ds)
        assert got == fresh_counts_dict(pair_counts(ds.words, ds.labels, 3))
        assert max(hi for _, hi in got).bit_length() > 64
        masks, pairs = {}, {}
        for (lo, hi), counts in got.items():
            assert masks.setdefault(lo, lo) is lo and masks.setdefault(hi, hi) is hi
            assert pairs.setdefault(counts, counts) is counts
        assert len(masks) < len(got) and len(pairs) < len(got)  # objects were shared

    def test_peak_memory_below_fresh_objects(self):
        rng = random.Random(3)
        universe = UNIVERSES["E1"]
        rows = sorted({tuple(sorted(rng.sample(universe, 4))) for _ in range(900)})
        ds = Dataset("e1", tuple(map(Alloy, rows)), [rng.random() < 0.5 for _ in rows], universe)
        peaks = []
        for build in (extract_counts, lambda d: fresh_counts_dict(pair_counts(d.words, d.labels, 3))):
            tracemalloc.start()
            counts = build(ds)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            assert len(counts) > 50_000
            del counts
        shared, fresh = peaks
        assert shared < 0.75 * fresh, peaks

    @pytest.mark.parametrize("n_labels", [1, 4])
    def test_labels_must_match_the_rows(self, n_labels):
        index = {e: i for i, e in enumerate(("Cu", "Fe", "Ni", "Zn"))}
        words = element_words([("Cu", "Fe"), ("Cu", "Ni"), ("Fe", "Zn")], index, 1)
        with pytest.raises(LengthMismatch, match=f"{n_labels} labels vs 3 alloys"):
            pair_counts(words, [True] * n_labels, 1)


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
        store = counts_to_store(count_table(counts), 0.3, ds.bit_names)
        assert len(store) == len(counts)
        index = ds.element_index()
        weight = evidence_weight(0.3)
        for pair, weights in store.items():
            masks = sorted(sum(1 << index[e] for e in side) for side in (pair.first, pair.second))
            agree, disagree = counts[tuple(masks)]
            assert weights == (agree * weight, disagree * weight)
            assert BinaryMass(*from_weights(*weights)) == mass_from_counts(agree, disagree, 0.3)

    def test_alpha_range(self):
        with pytest.raises(AlphaOutOfRange):
            counts_to_store({}, 1.0, ())


STORE_FAULTS = {
    "short-row": "Fe,Co,0.5",
    "long-row": "Cu,Zn,0.1,0,0.9",
    "symbol": "Fe,Xx,0.5,0",
    "float": "Cu,Ag,x,0",
    "float-dissimilar": "Cu,Ag,0.5,y",
    "sum": "Cu,Ag,inf,inf",
    "negative": "Cu,Ag,-0.5,1",
    "nan": "Cu,Ag,0.5,nan",
    "overlap": "Cu,Cu,0.1,0",
}
# 9,999 rows: distinct valid pairs over the first 30 symbols, none naming
# Ag, and a blank row in every thousand
STORE_ROWS = [
    " , , ," if n % 1_000 == 500 else line
    for n, line in enumerate(
        f"{ELEMENT_SYMBOLS[i]},{ELEMENT_SYMBOLS[j]}-{ELEMENT_SYMBOLS[k]},0.5,0"
        for i in range(30) for j in range(30) for k in range(j + 1, 30) if i not in (j, k)
    )
][:9_999]


def store_text_with(line, row):
    """A 10,000-row store file (header included) with line as row `row`."""
    rows = STORE_ROWS[:row - 2] + [line] + STORE_ROWS[row - 1:]
    return "combo_a,combo_b,w_similar,w_dissimilar\n" + "\n".join(rows) + "\n"


def reference_store(kind, rng):
    """A seeded store of one kind: `extremes` holds inf, subnormal, huge
    and signed-zero weights, `distinct` a different weight in every cell,
    `weight-pairs` many distinct pairs of 30 weights that include signed
    zeros, subnormals and inf, `multi-word` sides over the whole 103-symbol
    table (four key words), `many-rows` more rows than one reader block."""
    symbols = list(ELEMENT_SYMBOLS[:12] if kind == "extremes" else ELEMENT_SYMBOLS)
    unit = evidence_weight(0.1)
    pool = [0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 0.1 + 0.2, 1 / 3, 1e300, math.inf,
            *(k * unit for k in range(1, 22))]
    pairs = [(a, b) for a in pool for b in pool if not a == b == math.inf]
    weights = {
        "extremes": lambda: rng.choice([(math.inf, 0.0), (0.0, math.inf), (5e-324, 1e308), (-0.0, 0.5),
                                        (0.1 + 0.2, 0.0), (1100 * evidence_weight(0.5), 5e-324)]),
        "distinct": lambda: (rng.random() * 10 ** rng.randint(-300, 300), rng.random()),
        "weight-pairs": lambda: rng.choice(pairs),
        "multi-word": lambda: (rng.randint(0, 9) * unit, rng.randint(0, 9) * unit),
        "many-rows": lambda: (rng.randint(0, 30) * unit, rng.randint(0, 30) * unit),
    }[kind]
    size = {"extremes": 300, "distinct": 3_000, "weight-pairs": 3_000, "multi-word": 3_000, "many-rows": 9_000}[kind]
    entries = {}
    while len(entries) < size:
        chosen = rng.sample(symbols, rng.randint(2, 6))
        cut = rng.randint(1, len(chosen) - 1)
        entries[CombinationPair(chosen[:cut], chosen[cut:])] = weights()
    return SimilarityStore.from_entries(entries)


def edited_store_text(text, rng):
    """The store file text as another writer could give it: a byte-order
    mark, an upper-case header in another column order, quoted cells and
    blank rows."""
    order = [2, 0, 3, 1]
    lines = []
    for number, line in enumerate(text.splitlines()):
        cells = line.split(",")
        cells = [cells[i].upper() if number == 0 else cells[i] for i in order]
        lines.append(",".join(f'"{cell}"' if rng.random() < 0.3 else cell for cell in cells))
        if rng.random() < 0.05:
            lines.append(rng.choice(["", " , , , ", ",,,", '"",""', "\t"]))
    return "\ufeff" + "\n".join(lines) + "\n\n"


class TestSerialization:
    def test_bit_exact_round_trip(self, tmp_path):
        ds = random_dataset(60, universe_size=10, seed=21)
        store = extract_all(ds, ExtractionConfig(alpha=0.123456789))
        path = tmp_path / "store.csv"
        write_store(store, path)
        again = read_store(path)
        assert pairs_of(again) == pairs_of(store)
        assert dict(again.items()) == dict(store.items())  # bit-exact
        assert again.content_hash() == store.content_hash()

    def test_infinite_and_subnormal_weights_round_trip(self, tmp_path):
        entries = {
            CombinationPair(("Cu",), ("Zn",)): (math.inf, 0.5),
            CombinationPair(("Ag",), ("Zn",)): (0.0, math.inf),
            CombinationPair(("Ag", "Cu"), ("Ni",)): (5e-324, 1e308),
            CombinationPair(("Fe",), ("Ni",)): (1100 * evidence_weight(0.5), 0.1 + 0.2),
        }
        store = SimilarityStore.from_entries(entries)
        path = tmp_path / "store.csv"
        write_store(store, path)
        assert "inf" in path.read_text()
        again = read_store(path)
        assert dict(again.items()) == entries
        assert again.content_hash() == store.content_hash()

    def test_header_format(self, tmp_path, example1_dataset):
        store = extract_all(example1_dataset, ExtractionConfig(alpha=0.1))
        path = tmp_path / "store.csv"
        write_store(store, path)
        header = path.read_text().splitlines()[0]
        assert header == "combo_a,combo_b,w_similar,w_dissimilar"

    def test_mass_columns_name_the_missing_weights(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("combo_a,combo_b,m_similar,m_dissimilar,m_uncertain\nCu,Zn,0.1,0,0.9\n")
        with pytest.raises(ParseError, match="missing \\['w_similar', 'w_dissimilar'\\]") as info:
            read_store(path)
        assert info.value.row == 1

    @pytest.mark.parametrize(
        "text, row",
        [
            pytest.param("", 1, id="empty"),
            pytest.param("a,b,c\nCu,Zn,0.1,0\n", 1, id="header"),
            pytest.param("combo_a,combo_b,w_similar,w_dissimilar\nFe,Co,0.5\n", 2, id="short-row"),
            pytest.param("combo_a,combo_b,w_similar,w_dissimilar\nCu,Zn,0.1,0,0.9\n", 2, id="long-row"),
            pytest.param("combo_a,combo_b,w_similar,w_dissimilar\nCu,Zn,0.1,0\nCu,Ag,x,0\n", 3, id="float"),
            pytest.param("combo_a,combo_b,w_similar,w_dissimilar\nCu,Zn,0.1,0\nCu,Ag,inf,inf\n", 3, id="sum"),
            pytest.param("combo_a,combo_b,w_similar,w_dissimilar\nCu,Zn,0.1,0\nCu,Ag,-0.5,1\n", 3, id="negative"),
            pytest.param("combo_a,combo_b,w_similar,w_dissimilar\nCu,Zn,0.1,0\nCu,Ag,0.5,nan\n", 3, id="nan"),
            pytest.param("combo_a,combo_b,w_similar,w_dissimilar\nCu,Zn,0.1,0\nCu,Cu,0.1,0\n", 3, id="overlap"),
            pytest.param("combo_a,combo_b,w_similar,w_dissimilar\nFe,Xx,0.5,0\n", 2, id="symbol"),
            # around the reader's block boundary: rows 2-4097 form the first block
            *(pytest.param(store_text_with(line, row), row, id=f"{kind}-at-{row}")
              for kind, line in STORE_FAULTS.items() for row in (2, 4097, 4098, 10_000)),
        ],
    )
    def test_malformed_rows_name_their_row(self, tmp_path, text, row):
        path = tmp_path / "store.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            read_store(path)
        assert info.value.row == row
        with pytest.raises(ParseError) as reference:
            read_store_reference(path)
        assert (type(info.value), str(info.value)) == (type(reference.value), str(reference.value))

    @pytest.mark.parametrize("kind", ["extremes", "distinct", "weight-pairs", "multi-word", "many-rows"])
    def test_block_io_matches_row_reference(self, tmp_path, monkeypatch, kind):
        monkeypatch.setattr(md_evidence, "_CHUNK_BLOCKS", 2)  # the 9,000-row store reads as a chunk and a block
        store = reference_store(kind, random.Random(f"store-io:{kind}"))
        written, reference = tmp_path / "written.csv", tmp_path / "reference.csv"
        write_store(store, written)
        write_store_reference(store, reference)
        assert written.read_bytes() == reference.read_bytes()
        edited = tmp_path / "edited.csv"
        edited.write_text(edited_store_text(reference.read_text(), random.Random(f"store-edit:{kind}")),
                          encoding="utf-8")
        for path in (written, edited):
            got, want = read_store(path), read_store_reference(path)
            assert got.elements == want.elements
            assert got.keys.dtype == want.keys.dtype and np.array_equal(got.keys, want.keys)
            for column in ("w_first", "w_second"):
                assert getattr(got, column).view(np.uint64).tolist() == getattr(want, column).view(np.uint64).tolist()

    def test_columns_are_read_by_header_name(self, tmp_path):
        store = extract_all(random_dataset(30, universe_size=8, seed=22), ExtractionConfig(alpha=0.2))
        path = tmp_path / "store.csv"
        write_store(store, path)
        order = [3, 1, 0, 2]
        rows = [line.split(",") for line in path.read_text().splitlines()]
        rows[0] = [name.upper() for name in rows[0]]
        path.write_text("".join(",".join(row[i] for i in order) + "\n" for row in rows))
        again = read_store(path)
        assert dict(again.items()) == dict(store.items())
        assert again.content_hash() == store.content_hash()

    def test_repeated_pair_names_both_rows(self, tmp_path):
        path = tmp_path / "store.csv"
        path.write_text("combo_a,combo_b,w_similar,w_dissimilar\nCo,Fe,0.5,0\nCu,Fe,1,0\nFe,Co,0,0.9\nFe,Cu,1,1\n")
        with pytest.raises(ParseError, match=r"pair \(Co, Fe\) repeats row 2") as info:
            read_store(path)
        assert info.value.row == 4

    def test_repeated_multi_word_pair_names_both_rows(self, tmp_path):
        # 40 elements, so keys of two words; the last four rows use only
        # symbols past bit 32, so their keys differ in the second word alone
        symbols = sorted(ELEMENT_SYMBOLS)[:40]
        early, late = symbols[:32], symbols[32:]
        rows = [f"{a},{b},1,1" for a, b in zip(early[::2], early[1::2])]
        rows += [f"{late[0]},{late[1]}-{late[2]},0.5,0", f"{late[3]},{late[1]},1,0",
                 f"{late[1]}-{late[2]},{late[0]},0,0.9", f"{late[1]},{late[3]},1,1"]
        path = tmp_path / "store.csv"
        path.write_text("combo_a,combo_b,w_similar,w_dissimilar\n" + "".join(row + "\n" for row in rows))
        first = len(early) // 2 + 2  # the row number of the first repeated pair
        with pytest.raises(ParseError, match=rf"pair \({late[0]}, {late[1]}-{late[2]}\) repeats row {first}$") as info:
            read_store(path)
        assert info.value.row == first + 2
