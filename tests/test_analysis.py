"""Distance matrices and complete-linkage clustering."""

import json
import random

import numpy as np
import pytest

from heafusion import Alloy, SimilarityStore, analysis
from heafusion.alloys import ELEMENT_SYMBOLS, UNIVERSES
from heafusion.analysis import (
    element_distance_matrix,
    hac_complete,
    hybrid_distance_matrix,
    write_matrix_csv,
)
from heafusion.errors import LengthMismatch, MatrixMalformed
from heafusion.md_evidence import CombinationPair

from conftest import mass_store as store_of
from oracles import (
    complete_linkage_oracle,
    element_distance_reference,
    hybrid_distance_reference,
    write_matrix_csv_reference,
)


class TestElementDistance:
    def test_certain_similarity_is_zero_distance(self):
        store = store_of({(("Cu",), ("Zn",)): (1.0, 0.0, 0.0)})
        d = element_distance_matrix(store, ("Cu", "Zn"))
        assert d[0, 1] == 0.0

    def test_absent_pair_is_half(self):
        d = element_distance_matrix(SimilarityStore(), ("Cu", "Zn"))
        assert d[0, 1] == 0.5

    def test_worked_value(self):
        store = store_of({(("Cu",), ("Zn",)): (0.25, 0.075, 0.675)})
        d = element_distance_matrix(store, ("Cu", "Zn"))
        assert d[0, 1] == pytest.approx(0.4125, abs=1e-12)

    def test_shape_and_symmetry(self):
        store = store_of({(("Cu",), ("Zn",)): (0.3, 0.2, 0.5)})
        d = element_distance_matrix(store, ("Ag", "Cu", "Zn"))
        assert d.shape == (3, 3)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0.0)
        assert np.all((d >= 0) & (d <= 1))


class TestHybridDistance:
    def test_identical_alloys_have_zero_distance(self):
        alloys = [Alloy("Fe Co Ni Cr".split()), Alloy("Fe Co Ni Mn".split())]
        d = hybrid_distance_matrix(alloys, SimilarityStore())
        assert d[0, 0] == 0.0 and d[1, 1] == 0.0

    def test_absent_pair_fallback(self):
        # quaternary alloys sharing 3 elements: J = 3/5, fallback (1-J)/2
        alloys = [Alloy("Fe Co Ni Cr".split()), Alloy("Fe Co Ni Mn".split())]
        d = hybrid_distance_matrix(alloys, SimilarityStore())
        assert d[0, 1] == pytest.approx(0.2, abs=1e-12)

    def test_store_weighted_value(self):
        alloys = [Alloy("Fe Co Ni Cr".split()), Alloy("Fe Co Ni Mn".split())]
        store = store_of({(("Cr",), ("Mn",)): (0.25, 0.075, 0.675)})
        d = hybrid_distance_matrix(alloys, store)
        assert d[0, 1] == pytest.approx(0.165, abs=1e-12)

    def test_nested_alloys_use_vacuous_factor(self):
        alloys = [Alloy("Fe Co Ni".split()), Alloy("Fe Co Ni Cr".split())]
        d = hybrid_distance_matrix(alloys, SimilarityStore())
        assert d[0, 1] == pytest.approx((1 - 3 / 4) / 2, abs=1e-12)

    def test_upper_bound_by_jaccard_distance(self):
        rng = random.Random(0)
        from heafusion.alloys import ELEMENT_SYMBOLS

        pool = ELEMENT_SYMBOLS[20:32]
        alloys = []
        seen = set()
        while len(alloys) < 10:
            candidate = Alloy(rng.sample(pool, 4))
            if candidate.elements not in seen:
                seen.add(candidate.elements)
                alloys.append(candidate)
        entries = {}
        for i, a in enumerate(alloys):
            for b in alloys[i + 1:]:
                ct = a.element_set - b.element_set
                cv = b.element_set - a.element_set
                if ct and cv and rng.random() < 0.5:
                    f = rng.uniform(0, 1)
                    s = rng.uniform(0, 1 - f)
                    entries[(tuple(sorted(ct)), tuple(sorted(cv)))] = (f, s, 1 - f - s)
        store = store_of(entries)
        d = hybrid_distance_matrix(alloys, store)
        for i, a in enumerate(alloys):
            for j, b in enumerate(alloys):
                union = len(a.element_set | b.element_set)
                jaccard = len(a.element_set & b.element_set) / union
                assert d[i, j] <= 1 - jaccard + 1e-12


def _alloys_with_edge_cases(rng: random.Random, symbols, n: int) -> list[Alloy]:
    """Random alloys of 2 to 5 symbols, plus a nested alloy (one more
    element), a repeat and a pair of disjoint alloys."""
    alloys = [Alloy(rng.sample(symbols, rng.randint(2, 5))) for _ in range(n)]
    extra = next(e for e in symbols if e not in alloys[0].element_set)
    alloys.append(Alloy(alloys[0].elements + (extra,)))
    alloys.append(alloys[1])
    alloys += [Alloy(symbols[:2]), Alloy(symbols[2:4])]
    rng.shuffle(alloys)
    return alloys


def _store_over(rng: random.Random, alloys: list[Alloy], symbols, lacking) -> SimilarityStore:
    """Store of random weights over about half the alloys' substitution
    pairs and their single-element pairs, none naming a symbol of
    `lacking`, plus a few pairs over symbols no alloy uses; the first
    entry and about a tenth of the rest hold an infinite weight on one
    side, and some a zero weight."""
    candidates = [(a.element_set - b.element_set, b.element_set - a.element_set) for a in alloys for b in alloys]
    candidates += [({a}, {b}) for a in symbols for b in symbols if a != b]
    unused = [e for e in ELEMENT_SYMBOLS if e not in symbols]
    candidates += [(set(unused[i:i + 2]), {unused[i + 2]}) for i in range(0, 9, 3)]
    entries = {}
    for first, second in candidates:
        if first and second and not (first | second) & lacking and rng.random() < 0.5:
            weights = [rng.choice([0.0, rng.expovariate(1.0), rng.uniform(0.0, 800.0)]) for _ in range(2)]
            if not entries or rng.random() < 0.1:
                weights[rng.randrange(2)] = float("inf")
            entries[CombinationPair(first, second)] = tuple(weights)
    return SimilarityStore.from_entries(entries)


def _bits(matrix: np.ndarray) -> bytes:
    return np.ascontiguousarray(matrix).tobytes()


class TestMatricesMatchReference:
    """Both matrices equal the per-pair references bit for bit."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("symbols", [UNIVERSES["E1"], ELEMENT_SYMBOLS[:40]], ids=["E1", "two-words"])
    def test_random_stores(self, seed, symbols, monkeypatch):
        if seed % 2:  # 34 rows in blocks of three, the last one short, mirrored below the diagonal
            monkeypatch.setattr(analysis, "_BLOCK_CELLS", 110)
        rng = random.Random(seed)
        symbols = list(symbols)
        alloys = _alloys_with_edge_cases(rng, symbols, 30)
        lacking = set(rng.sample(symbols, 3))
        store = _store_over(rng, alloys, symbols, lacking)
        assert len(symbols) <= 32 or len({e for a in alloys for e in a.elements}) > 32  # keys of two words
        for universe in (symbols, sorted(symbols), rng.sample(symbols, 7)):
            got = element_distance_matrix(store, universe)
            assert _bits(got) == _bits(element_distance_reference(store, universe))
        got = hybrid_distance_matrix(alloys, store)
        assert _bits(got) == _bits(hybrid_distance_reference(alloys, store))

    def test_empty_store(self):
        alloys = _alloys_with_edge_cases(random.Random(0), list(UNIVERSES["E1"]), 20)
        got = hybrid_distance_matrix(alloys, SimilarityStore())
        assert _bits(got) == _bits(hybrid_distance_reference(alloys, SimilarityStore()))
        got = element_distance_matrix(SimilarityStore(), UNIVERSES["E1"])
        assert _bits(got) == _bits(element_distance_reference(SimilarityStore(), UNIVERSES["E1"]))

    def test_infinite_weight_reads_certain(self):
        store = SimilarityStore.from_entries({
            CombinationPair(("Cr",), ("Mn",)): (float("inf"), 0.0),
            CombinationPair(("Cu",), ("Zn",)): (0.0, float("inf")),
        })
        d = element_distance_matrix(store, ("Zn", "Mn", "Cu", "Cr"))
        assert d[1, 3] == 0.0 and d[0, 2] == 1.0
        alloys = [Alloy("Fe Co Ni Cr".split()), Alloy("Fe Co Ni Mn".split())]
        assert hybrid_distance_matrix(alloys, store)[0, 1] == 0.0


class TestHacComplete:
    def test_two_leaves(self):
        d = np.array([[0.0, 0.3], [0.3, 0.0]])
        got = hac_complete(d, ("A", "B"))
        assert got.merges == ((0, 1, 0.3, 2),)

    def test_three_point_hand_case(self):
        # complete linkage takes the max: (A,B) at 0.1 then C at 0.9
        d = np.array(
            [[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]]
        )
        got = hac_complete(d, ("A", "B", "C"))
        assert got.merges == ((0, 1, 0.1, 3), (2, 3, 0.9, 4))

    def test_equal_distances_follow_id_tie_rule(self):
        d = np.full((4, 4), 0.5)
        np.fill_diagonal(d, 0.0)
        got = hac_complete(d, ("A", "B", "C", "D"))
        assert got.merges == ((0, 1, 0.5, 4), (2, 3, 0.5, 5), (4, 5, 0.5, 6))

    def test_heights_non_decreasing(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(3, 15))
            m = rng.uniform(0.01, 1.0, size=(n, n))
            d = (m + m.T) / 2
            np.fill_diagonal(d, 0.0)
            got = hac_complete(d, tuple(f"L{i}" for i in range(n)))
            heights = got.heights()
            assert all(a <= b + 1e-12 for a, b in zip(heights, heights[1:]))

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 21))
            m = rng.uniform(0.0, 1.0, size=(n, n))
            d = (m + m.T) / 2
            np.fill_diagonal(d, 0.0)
            got = hac_complete(d, tuple(f"L{i}" for i in range(n)))
            expected = complete_linkage_oracle(d.tolist())
            assert list(got.merges) == [
                (a, b, pytest.approx(h, abs=1e-12), nid) for a, b, h, nid in expected
            ]

    def test_malformed_matrices(self):
        with pytest.raises(MatrixMalformed):
            hac_complete(np.zeros((2, 3)), ("A", "B"))
        with pytest.raises(MatrixMalformed):
            hac_complete(np.array([[0.0, 0.1], [0.2, 0.0]]), ("A", "B"))
        with pytest.raises(MatrixMalformed):
            hac_complete(np.array([[0.5, 0.1], [0.1, 0.0]]), ("A", "B"))
        with pytest.raises(MatrixMalformed):
            hac_complete(np.zeros((3, 3)), ("A", "B"))


class TestDendrogramExports:
    @pytest.fixture
    def dendrogram(self):
        d = np.array(
            [[0.0, 0.1, 0.9], [0.1, 0.0, 0.8], [0.9, 0.8, 0.0]]
        )
        return hac_complete(d, ("A", "B", "C"))

    def test_newick(self, dendrogram):
        assert dendrogram.to_newick() == "(C:0.9,(A:0.1,B:0.1):0.8);"

    def test_tree_structure(self, dendrogram):
        tree = dendrogram.to_tree()
        assert tree["height"] == pytest.approx(0.9)
        names = {
            child.get("name") for child in tree["children"] if "name" in child
        }
        assert names == {"C"}

    def test_json_round_trip(self, dendrogram, tmp_path):
        path = tmp_path / "dendrogram.json"
        dendrogram.write_json(path)
        payload = json.loads(path.read_text())
        assert payload["labels"] == ["A", "B", "C"]
        assert len(payload["merges"]) == 2


class TestMatrixCsv:
    @pytest.mark.parametrize("labels", [
        ("Cu", "Zn", "Fe", "Ni"),
        ("a,b", 'say "x"', "line\nend", "cr\rx"),  # labels csv.writer quotes
        ("", " ", "'", "%s"),
    ])
    @pytest.mark.parametrize("block_cells", [1, 5, 1 << 17])
    def test_bytes_match_csv_writer(self, tmp_path, monkeypatch, labels, block_cells):
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", block_cells)
        rng = np.random.default_rng(block_cells)
        matrix = rng.random((4, 4)) * 10.0 ** rng.integers(-300, 300, (4, 4))
        matrix[0, 1], matrix[1, 2], matrix[2, 0], matrix[1, 1], matrix[3, 3] = -0.0, np.inf, np.nan, 5e-324, 0.5
        written, reference = tmp_path / "m.csv", tmp_path / "reference.csv"
        write_matrix_csv(matrix, labels, written)
        write_matrix_csv_reference(matrix, labels, reference)
        assert written.read_bytes() == reference.read_bytes()

    def test_empty_matrix_matches_csv_writer(self, tmp_path):
        written, reference = tmp_path / "m.csv", tmp_path / "reference.csv"
        write_matrix_csv(np.zeros((0, 0)), (), written)
        write_matrix_csv_reference(np.zeros((0, 0)), (), reference)
        assert written.read_bytes() == reference.read_bytes() == b'""\r\n'

    @pytest.mark.parametrize("shape,n_labels", [((3, 3), 2), ((3, 3), 4), ((2, 3), 2), ((3,), 3), ((0, 0), 1)])
    def test_labels_must_match_both_dimensions(self, tmp_path, shape, n_labels):
        path = tmp_path / "m.csv"
        with pytest.raises(LengthMismatch, match=f"{n_labels} labels for a"):
            write_matrix_csv(np.zeros(shape), ["Cu", "Zn", "Fe", "Ni"][:n_labels], path)
        assert not path.exists()

    def test_labeled_round_trip(self, tmp_path):
        matrix = np.array([[0.0, 0.25], [0.25, 0.0]])
        path = tmp_path / "m.csv"
        write_matrix_csv(matrix, ("Cu", "Zn"), path)
        lines = path.read_text().splitlines()
        assert lines[0] == ",Cu,Zn"
        assert lines[1].split(",")[0] == "Cu"
        assert float(lines[1].split(",")[2]) == 0.25
