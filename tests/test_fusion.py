"""Reliability estimation and discount-then-combine fusion."""

import gc
import tracemalloc
from fractions import Fraction

import pytest

from heafusion import SimilarityStore, fusion
from heafusion.errors import ConfigError, DegenerateDataset, EmptySourceList, GammaOutOfRange, ParseError
from heafusion.fusion import (
    estimate_reliability,
    fuse,
    source_gammas,
    write_gammas,
)
from heafusion.md_evidence import CombinationPair, ExtractionConfig, extract_all

from conftest import (
    dense_noisy_dataset,
    mass_store as store_of,
    planted_group_dataset,
    planted_group_store,
    random_dataset,
)
from oracles import (
    combine_all,
    combine_exact,
    discount,
    kfold_splits,
    macro_f1_oracle,
    mass_of,
    masses_of,
    pairs_of,
    read_gammas,
    vacuous,
)

GROUP_A = ("Fe", "Co", "Ni", "Mn", "Cr")
GROUP_B = ("Cu", "Ag", "Au", "Zn", "Cd")


class TestEstimateReliability:
    def test_planted_store_is_fully_reliable(self):
        dataset = planted_group_dataset(GROUP_A, GROUP_B)
        store = planted_group_store(GROUP_A, GROUP_B, strength=0.95)
        gamma = estimate_reliability([store], dataset, folds=10, seed=42)[0]
        assert gamma == 1.0

    def test_vacuous_store_scores_like_constant_classifier(self):
        dataset = random_dataset(80, universe_size=10, seed=4)
        gamma = estimate_reliability([SimilarityStore()], dataset, folds=10, seed=7)[0]
        expected = 0.0
        for _, test in kfold_splits(dataset, 10, seed=7):
            expected += macro_f1_oracle(test.labels.tolist(), [False] * len(test))
        expected /= 10
        assert gamma == pytest.approx(expected, abs=1e-12)

    def test_small_dataset_bounds(self):
        dataset = random_dataset(4, universe_size=8, seed=1, positive_rate=0.5)
        assert dataset.n_positive not in (0, len(dataset))
        gamma = estimate_reliability([SimilarityStore()], dataset, folds=2, seed=0)[0]
        assert 0.0 <= gamma <= 1.0

    def test_single_class_rejected(self):
        dataset = random_dataset(20, universe_size=8, seed=1, positive_rate=1.1)
        with pytest.raises(DegenerateDataset):
            estimate_reliability([SimilarityStore()], dataset, folds=5, seed=0)

    @pytest.mark.parametrize("alpha", [0.3, 0.5])
    def test_saturated_dataset_store(self, alpha):
        # the md store of a dense noisy enumeration holds similarities
        # within 1e-12 of 1, met by hosts of both classes; strong but finite
        # conflict still has a readout
        dataset = dense_noisy_dataset()
        store = extract_all(dataset, ExtractionConfig(alpha))
        assert min(mass.m_second + mass.m_both for mass in masses_of(store).values()) < 1e-12
        gamma = estimate_reliability([store], dataset, folds=10, seed=0)[0]
        assert 0.4 < gamma < 0.5

    def test_deterministic(self):
        dataset = random_dataset(60, universe_size=10, seed=2)
        store = planted_group_store(tuple(dataset.universe[:5]), tuple(dataset.universe[5:]), 0.6)
        a = estimate_reliability([store], dataset, folds=5, seed=11)[0]
        b = estimate_reliability([store], dataset, folds=5, seed=11)[0]
        assert a == b

    def test_no_analogy_column_outlives_the_estimate(self):
        # a store over the dataset's bits is used as it is, not re-keyed;
        # the estimate's analogy weights, one float64 per row, must be
        # freed when it returns, not kept on the caller's store
        dataset = dense_noisy_dataset()
        store = extract_all(dataset, ExtractionConfig(0.3))
        assert store.elements == dataset.bit_names and len(store) > 10_000

        def fresh():
            return SimilarityStore(store.elements, store.keys, store.w_first, store.w_second)

        estimate_reliability([fresh()], dataset, folds=5, seed=0)  # fills the dataset's own caches
        measured = fresh()
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimate_reliability([measured], dataset, folds=5, seed=0)
            gc.collect()
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert grown < len(measured) * 8


class TestFuse:
    def test_derived_two_source_example(self):
        md = store_of({(("Cu",), ("Zn",)): (0.25, 0.075, 0.675)})
        llm = store_of({(("Cu",), ("Zn",)): (0.2, 0.0, 0.8)})
        fused = fuse(
            [("md", md), ("llm", llm)],
            {"md": 0.8, "llm": 0.5},
        )
        # discounted masses per the reliability equations
        d_md = discount(mass_of(md, CombinationPair(("Cu",), ("Zn",))), 0.8)
        assert d_md.as_tuple() == pytest.approx((0.2, 0.06, 0.74), abs=1e-12)
        d_llm = discount(mass_of(llm, CombinationPair(("Cu",), ("Zn",))), 0.5)
        assert d_llm.as_tuple() == pytest.approx((0.1, 0.0, 0.9), abs=1e-12)
        expected = combine_exact(
            [
                (Fraction(2, 10), Fraction(6, 100), Fraction(74, 100)),
                (Fraction(1, 10), Fraction(0), Fraction(9, 10)),
            ]
        )
        got = mass_of(fused, CombinationPair(("Cu",), ("Zn",)))
        for g, w in zip(got.as_tuple(), expected):
            assert g == pytest.approx(float(w), abs=1e-12)

    def test_disjoint_full_reliability_union(self):
        a = store_of({(("Cu",), ("Zn",)): (0.3, 0.1, 0.6)})
        b = store_of({(("Fe",), ("Ni",)): (0.2, 0.2, 0.6)})
        fused = fuse(
            [("a", a), ("b", b)],
            {"a": 1.0, "b": 1.0},
        )
        assert len(fused) == 2
        assert fused.elements == ("Cu", "Fe", "Ni", "Zn")  # sorted symbols, not in order of first appearance
        for store, pair in ((a, CombinationPair(("Cu",), ("Zn",))), (b, CombinationPair(("Fe",), ("Ni",)))):
            assert dict(fused.items())[pair] == dict(store.items())[pair]

    def test_zero_reliability_source_drops_out(self):
        a = store_of({(("Cu",), ("Zn",)): (0.3, 0.1, 0.6)})
        b = store_of({(("Cu",), ("Zn",)): (0.9, 0.0, 0.1), (("Fe",), ("Ni",)): (0.5, 0.0, 0.5)})
        with_b = fuse(
            [("a", a), ("b", b)],
            {"a": 0.7, "b": 0.0},
        )
        without_b = fuse([("a", a)], {"a": 0.7})
        pair = CombinationPair(("Cu",), ("Zn",))
        for g, w in zip(mass_of(with_b, pair).as_tuple(), mass_of(without_b, pair).as_tuple()):
            assert g == pytest.approx(w, abs=1e-15)
        # pairs only the dead source knew stay vacuous
        assert mass_of(with_b, CombinationPair(("Fe",), ("Ni",))) == vacuous()

    def test_all_vacuous_source_is_noop(self):
        a = store_of({(("Cu",), ("Zn",)): (0.3, 0.1, 0.6)})
        b = store_of({(("Cu",), ("Zn",)): (0.0, 0.0, 1.0)})
        fused = fuse(
            [("a", a), ("b", b)],
            {"a": 0.7, "b": 0.9},
        )
        base = fuse([("a", a)], {"a": 0.7})
        pair = CombinationPair(("Cu",), ("Zn",))
        for g, w in zip(mass_of(fused, pair).as_tuple(), mass_of(base, pair).as_tuple()):
            assert g == pytest.approx(w, abs=1e-15)

    @pytest.mark.parametrize("seed", range(3))
    def test_source_permutation_invariance(self, seed):
        import random

        rng = random.Random(seed)
        stores = []
        for sid in "abc":
            entries = {}
            for pair_key in [(("Cu",), ("Zn",)), (("Fe",), ("Ni",)), (("Ag",), ("Au",))]:
                if rng.random() < 0.7:
                    f = rng.uniform(0, 0.6)
                    s = rng.uniform(0, 0.6 - f * 0.5)
                    entries[pair_key] = (f, s, 1 - f - s)
            stores.append((sid, store_of(entries)))
        gammas = {sid: rng.uniform(0.1, 1.0) for sid, _ in stores}
        base = fuse(stores, gammas)
        order = [2, 0, 1]
        permuted = fuse([stores[i] for i in order], {stores[i][0]: gammas[stores[i][0]] for i in order})
        assert pairs_of(base) == pairs_of(permuted)
        for pair, mass in masses_of(base).items():
            for g, w in zip(mass_of(permuted, pair).as_tuple(), mass.as_tuple()):
                assert g == pytest.approx(w, abs=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_independent_recomputation(self, seed):
        # literal oracle: fused mass equals combine_all of the discounted
        # per-source masses recomputed outside fuse()
        import random

        rng = random.Random(seed + 50)
        keys = [(("Cu",), ("Zn",)), (("Fe",), ("Ni",)), (("Cu", "Fe"), ("Ag", "Zn"))]
        stores, gammas = [], {}
        for sid in "xyz":
            entries = {}
            for key in keys:
                if rng.random() < 0.8:
                    f = rng.uniform(0, 0.5)
                    s = rng.uniform(0, 0.5 - f * 0.3)
                    entries[key] = (f, s, 1 - f - s)
            stores.append((sid, store_of(entries)))
            gammas[sid] = rng.uniform(0, 1)
        fused = fuse(stores, gammas)
        gamma_of = gammas
        for key in keys:
            pair = CombinationPair(*key)
            pieces = [
                discount(mass_of(store, pair), gamma_of[sid])
                for sid, store in stores
                if pair in pairs_of(store)
            ]
            expected = combine_all(pieces)
            for g, w in zip(mass_of(fused, pair).as_tuple(), expected.as_tuple()):
                assert g == pytest.approx(w, abs=1e-12)

    def test_requires_gamma_for_every_store(self):
        # a configuration fault the library's error hierarchy catches, naming every id without a γ
        a = store_of({(("Cu",), ("Zn",)): (0.3, 0.1, 0.6)})
        with pytest.raises(ConfigError, match=r"no reliability given for sources \['a', 'c'\]"):
            fuse([("a", a), ("b", a), ("c", a)], {"b": 0.5})

    @pytest.mark.parametrize("gamma", [1.2, -0.1, float("nan")])
    def test_gamma_range(self, gamma):
        a = store_of({(("Cu",), ("Zn",)): (0.3, 0.1, 0.6)})
        with pytest.raises(GammaOutOfRange):
            fuse([("a", a)], {"a": gamma})

    def test_empty_source_list(self):
        with pytest.raises(EmptySourceList):
            fuse([], {})


class TestSourceGammas:
    def test_given_gammas_and_one_estimate_in_store_order(self, monkeypatch):
        dataset = planted_group_dataset(GROUP_A, GROUP_B)
        planted = planted_group_store(GROUP_A, GROUP_B, strength=0.95)
        stores = [("x", SimilarityStore()), ("md", planted), ("y", planted), ("z", SimilarityStore())]
        calls = []

        def estimate(estimated, *args, **kwargs):  # the module attribute, which tracing wraps
            calls.append(estimated)
            return estimate_reliability(estimated, *args, **kwargs)

        monkeypatch.setattr(fusion, "estimate_reliability", estimate)
        got = source_gammas(stores, {"y": 0.25, "x": 0.5}, dataset, folds=5, seed=3)
        assert list(got.items()) == [
            ("x", 0.5), ("md", estimate_reliability([planted], dataset, folds=5, seed=3)[0]), ("y", 0.25),
            ("z", estimate_reliability([SimilarityStore()], dataset, folds=5, seed=3)[0]),
        ]
        assert len(calls) == 1 and [len(store) for store in calls[0]] == [len(planted), 0]

    def test_every_gamma_given_needs_no_dataset(self):
        store = planted_group_store(GROUP_A, GROUP_B)
        assert source_gammas([("b", store), ("a", store)], {"a": 1.0, "b": 0.0}, None) == {"b": 0.0, "a": 1.0}


class TestGammaSidecar:
    def test_round_trip(self, tmp_path):
        gammas = {"md": 0.8125, "llm:Metallurgy": 0.5}
        path = tmp_path / "gammas.json"
        write_gammas(gammas, path)
        assert read_gammas(path) == gammas
        assert path.read_text() == '{\n  "llm:Metallurgy": 0.5,\n  "md": 0.8125\n}\n'  # sorted ids

    @pytest.mark.parametrize(
        "text",
        ["[1, 2]", '{"md": "0.5"}', '{"md": 1.5}', '{"md": true}', '{"md": NaN}', "not json"],
        ids=["list", "string-value", "above-one", "boolean", "nan", "not-json"],
    )
    def test_malformed_file_is_parse_error(self, tmp_path, text):
        path = tmp_path / "gammas.json"
        path.write_text(text)
        with pytest.raises(ParseError):
            read_gammas(path)
