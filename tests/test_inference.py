"""Analogy enumeration and evidence-pooled prediction."""

import random
from fractions import Fraction

import numpy as np
import pytest

from heafusion import Alloy, BinaryMass, LabeledAlloy, SimilarityStore, inference
from heafusion.alloys import element_words
from heafusion.belief import to_weights
from heafusion.errors import CandidateInTraining, LengthMismatch, TotalConflict
from heafusion.inference import classify, predict_batch
from heafusion.md_evidence import CombinationPair, counts_to_store, read_store, write_store

from conftest import as_dataset, mass_store as store_of, planted_group_store, random_dataset
from oracles import (
    Analogy,
    count_table,
    enumerate_analogies,
    evidence_from_analogy,
    expand_dempster,
    mass_from_counts,
    mass_of,
)


def la(elements, label=True):
    return LabeledAlloy(Alloy(elements), label)


class TestEnumerateAnalogies:
    def test_single_element_substitution(self):
        training = as_dataset([la("Ag Cd In Cu".split())])
        got = enumerate_analogies(Alloy("Ag Cd In Zn".split()), training)
        assert got == [Analogy(training.alloys[0], ("Cu",), ("Zn",))]

    def test_multi_element_substitution(self):
        training = as_dataset([la("Ag Cd In Cu".split())])
        got = enumerate_analogies(Alloy("Ag Cd In Zn Ga".split()), training)
        assert got == [Analogy(training.alloys[0], ("Cu",), ("Ga", "Zn"))]

    def test_disjoint_training_yields_nothing(self):
        training = as_dataset([la("Fe Ni Cr Co".split())])
        assert enumerate_analogies(Alloy("Ag Cd In Zn".split()), training) == []

    def test_nested_hosts_yield_nothing(self):
        training = as_dataset([la("Ag Cd".split()), la("Ag Cd In Zn Cu".split())])
        assert enumerate_analogies(Alloy("Ag Cd In Zn".split()), training, max_subst_size=4) == []

    def test_candidate_in_training_raises(self):
        training = as_dataset([la("Ag Cd In Cu".split())])
        with pytest.raises(CandidateInTraining):
            enumerate_analogies(Alloy("Cu In Cd Ag".split()), training)

    def test_max_subst_size_filters(self):
        training = as_dataset([la("Ag Cd In Cu".split())])
        got = enumerate_analogies(Alloy("Ag Cd In Zn Ga".split()), training, max_subst_size=1)
        assert got == []


class TestEvidenceFromAnalogy:
    def test_positive_host(self):
        analogy = Analogy(la("Ag Cd In Cu".split(), True), ("Cu",), ("Zn",))
        store = store_of({(("Cu",), ("Zn",)): (0.25, 0.075, 0.675)})
        assert evidence_from_analogy(analogy, store) == BinaryMass(0.25, 0.0, 0.75)

    def test_negative_host(self):
        analogy = Analogy(la("Ag Cd In Cu".split(), False), ("Cu",), ("Zn",))
        store = store_of({(("Cu",), ("Zn",)): (0.25, 0.075, 0.675)})
        assert evidence_from_analogy(analogy, store) == BinaryMass(0.0, 0.25, 0.75)

    def test_absent_pair_is_vacuous(self):
        analogy = Analogy(la("Ag Cd In Cu".split(), True), ("Cu",), ("Zn",))
        assert evidence_from_analogy(analogy, SimilarityStore()) == BinaryMass(0.0, 0.0, 1.0)


class TestPredict:
    def test_single_positive_analogy(self):
        training = as_dataset([la("Ag Cd In Cu".split(), True)])
        store = store_of({(("Cu",), ("Zn",)): (0.25, 0.075, 0.675)})
        p = predict_batch([Alloy("Ag Cd In Zn".split())], training, store)[0]
        assert p.mass == BinaryMass(0.25, 0.0, 0.75)
        assert p.score == pytest.approx(0.625, abs=1e-12)
        assert p.n_analogies == 1

    def test_no_analogies_is_vacuous(self):
        training = as_dataset([la("Fe Ni Cr Co".split())])
        p = predict_batch([Alloy("Ag Cd In Zn".split())], training, SimilarityStore())[0]
        assert p.mass == BinaryMass(0.0, 0.0, 1.0)
        assert p.score == 0.5
        assert p.n_analogies == 0

    def test_two_conflicting_analogies(self):
        training = as_dataset(
            [la("Ag Cd In Cu".split(), True), la("Ag Cd In Sn".split(), False)]
        )
        store = store_of(
            {(("Cu",), ("Zn",)): (0.25, 0.0, 0.75), (("Sn",), ("Zn",)): (0.25, 0.0, 0.75)}
        )
        p = predict_batch([Alloy("Ag Cd In Zn".split())], training, store)[0]
        assert p.mass.m_first == pytest.approx(0.2, abs=1e-12)
        assert p.mass.m_second == pytest.approx(0.2, abs=1e-12)
        assert p.mass.m_both == pytest.approx(0.6, abs=1e-12)
        assert p.score == pytest.approx(0.5, abs=1e-12)

    def test_saturated_opposite_hosts_cancel(self):
        # 400 agreeing pieces at alpha 0.1 give a similarity that rounds to
        # 1.0 but leave m_second + m_both > 0, so each analogy keeps a
        # finite weight and the two hosts cancel
        saturated = mass_from_counts(400, 3, 0.1)
        assert saturated.m_first == 1.0
        assert saturated.m_second + saturated.m_both > 0.0
        training = as_dataset(
            [la("Ag Cd In Cu".split(), True), la("Ag Cd In Sn".split(), False)]
        )
        store = SimilarityStore.from_entries({
            CombinationPair(("Cu",), ("Zn",)): to_weights(*saturated.as_tuple()),
            CombinationPair(("Sn",), ("Zn",)): to_weights(*saturated.as_tuple()),
        })
        p = predict_batch([Alloy("Ag Cd In Zn".split())], training, store)[0]
        assert p.score == pytest.approx(0.5, abs=1e-12)
        assert p.mass.m_first == pytest.approx(0.5, abs=1e-12)
        assert p.mass.m_second == pytest.approx(0.5, abs=1e-12)

    def test_stored_counts_beyond_mass_precision_cancel(self, tmp_path):
        # 1,100 agreeing pieces at alpha 0.5 read out as the mass (1, 0, 0):
        # stored as weights, two such entries met by hosts of opposite
        # class still cancel, before and after a store file round trip
        assert mass_from_counts(1100, 0, 0.5).as_tuple() == (1.0, 0.0, 0.0)
        training = as_dataset(
            [la("Ag Cd In Cu".split(), True), la("Ag Cd In Sn".split(), False)]
        )
        universe = training.universe + ("Zn",)  # Zn on the highest bit
        bit = {e: 1 << i for i, e in enumerate(universe)}
        counts = {(bit[e], bit["Zn"]): (1100, 0) for e in ("Cu", "Sn")}
        store = counts_to_store(count_table(counts), 0.5, universe)
        write_store(store, tmp_path / "store.csv")
        for held in (store, read_store(tmp_path / "store.csv")):
            p = predict_batch([Alloy("Ag Cd In Zn".split())], training, held)[0]
            assert p.n_analogies == 2
            assert p.mass.m_first == pytest.approx(0.5, abs=1e-12)
            assert p.mass.m_second == pytest.approx(0.5, abs=1e-12)
            assert p.score == pytest.approx(0.5, abs=1e-12)

    def test_certain_opposite_hosts_are_total_conflict(self):
        training = as_dataset(
            [la("Ag Cd In Cu".split(), True), la("Ag Cd In Sn".split(), False)]
        )
        store = store_of({(("Cu",), ("Zn",)): (1.0, 0.0, 0.0), (("Sn",), ("Zn",)): (1.0, 0.0, 0.0)})
        with pytest.raises(TotalConflict):
            predict_batch([Alloy("Ag Cd In Zn".split())], training, store)[0]

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_host_labels_must_match_the_hosts(self, n_labels):
        index = {e: i for i, e in enumerate(("Cu", "Fe", "Ni", "Zn"))}
        hosts = element_words([("Cu", "Fe"), ("Cu", "Ni")], index, 1)
        table = store_of({(("Fe",), ("Ni",)): (0.5, 0.0, 0.5)}).mask_view(index)
        with pytest.raises(LengthMismatch, match=f"{n_labels} host labels vs 2 hosts"):
            inference.analogy_weights(element_words([("Cu", "Zn")], index, 1), hosts, [True] * n_labels, table, 1)

    def test_candidate_in_training(self):
        training = as_dataset([la("Ag Cd In Cu".split())])
        with pytest.raises(CandidateInTraining):
            predict_batch([Alloy("Ag Cd In Cu".split())], training, SimilarityStore())[0]


class TestClassify:
    def test_above_threshold(self):
        training = as_dataset([la("Ag Cd In Cu".split(), True)])
        store = store_of({(("Cu",), ("Zn",)): (0.25, 0.0, 0.75)})
        p = predict_batch([Alloy("Ag Cd In Zn".split())], training, store)[0]
        assert p.score == 0.625
        assert classify([p.score]) == [True]
        assert classify([0.5, np.nextafter(0.5, 1.0), 0.0, 1.0]) == [False, True, False, True]
        assert classify(np.array([0.625, 0.375])) == [True, False]

    def test_vacuous_tie_is_negative(self):
        training = as_dataset([la("Fe Ni Cr Co".split())])
        p = predict_batch([Alloy("Ag Cd In Zn".split())], training, SimilarityStore())[0]
        assert p.score == 0.5
        assert classify([p.score]) == [False]


def _random_instance(seed):
    """Training set, store, and candidate with a handful of analogies."""
    rng = random.Random(seed)
    ds = random_dataset(12, universe_size=8, k=4, seed=seed)
    candidate = None
    taken = {la_.alloy.elements for la_ in ds.alloys}
    from itertools import combinations

    for elems in combinations(ds.universe, 4):
        if Alloy(elems).elements not in taken:
            candidate = Alloy(elems)
            break
    entries = {}
    for analogy in enumerate_analogies(candidate, ds):
        key = (analogy.replaced, analogy.replacement)
        entries[key] = (rng.uniform(0, 0.8), 0.0, 0.0)
    entries = {
        k: (s, (1 - s) * rng.random() * 0.5, 0.0) for k, (s, _, _) in entries.items()
    }
    entries = {k: (a, b, 1 - a - b) for k, (a, b, _) in entries.items()}
    return ds, store_of(entries), candidate


class TestInvariants:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_expansion_oracle(self, seed):
        ds, store, candidate = _random_instance(seed)
        analogies = enumerate_analogies(candidate, ds)
        assert len(analogies) <= 12
        pieces = []
        for analogy in analogies:
            s = Fraction(mass_of(store, CombinationPair(analogy.replaced, analogy.replacement)).m_first)
            pieces.append((s, 0, 1 - s) if analogy.host.label else (0, s, 1 - s))
        expected = expand_dempster(pieces) if pieces else (Fraction(0), Fraction(0), Fraction(1))
        got = predict_batch([candidate], ds, store)[0]
        for g, w in zip(got.mass.as_tuple(), expected):
            assert g == pytest.approx(float(w), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_label_flip_antisymmetry(self, seed):
        ds, store, candidate = _random_instance(seed)
        flipped = ds.with_alloys(
            [LabeledAlloy(la_.alloy, not la_.label) for la_ in ds.alloys]
        )
        p = predict_batch([candidate], ds, store)[0]
        q = predict_batch([candidate], flipped, store)[0]
        assert q.mass.m_first == pytest.approx(p.mass.m_second, abs=1e-12)
        assert q.mass.m_second == pytest.approx(p.mass.m_first, abs=1e-12)
        assert q.mass.m_both == pytest.approx(p.mass.m_both, abs=1e-12)
        assert q.score == pytest.approx(1.0 - p.score, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_training_order_invariance(self, seed):
        ds, store, candidate = _random_instance(seed)
        rows = list(ds.alloys)
        random.Random(seed + 100).shuffle(rows)
        p = predict_batch([candidate], ds, store)[0]
        q = predict_batch([candidate], ds.with_alloys(rows), store)[0]
        for g, w in zip(q.mass.as_tuple(), p.mass.as_tuple()):
            assert g == pytest.approx(w, abs=1e-12)

    def test_score_monotone_in_similarity(self):
        training = as_dataset([la("Ag Cd In Cu".split(), True)])
        candidate = Alloy("Ag Cd In Zn".split())
        last = -1.0
        for s in [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]:
            store = store_of({(("Cu",), ("Zn",)): (s, 0.0, 1.0 - s)})
            score = predict_batch([candidate], training, store)[0].score
            assert score > last
            last = score

    def test_batch_matches_single(self):
        ds, store, _ = _random_instance(3)
        from itertools import combinations

        taken = {la_.alloy.elements for la_ in ds.alloys}
        candidates = [Alloy(e) for e in combinations(ds.universe, 4) if Alloy(e).elements not in taken]
        batch = predict_batch(candidates, ds, store)
        assert batch == [predict_batch([candidate], ds, store)[0] for candidate in candidates]

    def test_batch_jobs_consistent(self, monkeypatch):
        # batch large enough to engage the process pool, its threshold
        # lowered to fit the 330 quaternaries of the universe
        monkeypatch.setattr(inference, "_POOL_MIN_CANDIDATES", 256)
        ds = random_dataset(40, universe_size=11, seed=9)
        store = planted_group_store(tuple(ds.universe[:5]), tuple(ds.universe[5:]), 0.7)
        taken = {la_.alloy.elements for la_ in ds.alloys}
        from itertools import combinations

        candidates = [
            Alloy(e) for e in combinations(ds.universe, 4) if Alloy(e).elements not in taken
        ][:280]
        assert len(candidates) >= inference._POOL_MIN_CANDIDATES
        serial = predict_batch(candidates, ds, store, jobs=1)
        for jobs in (2, 3):
            assert predict_batch(candidates, ds, store, jobs=jobs) == serial, jobs

    def test_pool_has_one_lane_per_core_at_most(self, monkeypatch):
        # a fake pool records its size and maps in this process, so no
        # worker process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(inference, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(inference, "_POOL_MIN_CANDIDATES", 1)
        ds = random_dataset(40, universe_size=11, seed=9)
        store = planted_group_store(tuple(ds.universe[:5]), tuple(ds.universe[5:]), 0.7)
        taken = {la_.alloy.elements for la_ in ds.alloys}
        from itertools import combinations

        candidates = [Alloy(e) for e in combinations(ds.universe, 4) if Alloy(e).elements not in taken][:50]
        serial = predict_batch(candidates, ds, store, jobs=1)
        # a process pinned to one CPU of eight starts no pool
        monkeypatch.setattr(inference.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(inference.os, "sched_getaffinity", lambda pid: {5}, raising=False)
        assert predict_batch(candidates, ds, store, jobs=5000) == serial
        assert sizes == []
        monkeypatch.delattr(inference.os, "sched_getaffinity", raising=False)
        for cores, jobs, pools in [(3, 5000, [3]), (4, 2, [2]), (1, 5000, []), (None, 5000, [])]:
            sizes.clear()
            monkeypatch.setattr(inference.os, "cpu_count", lambda: cores)
            assert predict_batch(candidates, ds, store, jobs=jobs) == serial, (cores, jobs)
            assert sizes == pools, (cores, jobs)

    def test_usable_cpus_follow_the_affinity_set(self, monkeypatch):
        monkeypatch.setattr(inference.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(inference.os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert inference.usable_cpus() == 2
        monkeypatch.delattr(inference.os, "sched_getaffinity")
        assert inference.usable_cpus() == 8
        monkeypatch.setattr(inference.os, "cpu_count", lambda: None)
        assert inference.usable_cpus() == 1
