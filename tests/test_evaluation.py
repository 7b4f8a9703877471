"""Splits, metrics, alpha tuning, and the two experiment protocols."""

import random
import traceback
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heafusion import Alloy, Dataset, SimilarityStore, md_evidence
from heafusion.alloys import (
    ELEMENT_SYMBOLS,
    UNIVERSES,
    element_split,
    enumerate_combinations,
    fold_ids,
    fraction_split,
)
from heafusion.errors import (
    ConfigError,
    ElementAbsent,
    EmptySourceList,
    FoldsOutOfRange,
    FractionDegenerate,
    GammaOutOfRange,
    LengthMismatch,
    SingleClass,
)
from heafusion.evaluation import (
    DEFAULT_ALPHA_GRID,
    DEFAULT_FRACTIONS,
    SourcesConfig,
    _alpha_scores,
    grid_search_alpha,
    run_cv_experiment,
    run_extrapolation_experiment,
    summarize_reports,
)
from heafusion.belief import from_weights
from heafusion.inference import (
    accuracy,
    classify,
    columns_macro_f1,
    macro_f1,
    predict_batch,
    roc_auc,
    youden_threshold_stats,
)
from heafusion.md_evidence import ExtractionConfig, extract_all

from conftest import (
    as_dataset,
    dense_noisy_dataset,
    planted_group_dataset,
    planted_group_store,
    random_dataset,
)
from oracles import (
    accuracy_loop,
    alpha_scores_reference,
    kfold_indices_reference,
    kfold_splits,
    macro_f1_loop,
    macro_f1_oracle,
    mann_whitney_auc,
)


@pytest.fixture(scope="module")
def e1_quaternary() -> Dataset:
    alloys = tuple(enumerate_combinations(UNIVERSES["E1"], 4))
    return Dataset("e1-full", alloys, ["Fe" in a.elements for a in alloys], UNIVERSES["E1"])


class TestMakeSplit:
    def test_leave_element_out_counts(self, e1_quaternary):
        training, test = element_split(e1_quaternary, "Os")
        assert len(test) == 2300  # all Os-containing quaternaries: C(25,3)
        assert len(training) == 14950 - 2300
        assert all("Os" in a.elements for a in test.alloys)
        assert all("Os" not in a.elements for a in training.alloys)
        assert training.universe == e1_quaternary.universe

    def test_fraction_training_size(self, e1_quaternary):
        training, test = fraction_split(e1_quaternary, 0.3, seed=1)
        assert len(training) == 4485
        assert len(test) == 14950 - 4485

    def test_fraction_is_stratified(self):
        ds = random_dataset(200, universe_size=12, seed=5, positive_rate=0.3)
        training, _ = fraction_split(ds, 0.1, seed=3)
        assert training.n_positive == round(0.1 * ds.n_positive)

    def test_element_absent(self, e1_quaternary):
        with pytest.raises(ElementAbsent):
            element_split(e1_quaternary, "Xe")

    def test_fraction_degenerate(self):
        ds = random_dataset(10, universe_size=8, seed=0)
        with pytest.raises(FractionDegenerate):
            fraction_split(ds, 0.01, seed=0)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, float("nan")])
    def test_fraction_outside_unit_interval(self, fraction):
        ds = random_dataset(10, universe_size=8, seed=0)
        with pytest.raises(ValueError, match="fraction must lie in"):
            fraction_split(ds, fraction, seed=0)


class TestKFold:
    def test_folds_partition_dataset(self):
        ds = random_dataset(53, universe_size=10, seed=7)
        ids = fold_ids(ds.labels, 5, seed=3)
        assert ids.shape == (len(ds),) and ids.dtype == np.intp
        sizes = np.bincount(ids, minlength=5)
        assert len(sizes) == 5 and sizes.min() >= sizes.max() - 1

    def test_every_fold_nonempty_even_when_tiny(self):
        assert sorted(fold_ids([True, False], 2, seed=0).tolist()) == [0, 1]

    def test_deterministic(self):
        ds = random_dataset(30, universe_size=9, seed=4)
        assert fold_ids(ds.labels, 3, seed=5).tolist() == fold_ids(ds.labels, 3, seed=5).tolist()

    def test_read_only(self):
        ids = fold_ids([True, False, True, False], 2, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            ids[0] = 1

    @pytest.mark.parametrize("k, message", [(1, "folds must be >= 2, got 1"),
                                            (5, "5 folds exceed the dataset's 4 rows")])
    def test_fold_count_out_of_range(self, k, message):
        with pytest.raises(FoldsOutOfRange, match=message):
            fold_ids([True, False, True, False], k, seed=0)

    def test_matches_list_reference(self):
        # every fold's rows, in ascending order, are the reference's test
        # list, and the other rows its training list
        rng = random.Random(11)
        seen = {"small_class": 0, "two": 0, "leave_one_out": 0}
        for case in range(600):
            n = rng.randint(2, 60)
            rate = rng.choice([0.0, 0.05, 0.5, 0.9, 1.0, rng.random()])
            labels = [rng.random() < rate for _ in range(n)]
            k = rng.choice([2, n, rng.randint(2, n)])
            ids = fold_ids(np.array(labels), k, case)
            reference = kfold_indices_reference(labels, k, case)
            assert len(reference) == k
            for f, (train, test) in enumerate(reference):
                assert np.flatnonzero(ids == f).tolist() == test, case
                assert np.flatnonzero(ids != f).tolist() == train, case
            seen["small_class"] += min(sum(labels), n - sum(labels)) < k
            seen["two"] += k == 2
            seen["leave_one_out"] += k == n
        assert min(seen.values()) >= 50, seen


class TestCountChecks:
    @pytest.mark.parametrize(
        "call",
        [
            lambda ds: grid_search_alpha(ds, grid=[0.1], folds=2, repeats=0),
            lambda ds: grid_search_alpha(ds, grid=[0.1], folds=2, repeats=1, max_subst_size=0),
            lambda ds: run_cv_experiment(ds, SourcesConfig(gamma_folds=2), fractions=[0.5], repeats=0),
            lambda ds: SourcesConfig(gamma_folds=1),
            lambda ds: extract_all(ds, ExtractionConfig(0.1, max_subst_size=0)),
            lambda ds: predict_batch([Alloy(ds.universe[:4])], ds, SimilarityStore(), max_subst_size=-1),
        ],
        ids=["grid-repeats", "grid-size", "cv-repeats", "gamma-folds", "extract-size", "predict-size"],
    )
    def test_count_below_minimum(self, call):
        ds = random_dataset(20, universe_size=8, seed=1)
        with pytest.raises(ConfigError):
            call(ds)


class TestGammaOverrides:
    def test_override_must_name_a_source(self):
        with pytest.raises(ConfigError, match="typo"):
            SourcesConfig(gamma_overrides={"md": 1.0, "typo": 0.5})
        with pytest.raises(ConfigError, match="md"):
            SourcesConfig(use_md=False, llm_stores={"llm:x": SimilarityStore()}, gamma_overrides={"md": 0.5})
        assert SourcesConfig(gamma_overrides={"md": 0.5}).gamma_overrides == {"md": 0.5}

    @pytest.mark.parametrize("gamma", [1.5, -0.1, float("nan")])
    def test_override_must_lie_in_unit_interval(self, gamma):
        with pytest.raises(GammaOutOfRange, match="md"):
            SourcesConfig(gamma_overrides={"md": gamma})


class TestSourceIds:
    def test_expert_store_may_not_take_the_md_id(self):
        # two sources named md would share one γ and one store hash
        with pytest.raises(ConfigError, match="'md'"):
            SourcesConfig(llm_stores={"md": SimilarityStore()})
        assert SourcesConfig(use_md=False, llm_stores={"md": SimilarityStore()}).source_ids() == ["md"]


class TestAccuracy:
    def test_all_correct(self):
        assert accuracy([True, False], [True, False]) == 1.0

    def test_three_quarters(self):
        assert accuracy(
            [True, False, True, False], [True, False, False, False]
        ) == pytest.approx(0.75)

    def test_empty_raises(self):
        with pytest.raises(LengthMismatch):
            accuracy([], [])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            accuracy([True], [True, False])

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
    def test_equals_loop(self, pairs):
        labels = [y for y, _ in pairs]
        preds = [p for _, p in pairs]
        got = accuracy(labels, np.array(preds))
        assert type(got) is float and got == accuracy_loop(labels, preds)


class TestMacroF1:
    def test_perfect(self):
        assert macro_f1([True, False], [True, False]) == 1.0

    def test_all_positive_predictions(self):
        got = macro_f1([True, True, False, False], [True, True, True, True])
        assert got == pytest.approx(1 / 3, abs=1e-12)

    def test_fully_wrong(self):
        assert macro_f1([True, False], [False, True]) == 0.0

    @given(
        st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60)
    )
    def test_matches_oracle(self, pairs):
        labels = [y for y, _ in pairs]
        preds = [p for _, p in pairs]
        assert macro_f1(labels, preds) == pytest.approx(
            macro_f1_oracle(labels, preds), abs=1e-12
        )

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
    def test_equals_loop(self, pairs):
        labels = [y for y, _ in pairs]
        preds = [p for _, p in pairs]
        got = macro_f1(labels, np.array(preds))
        assert type(got) is float and got == macro_f1_loop(labels, preds)

    def test_columns_per_group_equal_loop(self):
        rng = np.random.default_rng(5)
        for case in range(50):
            n, k, n_groups = int(rng.integers(1, 40)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
            labels = (rng.random(n) < 0.5).tolist()
            groups = rng.integers(0, n_groups, n)
            weights = [np.where(rng.random((n, k)) < 0.3, 0.0, rng.exponential(2.0, (n, k))) for _ in range(2)]
            got = columns_macro_f1(labels, *weights, groups, n_groups)
            assert got.shape == (n_groups, k)
            for g in range(n_groups):
                rows = np.flatnonzero(groups == g)
                for j in range(k):
                    if not len(rows):
                        assert got[g, j] == 1.0  # no rows: both classes absent
                        continue
                    m_pos, _, m_unc = from_weights(weights[0][rows, j], weights[1][rows, j])
                    expected = macro_f1_loop([labels[i] for i in rows], classify(m_pos + m_unc / 2.0))
                    assert got[g, j] == expected, case


class TestRocAuc:
    def test_perfect_separation(self):
        auc, _ = roc_auc([True, True, False, False], [0.9, 0.8, 0.2, 0.1])
        assert auc == 1.0

    def test_all_scores_equal(self):
        auc, points = roc_auc([True, False, True, False], [0.5] * 4)
        assert auc == pytest.approx(0.5, abs=1e-15)
        assert points == [(0.0, 0.0), (1.0, 1.0)]

    def test_worked_example_from_oracle(self):
        labels = [True, False, True, False]
        scores = [0.9, 0.8, 0.7, 0.1]
        expected = mann_whitney_auc(labels, scores)
        assert expected == pytest.approx(0.75)
        auc, _ = roc_auc(labels, scores)
        assert auc == pytest.approx(expected, abs=1e-12)

    def test_single_class_raises(self):
        with pytest.raises(SingleClass):
            roc_auc([True, True], [0.4, 0.6])

    def test_curve_monotone_and_anchored(self):
        import random

        rng = random.Random(0)
        labels = [rng.random() < 0.4 for _ in range(100)]
        labels[0], labels[1] = True, False
        scores = [rng.choice([0.1, 0.3, 0.5, 0.7]) for _ in labels]
        _, points = roc_auc(labels, scores)
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (1.0, 1.0)
        for (f0, t0), (f1, t1) in zip(points, points[1:]):
            assert f1 >= f0 and t1 >= t0

    def test_matches_mann_whitney_at_500(self):
        import random

        rng = random.Random(500)
        labels = [rng.random() < 0.35 for _ in range(500)]
        labels[0], labels[1] = True, False
        scores = [rng.choice([i / 20 for i in range(21)]) for _ in labels]
        auc, _ = roc_auc(labels, scores)
        assert auc == pytest.approx(mann_whitney_auc(labels, scores), abs=1e-12)

    @given(
        st.lists(
            st.tuples(st.booleans(), st.sampled_from([0.0, 0.25, 0.5, 0.5, 0.75, 1.0])),
            min_size=2,
            max_size=80,
        )
    )
    @settings(max_examples=300)
    def test_matches_mann_whitney(self, pairs):
        labels = [y for y, _ in pairs]
        scores = [s for _, s in pairs]
        if all(labels) or not any(labels):
            with pytest.raises(SingleClass):
                roc_auc(labels, scores)
            return
        auc, _ = roc_auc(labels, scores)
        assert auc == pytest.approx(mann_whitney_auc(labels, scores), abs=1e-12)


class TestYouden:
    def test_perfect_classifier_hits_full_accuracy(self):
        threshold, acc = youden_threshold_stats(
            [True, True, False, False], [0.9, 0.8, 0.2, 0.1]
        )
        assert acc == 1.0
        assert threshold == pytest.approx(0.8)

    def test_constant_scores_fall_back_to_majority_negative(self):
        threshold, acc = youden_threshold_stats([True, False, False], [0.5] * 3)
        assert threshold == 1.0
        assert acc == pytest.approx(2 / 3)


def _noisy_planted(
    universe: tuple[str, ...], pool: tuple[str, ...], n: int, sizes: tuple[int, ...], seed: int
) -> Dataset:
    """Up to n distinct alloys over the pool of symbols, sizes drawn from
    sizes, positive iff all elements lie in the first half of the pool or
    all in the second, with a fifth of the labels flipped."""
    rng = random.Random(seed)
    half = set(pool[: len(pool) // 2])
    rows = {tuple(sorted(rng.sample(pool, rng.choice(sizes)))) for _ in range(n)}
    rows = sorted(rows)
    labels = [(set(elements) <= half or not set(elements) & half) != (rng.random() < 0.2) for elements in rows]
    return Dataset("noisy", tuple(map(Alloy, rows)), labels, universe)


class TestGridSearchAlpha:
    @pytest.mark.parametrize("max_size", [None, 1])
    @pytest.mark.parametrize(
        "dataset",
        [
            _noisy_planted(UNIVERSES["E1"], UNIVERSES["E1"][:10], 90, (3, 4), seed=1),  # one key word
            # two key words, with alloys on both sides of the word boundary
            _noisy_planted(ELEMENT_SYMBOLS[:40], ELEMENT_SYMBOLS[28:38], 110, (2, 3, 4), seed=3),
        ],
        ids=["E1", "40-symbols"],
    )
    def test_alpha_scores_match_per_alpha_reference(self, dataset, max_size):
        # each alpha's mean macro-F1 is the one that extracting and
        # predicting at that alpha alone gives, to the bit
        alphas = [0.01, 0.05, 0.2, 0.45, 0.9]
        got = _alpha_scores(dataset, alphas, 4, 2, 3, max_size)
        expected = alpha_scores_reference(dataset, alphas, 4, 2, 3, max_size)
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]
        assert len(set(expected)) > 1  # the grid points are told apart
        scores: dict[float, float] = {}
        best = grid_search_alpha(dataset, alphas, 4, 2, 3, max_size, scores)
        assert scores == dict(zip(alphas, expected))
        assert best == alphas[expected.index(max(expected))]

    def test_builds_no_dataset_per_fold(self):
        # the folds are read from the dataset's mask and label rows; no
        # `Dataset.take` copy re-runs the dataset checks
        ds = random_dataset(40, universe_size=10, seed=6)
        with (mock.patch.object(Dataset, "take", autospec=True, side_effect=Dataset.take) as take,
              mock.patch.object(Dataset, "__post_init__", autospec=True, side_effect=Dataset.__post_init__) as built):
            grid_search_alpha(ds, grid=[0.1, 0.3], folds=4, repeats=2, seed=0)
        assert take.call_count == 0 and built.call_count == 0

    def test_folds_without_informative_pairs(self):
        # the one informative pair, Ni for Cu in Fe-Co, lies in the training
        # rows of some folds only; the others yield no key and a zero-row
        # palette. No test row has an analogy, so every alpha scores the
        # same and the smallest wins
        ds = as_dataset([
            (Alloy(elements.split()), label)
            for elements, label in (("Fe Co Ni", True), ("Fe Co Cu", False), ("H He Li", True),
                                    ("B C N", False), ("O F Ne", True), ("Na Mg Al", False))
        ])
        keys = [
            len(extract_all(train, ExtractionConfig(0.1))) for seed in (1, 2) for train, _ in kfold_splits(ds, 3, seed)
        ]
        assert 0 in keys and 1 in keys
        grid = [0.3, 0.05, 0.2]
        expected = alpha_scores_reference(ds, sorted(grid), 3, 2, 1)
        assert _alpha_scores(ds, sorted(grid), 3, 2, 1, None).tolist() == expected
        assert len(set(expected)) == 1
        assert grid_search_alpha(ds, grid=grid, folds=3, repeats=2, seed=1) == 0.05

    def test_count_pair_ids(self):
        rng = np.random.default_rng(5)
        big = 2**62
        cases = [
            (np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)),  # no keys
            (rng.integers(0, 6, 300), rng.integers(0, 4, 300)),
            # agree * (max disagree + 1) would overflow int64
            (np.array([big, 0, big, 7, big]), np.array([3, big, 3, 0, big])),
        ]
        for agree, disagree in cases:
            counts = md_evidence.PairCounts(np.zeros((len(agree), 1), dtype=np.uint64), agree, disagree)
            first, ids = counts.count_pair_ids()
            pairs = list(zip(agree[first].tolist(), disagree[first].tolist()))
            assert pairs == sorted(set(zip(agree.tolist(), disagree.tolist())))
            assert ids.shape == agree.shape
            assert (agree[first][ids] == agree).all() and (disagree[first][ids] == disagree).all()
            for i, row in enumerate(first.tolist()):  # the first row of its pair
                assert ids[row] == i and (ids[:row] != i).all()

    def test_singleton_grid(self):
        ds = random_dataset(40, universe_size=10, seed=6)
        assert grid_search_alpha(ds, grid=[0.1], folds=4, repeats=1, seed=0) == 0.1

    def test_tie_breaks_toward_smallest(self):
        # disjoint alloys generate no evidence and no analogies, so every
        # alpha scores identically
        rows = [
            (Alloy(("H", "He", "Li", "Be")), True),
            (Alloy(("B", "C", "N", "O")), False),
            (Alloy(("F", "Ne", "Na", "Mg")), True),
            (Alloy(("Al", "Si", "P", "S")), False),
        ]
        ds = as_dataset(rows)
        assert grid_search_alpha(ds, grid=[0.05, 0.1, 0.2], folds=2, repeats=1, seed=1) == 0.05

    def test_tie_ignores_grid_order_and_repeats(self):
        # every alpha scores the same on these six alloys, so the smallest
        # wins whatever the grid order, and a repeated alpha counts once
        ds = as_dataset([
            (Alloy(elements.split()), label)
            for elements, label in (("Co Ni Cr", True), ("Ni Cr Mn", False), ("Fe Co Ni", True),
                                    ("Fe Co Mn", True), ("Fe Ni Mn", False), ("Fe Ni Cr", False))
        ])
        for grid in ([0.3, 0.05], [0.05, 0.3], [0.05, 0.45, 0.45], [0.45, 0.05, 0.45]):
            assert grid_search_alpha(ds, grid=grid, folds=2, repeats=1, seed=1) == 0.05, grid

    def test_default_grid_shape(self):
        assert len(DEFAULT_ALPHA_GRID) == 50
        assert DEFAULT_ALPHA_GRID[0] == 0.01
        assert DEFAULT_ALPHA_GRID[-1] == 0.5

    def test_saturated_dense_dataset(self):
        # at alpha 0.3 and 0.5 the fold stores hold similarities that round
        # to 1 on hosts of both classes; every grid point still scores
        assert grid_search_alpha(dense_noisy_dataset(), grid=[0.1, 0.3, 0.5], seed=0) == 0.1

    def test_planted_signal_prefers_informative_alpha(self):
        ds = planted_group_dataset(
            ("Fe", "Co", "Ni", "Mn"), ("Cu", "Ag", "Au", "Zn"), subsample=50, seed=3
        )
        best = grid_search_alpha(ds, grid=[0.01, 0.3], folds=5, repeats=1, seed=2)
        assert best in (0.01, 0.3)


GROUP_A = ("Fe", "Co", "Ni", "Mn", "Cr")
GROUP_B = ("Cu", "Ag", "Au", "Zn", "Cd")


class TestCvExperiment:
    def test_default_fraction_count(self):
        assert len(DEFAULT_FRACTIONS) == 12

    def test_default_fractions_yield_twelve_reports(self):
        ds = random_dataset(200, universe_size=12, seed=18)
        sources = SourcesConfig(md_alpha=0.1, gamma_folds=2)
        reports = run_cv_experiment(ds, sources, seed=6)
        assert len(reports) == 12
        assert [r.key for r in reports] == [f"fraction={f}" for f in DEFAULT_FRACTIONS]

    def test_reports_on_synthetic(self):
        ds = random_dataset(200, universe_size=12, seed=8)
        sources = SourcesConfig(md_alpha=0.1, gamma_folds=4)
        reports = run_cv_experiment(ds, sources, fractions=[0.05, 0.2], seed=42)
        assert len(reports) == 2
        for report in reports:
            assert 0.0 <= report.accuracy <= 1.0
            assert 0.0 <= report.macro_f1 <= 1.0
            assert 0.0 <= report.auc <= 1.0
            assert report.roc[0] == (0.0, 0.0)
            assert report.roc[-1] == (1.0, 1.0)
            assert report.n_test == len(ds) - report.config["n_train"]
            assert set(report.gammas) == {"md"}

    def test_determinism(self):
        ds = random_dataset(120, universe_size=10, seed=9)
        sources = SourcesConfig(md_alpha=0.2, gamma_folds=3)
        a = run_cv_experiment(ds, sources, fractions=[0.1], seed=7)
        b = run_cv_experiment(ds, sources, fractions=[0.1], seed=7)
        assert a == b

    def test_no_leakage_store_hash(self):
        ds = random_dataset(150, universe_size=11, seed=10)
        sources = SourcesConfig(md_alpha=0.15, gamma_folds=3)
        (report,) = run_cv_experiment(ds, sources, fractions=[0.2], seed=13)
        training, _ = fraction_split(ds, 0.2, seed=report.config["seed"])
        independent = extract_all(training, ExtractionConfig(0.15))
        assert report.config["store_hashes"]["md"] == independent.content_hash()

    def test_repeats_reseed(self):
        ds = random_dataset(120, universe_size=10, seed=11)
        sources = SourcesConfig(md_alpha=0.2, gamma_folds=3)
        reports = run_cv_experiment(ds, sources, fractions=[0.1], seed=3, repeats=2)
        assert len(reports) == 2
        assert reports[0].config["seed"] == 3
        assert reports[1].config["seed"] == 4

    def test_empty_sources_rejected(self):
        ds = random_dataset(60, universe_size=10, seed=12)
        with pytest.raises(EmptySourceList):
            run_cv_experiment(ds, SourcesConfig(use_md=False), fractions=[0.2], seed=1)

    def test_llm_store_helps_at_one_percent(self):
        # data-scarce regime: 1% training slice leaves the dataset-evidence
        # model nearly vacuous while planted expert knowledge still ranks
        ds = planted_group_dataset(GROUP_A, GROUP_B, subsample=200, seed=21)
        llm = planted_group_store(GROUP_A, GROUP_B, strength=0.8)
        md_only = run_cv_experiment(
            ds, SourcesConfig(md_alpha=0.1, gamma_folds=2), fractions=[0.01], seed=5
        )
        multi = run_cv_experiment(
            ds,
            SourcesConfig(md_alpha=0.1, gamma_folds=2, llm_stores={"llm:planted": llm}),
            fractions=[0.01],
            seed=5,
        )
        assert md_only[0].config["n_train"] == 2
        assert multi[0].auc > md_only[0].auc


class TestExtrapolationExperiment:
    def test_md_only_is_vacuous(self):
        ds = random_dataset(150, universe_size=10, seed=14)
        sources = SourcesConfig(md_alpha=0.1, gamma_folds=3)
        reports = run_extrapolation_experiment(ds, sources, elements=[ds.universe[0]], seed=1)
        assert len(reports) == 1
        assert reports[0].auc == 0.5
        assert reports[0].key == f"element={ds.universe[0]}"

    def test_one_report_per_element(self):
        ds = random_dataset(100, universe_size=10, seed=15)
        sources = SourcesConfig(md_alpha=0.1, gamma_folds=3)
        elements = list(ds.universe[:3])
        reports = run_extrapolation_experiment(ds, sources, elements=elements, seed=1)
        assert [r.key for r in reports] == [f"element={e}" for e in elements]

    def test_planted_llm_store_extrapolates(self):
        ds = planted_group_dataset(GROUP_A, GROUP_B, subsample=170, seed=22)
        llm = planted_group_store(GROUP_A, GROUP_B, strength=0.8)
        sources = SourcesConfig(
            use_md=False, llm_stores={"llm:planted": llm}, gamma_folds=3
        )
        reports = run_extrapolation_experiment(ds, sources, elements=["Fe"], seed=2)
        assert reports[0].auc >= 0.9

    def test_a_fold_rekeys_only_the_held_out_md_store(self, monkeypatch):
        # stores are keyed by sorted symbols throughout, so one fold over an
        # unsorted universe moves bits only to hash the md store, whose
        # tuple names the held-out element it never uses
        universe = UNIVERSES["E1"]
        planted = planted_group_dataset(universe[:13], universe[13:], subsample=220, seed=3)
        ds = Dataset("e1", planted.alloys, planted.labels, universe)
        experts = {f"llm:{s}": planted_group_store(universe[:13], universe[13:], strength=s) for s in (0.6, 0.8)}
        sources = SourcesConfig(md_alpha=0.1, gamma_folds=5, llm_stores=experts)
        remap = md_evidence._remap
        rekeyed = []

        def counting(keys, bits, width):
            if not np.array_equal(bits, np.arange(len(bits))):
                rekeyed.append(([f.name for f in traceback.extract_stack(limit=3)[:-1]], len(keys)))
            return remap(keys, bits, width)

        with monkeypatch.context() as patch:
            patch.setattr(md_evidence, "_remap", counting)
            reports = run_extrapolation_experiment(ds, sources, elements=["Fe"], seed=1)
        training, _ = element_split(ds, "Fe")
        md = extract_all(training, ExtractionConfig(0.1))
        assert reports[0].config["store_hashes"]["md"] == md.content_hash()
        assert rekeyed == [(["_content_hash", "reindexed"], len(md))]


class TestSummaries:
    def test_mean_and_std(self):
        ds = random_dataset(120, universe_size=10, seed=16)
        sources = SourcesConfig(md_alpha=0.1, gamma_folds=3)
        reports = run_extrapolation_experiment(ds, sources, elements=list(ds.universe[:2]), seed=1)
        summary = summarize_reports(reports)
        assert summary["auc"]["n"] == 2
        assert summary["auc"]["mean"] == pytest.approx(0.5)
        assert summary["auc"]["std"] == pytest.approx(0.0)

    def test_empty(self):
        assert summarize_reports([]) == {}
