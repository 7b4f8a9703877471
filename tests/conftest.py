"""Shared fixtures: supplement-style worked datasets and synthetic generators."""

from __future__ import annotations

import os
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import settings
from hypothesis import strategies as st

from heafusion import Alloy, Dataset, SimilarityStore
from heafusion.belief import from_weights, to_weights
from heafusion.md_evidence import CombinationPair

from oracles import BinaryMass

# CI runs HYPOTHESIS_PROFILE=ci: the same examples on every run, no timing
# failures on slow runners; setting the variable locally replays them.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])

# Exact combined mass of three agreeing and one disagreeing piece at
# alpha = 0.1, from the exact-rational oracle (see oracles.combine_exact):
# (271/1081, 81/1081, 729/1081).
EXAMPLE_MASS = (Fraction(271, 1081), Fraction(81, 1081), Fraction(729, 1081))


@st.composite
def masses(draw, min_both: float = 0.0):
    """Valid BinaryMass triples drawn from the probability simplex."""
    both = draw(st.floats(min_value=min_both, max_value=1.0, allow_nan=False))
    first = draw(st.floats(min_value=0.0, max_value=max(0.0, 1.0 - both), allow_nan=False))
    second = 1.0 - both - first
    if second < 0.0:
        second = 0.0
    total = first + second + both
    return BinaryMass(first / total, second / total, both / total)


def single_substitution_alloys(
    contexts: list[tuple[str, ...]],
    left: tuple[str, ...],
    right: tuple[str, ...],
    right_labels: list[bool],
) -> list[tuple[Alloy, bool]]:
    """One alloy pair per context: (context+left, True) and
    (context+right, right_labels[i]); mirrors the supplement's worked
    evidence construction."""
    rows = []
    for ctx, right_label in zip(contexts, right_labels):
        rows.append((Alloy(ctx + left), True))
        rows.append((Alloy(ctx + right), right_label))
    return rows


def as_dataset(rows: list[tuple[Alloy, bool]], name: str = "fixture") -> Dataset:
    """The dataset of (alloy, label) rows over the elements they use."""
    alloys = tuple(alloy for alloy, _ in rows)
    universe = tuple(sorted({e for alloy in alloys for e in alloy.elements}))
    return Dataset(name, alloys, [label for _, label in rows], universe)


@pytest.fixture
def example1_dataset() -> Dataset:
    """Four alloy pairs over distinct contexts differing by Cu vs Zn;
    three pairs agree (both positive), the fourth disagrees."""
    contexts = [("Li", "Be", "Na"), ("Mg", "K", "Ca"), ("Sc", "Ti", "V"), ("Cr", "Mn", "Fe")]
    alloys = single_substitution_alloys(contexts, ("Cu",), ("Zn",), [True, True, True, False])
    return as_dataset(alloys, "example1")


@pytest.fixture
def example2_dataset() -> Dataset:
    """Size-3 vs size-4 pairs differing by Cu vs {Zn, Ga}."""
    contexts = [("Li", "Be"), ("Na", "Mg"), ("K", "Ca"), ("Sc", "Ti")]
    alloys = single_substitution_alloys(contexts, ("Cu",), ("Zn", "Ga"), [True, True, True, False])
    return as_dataset(alloys, "example2")


def random_dataset(
    n: int,
    universe_size: int = 12,
    k: int = 4,
    seed: int = 0,
    positive_rate: float = 0.4,
    name: str = "random",
) -> Dataset:
    """Random k-element alloys with independent random labels."""
    from heafusion.alloys import ELEMENT_SYMBOLS

    universe = ELEMENT_SYMBOLS[:universe_size]
    rng = random.Random(seed)
    pool = list(combinations(universe, k))
    rng.shuffle(pool)
    chosen = pool[: min(n, len(pool))]
    labels = [rng.random() < positive_rate for _ in chosen]
    return Dataset(name, tuple(map(Alloy, chosen)), labels, tuple(universe))


def planted_group_dataset(
    group_a: tuple[str, ...],
    group_b: tuple[str, ...],
    k: int = 4,
    subsample: int | None = None,
    seed: int = 0,
    name: str = "planted",
) -> Dataset:
    """Alloys over two element groups; positive iff all elements share a
    group, so the label is exactly determined by group membership."""
    universe = tuple(sorted(group_a + group_b))
    group_a_set = set(group_a)
    group_b_set = set(group_b)
    pool = list(combinations(universe, k))
    if subsample is not None:
        rng = random.Random(seed)
        rng.shuffle(pool)
        pool = pool[:subsample]
    labels = [set(elems) <= group_a_set or set(elems) <= group_b_set for elems in pool]
    return Dataset(name, tuple(map(Alloy, pool)), labels, universe)


def dense_noisy_dataset() -> Dataset:
    """All 495 quaternary alloys over the first 12 E1 symbols, labelled by
    the planted groups (first six, last six) with 10% of labels flipped:
    dense enough that store similarities saturate toward 1."""
    from heafusion.alloys import UNIVERSES

    universe = UNIVERSES["E1"][:12]
    group_a, group_b = set(universe[:6]), set(universe[6:])
    rng = random.Random(0)
    pool = list(combinations(universe, 4))
    labels = [(set(elems) <= group_a or set(elems) <= group_b) != (rng.random() < 0.1) for elems in pool]
    return Dataset("dense", tuple(map(Alloy, pool)), labels, universe)


def combine_weights(*ms: BinaryMass) -> BinaryMass:
    """Dempster's rule as the library applies it: the masses' weights of
    evidence summed and read out once."""
    weights = [to_weights(*m.as_tuple()) for m in ms]
    return BinaryMass(*from_weights(sum(w for w, _ in weights), sum(w for _, w in weights)))


def mass_store(entries) -> SimilarityStore:
    """Store of {(side, side): (m_first, m_second, m_both)} entries, each
    mass held as its weights of evidence."""
    return SimilarityStore.from_entries(
        {CombinationPair(a, b): to_weights(*m) for (a, b), m in entries.items()}
    )


def planted_group_store(
    group_a: tuple[str, ...], group_b: tuple[str, ...], strength: float = 0.95
) -> SimilarityStore:
    """Single-element pairs within a group marked similar with the given
    strength; cross-group pairs marked dissimilar."""
    entries = {}
    universe = sorted(group_a + group_b)
    group_a_set = set(group_a)
    for x, y in combinations(universe, 2):
        same = (x in group_a_set) == (y in group_a_set)
        if same:
            entries[(x,), (y,)] = (strength, 0.0, 1.0 - strength)
        else:
            entries[(x,), (y,)] = (0.0, strength, 1.0 - strength)
    return mass_store(entries)
