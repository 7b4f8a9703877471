"""Belief algebra: worked examples and algebraic invariants.

Combination and discounting go through the library's weights of evidence
(`to_weights`, addition, `discount_weights`, `from_weights`); `conflict`
is the float Dempster reference of `oracles`."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from heafusion.belief import discount_weights, from_weights, pignistic, to_weights
from heafusion.errors import GammaOutOfRange, TotalConflict
from heafusion.md_evidence import analogy_weight

from conftest import combine_weights as combine, masses
from oracles import (
    BinaryMass,
    combine_exact,
    conflict,
    discount,
    mass_pignistic,
    support_weight,
    to_weights_reference,
    vacuous,
)

weights = st.floats(min_value=0.0, max_value=2000.0, allow_nan=False)


def combine_all(ms):
    return combine(*ms)


def has_weights(*ms: BinaryMass) -> bool:
    """Masses with finite weights of evidence: some ignorance left."""
    return all(m.m_both > 0.0 for m in ms)


def approx_mass(m: BinaryMass, expected, tol=1e-9):
    assert m.m_first == pytest.approx(float(expected[0]), abs=tol)
    assert m.m_second == pytest.approx(float(expected[1]), abs=tol)
    assert m.m_both == pytest.approx(float(expected[2]), abs=tol)


class TestValidation:
    def test_rejects_negative_component(self):
        with pytest.raises(ValueError):
            BinaryMass(-0.1, 0.4, 0.7)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            BinaryMass(0.5, 0.5, 0.5)

    def test_accepts_rounding_noise(self):
        BinaryMass(0.1, 0.2, 0.7 + 1e-12)


class TestVacuous:
    def test_definition(self):
        assert vacuous().as_tuple() == (0.0, 0.0, 1.0)

    def test_neutral_element(self):
        x = BinaryMass(0.3, 0.25, 0.45)
        approx_mass(combine(vacuous(), x), x.as_tuple(), tol=1e-12)

    def test_pignistic_is_half(self):
        assert pignistic(*to_weights(*vacuous().as_tuple())) == 0.5
        assert mass_pignistic(vacuous()) == 0.5


class TestCombine:
    def test_two_agreeing_pieces(self):
        got = combine(BinaryMass(0.1, 0, 0.9), BinaryMass(0.1, 0, 0.9))
        approx_mass(got, (0.19, 0.0, 0.81))

    def test_supplement_example_step(self):
        # fourth piece of the worked example, exact values from the
        # rational oracle
        expected = combine_exact(
            [("0.271", "0", "0.729"), ("0", "0.1", "0.9")]
        )
        got = combine(BinaryMass(0.271, 0, 0.729), BinaryMass(0, 0.1, 0.9))
        approx_mass(got, expected)
        approx_mass(got, (0.25069, 0.07493, 0.67437), tol=1e-5)

    def test_total_conflict(self):
        with pytest.raises(TotalConflict):
            combine(BinaryMass(1, 0, 0), BinaryMass(0, 1, 0))


class TestCombineAll:
    def test_worked_example(self):
        pieces = [(0.1, 0, 0.9)] * 3 + [(0, 0.1, 0.9)]
        expected = combine_exact([("0.1", "0", "0.9")] * 3 + [("0", "0.1", "0.9")])
        got = combine_all([BinaryMass(*p) for p in pieces])
        approx_mass(got, expected, tol=1e-12)
        # the published rounded triple is within 2e-3
        approx_mass(got, (0.25, 0.075, 0.675), tol=2e-3)

    def test_empty_list(self):
        assert combine_all([]).as_tuple() == (0.0, 0.0, 1.0)

    @given(st.permutations(list(range(4))))
    def test_permutation_invariance(self, order):
        pieces = [
            BinaryMass(0.1, 0, 0.9),
            BinaryMass(0, 0.2, 0.8),
            BinaryMass(0.3, 0.1, 0.6),
            BinaryMass(0.05, 0.05, 0.9),
        ]
        base = combine_all(pieces)
        shuffled = combine_all([pieces[i] for i in order])
        approx_mass(shuffled, base.as_tuple(), tol=1e-12)


class TestDiscount:
    def test_identity_at_one(self):
        w = to_weights(0.4, 0.2, 0.4)
        assert discount_weights(*w, 1.0) == w

    def test_vacuous_at_zero(self):
        assert discount_weights(*to_weights(0.4, 0.2, 0.4), 0.0) == (0.0, 0.0)

    def test_half(self):
        got = BinaryMass(*from_weights(*discount_weights(*to_weights(0.4, 0.2, 0.4), 0.5)))
        approx_mass(got, (0.2, 0.1, 0.7), tol=1e-12)

    def test_certain_mass(self):
        # a certain similarity discounted by gamma is simple support gamma
        assert discount_weights(math.inf, 0.0, 0.75) == pytest.approx((-math.log(0.25), 0.0), abs=1e-15)

    @pytest.mark.parametrize("gamma", [-0.01, 1.01, math.nan])
    def test_out_of_range(self, gamma):
        with pytest.raises(GammaOutOfRange):
            discount_weights(0.0, 0.0, gamma)

    @given(masses(), st.floats(0, 1))
    def test_matches_mass_discount(self, m, gamma):
        assume(has_weights(m))
        got = BinaryMass(*from_weights(*discount_weights(*to_weights(*m.as_tuple()), gamma)))
        approx_mass(got, discount(m, gamma).as_tuple(), tol=1e-12)

    def test_arrays_match_scalars(self):
        w1 = np.array([0.0, 0.3, 5.0, 800.0, math.inf])
        w2 = np.array([0.0, 1.2, 5.0, 2.0, 4.0])
        got = discount_weights(w1, w2, 0.3)
        for i in range(len(w1)):
            for g, w in zip(got, discount_weights(float(w1[i]), float(w2[i]), 0.3)):
                assert g[i] == pytest.approx(w, abs=1e-15)


class TestToWeights:
    def test_inverts_from_weights(self):
        for w1, w2 in [(0.0, 0.0), (0.1, 0.2), (2.5, 0.7), (0.0, 4.0), (30.0, 31.0)]:
            assert to_weights(*from_weights(w1, w2)) == pytest.approx((w1, w2), rel=1e-12, abs=1e-15)

    def test_simple_support(self):
        assert to_weights(0.25, 0.0, 0.75) == (math.log1p(1 / 3), 0.0)

    def test_certain_outcome_is_infinite(self):
        assert to_weights(1.0, 0.0, 0.0) == (math.inf, 0.0)
        assert to_weights(0.0, 1.0, 0.0) == (0.0, math.inf)

    def test_no_ignorance_on_both_sides_has_no_weights(self):
        with pytest.raises(ValueError):
            to_weights(0.5, 0.5, 0.0)

    def test_subnormal_ignorance_stays_finite(self):
        w1, w2 = to_weights(0.3, 0.7, 5e-324)
        assert w1 == pytest.approx(math.log(0.3) - math.log(5e-324), rel=1e-15)
        assert w2 == pytest.approx(math.log(0.7) - math.log(5e-324), rel=1e-15)

    @given(masses())
    def test_round_trip(self, m):
        assume(has_weights(m))
        approx_mass(BinaryMass(*from_weights(*to_weights(*m.as_tuple()))), m.as_tuple(), tol=1e-12)

    @pytest.mark.parametrize("seed, kind", enumerate(["zeros", "subnormal-both", "inf", "random"]))
    def test_bits_match_the_everywhere_fallback(self, seed, kind):
        """The overflow fallback, computed only where m / m_both
        overflows, gives the same bits as computing it for every entry."""
        rng = np.random.default_rng(seed)
        n = 1000
        m = rng.dirichlet((1.0, 1.0, 1.0), n)
        if kind == "zeros":
            m[rng.random(n) < 0.3, 0] = 0.0
            m[rng.random(n) < 0.3, 1] = 0.0
            m[rng.random(n) < 0.1, 2] = 0.0
            m[m[:, 2] == 0.0, 1] = 0.0  # no ignorance leaves one singleton at most
        elif kind == "subnormal-both":
            m[: n // 2, 2] = rng.choice([5e-324, 1e-320, 2.2e-308, 1e-300], n // 2)
            m[rng.random(n) < 0.2, 0] = 0.0
        elif kind == "inf":
            m[rng.random(n) < 0.3, 2] = 0.0
            m[m[:, 2] == 0.0, 1] = 0.0
            m[rng.random(n) < 0.2, 0] = np.inf
        got, want = to_weights(*m.T), to_weights_reference(*m.T)
        for g, w in zip(got, want):
            assert g.view(np.uint64).tolist() == w.view(np.uint64).tolist()
        for i in rng.choice(n, 20, replace=False).tolist():  # scalars take the same path
            scalar = to_weights(*m[i].tolist())
            assert [np.float64(x).view(np.uint64) for x in scalar] == [w[i].view(np.uint64) for w in want]


class TestConflict:
    def test_vacuous_has_none(self):
        assert conflict(vacuous(), BinaryMass(0.9, 0.05, 0.05)) == 0.0

    def test_certain_contradiction(self):
        assert conflict(BinaryMass(1, 0, 0), BinaryMass(0, 1, 0)) == 1.0

    def test_worked_value(self):
        got = conflict(BinaryMass(0.271, 0, 0.729), BinaryMass(0, 0.1, 0.9))
        assert got == pytest.approx(0.0271, abs=1e-12)


class TestPignistic:
    @pytest.mark.parametrize(
        "mass,expected",
        [((0, 0, 1), 0.5), ((1, 0, 0), 1.0), ((0.25, 0.075, 0.675), 0.5875)],
    )
    def test_values(self, mass, expected):
        assert pignistic(*to_weights(*mass)) == pytest.approx(expected, abs=1e-12)
        assert mass_pignistic(BinaryMass(*mass)) == pytest.approx(expected, abs=1e-12)

    @given(weights, weights)
    def test_is_the_readout_of_the_mass(self, w1, w2):
        m_first, m_second, m_both = from_weights(w1, w2)
        assert pignistic(w1, w2) == mass_pignistic(BinaryMass(m_first, m_second, m_both))
        # swapped weights give the second outcome's, to the bit
        assert pignistic(w2, w1) == m_second + m_both / 2.0

    def test_arrays_match_scalars(self):
        w1 = np.array([0.0, 0.3, 5.0, 800.0, math.inf, 0.0])
        w2 = np.array([0.0, 1.2, 5.0, 2.0, 3.0, math.inf])
        got = pignistic(w1, w2)
        assert got.tolist() == [pignistic(a, b) for a, b in zip(w1.tolist(), w2.tolist())]
        assert got.tolist()[-2:] == [1.0, 0.0]
        assert pignistic(np.zeros(0), np.zeros(0)).shape == (0,)

    def test_both_infinite_is_total_conflict(self):
        with pytest.raises(TotalConflict):
            pignistic(math.inf, math.inf)


class TestProperties:
    @given(masses(), masses())
    def test_normalization_and_bounds(self, x, y):
        assume(has_weights(x, y))
        z = combine(x, y)
        assert abs(z.m_first + z.m_second + z.m_both - 1.0) <= 1e-9
        assert z.m_first >= 0 and z.m_second >= 0 and z.m_both >= 0

    @given(masses(), masses())
    def test_commutativity_exact(self, x, y):
        assume(has_weights(x, y))
        assert combine(x, y) == combine(y, x)

    @given(masses(min_both=0.01), masses(min_both=0.01), masses(min_both=0.01))
    def test_associativity(self, x, y, z):
        left = combine(combine(x, y), z)
        right = combine(x, combine(y, z))
        approx_mass(left, right.as_tuple(), tol=1e-12)

    @given(masses())
    def test_vacuous_neutrality(self, x):
        assume(has_weights(x))
        approx_mass(combine(x, vacuous()), x.as_tuple(), tol=1e-12)

    @given(masses(), st.floats(0, 1), st.floats(0, 1))
    def test_discount_monotone_in_ignorance(self, m, g1, g2):
        assume(has_weights(m))
        lo, hi = min(g1, g2), max(g1, g2)
        w = to_weights(*m.as_tuple())
        assert from_weights(*discount_weights(*w, lo))[2] >= from_weights(*discount_weights(*w, hi))[2] - 1e-12

    @given(masses())
    def test_pignistic_between_belief_and_plausibility(self, m):
        assert m.m_first - 1e-12 <= mass_pignistic(m) <= m.m_first + m.m_both + 1e-12
        assume(has_weights(m))
        assert m.m_first - 1e-12 <= pignistic(*to_weights(*m.as_tuple())) <= m.m_first + m.m_both + 1e-12

    @given(masses(min_both=0.001), masses(min_both=0.001))
    def test_matches_exact_oracle(self, x, y):
        expected = combine_exact([x.as_tuple(), y.as_tuple()])
        approx_mass(combine(x, y), expected, tol=1e-12)


class TestFromWeights:
    def test_zero_weights_are_vacuous(self):
        assert from_weights(0.0, 0.0) == (0.0, 0.0, 1.0)

    def test_one_sided_weight_is_simple_support(self):
        assert from_weights(-math.log(0.75), 0.0) == (0.25, 0.0, 0.75)

    def test_infinite_weight_is_certainty(self):
        assert from_weights(math.inf, 3.0) == (1.0, 0.0, 0.0)
        assert from_weights(3.0, math.inf) == (0.0, 1.0, 0.0)

    def test_both_infinite_is_total_conflict(self):
        with pytest.raises(TotalConflict):
            from_weights(math.inf, math.inf)
        with pytest.raises(TotalConflict):
            from_weights(np.array([1.0, math.inf]), np.array([2.0, math.inf]))

    def test_huge_equal_weights_split_evenly(self):
        m = from_weights(1e4, 1e4)
        assert m[0] == m[1] == pytest.approx(0.5, abs=1e-15)
        assert m[2] == pytest.approx(0.0, abs=1e-300)

    def test_arrays_match_scalars(self):
        w1 = np.array([0.0, 0.3, 5.0, 800.0])
        w2 = np.array([0.0, 1.2, 5.0, 2.0])
        got = from_weights(w1, w2)
        for i in range(len(w1)):
            for g, w in zip(got, from_weights(float(w1[i]), float(w2[i]))):
                assert g[i] == pytest.approx(w, abs=1e-15)

    @given(weights, weights)
    def test_swap_is_exact(self, w1, w2):
        a = from_weights(w1, w2)
        b = from_weights(w2, w1)
        assert (b[1], b[0], b[2]) == a

    @given(weights, weights)
    def test_on_simplex(self, w1, w2):
        BinaryMass(*from_weights(w1, w2))

    @given(st.lists(masses(min_both=0.01), min_size=1, max_size=6))
    def test_matches_dempster_fold_of_simple_supports(self, ms):
        # each mass contributes its first-outcome support as simple support
        pieces = [(m.m_first, 0.0, 1.0 - m.m_first) for m in ms]
        w = sum(to_weights(*piece)[0] for piece in pieces)
        expected = combine_exact(pieces)
        for g, e in zip(from_weights(w, 0.0), expected):
            assert g == pytest.approx(float(e), abs=1e-12)

    def test_matches_exact_closed_form(self):
        for w1, w2 in [(0.1, 0.2), (2.5, 0.7), (0.0, 4.0), (30.0, 31.0)]:
            p, q = Fraction(math.exp(-w1)), Fraction(math.exp(-w2))
            d = p + q - p * q
            expected = ((1 - p) * q / d, p * (1 - q) / d, p * q / d)
            for g, e in zip(from_weights(w1, w2), expected):
                assert g == pytest.approx(float(e), abs=1e-12)


class TestSupportWeight:
    """The weight of evidence -ln(1 - s) of a store entry's similarity s,
    `md_evidence.analogy_weight`, straight from the entry's weights."""

    def test_values(self):
        assert analogy_weight(np.array([0.0]), np.array([3.0]))[0] == 0.0
        half = analogy_weight(np.array([math.log(2.0)]), np.array([0.0]))[0]
        assert half == pytest.approx(math.log(2.0), abs=1e-15)
        assert analogy_weight(np.array([math.inf]), np.array([3.0]))[0] == math.inf
        assert analogy_weight(np.array([3.0]), np.array([math.inf]))[0] == 0.0

    def test_clipped_at_zero(self):
        # no evidence on similar gives weight 0 exactly, whatever the other side
        w2 = np.array([0.0, 1e-300, 0.5, 37.0, 800.0, math.inf])
        assert np.all(analogy_weight(np.zeros(len(w2)), w2) == 0.0)

    def test_saturated_support_keeps_finite_weight(self):
        # a similarity that rounds to 1 keeps its finite weight, also where
        # e^w would overflow
        for w1, w2, expected in [(40.0, 0.0, 40.0), (800.0, 0.0, 800.0), (800.0, 799.0, math.log1p(math.e))]:
            assert analogy_weight(np.array([w1]), np.array([w2]))[0] == pytest.approx(expected, rel=1e-15)

    @given(weights, weights)
    def test_matches_readout(self, w1, w2):
        assume(w1 < 700.0)  # below, 1 - s = m_second + m_both does not underflow
        _, m_second, m_both = from_weights(w1, w2)
        expected = support_weight(m_second + m_both)
        assert analogy_weight(np.array([w1]), np.array([w2]))[0] == pytest.approx(expected, rel=1e-12, abs=1e-15)
