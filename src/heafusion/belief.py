"""Dempster-Shafer algebra over two-element frames of discernment.

A :class:`BinaryMass` distributes unit probability mass over the three
non-empty subsets of a two-outcome frame: the first singleton, the second
singleton, and the full frame (ignorance). The same type serves both frames
used in this package: {similar, dissimilar} for substitutability evidence and
{positive, negative} for phase predictions; the frame semantics live at the
call site.

Simple support on one outcome with strength s carries the weight of
evidence w = -ln(1 - s), and Dempster's rule adds the weights of evidence
for the same outcome, so evidence on a two-outcome frame pools by summing
one weight per outcome and reading the sums out once with `from_weights`
(Smets 1995; Denoeux 2019).

All values are immutable and all operations are pure functions, so they are
safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

from .errors import GammaOutOfRange, TotalConflict

SUM_TOL = 1e-9
CONFLICT_LIMIT = 1.0 - 1e-12


@dataclass(frozen=True)
class BinaryMass:
    """Mass assignment (m_first, m_second, m_both) with components summing to 1."""

    m_first: float
    m_second: float
    m_both: float

    def __post_init__(self) -> None:
        for name, value in (
            ("m_first", self.m_first),
            ("m_second", self.m_second),
            ("m_both", self.m_both),
        ):
            if not value >= 0.0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")
        total = self.m_first + self.m_second + self.m_both
        if abs(total - 1.0) > SUM_TOL:
            raise ValueError(f"mass components must sum to 1, got {total!r}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.m_first, self.m_second, self.m_both)


def vacuous() -> BinaryMass:
    """Total-uncertainty mass: all weight on the full frame."""
    return BinaryMass(0.0, 0.0, 1.0)


def conflict(x: BinaryMass, y: BinaryMass) -> float:
    """Mass assigned to contradictory singleton pairs during combination."""
    return x.m_first * y.m_second + x.m_second * y.m_first


def combine_masses(x, y):
    """Normalized Dempster combination of (first, second, both) triples of
    floats or of equal-length arrays; `combine` and the array fusion share
    this arithmetic.

    Raises TotalConflict when the inputs are (numerically) fully
    contradictory, which cannot happen while either keeps m_both > 0.
    """
    x_first, x_second, x_both = x
    y_first, y_second, y_both = y
    k = x_first * y_second + x_second * y_first
    if np.any(k >= CONFLICT_LIMIT):
        worst = k if np.ndim(k) == 0 else k[np.flatnonzero(k >= CONFLICT_LIMIT)[0]]
        raise TotalConflict(f"conflict {float(worst)!r} leaves no mass to renormalize")
    # cross terms grouped so argument order cannot change the rounding;
    # normalizing by the computed sum (exactly 1 - k in real arithmetic)
    # keeps results on the simplex even under repeated combination
    first = x_first * y_first + (x_first * y_both + x_both * y_first)
    second = x_second * y_second + (x_second * y_both + x_both * y_second)
    both = x_both * y_both
    total = first + second + both
    return first / total, second / total, both / total


def combine(x: BinaryMass, y: BinaryMass) -> BinaryMass:
    """Normalized Dempster combination of two mass functions (see
    `combine_masses`)."""
    return BinaryMass(*combine_masses(x.as_tuple(), y.as_tuple()))


def combine_all(ms: Iterable[BinaryMass]) -> BinaryMass:
    """Left fold of `combine` starting from the vacuous mass."""
    return reduce(combine, ms, vacuous())


def discount_masses(m, gamma: float):
    """`discount` of a (first, second, both) triple of floats or arrays."""
    if not 0.0 <= gamma <= 1.0:
        raise GammaOutOfRange(f"gamma must lie in [0, 1], got {gamma!r}")
    m_first, m_second, m_both = m
    return gamma * m_first, gamma * m_second, 1.0 - gamma + gamma * m_both


def discount(m: BinaryMass, gamma: float) -> BinaryMass:
    """Scale committed mass by reliability gamma, moving the rest to the frame."""
    return BinaryMass(*discount_masses(m.as_tuple(), gamma))


def from_weights(w_first, w_second):
    """(m_first, m_second, m_both) of the Dempster combination of simple
    support with weight w_first on the first outcome and w_second on the
    second.

    With P = exp(-w_first) and Q = exp(-w_second) the mass is
    ((1-P)Q, P(1-Q), PQ) / (P + Q - PQ); dividing through by PQ gives
    (e^w_first - 1, e^w_second - 1, 1) / (e^w_first + e^w_second - 1),
    which is evaluated here shifted by the larger weight, as in a
    log-sum-exp, so no weight overflows or underflows and an infinite
    weight on one side reads out as certainty. Swapping the arguments
    swaps the first and second masses exactly. Weights are non-negative
    floats or arrays; arrays give arrays. Raises TotalConflict only where
    both weights are infinite.
    """
    w1 = np.asarray(w_first, dtype=float)
    w2 = np.asarray(w_second, dtype=float)
    if np.any(np.isinf(w1) & np.isinf(w2)):
        raise TotalConflict("infinite weight of evidence on both outcomes")
    both = np.exp(-np.maximum(w1, w2))
    first = np.exp(np.minimum(w1 - w2, 0.0)) - both
    second = np.exp(np.minimum(w2 - w1, 0.0)) - both
    total = first + second + both
    m = (first / total, second / total, both / total)
    return tuple(float(x) for x in m) if total.ndim == 0 else m


def support_weight(m_rest):
    """Weight of evidence -ln(1 - s) of the support s = m_first of a mass,
    given m_rest = m_second + m_both.

    Taking the logarithm of the mass left over, rather than of 1 - s,
    keeps the weight finite for supports that round to 1. Floats or
    arrays; clipped at 0 for masses whose components sum slightly above 1,
    and infinite where m_rest is 0.
    """
    with np.errstate(divide="ignore"):
        w = np.maximum(-np.log(m_rest), 0.0)
    return float(w) if np.ndim(w) == 0 else w


def pignistic(m: BinaryMass) -> float:
    """Point probability of the first outcome: split ignorance mass evenly."""
    return m.m_first + m.m_both / 2.0
