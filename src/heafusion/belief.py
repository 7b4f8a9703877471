"""Dempster-Shafer algebra over two-element frames of discernment, held
as weights of evidence.

A mass on a two-outcome frame is a triple (m_first, m_second, m_both) of
non-negative floats summing to 1: the first singleton, the second
singleton, and the full frame (ignorance). The same triples serve both
frames used in this package: {similar, dissimilar} for substitutability
evidence and {positive, negative} for phase predictions; the frame
semantics live at the call site.

Simple support on one outcome with strength s carries the weight of
evidence w = -ln(1 - s), and every mass with m_both > 0 is the Dempster
combination of simple support on each outcome (Smets 1995; Denoeux 2019).
Dempster's rule therefore adds the weights of evidence for the same
outcome, so the library holds evidence as one weight per outcome, pools it
by addition, and reads the sums out once: `from_weights` gives the mass,
`pignistic` the point probability of the first outcome. `to_weights` is
the inverse of `from_weights` and `discount_weights` applies reliability
discounting to weights. Every function takes floats or arrays.

All operations are pure functions, so they are safe to share across
threads.
"""

from __future__ import annotations

import numpy as np

from .errors import GammaOutOfRange, TotalConflict


def _scalar_or_array(values: tuple, ndim: int) -> tuple:
    return tuple(float(x) for x in values) if ndim == 0 else values


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
    return _scalar_or_array((first / total, second / total, both / total), total.ndim)


def to_weights(m_first, m_second, m_both):
    """(w_first, w_second) with `from_weights(w_first, w_second)` equal to
    the mass: w = ln(1 + m / m_both) per outcome.

    Where m_both is 0 a committed outcome has infinite weight and an empty
    one weight 0; a mass with both singletons positive and m_both 0 has no
    weights and raises ValueError. Floats or arrays, as in `from_weights`.
    """
    first, second, both = np.broadcast_arrays(*(np.asarray(m, dtype=float) for m in (m_first, m_second, m_both)))
    if np.any((both == 0.0) & (first > 0.0) & (second > 0.0)):
        raise ValueError("a mass with both singletons positive and no ignorance has no weights of evidence")
    weights = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for m in (first, second):
            w = np.log1p(m / both, out=np.empty(both.shape))
            # m / m_both overflows only for a subnormal m_both, where m dwarfs it
            over = np.isinf(w) & (both > 0.0)
            if over.any():
                w[over] = np.log(m[over]) - np.log(both[over])
            w[m == 0.0] = 0.0
            weights.append(w)
    return _scalar_or_array(tuple(weights), both.ndim)


def discount_weights(w_first, w_second, gamma: float):
    """Weights (w_first, w_second) discounted by reliability gamma: the
    committed mass of their readout scaled by gamma, the rest moved to the
    frame. gamma = 1 returns the weights themselves, gamma = 0 gives (0, 0).
    Floats or arrays, as in `from_weights`."""
    if not 0.0 <= gamma <= 1.0:
        raise GammaOutOfRange(f"gamma must lie in [0, 1], got {gamma!r}")
    if gamma == 1.0:
        return w_first, w_second
    m_first, m_second, m_both = from_weights(w_first, w_second)
    return to_weights(gamma * m_first, gamma * m_second, 1.0 - gamma + gamma * m_both)


def pignistic(w_first, w_second):
    """Pignistic probability of the first outcome under weights w_first and
    w_second: the first mass of their `from_weights` readout plus half its
    ignorance. Swapping the arguments gives the second outcome's, exactly,
    as `from_weights` swaps its masses. Floats or arrays, as in
    `from_weights`."""
    m_first, _, m_both = from_weights(w_first, w_second)
    return m_first + m_both / 2.0
