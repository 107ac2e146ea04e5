"""Exact counting primitives and log-domain special functions.

Integer counts use Python's arbitrary-precision arithmetic; nothing here
rounds. log_beta works in the log domain because the Beta-chain products
used by the alternative-distribution code underflow double precision long
before the final probabilities do.

Everything is a pure function. The package itself does not call the public
bounded_composition_count: the null kernel forms its side rows from one
binomial column per side (null_dist._side_rows). The counter keeps its
lru_cache because the benchmark harness in perfbench/ reads the cache's
counters on every run.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "binomial",
    "log_beta",
    "bounded_composition_count",
]


def binomial(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-range k gives 0."""
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def _del(x: float) -> float:
    """Stirling-series correction term, lgamma(x) = (x - 1/2) ln x - x +
    ln(2 pi)/2 + _del(x); accurate to ~1e-16 for x >= 10. Horner's rule over
    the series 1/12, -1/360, 1/1260, -1/1680, 1/1188, -691/360360, 1/156 in
    1/x^2, written out: the compiler folds each coefficient to one constant."""
    inv2 = 1.0 / (x * x)
    return (
        ((((((1 / 156 * inv2 - 691 / 360360) * inv2 + 1 / 1188) * inv2 - 1 / 1680) * inv2
            + 1 / 1260) * inv2 - 1 / 360) * inv2 + 1 / 12) / x
    )


def log_beta(a: float, b: float) -> float:
    """ln B(a, b) = ln G(a) + ln G(b) - ln G(a+b) for positive a, b.

    The naive three-lgamma form loses absolute accuracy when the result is
    small but the lgamma terms are large (unbalanced arguments), so large
    arguments are handled through Stirling-corrected differences instead.
    """
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"log_beta requires positive arguments, got ({a}, {b})")
    p, q = (a, b) if a <= b else (b, a)
    if q < 10.0:
        return math.lgamma(p) + math.lgamma(q) - math.lgamma(p + q)
    if p < 10.0:
        # ln G(q) - ln G(p+q), cancellation-free for q >= 10
        diff = (
            -(q - 0.5) * math.log1p(p / q)
            - p * math.log(p + q)
            + p
            + _del(q)
            - _del(p + q)
        )
        return math.lgamma(p) + diff
    return (
        -(p - 0.5) * math.log1p(q / p)
        - q * math.log1p(p / q)
        - 0.5 * math.log(q)
        + 0.5 * math.log(2.0 * math.pi)
        + _del(p)
        + _del(q)
        - _del(p + q)
    )


@lru_cache(maxsize=4096)
def bounded_composition_count(total: int, boxes: int, cap: int) -> int:
    """Ordered tuples of `boxes` non-negative integers summing to `total`
    with every part at most `cap`.

    Inclusion-exclusion over the parts forced past the cap. A negative cap
    counts only the empty sum: 1 when total == 0, else 0 (the convention
    callers rely on when differencing at cap = -1).
    """
    if total < 0:
        return 0
    if cap < 0 or boxes == 0:
        return 1 if total == 0 else 0
    count = 0
    for j in range(boxes + 1):
        rem = total - j * (cap + 1)
        if rem < 0:
            break
        term = binomial(boxes, j) * binomial(rem + boxes - 1, boxes - 1)
        count += term if j % 2 == 0 else -term
    return count
