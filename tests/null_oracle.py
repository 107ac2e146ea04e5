"""Direct O(m^4) evaluation of the null law, kept as an oracle for the kernel.

Every joint cell (i, j) convolves the precedence and exceedance composition
counts afresh for each cell total, exactly as the formula reads, each count
a difference of two capped counts rather than a row of the kernel's.
"""

from fractions import Fraction

from maxpe.combinatorics import binomial, bounded_composition_count


def exact_max_composition_count(total, boxes, peak):
    """Ordered tuples of `boxes` non-negative integers summing to `total`
    whose largest part equals `peak` exactly.

    Difference of two capped counts; peak 0 admits only the all-zero tuple.
    """
    if peak < 0:
        return 0
    if peak == 0:
        return 1 if total == 0 else 0
    return bounded_composition_count(total, boxes, peak) - bounded_composition_count(
        total, boxes, peak - 1
    )


def _convolution(r, s, i, j, total):
    lo = max(0, total - s * j)
    hi = min(total, r * i)
    return sum(
        exact_max_composition_count(n1, r, i) * exact_max_composition_count(total - n1, s, j)
        for n1 in range(lo, hi + 1)
    )


def joint_cell(m, n, r, s, i, j):
    """P[max precedence = i, max exceedance = j] under the null."""
    free = n - r - s
    num = sum(
        _convolution(r, s, i, j, total) * binomial(m - total + free, free)
        for total in range(min(m, r * i + s * j) + 1)
    )
    return Fraction(num, binomial(m + n, n))


def null_pmf(m, n, r, s, t_max=None):
    top = m if t_max is None else min(t_max, m)
    return tuple(
        sum((joint_cell(m, n, r, s, i, t - i) for i in range(t + 1)), Fraction(0))
        for t in range(top + 1)
    )


def asymptotic_cdf(r, s, t, n_max=40):
    """Float accumulation of the large-sample cdf, term by term."""
    acc = 0.0
    for k in range(t + 1):
        for i in range(k + 1):
            j = k - i
            for total in range(min(n_max, r * i + s * j) + 1):
                conv = _convolution(r, s, i, j, total)
                if conv:
                    acc += conv * 0.5 ** (total + r + s)
    return acc
