"""Exact rational law of the max-sum statistic under G = F^gamma, by
enumerating rank orders: an oracle for maxpe.lehmann that shares none of its
recurrences, Beta sums or floating point.

Savage (1956, Ann. Math. Statist. 27) gives the probability of one rank
order of m X ~ F and n Y ~ G = F^gamma as

    m! n! gamma^n / prod_{j=1}^{m+n} (x_j + gamma y_j),

x_j and y_j counting the X and the Y among the j smallest values. With a
rational gamma every probability is a Fraction, and the C(m + n, n) orders
are few enough to list at desk scale.
"""

import math
from fractions import Fraction
from itertools import combinations

from maxpe.statistics import statistic_bundle

ORDER_LIMIT = 5000  # rank orders enumerated at most


def alternative_pmf(m, n, r, s, gamma):
    """P[T = t], t = 0..m, as Fractions, for a rational gamma."""
    if math.comb(m + n, n) > ORDER_LIMIT:
        raise ValueError(f"C({m + n}, {n}) rank orders exceed {ORDER_LIMIT}")
    gamma = Fraction(gamma)
    scale = math.factorial(m) * math.factorial(n) * gamma**n
    pmf = [Fraction(0)] * (m + 1)
    for y_positions in combinations(range(m + n), n):
        is_y = [False] * (m + n)
        for position in y_positions:
            is_y[position] = True
        denominator, x_count, y_count = Fraction(1), 0, 0
        for y in is_y:
            x_count, y_count = x_count + (not y), y_count + y
            denominator *= x_count + gamma * y_count
        x = [float(p) for p in range(m + n) if not is_y[p]]
        t = statistic_bundle(x, [float(p) for p in y_positions], r, s).max_sum
        pmf[t] += scale / denominator
    return pmf


def power(pmf, c, alpha1, alpha2, alpha):
    """Rejection probability of the randomized size-alpha test with critical
    value c and attained sizes alpha1 (at c) and alpha2 (at c - 1), all exact."""
    reject = sum(pmf[c:], Fraction(0))
    if alpha2 > alpha1:
        reject += (alpha - alpha1) / (alpha2 - alpha1) * pmf[c - 1]
    return reject
