"""Direct high-precision evaluation of the Lehmann-alternative law, kept as an
oracle for the recurrences in maxpe.lehmann.

Every frequency vector of each side is enumerated and its Beta chain
evaluated, with B(x, b) = (b-1)! / (x (x+1) ... (x+b-1)) for whole b.
Vectors are grouped by (largest cell, cell total), and the groups are
crossed through the alternating Beta sum, added term by term at a
precision doubled until two evaluations agree.
"""

import math
import random
from functools import lru_cache

import mpmath

DPS = 40  # digits of the chains and the cross step, where nothing cancels


def _compositions_up_to(length, total):
    """All tuples of `length` non-negative integers with sum <= total."""
    if length == 0:
        yield ()
        return
    for first in range(total + 1):
        for rest in _compositions_up_to(length - 1, total - first):
            yield (first, *rest)


@lru_cache(maxsize=None)
def _beta(whole, times, b, gamma, dps):
    """B(whole + times * gamma, b) at dps digits; b is a whole number."""
    with mpmath.workdps(dps):
        x = whole + times * mpmath.mpf(gamma)
        return math.factorial(b - 1) / mpmath.fprod(x + i for i in range(b))


def _precedence_chain(f_p, gamma):
    acc, partial = mpmath.mpf(1), f_p[0]
    for k in range(1, len(f_p)):
        acc *= _beta(partial, k, f_p[k] + 1, gamma, DPS)
        partial += f_p[k]
    return acc


def _exceedance_chain(f_e, m, n, s, gamma):
    # B(m + gamma (n - s) - tail + k gamma, f + 1), tail the suffix sum from cell k
    acc, tail = mpmath.mpf(1), sum(f_e)
    for k in range(1, s + 1):
        acc *= _beta(m - tail, n - s + k, f_e[k - 1] + 1, gamma, DPS)
        tail -= f_e[k - 1]
    return acc


def _grouped_side(length, m, chain):
    """Sum of chain(vector) / prod(cell factorials) per (cell max, cell total)."""
    groups = {}
    for vec in _compositions_up_to(length, m):
        key = (max(vec), sum(vec))
        weight = chain(vec) / math.prod(math.factorial(v) for v in vec)
        groups[key] = groups.get(key, 0) + weight
    return groups


def _alternating_terms(n1, t, m, q, r, gamma):
    dps = mpmath.mp.dps
    return mpmath.fsum(
        (-1) ** l * math.comb(q, l) * _beta(n1, r + l, m - t + 1, gamma, dps)
        for l in range(q + 1)
    )


def beta_sum(n1, t, m, q, r, gamma):
    """sum_l (-1)^l C(q, l) B(n1 + r*gamma + gamma*l, m - t + 1), to 50 digits."""
    dps = 60
    while True:
        with mpmath.workdps(dps):
            low = _alternating_terms(n1, t, m, q, r, gamma)
        with mpmath.workdps(2 * dps):
            high = _alternating_terms(n1, t, m, q, r, gamma)
            if abs(high - low) <= abs(high) * mpmath.mpf(10) ** -50:
                return high
        dps *= 2


def alternative_pmf(m, n, r, s, gamma):
    """pmf of the max-sum statistic under G = F^gamma, as floats."""
    q = n - r - s
    with mpmath.workdps(DPS):
        g = mpmath.mpf(gamma)
        c0 = (
            mpmath.factorial(m) * mpmath.factorial(n) / mpmath.factorial(q)
            * g ** (r + s)
        )
        side_p = _grouped_side(r, m, lambda vec: _precedence_chain(vec, gamma))
        side_e = _grouped_side(s, m, lambda vec: _exceedance_chain(vec, m, n, s, gamma))
        sums = {}
        pmf = [mpmath.mpf(0)] * (m + 1)
        for (i, n1), w_p in side_p.items():
            for (j, n2), w_e in side_e.items():
                t = n1 + n2
                if t > m:
                    continue
                if (n1, t) not in sums:
                    sums[n1, t] = beta_sum(n1, t, m, q, r, gamma)
                pmf[i + j] += c0 * w_p * w_e * sums[n1, t] / mpmath.factorial(m - t)
        return [float(p) for p in pmf]


def log_beta_sums(n1, b, q, r, gamma, count):
    """ln S_k, k < count, of maxpe.lehmann._beta_sums, from the alternating
    sums S_k = sum_l (-1)^l C(q, l) B(n1 + r*gamma + gamma*l + k, b - k)
    added term by term at 60 + 2q digits, or more where a sum cancels so far
    that fewer than 30 digits would be left."""
    dps = 60 + 2 * q
    while True:
        with mpmath.workdps(dps):
            g = mpmath.mpf(gamma)
            x = [n1 + r * g + g * l for l in range(q + 1)]
            terms = [
                (-1) ** l * math.comb(q, l) * math.factorial(b - 1)
                / mpmath.fprod(x_l + i for i in range(b))
                for l, x_l in enumerate(x)
            ]
            logs, lost = [], 0
            for k in range(count):
                total = mpmath.fsum(terms)
                magnitude = mpmath.fsum(terms, absolute=True)
                lost = max(lost, mpmath.log10(magnitude / total) if total > 0 else dps)
                logs.append(mpmath.log(total))
                if k + 1 < count:
                    terms = [t * (x_l + k) / (b - 1 - k) for t, x_l in zip(terms, x)]
            if dps - lost >= 30:
                return logs
        dps = int(lost) + 60


def beta_sum_shapes(count, seed=17):
    """`count` seeded (n1, b, q, r, gamma, count) of _beta_sums, every k
    read: q = 0 in about one in eight, up to 300 otherwise (n >> m), gamma
    2^u with u uniform on [-6, 9], and n1 > 0 with b < m + 1, as for one
    frequency vector, in about half; n1 = 0, b = m + 1 otherwise, as for the
    diagonal of a law."""
    rnd = random.Random(seed)
    shapes = []
    for _ in range(count):
        m = rnd.randint(1, 40)
        n1 = rnd.randint(1, m) if rnd.random() < 0.5 else 0
        b = rnd.randint(1, m + 1 - n1) if n1 else m + 1
        q = 0 if rnd.random() < 0.125 else rnd.randint(1, 300)
        shapes.append((n1, b, q, rnd.randint(1, 10), 2 ** rnd.uniform(-6, 9), b))
    return shapes


def beta_sum_errors(shapes):
    """Per shape, the largest distance of _beta_sums' ln S_k from
    log_beta_sums, in units in the last place of max(1, |ln S_k|)."""
    from maxpe.lehmann import _beta_sums

    errors = []
    for shape in shapes:
        exact = log_beta_sums(*shape)
        with mpmath.workdps(40):
            errors.append(max(
                float(abs(mpmath.mpf(got) - e)) / math.ulp(max(1.0, abs(float(e))))
                for got, e in zip(_beta_sums(*shape), exact, strict=True)
            ))
    return errors
