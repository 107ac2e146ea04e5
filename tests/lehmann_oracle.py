"""Direct high-precision evaluation of the Lehmann-alternative law, kept as an
oracle for the recurrences in maxpe.lehmann.

Every frequency vector of each side is enumerated and its Beta chain
evaluated, with B(x, b) = (b-1)! / (x (x+1) ... (x+b-1)) for whole b.
Vectors are grouped by (largest cell, cell total), and the groups are
crossed through the alternating Beta sum, added term by term at a
precision doubled until two evaluations agree. The side tables' former
recurrence over totals is kept as the bit-level oracle of their
by-largest-cell one.
"""

import itertools
import math
import random
from functools import lru_cache
from itertools import accumulate
from operator import add

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


def side(length, top, logs, peak):
    """maxpe.lehmann._side by its former recurrence over totals, kept to
    check the by-largest-cell version bit for bit: (scale, rows) with
    exp(scale[t]) * rows[i][t - i] the sum, over the vectors of `length`
    cells with total t <= top and largest cell i <= peak, of their chain
    factors over their cell factorials.

    After k cells total t keeps its states from its least largest cell
    first[t] = ceil(t / k) to min(t, peak). Cell k >= 1 reads f[t] =
    logs(k, t); the move from total t to u = t + v weighs exp(h(t) - H(u)),
    h(t) = scale[t] + f[t] and H(u) the largest h(t') over the totals that
    reach u, and H(u) - f[u + 1] goes into scale[u]. Totals run high to
    low and each adds its moves with t ascending: a move adds the states
    below v as one product with a running sum of the row, then each state
    from max(v, first[t]) on to one entry."""
    reach = min(top, peak)  # the largest total the cells so far hold
    first = list(range(reach + 1))
    # the first cell holds the whole total u, of weight 1 / u! = exp(-f[u + 1])
    scale = [-x for x in map(logs, [0] * (reach + 1), range(1, reach + 2))]
    scale += [-math.inf] * (top - reach)
    w = [[1.0]] * (reach + 1)  # w[total][largest - first[total]]
    for k in range(1, length):
        grown = min(top, (k + 1) * peak)
        f = [logs(k, t) for t in range(grown + 2)]
        h = list(map(add, scale, f))
        prefix = [list(accumulate(row, initial=0.0)) for row in w]  # sum(row[:j])
        band = [-(-u // (k + 1)) for u in range(grown + 1)]
        w += [[]] * (grown - reach)
        # totals high to low: total u reads only the states t <= u, not yet
        # replaced, and adds their moves with t ascending
        for u in range(grown, -1, -1):
            lo = u - peak if u > peak else 0
            reached = h[lo : (u if u < reach else reach) + 1]
            h_max = max(reached)
            moves = [math.exp(h_t - h_max) for h_t in reached]  # moves[t - lo]
            half, b = (u + 1) // 2, band[u]
            # a cell v = u - t above every state of t < half sets their
            # running max: out[v - b] is one product with the row's sum
            out = [0.0] * ((u - half if u - half < peak else peak) + 1 - b) + [
                moves[t - lo] * prefix[t][-1] for t in range(half - 1, lo - 1, -1)
            ]
            for t in range(half if half > lo else lo, lo + len(moves)):
                v, c, row, a = u - t, moves[t - lo], w[t], first[t]
                # the states from i to min(t, peak) keep their largest cell
                i, end = a, (t if t < peak else peak) + 1 - b
                if v > a:
                    out[v - b] += c * prefix[t][v - a]
                    i = v
                out[i - b : end] = [o + c * x for o, x in zip(out[i - b : end], row[i - a :])]
            most = max(out)
            scale[u] = h_max - f[u + 1] + math.log(most)
            w[u] = [x / most for x in out]
        first, reach = band, grown
    return scale, [
        [w[t][i - first[t]] for t in range(i, min(length * i, top) + 1)]
        for i in range(min(top, peak) + 1)
    ]


def side_mismatches(lengths, tops, peaks, gammas):
    """The (length, top, peak, gamma, table) at which maxpe.lehmann._side
    and side differ in scale or rows, compared with ==; peaks(top) gives
    the peaks tried at each top. Each gamma is tried with the precedence
    logs and with the exceedance logs of m = top, n = length + 9."""
    from maxpe.lehmann import _exceedance_logs, _precedence_logs, _side

    bad = []
    for length, top, gamma in itertools.product(lengths, tops, gammas):
        tables = {
            "precedence": _precedence_logs(gamma),
            "exceedance": _exceedance_logs(top, length + 9, gamma),
        }
        for table, logs in tables.items():
            logs = lru_cache(maxsize=None)(logs)
            for peak in peaks(top):
                if _side(length, top, logs, peak) != side(length, top, logs, peak):
                    bad.append((length, top, peak, gamma, table))
    return bad
