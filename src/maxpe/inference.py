"""Critical values, the randomized decision rule, and Monte-Carlo power.

The Monte-Carlo engine is built on numpy's counter-based Philox generator
(imported on first use, so the exact paths never load numpy): a (seed,
stream) pair plus a purpose/block counter prefix fully determines every
draw. Each block reduces to an integer histogram; each call runs its blocks
on a pool of one thread per available CPU and sums their histograms, so
results are bit-identical across runs and do not depend on the CPU count.

Blocks draw in rank space. T, V and Q read only the pooled order of the two
groups, and an increasing map applied to both keeps that order, so a block
never applies one: Weibull blocks (exponential ones are shape 1) keep the
standard exponentials E that numpy's Weibull raises to 1 / shape, with the
scale raised to the shape, and Lehmann blocks skip x ** (1 / gamma) at
gamma = 1. Only draws within rounding of each other can change order under
a skipped map, about 1e-10 per row. sample_pair returns real values.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .errors import ParameterError
from .null_dist import null_distribution
from .statistics import Sample, _validate_params

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SeededRng",
    "AlternativeSpec",
    "CriticalValue",
    "RandomizedDecision",
    "PowerEstimate",
    "critical_value",
    "randomized_decision",
    "sample_pair",
    "mc_power",
    "power_row",
    "table_experiment",
    "POWER_COLUMNS",
]

_U64 = 2**64
_BLOCK = 8192
# approximate bytes of each row chunk of y drawn inside a block
_CHUNK_BYTES = 4 * 2**20

# purpose codes keep the power-sampling and null-calibration draw streams
# disjoint for a given (seed, stream)
_PURPOSE_POWER = 1
_PURPOSE_CALIBRATION = 2
_PURPOSE_DECISION = 3

_MIN_MC_REPS = 10**3
_MIN_CALIBRATION_REPS = 10**4

Number = Union[float, Fraction]


class SeededRng(namedtuple("SeededRng", "seed stream")):
    """Reproducible random source: a Philox key (seed, stream).

    Identical (seed, stream) pairs reproduce identical draw sequences on
    any platform; distinct streams are statistically independent.
    """

    __slots__ = ()

    def __new__(cls, seed: int, stream: int = 0) -> "SeededRng":
        for name, v in (("seed", seed), ("stream", stream)):
            if not 0 <= v < _U64:
                raise ParameterError(f"{name} must be an unsigned 64-bit integer")
        return super().__new__(cls, seed, stream)

    def generator(self, purpose: int = 0, block: int = 0) -> np.random.Generator:
        """Generator for one (purpose, block) cell of the counter space.

        Blocks are spaced 2^64 counter steps apart, far beyond any block's
        consumption, so they never overlap.
        """
        import numpy as np

        bit_generator = np.random.Philox(
            key=np.array([self.seed, self.stream], dtype=np.uint64),
            counter=np.array([0, block, purpose, 0], dtype=np.uint64),
        )
        return np.random.Generator(bit_generator)


class AlternativeSpec(
    namedtuple("AlternativeSpec", "kind gamma rate shape scale varied")
):
    """How to draw a sample pair: Lehmann, exponential, or Weibull.

    The varied parameter (gamma, rate, or scale) applies to the group named
    by `varied`; the other group follows the baseline (uniform, unit-rate
    exponential, or unit-scale Weibull of the same shape).
    """

    __slots__ = ()
    # each kind's parameters, the varied one last
    KINDS = {"lehmann": ("gamma",), "exponential": ("rate",), "weibull": ("shape", "scale")}

    def __new__(
        cls,
        kind: str,
        gamma: Optional[float] = None,
        rate: Optional[float] = None,
        shape: Optional[float] = None,
        scale: Optional[float] = None,
        varied: str = "test",
    ) -> "AlternativeSpec":
        self = super().__new__(cls, kind, gamma, rate, shape, scale, varied)
        if kind not in cls.KINDS:
            raise ParameterError(f"unknown alternative kind {kind!r}")
        if varied not in ("test", "training"):
            raise ParameterError("varied group must be 'test' or 'training'")
        for name in cls.KINDS[kind]:
            value = getattr(self, name)
            if value is None or not (value > 0 and math.isfinite(value)):
                raise ParameterError(
                    f"{kind} alternative needs positive {name}, got {value}"
                )
        return self

    @classmethod
    def lehmann(cls, gamma: float, varied: str = "test") -> "AlternativeSpec":
        return cls(kind="lehmann", gamma=gamma, varied=varied)

    @classmethod
    def exponential(cls, rate: float, varied: str = "test") -> "AlternativeSpec":
        return cls(kind="exponential", rate=rate, varied=varied)

    @classmethod
    def weibull(cls, shape: float, scale: float, varied: str = "test") -> "AlternativeSpec":
        return cls(kind="weibull", shape=shape, scale=scale, varied=varied)

    @property
    def varied_value(self) -> float:
        return getattr(self, self.KINDS[self.kind][-1])

    def describe(self) -> str:
        params = (f"{name}={getattr(self, name):g}" for name in self.KINDS[self.kind])
        return f"{self.kind}({', '.join(params)})"


class CriticalValue(NamedTuple):
    c: int
    alpha1: Number
    alpha2: Number


class RandomizedDecision(NamedTuple):
    """Outcome of the randomized rule: reject at or above c, randomize at c-1."""

    t_observed: int
    c: int
    alpha1: Number
    alpha2: Number
    phi: Number
    outcome: str  # "reject", "accept", or "randomized"
    rejected: bool


class PowerEstimate(NamedTuple):
    power: float
    std_error: Optional[float]  # None for an exact power
    c: int
    alpha1: float
    alpha2: float


# the columns of a power-grid row: its cell, then its PowerEstimate
POWER_COLUMNS = ("m", "n", "r", "s", "statistic", "alternative", "param", "alpha",
                 *PowerEstimate._fields)


def critical_value(
    m: int,
    n: int,
    r: int,
    s: int,
    alpha: float,
    method: str = "exact",
    reps: int = 100_000,
    rng: Optional[SeededRng] = None,
) -> CriticalValue:
    """Minimal c whose upper-tail null mass is at most alpha.

    Exact method returns Fractions for the attained tail masses alpha1
    (at c) and alpha2 (at c - 1); the Monte-Carlo method returns empirical
    estimates and requires at least 10^4 replicates.
    """
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    if method == "exact":
        dist = null_distribution(m, n, r, s)
        # P[T >= c] = 1 - cdf(c - 1) <= alpha, compared exactly; cdf(m) = 1
        bound = 1 - Fraction(alpha)
        c = next(t for t, cdf in enumerate(dist.cdf_values, 1) if cdf >= bound)
        return CriticalValue(c, dist.tail(c), dist.tail(c - 1))
    if method == "monte_carlo":
        if reps < _MIN_CALIBRATION_REPS:
            raise ParameterError(
                f"Monte-Carlo calibration needs at least {_MIN_CALIBRATION_REPS} replicates"
            )
        _validate_params(m, n, r, s)
        rng = rng if rng is not None else SeededRng(0)
        runs = [(_PURPOSE_CALIBRATION, AlternativeSpec.lehmann(1.0), reps)]
        (counts,) = _histograms(rng, (m, n, r, s, "T"), runs)
        return _mc_critical_value(counts, reps, alpha)
    raise ParameterError(f"unknown method {method!r}")


def _one_like(value: Number) -> Number:
    return Fraction(1) if isinstance(value, Fraction) else 1.0


def _phi(alpha: Number, alpha1: Number, alpha2: Number) -> Number:
    """The randomization weight at c - 1, (alpha - alpha1) / (alpha2 - alpha1),
    or 0 in alpha1's number type when no mass sits at c - 1."""
    return (alpha - alpha1) / (alpha2 - alpha1) if alpha2 > alpha1 else alpha1 * 0


def randomized_decision(
    t_observed: int,
    c: int,
    alpha: Number,
    alpha1: Number,
    alpha2: Number,
    rng: Optional[SeededRng] = None,
) -> RandomizedDecision:
    """Apply the randomized rule to one observed statistic value.

    Rejects outright at or above c; at c - 1 rejects with probability
    (alpha - alpha1) / (alpha2 - alpha1), drawing the auxiliary uniform
    from `rng`. Fraction inputs keep phi exact.
    """
    if not alpha1 <= alpha <= alpha2:
        raise ParameterError(
            f"need alpha1 <= alpha <= alpha2, got {alpha1}, {alpha}, {alpha2}"
        )
    if t_observed >= c:
        phi: Number = _one_like(alpha1)
        return RandomizedDecision(t_observed, c, alpha1, alpha2, phi, "reject", True)
    if t_observed == c - 1 and alpha2 > alpha1:
        phi = _phi(alpha, alpha1, alpha2)
        generator = (rng if rng is not None else SeededRng(0)).generator(
            purpose=_PURPOSE_DECISION
        )
        u = generator.random()
        return RandomizedDecision(
            t_observed, c, alpha1, alpha2, phi, "randomized", bool(u < phi)
        )
    phi = _one_like(alpha1) * 0
    return RandomizedDecision(t_observed, c, alpha1, alpha2, phi, "accept", False)


def _draw_group(
    alt: AlternativeSpec, generator: np.random.Generator, shape: tuple, varied: bool,
    ranks: bool = False,
) -> np.ndarray:
    """One group's draws from the baseline, transformed in place if `varied`.

    An exponential of rate lambda is the Weibull of shape 1 and scale
    1 / lambda. With `ranks`, Weibull draws are numpy's standard exponentials
    E (its Weibull is E ** (1 / shape)), the varied group's scale raised to
    the shape: the pooled order of the real draws, up to rounding.
    """
    if alt.kind == "lehmann":
        values = generator.random(shape)
        if varied and alt.gamma != 1.0:
            values **= 1.0 / alt.gamma
        return values
    k, scale = (1.0, 1.0 / alt.rate) if alt.kind == "exponential" else (alt.shape, alt.scale)
    if ranks:
        values = generator.standard_exponential(shape)
        # the varied group times scale ** k, or the other group times its
        # inverse, whichever factor is below 1 and so cannot overflow
        if varied and scale < 1:
            values *= scale ** k
        elif not varied and scale > 1:
            values *= scale ** -k
    else:
        values = generator.weibull(k, shape)
        if varied:
            values *= scale
    return values


def _draw_block(
    alt: AlternativeSpec, rows: int, m: int, n: int, generator: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """One block of sample pairs: all of x, then all of y."""
    x = _draw_group(alt, generator, (rows, m), alt.varied == "training")
    y = _draw_group(alt, generator, (rows, n), alt.varied == "test")
    return x, y


def sample_pair(
    m: int, n: int, alt: AlternativeSpec, rng: SeededRng
) -> tuple[Sample, Sample]:
    """Draw one (training, test) pair under the alternative."""
    if m < 1 or n < 1:
        raise ParameterError("group sizes must be positive")
    x, y = _draw_block(alt, 1, m, n, rng.generator(purpose=_PURPOSE_POWER))
    return (
        Sample(tuple(x[0]), label="training"),
        Sample(tuple(y[0]), label="test"),
    )


class _Job(NamedTuple):
    """One replicate block: its generator, its size and what it draws."""

    purpose: int
    generator: np.random.Generator
    rows: int
    alt: AlternativeSpec
    cell: tuple[int, int, int, int, str]  # m, n, r, s, statistic


def _block_histogram(job: _Job) -> np.ndarray:
    """Counts of each statistic value over one block's replicates.

    x is drawn whole and sorted by row, then y in row chunks of about
    _CHUNK_BYTES: the stream is sequential, so y equals one (rows, n) draw.
    Both are drawn in rank space (see _draw_group): the statistics read only
    the pooled order, which an increasing map of both groups, such as
    numpy's Weibull power E ** (1 / shape), leaves as it is, so no block
    applies one. The counts equal those of _draw_block's real samples unless
    two draws of a row lie within rounding of each other.
    """
    import numpy as np

    m, n, r, s, statistic = job.cell
    x = _draw_group(
        job.alt, job.generator, (job.rows, m), job.alt.varied == "training", ranks=True
    )
    x.sort(axis=1)
    counts = np.zeros(m + n + 1, dtype=np.int64)
    step = max(1, _CHUNK_BYTES // (8 * n))
    for lo in range(0, job.rows, step):
        rows = min(step, job.rows - lo)
        y = _draw_group(
            job.alt, job.generator, (rows, n), job.alt.varied == "test", ranks=True
        )
        values = _chunk_statistics(x[lo : lo + step], y, r, s, statistic)
        counts += np.bincount(values, minlength=counts.size)
    return counts


def _chunk_statistics(
    x: np.ndarray, y: np.ndarray, r: int, s: int, statistic: str
) -> np.ndarray:
    """The statistic of every row of one chunk of sorted x; y is sorted in place.

    One sort of each row of y serves every statistic: numpy sorts a whole
    row faster than it partitions it at r - 1 (and n - s) and sorts the two
    ends. V counts #{x <= Y_(r)} + n - #{y <= X_(m-s+1)} by two searches.
    """
    import numpy as np

    m, n = x.shape[1], y.shape[1]
    y.sort(axis=1)
    if statistic == "V":
        preceding = _count_at_or_below(x, y[:, r - 1 : r])
        not_exceeding = _count_at_or_below(y, x[:, m - s : m - s + 1])
        return (preceding + n - not_exceeding)[:, 0]
    queries = y[:, :r]
    if statistic == "T":
        # #{x >= v} = m - #{x <= the float just below v}, so one search serves both
        high = np.nextafter(y[:, n - s :], -np.inf)
        queries = np.concatenate([queries, high], axis=1)
    below = _count_at_or_below(x, queries)
    max_p = np.diff(below[:, :r], axis=1, prepend=0).max(axis=1)
    if statistic == "Q":
        return max_p
    # exceedance counts, minus anything claimed by the precedence block
    # (relevant only when ties collapse the boundary order statistics)
    at_or_above = np.minimum(m - below[:, r:], m - below[:, r - 1 : r])
    return max_p - np.diff(at_or_above, axis=1, append=0).min(axis=1)


def _count_at_or_below(xs: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """#{x <= q} in the row of sorted xs for every query q of that row.

    A branchless binary search: ceil(log2 m) + 1 gathers of the queries' shape.
    """
    import numpy as np

    length = xs.shape[1]
    offsets = np.arange(0, xs.size, length)[:, None]
    base = np.repeat(offsets, queries.shape[1], axis=1)
    while length > 1:
        half = length // 2
        base += half * (xs.take(base + half) <= queries)
        length -= half
    base += xs.take(base) <= queries
    return base - offsets


def _validate_statistic(m: int, n: int, r: int, s: int, statistic: str) -> None:
    _validate_params(m, n, r, s)
    if statistic not in ("T", "V", "Q"):
        raise ParameterError(f"statistic must be one of T, V, Q; got {statistic!r}")
    if statistic == "V" and (r != s or m != n):
        raise ParameterError("the count-sum statistic V requires r == s and m == n")


def _worker_count() -> int:
    if hasattr(os, "sched_getaffinity"):  # absent where CPU affinity is not exposed
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _histograms(rng: SeededRng, cell: tuple, runs: list) -> list[np.ndarray]:
    """Summed block histograms of each (purpose, alt, reps) run.

    The blocks are mapped over a pool of one thread per available CPU, at
    most one per block, that lives for this call only. Each block owns its
    counter cell and the sums are of integers, so the result is the same for
    any worker count. When a block raises, or the wait is interrupted, the
    map cancels the blocks that have not started.
    """
    from concurrent.futures import ThreadPoolExecutor

    jobs = [
        _Job(purpose, rng.generator(purpose, block), min(_BLOCK, reps - lo), alt, cell)
        for purpose, alt, reps in runs
        for block, lo in enumerate(range(0, reps, _BLOCK))
    ]
    workers = min(_worker_count(), len(jobs))
    with ThreadPoolExecutor(workers, thread_name_prefix="maxpe-mc") as pool:
        histograms = list(pool.map(_block_histogram, jobs))
    return [
        sum(h for job, h in zip(jobs, histograms) if job.purpose == purpose)
        for purpose, _, _ in runs
    ]


def _mc_critical_value(counts: np.ndarray, reps: int, alpha: float) -> CriticalValue:
    """Empirical critical value and attained tail masses of a null histogram:
    the least c with P[stat >= c] <= alpha. c >= 1, as the tail at 0 is 1."""
    tails = (counts[::-1].cumsum()[::-1] / reps).tolist() + [0.0]
    c = next(t for t, mass in enumerate(tails) if mass <= alpha)
    return CriticalValue(c, tails[c], tails[c - 1])


def mc_power(
    m: int,
    n: int,
    r: int,
    s: int,
    alpha: float,
    alt: AlternativeSpec,
    statistic: str = "T",
    reps: int = 100_000,
    rng: Optional[SeededRng] = None,
) -> PowerEstimate:
    """Monte-Carlo estimate of the randomized test's rejection probability.

    T uses exact critical values; V and Q are calibrated on a simulated
    null drawn in its own stream. Power and calibration blocks run on one
    thread per available CPU, with the same result for any CPU count. The
    estimate accumulates the expected randomization weight; the standard
    error is the binomial one at the estimated power.
    """
    if reps < _MIN_MC_REPS:
        raise ParameterError(f"reps must be at least {_MIN_MC_REPS}")
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    _validate_statistic(m, n, r, s, statistic)
    rng = rng if rng is not None else SeededRng(0)

    runs = [(_PURPOSE_POWER, alt, reps)]
    if statistic == "T":
        # before any draw, so an over-budget null table fails fast
        crit = critical_value(m, n, r, s, alpha)
        (counts,) = _histograms(rng, (m, n, r, s, statistic), runs)
    else:
        null_reps = max(reps, _MIN_CALIBRATION_REPS)
        runs.append((_PURPOSE_CALIBRATION, AlternativeSpec.lehmann(1.0), null_reps))
        counts, null_counts = _histograms(rng, (m, n, r, s, statistic), runs)
        crit = _mc_critical_value(null_counts, null_reps, alpha)
    c, alpha1, alpha2 = crit.c, float(crit.alpha1), float(crit.alpha2)
    n_ge, n_eq = int(counts[c:].sum()), int(counts[c - 1])  # c >= 1 as alpha < 1
    power = (n_ge + _phi(alpha, alpha1, alpha2) * n_eq) / reps
    std_error = math.sqrt(max(power * (1.0 - power), 0.0) / reps)
    return PowerEstimate(power, std_error, c, alpha1, alpha2)


def table_experiment(
    cells: Sequence[dict],
    reps: int,
    seed: int,
    alpha: float = 0.05,
) -> list[dict]:
    """Run mc_power over a grid of cells, one derived stream per cell.

    Each cell is a mapping with keys m, n, r, s, alt (AlternativeSpec) and
    optionally statistic (default "T"); every cell runs at level alpha. Rows
    come back in grid order and are fully determined by (cells, reps, seed,
    alpha).
    """
    if not cells:
        raise ParameterError("experiment grid must be non-empty")
    rows = []
    for index, cell in enumerate(cells):
        alt: AlternativeSpec = cell["alt"]
        statistic = cell.get("statistic", "T")
        estimate = mc_power(
            cell["m"],
            cell["n"],
            cell["r"],
            cell["s"],
            alpha,
            alt,
            statistic=statistic,
            reps=reps,
            rng=SeededRng(seed, stream=index),
        )
        rows.append(
            power_row(cell["m"], cell["n"], cell["r"], cell["s"], statistic, alt, alpha, estimate)
        )
    return rows


def power_row(
    m: int,
    n: int,
    r: int,
    s: int,
    statistic: str,
    alt: AlternativeSpec,
    alpha: float,
    estimate: PowerEstimate,
) -> dict:
    """One row of a power grid, keyed by POWER_COLUMNS."""
    cell = (m, n, r, s, statistic, alt.describe(), alt.varied_value, alpha)
    return dict(zip(POWER_COLUMNS, (*cell, *estimate)))
