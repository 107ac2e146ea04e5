"""Critical values, the randomized decision rule, and Monte-Carlo power.

The Monte-Carlo engine is built on numpy's counter-based Philox generator
(imported on first use, so the exact paths never load numpy):
a (seed, stream) pair plus a purpose/block counter prefix fully determines
every draw, replicate blocks are independent of execution order, and the
accumulators are integer counts, so results are bit-identical across runs
and worker layouts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple, Optional, Sequence, Union

from .errors import ParameterError
from .null_dist import null_distribution
from .statistics import Sample

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
    "table_experiment",
]

_U64 = 2**64
_BLOCK = 8192
# approximate bytes of sorted copies and comparison temporaries per row chunk
_CHUNK_BYTES = 4 * 2**20

# purpose codes keep the power-sampling and null-calibration draw streams
# disjoint for a given (seed, stream)
_PURPOSE_POWER = 1
_PURPOSE_CALIBRATION = 2
_PURPOSE_DECISION = 3

_MIN_MC_REPS = 10**3
_MIN_CALIBRATION_REPS = 10**4

Number = Union[float, Fraction]


@dataclass(frozen=True)
class SeededRng:
    """Reproducible random source: a Philox key (seed, stream).

    Identical (seed, stream) pairs reproduce identical draw sequences on
    any platform; distinct streams are statistically independent.
    """

    seed: int
    stream: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream"):
            v = getattr(self, name)
            if not 0 <= v < _U64:
                raise ParameterError(f"{name} must be an unsigned 64-bit integer")

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


@dataclass(frozen=True)
class AlternativeSpec:
    """How to draw a sample pair: Lehmann, exponential, or Weibull.

    The varied parameter (gamma, rate, or scale) applies to the group named
    by `varied`; the other group follows the baseline (uniform, unit-rate
    exponential, or unit-scale Weibull of the same shape).
    """

    kind: str
    gamma: Optional[float] = None
    rate: Optional[float] = None
    shape: Optional[float] = None
    scale: Optional[float] = None
    varied: str = "test"

    def __post_init__(self) -> None:
        if self.kind not in ("lehmann", "exponential", "weibull"):
            raise ParameterError(f"unknown alternative kind {self.kind!r}")
        if self.varied not in ("test", "training"):
            raise ParameterError("varied group must be 'test' or 'training'")
        required = {
            "lehmann": ("gamma",),
            "exponential": ("rate",),
            "weibull": ("shape", "scale"),
        }[self.kind]
        for name in required:
            value = getattr(self, name)
            if value is None or not (value > 0 and math.isfinite(value)):
                raise ParameterError(
                    f"{self.kind} alternative needs positive {name}, got {value}"
                )

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
    def is_null(self) -> bool:
        return {
            "lehmann": self.gamma == 1.0,
            "exponential": self.rate == 1.0,
            "weibull": self.scale == 1.0,
        }[self.kind]

    @property
    def varied_value(self) -> float:
        return {
            "lehmann": self.gamma,
            "exponential": self.rate,
            "weibull": self.scale,
        }[self.kind]

    def describe(self) -> str:
        if self.kind == "lehmann":
            return f"lehmann(gamma={self.gamma:g})"
        if self.kind == "exponential":
            return f"exponential(rate={self.rate:g})"
        return f"weibull(shape={self.shape:g}, scale={self.scale:g})"


class CriticalValue(NamedTuple):
    c: int
    alpha1: Number
    alpha2: Number


@dataclass(frozen=True)
class RandomizedDecision:
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
    std_error: float
    c: int
    alpha1: float
    alpha2: float


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
        tails = [dist.tail(t) for t in range(m + 2)]
        return _critical_from_tails(tails, alpha)
    if method == "monte_carlo":
        if reps < _MIN_CALIBRATION_REPS:
            raise ParameterError(
                f"Monte-Carlo calibration needs at least {_MIN_CALIBRATION_REPS} replicates"
            )
        rng = rng if rng is not None else SeededRng(0)
        c, a1, a2 = _mc_calibrate(m, n, r, s, alpha, "T", reps, rng)
        return CriticalValue(c, a1, a2)
    raise ParameterError(f"unknown method {method!r}")


def _critical_from_tails(tails: Sequence[Number], alpha: float) -> CriticalValue:
    """tails[t] = P[T >= t] for t = 0..len-1; tails beyond the support are 0."""
    c = next(t for t, mass in enumerate(tails) if mass <= alpha)
    alpha1 = tails[c]
    alpha2 = tails[c - 1] if c >= 1 else _one_like(tails[c])
    return CriticalValue(c, alpha1, alpha2)


def _one_like(value: Number) -> Number:
    return Fraction(1) if isinstance(value, Fraction) else 1.0


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
        phi = (alpha - alpha1) / (alpha2 - alpha1)
        generator = (rng if rng is not None else SeededRng(0)).generator(
            purpose=_PURPOSE_DECISION
        )
        u = generator.random()
        return RandomizedDecision(
            t_observed, c, alpha1, alpha2, phi, "randomized", bool(u < phi)
        )
    phi = _one_like(alpha1) * 0
    return RandomizedDecision(t_observed, c, alpha1, alpha2, phi, "accept", False)


def _draw_block(
    alt: AlternativeSpec,
    rows: int,
    m: int,
    n: int,
    generator: np.random.Generator,
    null: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """One block of sample pairs; under `null` both groups share the baseline.

    The varied group is transformed in place: the same values as a
    transformed copy, without a block-sized temporary.
    """
    if alt.kind == "lehmann":
        x = generator.random((rows, m))
        y = generator.random((rows, n))
        if not null:
            exponent = 1.0 / alt.gamma
            if alt.varied == "test":
                y **= exponent
            else:
                x **= exponent
    elif alt.kind == "exponential":
        x = generator.exponential(1.0, (rows, m))
        y = generator.exponential(1.0, (rows, n))
        if not null:
            scale = 1.0 / alt.rate
            if alt.varied == "test":
                y *= scale
            else:
                x *= scale
    else:  # weibull
        x = generator.weibull(alt.shape, (rows, m))
        y = generator.weibull(alt.shape, (rows, n))
        if not null:
            if alt.varied == "test":
                y *= alt.scale
            else:
                x *= alt.scale
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


def _block_statistics(
    x: np.ndarray, y: np.ndarray, r: int, s: int, statistic: str
) -> np.ndarray:
    """Vectorized statistic over a block of sample pairs (rows).

    Rows are processed in chunks so that the sorted copies and comparison
    temporaries stay near _CHUNK_BYTES however large the samples grow.
    """
    import numpy as np

    m, n = x.shape[1], y.shape[1]
    step = max(1, _CHUNK_BYTES // (8 * (m + n) + (r + s) * m))
    return np.concatenate(
        [
            _chunk_statistics(x[lo : lo + step], y[lo : lo + step], r, s, statistic)
            for lo in range(0, x.shape[0], step)
        ]
    )


def _chunk_statistics(
    x: np.ndarray, y: np.ndarray, r: int, s: int, statistic: str
) -> np.ndarray:
    """The statistic of every row of one chunk, all rows at once."""
    import numpy as np

    n = y.shape[1]
    m = x.shape[1]
    xs = np.sort(x, axis=1)
    ys = np.sort(y, axis=1)
    if statistic in ("T", "Q"):
        # counts of X at or below each of the first r Y order statistics
        at_or_below = (xs[:, None, :] <= ys[:, :r, None]).sum(axis=2)
        f_p = np.diff(at_or_below, axis=1, prepend=0)
        max_p = f_p.max(axis=1)
        if statistic == "Q":
            return max_p
        # exceedance counts, minus anything claimed by the precedence block
        # (relevant only when ties collapse the boundary order statistics)
        at_or_above = (xs[:, None, :] >= ys[:, n - s :, None]).sum(axis=2)
        unclaimed = (xs > ys[:, r - 1, None]).sum(axis=1)
        at_or_above = np.minimum(at_or_above, unclaimed[:, None])
        f_e = at_or_above - np.concatenate(
            [at_or_above[:, 1:], np.zeros((x.shape[0], 1), dtype=np.int64)], axis=1
        )
        return max_p + f_e.max(axis=1)
    if statistic == "V":
        preceding = (xs <= ys[:, r - 1, None]).sum(axis=1)
        boundary = xs[:, m - s]
        exceeding = (ys > boundary[:, None]).sum(axis=1)
        return preceding + exceeding
    raise ParameterError(f"unknown statistic {statistic!r}")


def _validate_statistic(m: int, n: int, r: int, s: int, statistic: str) -> None:
    if statistic not in ("T", "V", "Q"):
        raise ParameterError(f"statistic must be one of T, V, Q; got {statistic!r}")
    if statistic == "V" and (r != s or m != n):
        raise ParameterError("the count-sum statistic V requires r == s and m == n")
    if statistic == "V" and s > m:
        raise ParameterError("V requires s <= m")


def _simulate_counts(
    m: int,
    n: int,
    r: int,
    s: int,
    alt: AlternativeSpec,
    statistic: str,
    reps: int,
    rng: SeededRng,
    purpose: int,
    c: int,
    null: bool,
) -> tuple[int, int]:
    """Counts of replicates with statistic >= c and == c - 1."""
    n_ge = 0
    n_eq = 0
    done = 0
    block = 0
    while done < reps:
        rows = min(_BLOCK, reps - done)
        generator = rng.generator(purpose=purpose, block=block)
        x, y = _draw_block(alt, rows, m, n, generator, null=null)
        values = _block_statistics(x, y, r, s, statistic)
        n_ge += int((values >= c).sum())
        n_eq += int((values == c - 1).sum())
        done += rows
        block += 1
    return n_ge, n_eq


def _mc_calibrate(
    m: int,
    n: int,
    r: int,
    s: int,
    alpha: float,
    statistic: str,
    reps: int,
    rng: SeededRng,
) -> tuple[int, float, float]:
    """Empirical critical value and attained tail masses under the null."""
    import numpy as np

    top = m + (n if statistic == "V" else 0)
    counts = np.zeros(top + 2, dtype=np.int64)
    done = 0
    block = 0
    null_alt = AlternativeSpec.lehmann(1.0)
    while done < reps:
        rows = min(_BLOCK, reps - done)
        generator = rng.generator(purpose=_PURPOSE_CALIBRATION, block=block)
        x, y = _draw_block(null_alt, rows, m, n, generator, null=True)
        values = _block_statistics(x, y, r, s, statistic)
        counts += np.bincount(values, minlength=top + 2)[: top + 2]
        done += rows
        block += 1
    tail = np.cumsum(counts[::-1])[::-1] / reps
    tails = list(tail) + [0.0]
    crit = _critical_from_tails(tails, alpha)
    return crit.c, float(crit.alpha1), float(crit.alpha2)


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
    null with the same seed discipline (calibration draws live in their
    own stream, so they never overlap the power draws). The estimate
    accumulates the expected randomization weight, and the reported
    standard error is the binomial one at the estimated power.
    """
    if reps < _MIN_MC_REPS:
        raise ParameterError(f"reps must be at least {_MIN_MC_REPS}")
    if not 0 < alpha < 1:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha}")
    _validate_statistic(m, n, r, s, statistic)
    rng = rng if rng is not None else SeededRng(0)

    if statistic == "T":
        crit = critical_value(m, n, r, s, alpha)
        c, alpha1, alpha2 = crit.c, float(crit.alpha1), float(crit.alpha2)
    else:
        c, alpha1, alpha2 = _mc_calibrate(
            m, n, r, s, alpha, statistic, max(reps, _MIN_CALIBRATION_REPS), rng
        )
    ratio = (alpha - alpha1) / (alpha2 - alpha1) if alpha2 > alpha1 else 0.0

    n_ge, n_eq = _simulate_counts(
        m, n, r, s, alt, statistic, reps, rng, _PURPOSE_POWER, c, null=False
    )
    power = (n_ge + ratio * n_eq) / reps
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
    optionally statistic (default "T") and alpha. Rows come back in grid
    order and are fully determined by (cells, reps, seed).
    """
    if not cells:
        raise ParameterError("experiment grid must be non-empty")
    rows = []
    for index, cell in enumerate(cells):
        alt: AlternativeSpec = cell["alt"]
        statistic = cell.get("statistic", "T")
        cell_alpha = cell.get("alpha", alpha)
        estimate = mc_power(
            cell["m"],
            cell["n"],
            cell["r"],
            cell["s"],
            cell_alpha,
            alt,
            statistic=statistic,
            reps=reps,
            rng=SeededRng(seed, stream=index),
        )
        rows.append(
            {
                "m": cell["m"],
                "n": cell["n"],
                "r": cell["r"],
                "s": cell["s"],
                "statistic": statistic,
                "alternative": alt.describe(),
                "param": alt.varied_value,
                "alpha": cell_alpha,
                "power": estimate.power,
                "std_error": estimate.std_error,
                "c": estimate.c,
                "alpha1": estimate.alpha1,
                "alpha2": estimate.alpha2,
            }
        )
    return rows
