import builtins
import itertools
import json
import math
import random
import sys
import time
import tracemalloc
from decimal import Context, Decimal
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest

import lehmann_oracle
import savage_oracle
from maxpe import cli, inference, lehmann, null_dist
from maxpe.errors import BudgetExceededError, NumericalError, ParameterError
from maxpe.inference import (
    AlternativeSpec,
    SeededRng,
    _block_histogram,
    _chunk_statistics,
    _draw_block,
    _Job,
    critical_value,
)
from maxpe.lehmann import (
    AlternativeDistribution,
    _beta_sums,
    _ln,
    alternative_distribution,
    exact_power,
    joint_frequency_pmf_lehmann,
)
from maxpe.null_dist import joint_frequency_pmf_null, null_distribution
from maxpe.statistics import FrequencyVector
from test_null_dist import _all_frequency_vectors


def _quad(f, a, b, panels=20000):
    """Composite midpoint rule; plenty for the smooth integrands here."""
    h = (b - a) / panels
    return h * math.fsum(f(a + (k + 0.5) * h) for k in range(panels))


class TestSingleVectorPmf:
    """One X among two Y with Y ~ F^gamma on uniforms: the three cell
    patterns have closed-form probabilities, re-derived here by quadrature
    as an independent oracle."""

    def _fv(self, f_p, f_e):
        return FrequencyVector(f_p=f_p, f_e=f_e, m=1, n=2, r=1, s=1)

    def test_x_below_both(self):
        gamma = 2.0
        # P[X < min(Y1, Y2)] = int (1 - x^gamma)^2 dx = 8/15 at gamma = 2
        oracle = _quad(lambda x: (1 - x**gamma) ** 2, 0.0, 1.0)
        value = joint_frequency_pmf_lehmann(self._fv((1,), (0,)), gamma)
        assert value == pytest.approx(8 / 15, rel=1e-12)
        assert value == pytest.approx(oracle, rel=1e-6)

    def test_x_above_both(self):
        gamma = 2.0
        oracle = _quad(lambda x: x ** (2 * gamma), 0.0, 1.0)  # = 1/5
        value = joint_frequency_pmf_lehmann(self._fv((0,), (1,)), gamma)
        assert value == pytest.approx(1 / 5, rel=1e-12)
        assert value == pytest.approx(oracle, rel=1e-6)

    def test_x_between(self):
        gamma = 2.0
        value = joint_frequency_pmf_lehmann(self._fv((0,), (0,)), gamma)
        assert value == pytest.approx(4 / 15, rel=1e-11)

    @pytest.mark.parametrize("m,n,r,s", [(3, 3, 1, 1), (4, 4, 1, 2), (5, 6, 2, 2), (6, 6, 2, 3)])
    def test_gamma_one_reduces_to_null(self, m, n, r, s):
        for fv in _all_frequency_vectors(m, n, r, s):
            null = float(joint_frequency_pmf_null(fv))
            alt = joint_frequency_pmf_lehmann(fv, 1.0)
            assert alt == pytest.approx(null, rel=1e-10)

    @pytest.mark.parametrize("gamma", [0.5, 2.0])
    @pytest.mark.parametrize("m,n,r,s", [(3, 3, 1, 1), (4, 5, 2, 2), (4, 4, 1, 3)])
    def test_total_mass(self, gamma, m, n, r, s):
        total = math.fsum(
            joint_frequency_pmf_lehmann(fv, gamma)
            for fv in _all_frequency_vectors(m, n, r, s)
        )
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_rejects_bad_gamma(self):
        fv = self._fv((1,), (0,))
        with pytest.raises(ParameterError):
            joint_frequency_pmf_lehmann(fv, 0.0)
        with pytest.raises(ParameterError):
            joint_frequency_pmf_lehmann(fv, -1.0)


class TestAlternativeDistribution:
    @pytest.mark.parametrize("m,n,r,s", [(4, 4, 1, 1), (5, 6, 2, 2), (6, 6, 1, 3)])
    def test_gamma_one_matches_null_tables(self, m, n, r, s):
        alt = alternative_distribution(m, n, r, s, 1.0)
        null = null_distribution(m, n, r, s)
        for t in alt.support:
            assert alt.pmf(t) == pytest.approx(float(null.pmf(t)), abs=1e-12)

    @pytest.mark.parametrize("gamma", [0.2, 0.5, 2.0, 5.0])
    @pytest.mark.parametrize("m,n,r,s", [(10, 10, 1, 1), (10, 10, 2, 2), (8, 10, 1, 3)])
    def test_normalization(self, gamma, m, n, r, s):
        dist = alternative_distribution(m, n, r, s, gamma)
        assert math.fsum(dist.pmf_values) == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 <= p <= 1.0 for p in dist.pmf_values)

    def test_condition_estimate_reported(self):
        dist = alternative_distribution(10, 10, 1, 1, 5.0)
        assert dist.condition_estimate >= 1.0

    def test_budget_guard(self):
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            alternative_distribution(400, 400, 40, 40, 2.0)
        assert time.perf_counter() - start < 1.0  # refused before any work

    @pytest.mark.parametrize("m,n", [(5000, 5002), (5000, 2), (3000, 2), (1997, 1999)])
    def test_budget_counts_the_tables(self, m, n, monkeypatch):
        # r = s = 1 makes only O(m^2) cross multiply-adds, so the O(m^2)
        # tables and the Beta-sum recurrence must carry the count
        def no_work(*args):
            raise AssertionError("a table was built before the budget check")

        # the diagonal Beta sums are the law's first work
        monkeypatch.setattr(lehmann, "_beta_sums", no_work)
        monkeypatch.setattr(lehmann, "_side", no_work)
        with pytest.raises(BudgetExceededError):
            alternative_distribution(m, n, 1, 1, 2.0)

    @pytest.mark.parametrize(
        "m,n,r,s,t_max",
        [(100, 100, 1, 10, 5), (100, 100, 10, 1, 5), (60, 80, 3, 2, 7), (40, 40, 2, 4, 3),
         (30, 30, 2, 2, None)],
    )
    def test_budget_counts_the_sum_and_link_entries_formed(self, m, n, r, s, t_max, monkeypatch):
        formed = {"sums": 0, "links": 0}

        def counting_accumulate(values, func=None, *, initial=None):
            out = list(itertools.accumulate(values, func, initial=initial))
            if func is lehmann._log_add:  # one row of S
                formed["sums"] += len(out)
            return out

        def counting_cross(rows_p, rows_e, link, cells, length, add):
            formed["links"] = sum(len(link(n1, 0, length + 1)) for n1 in range(length + 1))
            return null_dist._cross(rows_p, rows_e, link, cells, length, add)

        monkeypatch.setattr(lehmann, "accumulate", counting_accumulate)
        monkeypatch.setattr(lehmann, "_cross", counting_cross)
        alternative_distribution(m, n, r, s, 2.0, t_max)
        top = m if t_max is None else t_max
        cap = min(m, max(r, s) * top)
        assert formed == {
            "sums": lehmann._band(cap, cap, s * top),
            "links": lehmann._band(cap, r * top, s * top),
        }

    @pytest.mark.parametrize(
        "shape,steps",
        [
            # full laws count every (n1, t) entry; the largest accepted at
            # n = m, gamma = 2 are 1996, 774 and 363 at r = s = 1, 2 and 10
            ((100, 100, 1, 10, 100), 1_964_918),
            ((1996, 1996, 1, 1, 1996), 99_923_745),
            ((1997, 1999, 1, 1, 1997), 100_055_796),
            ((774, 774, 2, 2, 774), 99_744_789),
            ((775, 775, 2, 2, 775), 100_102_606),
            ((363, 363, 10, 10, 363), 99_461_806),
            ((364, 364, 10, 10, 364), 100_208_713),
            # 291 of the 1 326 link entries, rows n1 <= r t_max, are formed
            ((100, 100, 1, 10, 5), 196_611),
        ],
    )
    def test_step_counts(self, shape, steps):
        assert lehmann._steps(*shape) == steps

    def test_memory_stays_below_two_link_tables(self):
        # the link table, (m + 1)(m + 2) / 2 floats of about 32 B with their
        # list slots, is the one O(m^2) table the cross step reads; no
        # staging table may hold as much again at the same time
        m = 300
        tracemalloc.start()
        try:
            alternative_distribution(m, 2, 1, 1, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 32 * (m + 1) * (m + 2) // 2

    def test_one_cell_side_keeps_only_its_band(self):
        # with one cell, total t has the one largest cell t: the side of
        # (600, 2, 1, 1) keeps O(m) floats, not a by-total triangle of
        # (m + 1)(m + 2) / 2 floats of about 32 B (5.5 MiB)
        m = 600
        tracemalloc.start()
        try:
            lehmann._side(1, m, lehmann._precedence_logs(2.0), m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 32 * (m + 1)

    def test_bad_pmf_is_a_numerical_error(self):
        with pytest.raises(NumericalError, match="sums to"):
            AlternativeDistribution(m=1, n=2, r=1, s=1, gamma=2.0, pmf_values=(0.5, 0.6))
        with pytest.raises(NumericalError, match="escaped"):
            AlternativeDistribution(2, 3, 1, 1, 2.0, (math.nan,) * 3)
        assert not issubclass(NumericalError, ParameterError)

    @pytest.mark.parametrize("m,n,r,s", [(10, 10, 1, 1), (20, 20, 3, 3)])
    def test_overflowing_gamma_is_a_numerical_error(self, m, n, r, s):
        # once eleven NaNs clamped to zeros at (10, 10, 1, 1), and exact_power 1.0
        with pytest.raises(NumericalError, match="overflows"):
            alternative_distribution(m, n, r, s, 1e308)
        with pytest.raises(NumericalError, match="overflows"):
            exact_power(m, n, r, s, 1e308, 0.05)

    def test_direction_matches_monte_carlo_at_extreme_gamma(self):
        """gamma = 50 pushes Y toward 1, so X precedes almost surely."""
        gamma = 50.0
        dist = alternative_distribution(1, 2, 1, 1, gamma)
        reps = 200_000
        gen = SeededRng(71).generator(purpose=1)
        x, y = _draw_block(AlternativeSpec.lehmann(gamma), reps, 1, 2, gen)
        t_vals = _chunk_statistics(np.sort(x, axis=1), y, 1, 1, "T")
        frac1 = float((t_vals == 1).mean())
        se = (frac1 * (1 - frac1) / reps) ** 0.5
        assert dist.pmf(1) == pytest.approx(frac1, abs=4 * se + 1e-3)
        assert dist.pmf(1) > 0.9  # X below nearly all Y, never above

    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("gamma", [0.5, 2.0, 5.0])
    def test_pmf_matches_million_replicate_simulation(self, r, gamma):
        dist = alternative_distribution(10, 10, r, r, gamma)
        reps = 1_000_000
        rng = SeededRng(424242)
        alt = AlternativeSpec.lehmann(gamma)
        cell = (10, 10, r, r, "T")
        hist = sum(
            _block_histogram(_Job(1, rng.generator(1, block), rows, alt, cell))
            for block, rows in enumerate([65536] * 15 + [reps - 15 * 65536])
        )
        for t in range(11):
            p = dist.pmf(t)
            se = math.sqrt(max(p * (1 - p), 0.0) / reps)
            # the additive floor covers support points with expected count
            # below the normal-approximation regime
            assert abs(hist[t] / reps - p) <= 4 * se + 5 / reps


class TestAgainstOracle:
    """The recurrences against a direct high-precision enumeration."""

    @pytest.mark.parametrize(
        "m,n,r,s,gamma",
        [
            (25, 25, 3, 3, 4.84),
            (20, 20, 4, 4, 0.3),  # beyond the old vector-pair budget
            (5, 160, 1, 1, 0.271),  # beyond the old fixed 40-digit fallback
            (6, 9, 2, 3, 2.5),
            (8, 7, 3, 1, 0.7),
        ],
    )
    def test_pmf_matches_oracle(self, m, n, r, s, gamma):
        oracle = lehmann_oracle.alternative_pmf(m, n, r, s, gamma)
        dist = alternative_distribution(m, n, r, s, gamma)
        for p, expected in zip(dist.pmf_values, oracle, strict=True):
            assert p == pytest.approx(expected, abs=1e-13)

    @pytest.mark.parametrize("n", [120, 160, 240])
    def test_long_training_sample_normalizes(self, n):
        dist = alternative_distribution(5, n, 1, 1, 2.0)
        assert math.fsum(dist.pmf_values) == pytest.approx(1.0, abs=1e-12)

    def test_heavily_cancelling_beta_sum(self):
        # 239 alternating terms of total magnitude ~3e59 leave S = 1.5734e-3
        [log_s] = _beta_sums(0, 6, 238, 1, 2.0, 1)
        expected = lehmann_oracle.beta_sum(0, 0, 5, 238, 1, 2.0)
        assert float(expected) == pytest.approx(1.5734e-3, abs=5e-8)
        with mpmath.workdps(40):
            log_expected = mpmath.log(expected)
            assert abs(log_s - log_expected) <= math.ulp(abs(float(log_expected)))

    def test_beta_sums_match_direct_alternating_sums(self):
        """ln S of the positive recurrence within a unit in the last place
        of max(1, |ln S|) of the alternating sums at 60 + 2q digits, at 40
        seeded shapes (300 in CI) and a q = 0 shape whose float log_beta
        missed by more."""
        shapes = lehmann_oracle.beta_sum_shapes(40) + [(30, 48, 0, 4, 412.99, 48)]
        assert {0} < {shape[2] for shape in shapes}
        assert max(lehmann_oracle.beta_sum_errors(shapes)) <= 1.0

    @pytest.mark.parametrize("m,n,r,s,gamma", [(6, 9, 2, 3, 2.5), (8, 7, 3, 1, 0.7)])
    def test_per_vector_pmfs_add_up_to_the_table(self, m, n, r, s, gamma):
        """Each whole vector's probability, bucketed by its statistic."""
        buckets = [[] for _ in range(m + 1)]
        for fv in _all_frequency_vectors(m, n, r, s):
            stat = max(fv.f_p) + max(fv.f_e)
            buckets[stat].append(joint_frequency_pmf_lehmann(fv, gamma))
        dist = alternative_distribution(m, n, r, s, gamma)
        for t, bucket in enumerate(buckets):
            assert math.fsum(bucket) == pytest.approx(dist.pmf(t), abs=1e-13)


@lru_cache(maxsize=None)
def _savage_pmf(m, n, r, s, gamma):
    return savage_oracle.alternative_pmf(m, n, r, s, gamma)


# r != s and gamma < 1 among them; C(m + n, n) <= 3432 rank orders each.
# The tiny gammas are floats, taken exactly: there a Beta argument of the
# exceedance side is gamma (n - k) alone
SAVAGE_SHAPES = [
    (5, 6, 2, 2, Fraction(2)),
    (6, 5, 1, 3, Fraction(3)),
    (4, 7, 2, 1, Fraction(1, 2)),
    (7, 7, 2, 3, Fraction(3, 4)),
    (6, 8, 3, 3, Fraction(5, 2)),
    *[(6, 6, 2, 3, Fraction(gamma)) for gamma in (1e-6, 1e-9, 1e-12, 2**-60)],
]


def _savage_tolerance(r, s, gamma):
    """1e-14, or more where (r + s) |ln gamma| is large: the full law sums
    logs of that size, gamma^(r + s) among its factors, each within a unit
    in its last place, and then takes exp. The truncated laws and the powers
    below hold 1e-14 at every shape."""
    return max(1e-14, (r + s) * abs(math.log(gamma)) * 2**-52)


class TestAgainstSavage:
    """The law and the power against exact rational enumeration of rank
    orders (tests/savage_oracle.py), which shares none of the recurrences."""

    @pytest.mark.parametrize("m,n,r,s,gamma", SAVAGE_SHAPES)
    def test_full_pmf(self, m, n, r, s, gamma):
        oracle = _savage_pmf(m, n, r, s, gamma)
        assert sum(oracle) == 1
        dist = alternative_distribution(m, n, r, s, float(gamma))
        for p, expected in zip(dist.pmf_values, oracle, strict=True):
            assert abs(p - expected) <= _savage_tolerance(r, s, gamma)

    @pytest.mark.parametrize("m,n,r,s,gamma", SAVAGE_SHAPES)
    def test_truncated_pmf(self, m, n, r, s, gamma):
        oracle = _savage_pmf(m, n, r, s, gamma)
        for t_max in range(m):
            dist = alternative_distribution(m, n, r, s, float(gamma), t_max)
            assert not dist.complete
            for p, expected in zip(dist.pmf_values, oracle[: t_max + 1], strict=True):
                assert abs(p - expected) <= 1e-14

    @pytest.mark.parametrize("alpha", [0.05, 0.1])
    @pytest.mark.parametrize("m,n,r,s,gamma", SAVAGE_SHAPES)
    def test_exact_power(self, m, n, r, s, gamma, alpha):
        crit = critical_value(m, n, r, s, alpha)
        expected = savage_oracle.power(
            _savage_pmf(m, n, r, s, gamma), crit.c, crit.alpha1, crit.alpha2, Fraction(alpha)
        )
        assert abs(exact_power(m, n, r, s, float(gamma), alpha) - expected) <= 1e-14


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class TestTruncatedLaw:
    @pytest.mark.parametrize(
        "m,n,r,s,gamma,t_max",
        [
            (40, 40, 3, 3, 2.0, 5),
            (60, 50, 2, 4, 0.5, 7),
            (120, 120, 1, 1, 3.0, 9),
            (10, 400, 1, 1, 2.0, 3),  # n >> m
            (30, 200, 4, 1, 1.5, 2),  # r != s, n >> m
            (25, 25, 4, 4, 0.3, 0),
            (12, 12, 2, 2, 5.0, 11),  # T = m: every table full, one entry short
        ],
    )
    def test_prefix_of_the_full_law(self, m, n, r, s, gamma, t_max):
        full = alternative_distribution(m, n, r, s, gamma)
        part = alternative_distribution(m, n, r, s, gamma, t_max)
        assert (part.complete, full.complete) == (False, True)
        prefix = slice(0, t_max + 1)
        for got, expected in ((part.pmf_values, full.pmf_values[prefix]),
                              (part.cdf_values, full.cdf_values[prefix])):
            assert len(got) == len(expected)
            assert all(b == pytest.approx(a, rel=1e-14, abs=0) for a, b in zip(expected, got))
        assert alternative_distribution(m, n, r, s, gamma, m + 5) == full

    @pytest.mark.parametrize("length", range(1, 7))
    def test_side_rows_equal_the_recurrence_over_totals(self, length):
        # bit for bit: every entry gets its terms in the same order
        mismatches = lehmann_oracle.side_mismatches(
            [length], range(31), lambda top: range(top + 1), (0.25, 1.0, 3.7)
        )
        assert mismatches == []

    @pytest.mark.parametrize("length", range(1, 7))
    def test_capped_side_rows_equal_the_uncapped_rows(self, length):
        """Rows i <= peak of a side that never forms a cell above peak, times
        exp of their scale, against the uncapped side's: within 1e-14
        relative plus four units of rounding of the scale, a sum of logs
        that both sides round (|scale| reaches 88 at top = 30)."""
        for top, gamma in itertools.product((0, 3, 11, 30), (0.25, 1.0, 3.7)):
            for logs in lehmann._precedence_logs(gamma), lehmann._exceedance_logs(top, 9, gamma):
                scale, rows = lehmann._side(length, top, logs, top)
                for peak in range(top + 1):
                    capped_scale, capped = lehmann._side(length, top, logs, peak)
                    assert len(capped) == peak + 1
                    for i, (row, capped_row) in enumerate(zip(rows, capped)):
                        assert len(capped_row) == len(row)
                        for t, x, y in zip(itertools.count(i), row, capped_row):
                            tolerance = 1e-14 + 4 * sys.float_info.epsilon * abs(scale[t])
                            ratio = math.exp(capped_scale[t] - scale[t])
                            assert abs(ratio * y - x) <= tolerance * x

    def test_lookups_above_a_truncated_table_are_refused(self):
        part = alternative_distribution(20, 20, 2, 2, 2.0, 4)
        assert (part.pmf(-1), part.cdf(-1)) == (0.0, 0.0)
        assert part.cdf(4) == part.cdf_values[-1] < 1.0
        for lookup in (part.pmf, part.cdf):
            with pytest.raises(ParameterError, match="beyond the truncated support"):
                lookup(5)
        for t in (0, 3, 5):
            with pytest.raises(ParameterError, match="complete support"):
                part.tail(t)
        with pytest.raises(ParameterError, match="t_max must be non-negative"):
            alternative_distribution(20, 20, 2, 2, 2.0, -1)

    def test_truncated_record_checks_only_excess_mass(self):
        record = AlternativeDistribution(5, 5, 1, 1, 2.0, (0.25, 0.25), complete=False)
        assert record.cdf(1) == 0.5
        with pytest.raises(NumericalError, match="sums to 1.5"):
            AlternativeDistribution(5, 5, 1, 1, 2.0, (0.75, 0.75), complete=False)

    def test_exact_power_agrees_with_the_full_law(self, monkeypatch):
        """A 40-entry sample of the exact_power_grid benchmark pool:
        (1 - cdf(c - 1)) + phi pmf(c - 1) from the truncated law against
        tail(c) + phi pmf(c - 1) from the full law."""
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        ops = [op for pool in workloads.ExactPowerGrid.shapes.values() for op in pool][::11]
        assert len(ops) == 40
        for op in ops:
            args = op["m"], op["n"], op["r"], op["s"], op["gamma"]
            crit = critical_value(*args[:4], op["alpha"])
            full = alternative_distribution(*args)
            alpha1, alpha2 = float(crit.alpha1), float(crit.alpha2)
            expected = full.tail(crit.c)
            if alpha2 > alpha1:
                expected += (op["alpha"] - alpha1) / (alpha2 - alpha1) * full.pmf(crit.c - 1)
            assert abs(exact_power(*args, op["alpha"]) - expected) <= 1e-14

    def test_condition_estimate_reaches_the_benchmark_tracer(self, monkeypatch):
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import tracing

        tracer = tracing.Tracer()
        modules = {"cli": cli, "inference": inference, "lehmann": lehmann}
        with tracer.patched(tracing.library_targets(modules)):
            exact_power(12, 40, 1, 1, 0.5, 0.05)
        [span] = [s for s in tracer.spans if s["name"] == "lehmann.alternative_distribution"]
        c = critical_value(12, 40, 1, 1, 0.05).c
        expected = alternative_distribution(12, 40, 1, 1, 0.5, c - 1).condition_estimate
        assert span["info"] == {"condition": expected}
        metrics = tracing.layer_metrics(tracer.spans, {"bcc_hits": 0, "bcc_misses": 0}, 1, 0.0)
        assert metrics["lehmann.condition_max"] == (expected, "1")

    def test_exact_power_counts_the_full_law_before_the_null_table(self, monkeypatch):
        def no_table(*args):
            raise AssertionError("the null table was built before the budget check")

        monkeypatch.setattr(inference, "null_distribution", no_table)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError):
            exact_power(400, 400, 40, 40, 2.0, 0.05)
        assert time.perf_counter() - start < 1.0


def test_logarithm_is_within_a_unit_in_the_last_place():
    """ln S from the float logarithm of its mantissa and a two-part ln 10
    lies within a unit in the last place of max(1, |ln S|) of the 80-digit
    logarithm, near 1, 10 and a mantissa of 10, and over a wide range of
    exponents. The two values just below 1 would be off by 1.45 units if
    taken through their mantissa, as ln mu - ln 10."""
    context = Context(prec=80, Emax=10**6, Emin=-(10**6))
    rnd = random.Random(11)
    values = [Decimal(v) for v in ("1", "1.005", "9.994999999", "9.995", "9.99999999", "1e-5000")]
    values += [Decimal(v) for v in ("0.826532", "0.902325")]
    values += [Decimal(rnd.uniform(1, 10)).scaleb(rnd.randint(-4000, 5)) for _ in range(3000)]
    for x in values:
        exact = x.ln(context)
        assert abs(Decimal(_ln(x)) - exact) <= Decimal(math.ulp(max(1.0, abs(float(exact)))))


class TestExactPower:
    def test_size_at_gamma_one(self):
        for m, n, r, s in [(10, 10, 1, 1), (8, 9, 2, 1)]:
            assert exact_power(m, n, r, s, 1.0, 0.05) == pytest.approx(
                0.05, abs=1e-9
            )

    def test_reference_cells(self):
        assert exact_power(10, 10, 1, 1, 2.0, 0.05) == pytest.approx(0.189, abs=0.01)
        assert exact_power(20, 20, 1, 1, 10.0, 0.05) == pytest.approx(0.998, abs=0.005)

    def test_monotone_in_gamma_above_one(self):
        for m, r in [(10, 1), (10, 2), (20, 1)]:
            powers = [
                exact_power(m, m, r, r, g, 0.05) for g in (1.0, 2.0, 3.0, 5.0, 10.0)
            ]
            assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_two_sided_behavior(self):
        """Power exceeds the level on both sides of gamma = 1."""
        for gamma in (0.2, 5.0):
            assert exact_power(10, 10, 2, 2, gamma, 0.05) > 0.05

    def test_alpha_validation(self):
        with pytest.raises(ParameterError):
            exact_power(10, 10, 1, 1, 2.0, 0.0)


def _assert_pinned_outputs(data_dir):
    pinned = json.loads((data_dir / "pinned_outputs.json").read_text())["lehmann"]
    for case in pinned:
        m, n, r, s, gamma = case["shape"]
        assert list(alternative_distribution(m, n, r, s, gamma).pmf_values) == case["pmf"]
        assert exact_power(m, n, r, s, gamma, 0.05) == case["exact_power"]


def test_pmfs_and_powers_match_pinned_outputs(data_dir):
    """pmfs and exact powers equal, bit for bit, the values recorded once
    ln S came from the float logarithm of its mantissa and exact_power read
    a truncated law with capped side tables and its own Beta-sum digits:
    r = 1, r != s and n >> m among the shapes."""
    _assert_pinned_outputs(data_dir)


def test_cancelling_shapes_match_pinned_outputs(data_dir):
    """ln S of the diagonal Beta sums and pmfs, recorded with the pmfs
    above, at shapes whose Beta sums cancel heavily equal their pins bit for
    bit: a change of arithmetic would show here first."""
    pinned = json.loads((data_dir / "pinned_outputs.json").read_text())["lehmann_cancelling"]
    for case in pinned:
        m, n, r, s, gamma = case["shape"]
        if "log_beta_sums" in case:
            diagonal = _beta_sums(0, m + 1, n - r - s, r, gamma, m + 1)
            assert [log_s.hex() for log_s in diagonal] == case["log_beta_sums"]
        else:
            pmf = alternative_distribution(m, n, r, s, gamma).pmf_values
            assert [p.hex() for p in pmf] == case["pmf"]


def test_pins_stay_near_their_previous_values(data_dir):
    """Each re-recorded pin lies near the value it replaced, kept under
    `previous`: pmf entries within 1e-12 relative, powers within 1e-14, and
    ln S within a unit in the last place of max(1, |ln S|)."""
    pinned = json.loads((data_dir / "pinned_outputs.json").read_text())
    cases = pinned["lehmann"] + pinned["lehmann_cancelling"]
    assert len(cases) == 11
    for case in cases:
        key = "pmf" if "pmf" in case else "log_beta_sums"
        old, new = (
            [p if isinstance(p, float) else float.fromhex(p) for p in c[key]]
            for c in (case["previous"], case)
        )
        assert len(new) == len(old)
        if key == "pmf":
            assert all(b == pytest.approx(a, rel=1e-12, abs=0) for a, b in zip(old, new))
        else:
            assert all(abs(b - a) <= math.ulp(max(1.0, abs(a))) for a, b in zip(old, new))
        if "exact_power" in case:
            assert abs(case["exact_power"] - case["previous"]["exact_power"]) <= 1e-14


def _compensated_sum(items, start=0):
    """sum() as Python 3.12 and later run it: floats with Neumaier's
    compensation, integers exactly."""
    items = list(items)
    if not all(type(x) is float for x in items):
        return builtins.sum(items, start)
    total, compensation = float(start), 0.0
    for x in items:
        t = total + x
        compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + compensation if compensation and math.isfinite(compensation) else total


def test_pinned_outputs_hold_under_compensated_sum(data_dir, monkeypatch):
    """The pins hold on every Python version: the float sums run left to
    right, not through sum(), which compensates them from Python 3.12 on."""
    monkeypatch.setattr(lehmann, "sum", _compensated_sum, raising=False)
    monkeypatch.setattr(null_dist, "sum", _compensated_sum, raising=False)
    _assert_pinned_outputs(data_dir)


@pytest.mark.parametrize("m,top", [(1, 0), (1, 1), (7, 4), (40, 40), (300, 120), (1000, 1000)])
def test_falling_factorial_logs_equal_the_per_t_permutation_counts(m, top):
    """_log_counts takes m! / (m-t)! as running products, the same integers
    as math.perm(m, t), so every logarithm is the same float."""
    log_c, log_perm = lehmann._log_counts(m, m + 5, 2, 3, 1.5, top)
    assert log_c == math.log(math.perm(m + 5, 5)) + 5 * math.log(1.5)
    assert log_perm == [math.log(math.perm(m, t)) for t in range(top + 1)]
