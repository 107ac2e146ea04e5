import itertools
import math
import multiprocessing
import os
import subprocess
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from maxpe import inference
from maxpe.errors import ParameterError
from maxpe.inference import (
    AlternativeSpec,
    SeededRng,
    _Job,
    _block_histogram,
    _chunk_statistics,
    _draw_block,
    critical_value,
    mc_power,
    randomized_decision,
    sample_pair,
    table_experiment,
)
from maxpe.null_dist import null_distribution
from maxpe.statistics import statistic_bundle
from reference_tables import POWER_T_UNEQUAL


class TestSeededRng:
    def test_same_key_same_sequence(self):
        a = SeededRng(12, 34).generator(purpose=1, block=2).random(8)
        b = SeededRng(12, 34).generator(purpose=1, block=2).random(8)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = SeededRng(12, 0).generator().random(8)
        b = SeededRng(12, 1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_distinct_purposes_and_blocks_differ(self):
        base = SeededRng(5)
        assert not np.array_equal(
            base.generator(purpose=1, block=0).random(4),
            base.generator(purpose=2, block=0).random(4),
        )
        assert not np.array_equal(
            base.generator(purpose=1, block=0).random(4),
            base.generator(purpose=1, block=1).random(4),
        )

    def test_rejects_oversized_seed(self):
        with pytest.raises(ParameterError):
            SeededRng(2**64)
        with pytest.raises(ParameterError):
            SeededRng(1, -3)


class TestCriticalValue:
    def test_reference_rows(self):
        crit = critical_value(10, 10, 1, 1, 0.05)
        assert crit.c == 6
        assert round(float(crit.alpha1), 2) == 0.03
        assert round(float(crit.alpha2), 2) == 0.07

        crit = critical_value(20, 20, 1, 3, 0.05)
        assert crit.c == 8
        assert round(float(crit.alpha1), 2) == 0.02
        assert round(float(crit.alpha2), 2) == 0.05

    def test_exact_values_are_rational(self):
        crit = critical_value(8, 9, 2, 2, 0.05)
        assert isinstance(crit.alpha1, Fraction)
        assert crit.alpha1 <= Fraction(1, 20) < crit.alpha2

    def test_extreme_level_does_not_error(self):
        crit = critical_value(6, 6, 1, 1, 0.999)
        assert crit.c in (0, 1)
        assert crit.alpha1 <= Fraction(999, 1000)
        assert crit.alpha2 == 1

    def test_randomized_size_is_exactly_alpha(self):
        """The interpolated rule attains the nominal size in exact
        arithmetic: sum_t pmf(t) * phi(t) == alpha."""
        for m, n, r, s, alpha in [
            (10, 10, 1, 1, 0.05),
            (8, 12, 2, 3, 0.1),
            (5, 7, 1, 2, 0.03),
        ]:
            crit = critical_value(m, n, r, s, alpha)
            dist = null_distribution(m, n, r, s)
            alpha_exact = Fraction(alpha)
            phi_boundary = (alpha_exact - crit.alpha1) / (crit.alpha2 - crit.alpha1)
            size = dist.tail(crit.c) + phi_boundary * dist.pmf(crit.c - 1)
            assert size == alpha_exact

    def test_scan_equals_the_all_tails_rule(self):
        """The scan of the null cdf that stops at c gives the same (c, alpha1,
        alpha2) as the minimal c over every tail, as Fractions, also when
        alpha is an attained tail exactly or as a float."""
        for m, n in itertools.product(range(1, 11), range(2, 11)):
            for r, s in itertools.product(range(1, n), repeat=2):
                if r + s > n:
                    continue
                dist = null_distribution(m, n, r, s)
                tails = [dist.tail(t) for t in range(m + 2)]
                attained = [t for t in tails if 0 < t < 1]
                levels = [0.01, 0.05, 0.1, 0.5, 0.999] + attained + list(map(float, attained))
                for alpha in levels:
                    c = next(t for t, mass in enumerate(tails) if mass <= alpha)
                    expected = (c, tails[c], tails[c - 1])
                    crit = critical_value(m, n, r, s, alpha)
                    assert crit == expected
                    assert type(crit.alpha1) is type(crit.alpha2) is Fraction

    def test_monte_carlo_matches_exact(self):
        for m, n, r, s in [(10, 10, 1, 1), (20, 20, 3, 3)]:
            exact = critical_value(m, n, r, s, 0.05)
            mc = critical_value(
                m, n, r, s, 0.05, method="monte_carlo", reps=100_000,
                rng=SeededRng(7),
            )
            assert mc.c == exact.c
            assert mc.alpha1 == pytest.approx(float(exact.alpha1), abs=0.004)

    def test_monte_carlo_reproduces_rate_grid(self):
        """100k-replicate calibration recovers the exact c on at least 95%
        of the published rate grid (boundary cells may flip by one)."""
        from reference_tables import CRITICAL_RATE_GRID

        hits = 0
        for idx, (rho, m, n, r, *_rest) in enumerate(CRITICAL_RATE_GRID):
            exact = critical_value(m, n, r, r, 0.05)
            mc = critical_value(
                m, n, r, r, 0.05, method="monte_carlo", reps=100_000,
                rng=SeededRng(83, stream=idx),
            )
            hits += mc.c == exact.c
        assert hits >= 0.95 * len(CRITICAL_RATE_GRID)

    def test_monte_carlo_needs_enough_reps(self):
        with pytest.raises(ParameterError):
            critical_value(10, 10, 1, 1, 0.05, method="monte_carlo", reps=100)

    def test_rejects_unknown_method(self):
        with pytest.raises(ParameterError):
            critical_value(10, 10, 1, 1, 0.05, method="bootstrap")


class TestRandomizedDecision:
    def test_at_or_above_critical_rejects(self):
        d = randomized_decision(6, 6, 0.05, 0.03, 0.07)
        assert d.phi == 1 and d.outcome == "reject" and d.rejected

    def test_boundary_interpolation(self):
        d = randomized_decision(5, 6, 0.05, 0.03, 0.07, rng=SeededRng(3))
        assert d.phi == pytest.approx(0.5)
        assert d.outcome == "randomized"

    def test_below_boundary_accepts(self):
        d = randomized_decision(4, 6, 0.05, 0.03, 0.07)
        assert d.phi == 0 and d.outcome == "accept" and not d.rejected

    def test_exact_phi_with_fractions(self):
        d = randomized_decision(
            5, 6, Fraction(1, 20), Fraction(3, 100), Fraction(7, 100)
        )
        assert d.phi == Fraction(1, 2)

    def test_randomization_is_reproducible(self):
        a = randomized_decision(5, 6, 0.05, 0.03, 0.07, rng=SeededRng(11))
        b = randomized_decision(5, 6, 0.05, 0.03, 0.07, rng=SeededRng(11))
        assert a.rejected == b.rejected

    def test_validates_alpha_ordering(self):
        with pytest.raises(ParameterError):
            randomized_decision(5, 6, 0.02, 0.03, 0.07)


class TestSamplePair:
    def test_returns_labeled_samples(self):
        x, y = sample_pair(5, 8, AlternativeSpec.lehmann(2.0), SeededRng(0))
        assert len(x) == 5 and len(y) == 8
        assert x.label == "training" and y.label == "test"

    def test_null_case_is_exchangeable(self):
        """Two-sample Kolmogorov-Smirnov on pooled draws at gamma = 1."""
        gen = SeededRng(99).generator(purpose=1)
        x, y = _draw_block(AlternativeSpec.lehmann(1.0), 2500, 20, 20, gen)
        xs = np.sort(x.ravel())
        ys = np.sort(y.ravel())
        grid = np.concatenate([xs, ys])
        f1 = np.searchsorted(xs, grid, side="right") / xs.size
        f2 = np.searchsorted(ys, grid, side="right") / ys.size
        d_stat = np.abs(f1 - f2).max()
        n1 = n2 = xs.size
        threshold = math.sqrt(-math.log(0.0005) / 2) * math.sqrt(
            (n1 + n2) / (n1 * n2)
        )
        assert d_stat < threshold

    def test_lehmann_mass_below_baseline_median(self):
        """P[Y <= median of F] = 0.5 ** gamma under G = F^gamma."""
        gamma = 4.0
        gen = SeededRng(17).generator(purpose=1)
        _, y = _draw_block(AlternativeSpec.lehmann(gamma), 5000, 1, 20, gen)
        frac = float((y < 0.5).mean())
        assert frac == pytest.approx(0.5**gamma, abs=0.003)

    def test_weibull_mean(self):
        shape = 2.5
        gen = SeededRng(23).generator(purpose=1)
        x, _ = _draw_block(AlternativeSpec.weibull(shape, 1.0), 5000, 20, 1, gen)
        mean = float(x.mean())
        std = float(x.std())
        se = std / math.sqrt(x.size)
        assert abs(mean - math.gamma(1 + 1 / shape)) <= 3 * se

    def test_exponential_rate_applies_to_varied_group(self):
        gen = SeededRng(29).generator(purpose=1)
        x, y = _draw_block(AlternativeSpec.exponential(0.2), 4000, 10, 10, gen)
        assert float(y.mean()) == pytest.approx(5.0, rel=0.05)
        assert float(x.mean()) == pytest.approx(1.0, rel=0.05)
        gen = SeededRng(29).generator(purpose=1)
        x2, y2 = _draw_block(
            AlternativeSpec.exponential(0.2, varied="training"), 4000, 10, 10, gen
        )
        assert float(x2.mean()) == pytest.approx(5.0, rel=0.05)
        assert float(y2.mean()) == pytest.approx(1.0, rel=0.05)

    def test_exponential_draws_are_shape_one_weibull_draws(self):
        """_draw_group draws an exponential as the Weibull of shape 1: numpy
        gives the same bits for all three from one key."""
        def draw(name, *args):
            return getattr(SeededRng(31, stream=4).generator(purpose=1, block=2), name)(*args)

        weibull = draw("weibull", 1.0, (50, 40))
        assert np.array_equal(weibull, draw("exponential", 1.0, (50, 40)))
        assert np.array_equal(weibull, draw("standard_exponential", (50, 40)))

    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            AlternativeSpec.lehmann(-1.0)
        with pytest.raises(ParameterError):
            AlternativeSpec.weibull(0.0, 1.0)
        with pytest.raises(ParameterError):
            AlternativeSpec(kind="lognormal")

    @pytest.mark.parametrize(
        "alt,described,varied",
        [
            (AlternativeSpec.lehmann(0.5), "lehmann(gamma=0.5)", 0.5),
            (AlternativeSpec.exponential(2.0), "exponential(rate=2)", 2.0),
            (AlternativeSpec.weibull(2.5, 0.75), "weibull(shape=2.5, scale=0.75)", 0.75),
        ],
    )
    def test_description_and_varied_value(self, alt, described, varied):
        assert alt.describe() == described
        assert alt.varied_value == varied


class TestBlockStatisticsAgainstScalar:
    @pytest.mark.parametrize("statistic", ["T", "V", "Q"])
    def test_matches_statistic_bundle_with_ties(self, statistic):
        rng = np.random.default_rng(2024)
        m = n = 12
        r = s = 3
        # integer-valued draws force heavy ties through the same code path
        x = rng.integers(0, 8, size=(300, m)).astype(float)
        y = rng.integers(0, 8, size=(300, n)).astype(float)
        block = _chunk_statistics(np.sort(x, axis=1), y.copy(), r, s, statistic)
        for row in range(x.shape[0]):
            bundle = statistic_bundle(x[row], y[row], r, s)
            expected = {
                "T": bundle.max_sum,
                "V": bundle.count_sum,
                "Q": bundle.max_precedence,
            }[statistic]
            assert block[row] == expected

    @pytest.mark.parametrize("statistic", ["T", "V", "Q"])
    def test_row_chunks_match_one_pass(self, statistic, monkeypatch):
        alt = AlternativeSpec.weibull(1.5, 1.3, varied="training")
        cell = (12, 12, 3, 3, statistic)

        def histogram():
            generator = SeededRng(11).generator(purpose=1, block=3)
            return _block_histogram(_Job(1, generator, 310, alt, cell))

        whole = histogram()
        assert whole.sum() == 310
        # 2000 bytes make y chunks of 20 rows at n = 12, the last one of 10
        monkeypatch.setattr(inference, "_CHUNK_BYTES", 2000)
        assert np.array_equal(histogram(), whole)

    def test_overlapping_cell_blocks(self):
        """Two levels often tie Y_(n-s+1) with Y_(r), so the blocks overlap."""
        rng = np.random.default_rng(7)
        x = rng.integers(0, 2, size=(300, 12)).astype(float)
        y = rng.integers(0, 2, size=(300, 12)).astype(float)
        block = _chunk_statistics(np.sort(x, axis=1), y.copy(), 3, 3, "T")
        for row in range(300):
            assert block[row] == statistic_bundle(x[row], y[row], 3, 3).max_sum

    def test_unequal_sizes(self):
        rng = np.random.default_rng(5)
        x = rng.random((100, 7))
        y = rng.random((100, 11))
        block = _chunk_statistics(np.sort(x, axis=1), y.copy(), 2, 4, "T")
        for row in range(100):
            assert block[row] == statistic_bundle(x[row], y[row], 2, 4).max_sum


class TestRankSpaceBlocks:
    """Blocks draw in rank space, yet count what the real samples give."""

    @pytest.mark.parametrize("statistic", ["T", "V", "Q"])
    @pytest.mark.parametrize("varied", ["test", "training"])
    @pytest.mark.parametrize(
        "kind, params",
        [
            ("lehmann", {"gamma": 2.0}),
            ("lehmann", {"gamma": 1.0}),  # the map a block skips
            ("exponential", {"rate": 0.5}),
            ("weibull", {"shape": 1.5, "scale": 1.3}),
            ("weibull", {"shape": 300.0, "scale": 20.0}),  # scale ** shape overflows
        ],
    )
    def test_histogram_equals_real_samples(self, kind, params, varied, statistic):
        alt = AlternativeSpec(kind=kind, varied=varied, **params)
        m = n = 24
        r = s = 3
        rows = 300
        histogram = _block_histogram(
            _Job(1, SeededRng(41).generator(1, 5), rows, alt, (m, n, r, s, statistic))
        )
        x, y = _draw_block(alt, rows, m, n, SeededRng(41).generator(1, 5))
        field = {"T": "max_sum", "V": "count_sum", "Q": "max_precedence"}[statistic]
        values = [getattr(statistic_bundle(x[i], y[i], r, s), field) for i in range(rows)]
        expected = np.bincount(values, minlength=histogram.size)
        assert np.array_equal(histogram, expected)


class TestMcPower:
    def test_bit_identical_reruns(self):
        kwargs = dict(reps=20_000, rng=SeededRng(31))
        a = mc_power(10, 10, 1, 1, 0.05, AlternativeSpec.lehmann(2.0), "T", **kwargs)
        b = mc_power(10, 10, 1, 1, 0.05, AlternativeSpec.lehmann(2.0), "T", **kwargs)
        assert a == b

    @pytest.mark.parametrize("statistic", ["T", "V", "Q"])
    def test_worker_layouts_agree(self, statistic, monkeypatch):
        args = (30, 30, 3, 3, 0.05, AlternativeSpec.exponential(0.5), statistic)
        kwargs = dict(reps=20_000, rng=SeededRng(19))
        monkeypatch.setattr(inference, "_worker_count", lambda: 1)
        inline = mc_power(*args, **kwargs)
        # more threads than cores, switching often: a lost block would show
        monkeypatch.setattr(inference, "_worker_count", lambda: 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            pooled = mc_power(*args, **kwargs)
        finally:
            sys.setswitchinterval(interval)
        assert pooled == inline

    def test_forked_child_makes_its_own_pool(self, monkeypatch):
        args = (20, 20, 1, 1, 0.05, AlternativeSpec.lehmann(2.0), "T")
        kwargs = dict(reps=20_000, rng=SeededRng(23))
        monkeypatch.setattr(inference, "_worker_count", lambda: 2)
        expected = mc_power(*args, **kwargs)  # the parent has run a pool
        with multiprocessing.get_context("fork").Pool(1) as pool:
            result = pool.apply_async(mc_power, args, kwargs).get(timeout=60)
        assert result == expected

    def test_pool_threads_end_with_the_call(self, monkeypatch):
        monkeypatch.setattr(inference, "_worker_count", lambda: 2)
        mc_power(12, 12, 1, 1, 0.05, AlternativeSpec.lehmann(2.0), "T",
                 reps=3 * inference._BLOCK, rng=SeededRng(5))
        assert not [t for t in threading.enumerate() if t.name.startswith("maxpe-mc")]

    def test_import_starts_no_pool(self):
        script = (
            "import sys, threading, maxpe.cli\n"
            "print('concurrent.futures' in sys.modules, threading.active_count())\n"
        )
        src = os.path.dirname(os.path.dirname(inference.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert result.stdout.split() == ["False", "1"]

    def test_streams_agree_within_error(self):
        a = mc_power(
            10, 10, 1, 1, 0.05, AlternativeSpec.lehmann(2.0), "T",
            reps=50_000, rng=SeededRng(31, stream=0),
        )
        b = mc_power(
            10, 10, 1, 1, 0.05, AlternativeSpec.lehmann(2.0), "T",
            reps=50_000, rng=SeededRng(31, stream=1),
        )
        joint_se = math.hypot(a.std_error, b.std_error)
        assert abs(a.power - b.power) <= 4 * joint_se

    @pytest.mark.parametrize("statistic", ["T", "V", "Q"])
    def test_size_at_gamma_one(self, statistic):
        est = mc_power(
            10, 10, 2, 2, 0.05, AlternativeSpec.lehmann(1.0), statistic,
            reps=40_000, rng=SeededRng(37),
        )
        se = math.sqrt(0.05 * 0.95 / 40_000)
        assert abs(est.power - 0.05) <= 3 * se

    def test_rejects_too_few_reps(self):
        with pytest.raises(ParameterError):
            mc_power(10, 10, 1, 1, 0.05, AlternativeSpec.lehmann(2.0), "T", reps=10)

    def test_count_sum_requires_square_setup(self):
        with pytest.raises(ParameterError):
            mc_power(10, 12, 1, 1, 0.05, AlternativeSpec.lehmann(2.0), "V")
        with pytest.raises(ParameterError):
            mc_power(10, 10, 1, 2, 0.05, AlternativeSpec.lehmann(2.0), "V")

    def test_cell_counts_must_fit_the_test_sample(self):
        for statistic in ("T", "V", "Q"):
            with pytest.raises(ParameterError):
                mc_power(10, 10, 6, 6, 0.05, AlternativeSpec.lehmann(2.0), statistic)
        with pytest.raises(ParameterError):
            critical_value(10, 10, 12, 1, 0.05, method="monte_carlo", reps=10_000)

    def test_largest_group_reference_cell(self):
        """One 100k-replicate reference cell at m = n = 30."""
        est = mc_power(
            30, 30, 1, 1, 0.05, AlternativeSpec.lehmann(5.0), "T",
            reps=100_000, rng=SeededRng(67),
        )
        assert est.power == pytest.approx(0.980, abs=0.01)

    def test_maximal_precedence_reference_column(self):
        """Published maximal-precedence powers at m = n = 25.

        Tolerance is looser than for the max-sum test: the competitor's
        critical values are Monte-Carlo calibrated here, and at r = 2 the
        exact tail sits so close to the level that the calibrated c can
        land one above the published value.
        """
        from reference_tables import COMPARE_25_Q_CRIT, POWER_COMPARE_25_Q

        for gamma, refs in POWER_COMPARE_25_Q.items():
            for idx, ref in enumerate(refs):
                r = idx + 1
                est = mc_power(
                    25, 25, r, r, 0.05, AlternativeSpec.lehmann(gamma), "Q",
                    reps=100_000, rng=SeededRng(73, stream=int(gamma * 10) + r),
                )
                assert est.power == pytest.approx(ref, abs=0.015)
                assert est.c in (COMPARE_25_Q_CRIT[idx], COMPARE_25_Q_CRIT[idx] + 1)

    def test_power_direction_under_lifetime_alternatives(self):
        """Slower test group (larger mean) inflates precedence counts, so
        the count-sum test sees high power; a faster test group kills it."""
        slow = mc_power(
            15, 15, 1, 1, 0.05, AlternativeSpec.exponential(1 / 5), "V",
            reps=20_000, rng=SeededRng(41),
        )
        fast = mc_power(
            15, 15, 1, 1, 0.05, AlternativeSpec.exponential(5.0), "V",
            reps=20_000, rng=SeededRng(41),
        )
        assert slow.power > 0.5
        assert fast.power < 0.01
        both = [
            mc_power(
                15, 15, 1, 1, 0.05, AlternativeSpec.exponential(lam), "T",
                reps=20_000, rng=SeededRng(43),
            ).power
            for lam in (1 / 5, 5.0)
        ]
        assert min(both) > 0.2  # the max-sum test rejects in both directions


class TestTableExperiment:
    def test_deterministic_rows(self):
        cells = [
            {"m": 10, "n": 10, "r": 1, "s": 1, "alt": AlternativeSpec.lehmann(2.0)},
            {"m": 10, "n": 10, "r": 2, "s": 2, "alt": AlternativeSpec.lehmann(0.5)},
        ]
        rows_a = table_experiment(cells, reps=5_000, seed=50)
        rows_b = table_experiment(cells, reps=5_000, seed=50)
        assert rows_a == rows_b
        assert rows_a[0]["power"] != rows_a[1]["power"]

    def test_null_row_attains_level(self):
        cells = [
            {"m": 12, "n": 12, "r": 1, "s": 1, "alt": AlternativeSpec.lehmann(1.0)}
        ]
        row = table_experiment(cells, reps=40_000, seed=51)[0]
        se = math.sqrt(0.05 * 0.95 / 40_000)
        assert abs(row["power"] - 0.05) <= 3 * se

    def test_empty_grid_rejected(self):
        with pytest.raises(ParameterError):
            table_experiment([], reps=5_000, seed=1)

    def test_unequal_size_reference_grid(self):
        """100k-replicate reference powers for m = 30 with n in {10, 25}.

        The published (n=25, gamma=5) column disagrees with the exact
        distribution by up to 0.034 (its first rows repeat the next row's
        value), so it is excluded; the exact computation and a million-
        replicate simulation agree with each other there.
        """
        cells = [
            {"m": 30, "n": n, "r": r, "s": r, "alt": AlternativeSpec.lehmann(g)}
            for (n, g), by_r in sorted(POWER_T_UNEQUAL.items())
            for r in sorted(by_r)
            if (n, g) != (25, 5.0)
        ]
        rows = table_experiment(cells, reps=100_000, seed=60)
        for row in rows:
            ref = POWER_T_UNEQUAL[(row["n"], row["param"])][row["r"]]
            assert row["power"] == pytest.approx(ref, abs=0.01)

    def test_unequal_size_excluded_column_is_internally_consistent(self):
        """For the excluded cell the simulation must match our exact value."""
        from maxpe.lehmann import exact_power

        exact = exact_power(30, 25, 1, 1, 5.0, 0.05)
        est = mc_power(
            30, 25, 1, 1, 0.05, AlternativeSpec.lehmann(5.0), "T",
            reps=200_000, rng=SeededRng(61),
        )
        assert abs(est.power - exact) <= 4 * est.std_error


# Seeded outputs recorded at the commit before the block-parallel engine; any
# change to the draw order, the block layout or the kernel moves them.
_PINNED_POWER = [
    ("T", 20, 1, "lehmann", {"gamma": 2.0}, "test",
     (0.327109375, 0.0033174450393873094, 6, 0.04573804573804574, 0.09088209088209089)),
    ("T", 20, 1, "lehmann", {"gamma": 2.0}, "training",
     (0.07348052631578947, 0.0018450086526645888, 6, 0.04573804573804574, 0.09088209088209089)),
    ("T", 20, 1, "exponential", {"rate": 0.5}, "test",
     (0.07509294407894737, 0.001863518095277095, 6, 0.04573804573804574, 0.09088209088209089)),
    ("T", 20, 1, "exponential", {"rate": 0.5}, "training",
     (0.31974347039473683, 0.0032977839796950533, 6, 0.04573804573804574, 0.09088209088209089)),
    ("T", 20, 1, "weibull", {"shape": 1.5, "scale": 1.3}, "test",
     (0.04479868421052632, 0.001462733094305517, 6, 0.04573804573804574, 0.09088209088209089)),
    ("T", 20, 1, "weibull", {"shape": 1.5, "scale": 1.3}, "training",
     (0.1438872697368421, 0.0024817707724981305, 6, 0.04573804573804574, 0.09088209088209089)),
    ("V", 30, 3, "lehmann", {"gamma": 2.0}, "test",
     (0.6526151270207853, 0.0033668132039395174, 13, 0.03785, 0.0595)),
    ("V", 30, 3, "lehmann", {"gamma": 2.0}, "training",
     (0.00012806004618937645, 8.001363846680965e-05, 13, 0.03785, 0.0595)),
    ("V", 30, 3, "exponential", {"rate": 0.5}, "test",
     (0.653155427251732, 0.003365586242420029, 13, 0.03785, 0.0595)),
    ("V", 30, 3, "exponential", {"rate": 0.5}, "training",
     (0.00011224018475750581, 7.490914059660257e-05, 13, 0.03785, 0.0595)),
    ("V", 30, 3, "weibull", {"shape": 1.5, "scale": 1.3}, "test",
     (0.3220549653579677, 0.00330405481678381, 13, 0.03785, 0.0595)),
    ("V", 30, 3, "weibull", {"shape": 1.5, "scale": 1.3}, "training",
     (0.0028856812933025404, 0.00037929896762158634, 13, 0.03785, 0.0595)),
    ("Q", 30, 3, "lehmann", {"gamma": 2.0}, "test",
     (0.566675323910483, 0.0035039577707317777, 6, 0.0355, 0.07795)),
    ("Q", 30, 3, "lehmann", {"gamma": 2.0}, "training",
     (0.00032202591283863376, 0.00012687044812526165, 6, 0.0355, 0.07795)),
    ("Q", 30, 3, "exponential", {"rate": 0.5}, "test",
     (0.2346528268551237, 0.0029965887080480617, 6, 0.0355, 0.07795)),
    ("Q", 30, 3, "exponential", {"rate": 0.5}, "training",
     (0.0052714958775029455, 0.0005120403894575317, 6, 0.0355, 0.07795)),
    ("Q", 30, 3, "weibull", {"shape": 1.5, "scale": 1.3}, "test",
     (0.1311190812720848, 0.0023867013616961927, 6, 0.0355, 0.07795)),
    ("Q", 30, 3, "weibull", {"shape": 1.5, "scale": 1.3}, "training",
     (0.01374693757361602, 0.0008233455921107225, 6, 0.0355, 0.07795)),
    # the two-sided T path with r = s = 3, recorded before blocks drew in rank space
    ("T", 30, 3, "lehmann", {"gamma": 2.0}, "test",
     (0.32487442449972725, 0.003311578421279634, 9, 0.0367313448163742, 0.07251044836090458)),
    ("T", 30, 3, "lehmann", {"gamma": 2.0}, "training",
     (0.06509033343089336, 0.0017443276917590413, 9, 0.0367313448163742, 0.07251044836090458)),
    ("T", 30, 3, "exponential", {"rate": 0.5}, "test",
     (0.06566118272193587, 0.0017514250170288825, 9, 0.0367313448163742, 0.07251044836090458)),
    ("T", 30, 3, "exponential", {"rate": 0.5}, "training",
     (0.3226035752086847, 0.0033055295224158807, 9, 0.0367313448163742, 0.07251044836090458)),
    ("T", 30, 3, "weibull", {"shape": 1.5, "scale": 1.3}, "test",
     (0.04176127057456489, 0.0014145187671883834, 9, 0.0367313448163742, 0.07251044836090458)),
    ("T", 30, 3, "weibull", {"shape": 1.5, "scale": 1.3}, "training",
     (0.14383786668639706, 0.002481416276982797, 9, 0.0367313448163742, 0.07251044836090458)),
]


class TestPinnedStream:
    @pytest.mark.parametrize(
        "statistic, m, r, kind, params, varied, expected", _PINNED_POWER
    )
    def test_mc_power(self, statistic, m, r, kind, params, varied, expected):
        alt = AlternativeSpec(kind=kind, varied=varied, **params)
        est = mc_power(
            m, m, r, r, 0.05, alt, statistic, reps=20_000,
            rng=SeededRng(2024, stream=7),
        )
        assert tuple(est) == expected

    def test_monte_carlo_critical_value(self):
        crit = critical_value(
            25, 25, 2, 3, 0.05, method="monte_carlo", reps=20_000,
            rng=SeededRng(5, 9),
        )
        assert tuple(crit) == (8, 0.0495, 0.0977)
