import math
from itertools import product

import mpmath
import pytest

from maxpe.combinatorics import binomial, bounded_composition_count, log_beta
from maxpe.null_dist import _side_rows
from null_oracle import exact_max_composition_count


class TestBinomial:
    def test_small_values(self):
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1

    @pytest.mark.parametrize("n", [0, 1, 7, 40, 123])
    def test_k_zero_is_one(self, n):
        assert binomial(n, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binomial(5, -1) == 0
        assert binomial(5, 6) == 0

    def test_large_value_against_pascal_triangle(self):
        # independent oracle: build Pascal's triangle row by row
        row = [1]
        for _ in range(40):
            row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
        assert binomial(40, 20) == row[20] == 137846528820

    def test_pascal_identity(self):
        for n in range(1, 61):
            for k in range(n + 1):
                assert binomial(n, k) == binomial(n - 1, k - 1) + binomial(n - 1, k)


class TestLogBeta:
    def test_known_values(self):
        assert log_beta(1, 1) == pytest.approx(0.0, abs=1e-15)
        assert log_beta(2, 3) == pytest.approx(math.log(1 / 12), rel=1e-13)
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), rel=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)
        with pytest.raises(ValueError):
            log_beta(1.0, -2.0)

    def test_matches_integer_gamma_ratio(self):
        for a in range(1, 21):
            for b in range(1, 21):
                exact = (
                    math.factorial(a - 1)
                    * math.factorial(b - 1)
                    / math.factorial(a + b - 1)
                )
                assert math.exp(log_beta(a, b)) == pytest.approx(exact, rel=1e-10)

    def test_accuracy_against_mpmath_up_to_1e4(self):
        """Relative error of the returned log value stays below 1e-12."""
        grid = [0.5, 1.0, 3.7, 25.0, 313.0, 4999.5, 10000.0]
        with mpmath.workdps(40):
            for a, b in product(grid, repeat=2):
                ref = float(
                    mpmath.log(mpmath.beta(mpmath.mpf(a), mpmath.mpf(b)))
                )
                assert abs(log_beta(a, b) - ref) <= 1e-12 * max(1.0, abs(ref))


def _brute_force_bounded(total, boxes, cap):
    return sum(
        1
        for parts in product(range(cap + 1), repeat=boxes)
        if sum(parts) == total
    )


def bounded_composition_count_dp(total, boxes, cap):
    """Dynamic-programming evaluation of bounded_composition_count.

    Independent of the inclusion-exclusion route; a cross-check oracle.
    Uses a sliding-window prefix sum, O(boxes * total) time.
    """
    if total < 0:
        return 0
    if cap < 0 or boxes == 0:
        return 1 if total == 0 else 0
    ways = [1] + [0] * total
    for _ in range(boxes):
        prefix = [0] * (total + 2)
        for t in range(total + 1):
            prefix[t + 1] = prefix[t] + ways[t]
        nxt = [0] * (total + 1)
        for t in range(total + 1):
            lo = max(0, t - cap)
            nxt[t] = prefix[t + 1] - prefix[lo]
        ways = nxt
    return ways[total]


class TestBoundedCompositions:
    def test_examples(self):
        assert bounded_composition_count(0, 3, 5) == 1
        assert bounded_composition_count(2, 2, 1) == 1  # only (1, 1)
        assert bounded_composition_count(3, 2, 2) == 2  # (1,2), (2,1)

    def test_negative_cap_counts_empty_sum_only(self):
        assert bounded_composition_count(0, 3, -1) == 1
        assert bounded_composition_count(2, 3, -1) == 0

    def test_against_direct_enumeration(self):
        for boxes in range(1, 5):
            for cap in range(0, 5):
                for total in range(0, 9):
                    expected = _brute_force_bounded(total, boxes, cap)
                    assert bounded_composition_count(total, boxes, cap) == expected

    def test_inclusion_exclusion_equals_dp(self):
        for total in range(31):
            for boxes in range(1, 9):
                for cap in range(31):
                    assert bounded_composition_count(
                        total, boxes, cap
                    ) == bounded_composition_count_dp(total, boxes, cap)


class TestExactMaxCompositions:
    def test_examples(self):
        assert exact_max_composition_count(0, 2, 0) == 1  # the (0, 0) tuple
        assert exact_max_composition_count(2, 2, 2) == 2  # (0,2), (2,0)
        assert exact_max_composition_count(3, 2, 2) == 2  # (1,2), (2,1)

    def test_peak_zero(self):
        assert exact_max_composition_count(0, 4, 0) == 1
        assert exact_max_composition_count(1, 4, 0) == 0

    def test_against_direct_enumeration(self):
        for boxes in range(1, 5):
            # the kernel's side rows, whose peak ranges start at 0 and above
            rows = {lo: _side_rows(boxes, range(lo, 9), 8) for lo in (0, 1, 3, 8)}
            for total in range(0, 9):
                for peak in range(0, 9):
                    expected = sum(
                        1
                        for parts in product(range(total + 1), repeat=boxes)
                        if sum(parts) == total and max(parts) == peak
                    )
                    assert exact_max_composition_count(total, boxes, peak) == expected
                    for lo, by_peak in rows.items():
                        if peak < lo:
                            continue
                        row = by_peak[peak]  # totals peak..min(boxes * peak, 8)
                        if peak <= total < peak + len(row):
                            assert row[total - peak] == expected
                        else:
                            assert expected == 0
            for by_peak in rows.values():
                assert all(len(by_peak[p]) == min(boxes * p, 8) - p + 1 for p in by_peak)

    def test_side_rows_are_capped_count_differences(self):
        for boxes in range(1, 9):
            for length in range(31):
                rows = _side_rows(boxes, range(length + 1), length)
                assert rows[0] == [1]
                for peak in range(1, length + 1):
                    assert rows[peak] == [
                        bounded_composition_count(k, boxes, peak)
                        - bounded_composition_count(k, boxes, peak - 1)
                        for k in range(peak, min(boxes * peak, length) + 1)
                    ]
                for lo in (1, length // 2, length):
                    part = _side_rows(boxes, range(lo, length + 1), length)
                    assert part == {p: rows[p] for p in range(lo, length + 1)}

    def test_partition_of_all_compositions(self):
        """Summing over the exact maximum recovers the unconstrained count."""
        for total in range(13):
            for boxes in range(1, 13):
                assert sum(
                    exact_max_composition_count(total, boxes, peak)
                    for peak in range(total + 1)
                ) == binomial(total + boxes - 1, boxes - 1)
