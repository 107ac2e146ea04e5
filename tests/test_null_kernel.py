"""The shared null kernel against the direct formula, its work budget and cache."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import null_oracle
from maxpe import lehmann, null_dist
from maxpe.errors import BudgetExceededError
from maxpe.inference import critical_value
from maxpe.lehmann import alternative_distribution
from maxpe.null_dist import asymptotic_null_cdf, joint_PE_pmf, null_distribution

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("m,n,r,s", [(30, 34, 4, 2), (25, 30, 3, 4), (12, 9, 1, 5)])
def test_tables_equal_direct_formula(m, n, r, s):
    assert null_distribution(m, n, r, s).pmf_values == null_oracle.null_pmf(m, n, r, s)
    for t_max in (0, 4, 9):
        part = null_distribution(m, n, r, s, t_max=t_max)
        assert part.pmf_values == null_oracle.null_pmf(m, n, r, s, t_max)


@pytest.mark.parametrize("m,n,r,s", [(9, 11, 2, 3), (7, 7, 4, 1)])
def test_joint_cells_equal_direct_formula(m, n, r, s):
    for i in range(m + 1):
        for j in range(m + 1):
            assert joint_PE_pmf(m, n, r, s, i, j) == null_oracle.joint_cell(m, n, r, s, i, j)


def test_large_critical_value():
    start = time.perf_counter()
    assert critical_value(100, 100, 10, 10, 0.05).c == 13
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("r,s", [(1, 1), (2, 2), (2, 3), (4, 1), (5, 5)])
def test_asymptotic_matches_direct_accumulation(r, s):
    for t in (0, 1, 3, 7, 12, 20, 45):
        for n_max in (0, 6, 40):
            expected = null_oracle.asymptotic_cdf(r, s, t, n_max)
            assert asymptotic_null_cdf(r, s, t, n_max) == pytest.approx(expected, rel=1e-14)


def _counted_steps(run, monkeypatch):
    """Cross multiply-adds and null side-row entries that run() performs."""
    count, rows_of = [0], null_dist._side_rows

    def mul(a, b):
        count[0] += 1
        return a * b

    def side_rows(*args):
        rows = rows_of(*args)
        count[0] += sum(map(len, rows.values()))
        return rows

    with monkeypatch.context() as patch:
        patch.setattr(null_dist, "WORK_BUDGET", 10**9)
        patch.setattr(null_dist, "mul", mul)
        patch.setattr(null_dist, "_side_rows", side_rows)
        run()
    return count[0]


@pytest.mark.parametrize(
    "r,s,length", [(1, 1, 9), (2, 3, 12), (4, 4, 20), (5, 2, 11), (1, 5, 7), (1, 1, 30)]
)
def test_budget_counts_the_work_done(r, s, length, monkeypatch):
    weights = [1] * (length + 1)
    grids = [[(j, 0, top - j) for j in range(top + 1)] for top in (length, length // 2, 0)]
    grids += [[(2, 3, 3)], [(0, length, length)], [(length, 0, 0)]]
    for cells in grids:
        steps = _counted_steps(lambda: null_dist._kernel(r, s, weights, cells), monkeypatch)
        monkeypatch.setattr(null_dist, "WORK_BUDGET", steps)
        null_dist._kernel(r, s, weights, cells)
        monkeypatch.setattr(null_dist, "WORK_BUDGET", steps - 1)
        with pytest.raises(BudgetExceededError):
            null_dist._kernel(r, s, weights, cells)

    def lehmann():  # the same cross step over the full grid
        alternative_distribution(length, length + r + s, r, s, 2.0)

    assert _counted_steps(lehmann, monkeypatch) == null_dist._cross_steps(r, s, length, grids[0])


def _counted_side_steps(length, top, peak, monkeypatch):
    """Steps lehmann._side performs, weighed as lehmann._side_steps weighs
    them: _ENTRY_STEPS per entry of its log tables, _MOVE_STEPS per move,
    which makes one exp, _PASS_STEPS per slice pass, one zip of a row with
    its move factors, and one per multiply-add, two per entry of a pass
    that zips two moves of the row."""
    tables, moves, passes, adds = [0], [0], [0], [0]
    logs = lehmann._precedence_logs(2.0)

    def counting_logs(k, t):
        tables[0] += 1
        return logs(k, t)

    def exp(x):
        moves[0] += 1
        return math.exp(x)

    def counting_zip(*iterables):
        passes[0] += 1
        for entry in zip(*iterables):
            adds[0] += len(entry) // 2
            yield entry

    with monkeypatch.context() as patch:
        patch.setattr(lehmann, "math", SimpleNamespace(**{**vars(math), "exp": exp}))
        patch.setattr(lehmann, "zip", counting_zip, raising=False)
        lehmann._side(length, top, counting_logs, peak)
    return (
        lehmann._ENTRY_STEPS * tables[0] + lehmann._MOVE_STEPS * moves[0]
        + lehmann._PASS_STEPS * passes[0] + adds[0]
    )


@pytest.mark.parametrize(
    "length,top,peak",
    [(1, 0, 0), (1, 9, 9), (2, 0, 0), (2, 1, 1), (2, 8, 8), (3, 13, 13), (4, 10, 10), (6, 7, 7),
     (5, 1, 1), (7, 30, 30), (40, 12, 12)]
    # capped sides: no state holds a cell above peak
    + [(1, 9, 2), (2, 8, 3), (3, 13, 4), (4, 10, 0), (4, 10, 1), (5, 20, 6), (6, 7, 6),
       (7, 30, 11), (11, 25, 24), (40, 12, 5)],
)
def test_side_count_is_the_work_done(length, top, peak, monkeypatch):
    counted = _counted_side_steps(length, top, peak, monkeypatch)
    assert counted == lehmann._side_steps(length, top, peak)


def test_budget_refuses_before_working():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError):
        null_distribution(2000, 2000, 3, 3)
    assert time.perf_counter() - start < 2


def test_budget_admits_the_largest_tables_in_use():
    null_distribution(200, 200, 2, 2, t_max=10)
    null_distribution(100, 100, 10, 10)
    null_distribution(38, 38, 19, 19)


def test_admitted_exact_power_admits_its_null_table():
    """The Lehmann full-law count exact_power admits by is at least the count
    of the null table behind its critical value, at seeded shapes."""
    rnd = random.Random(26)
    for _ in range(300):
        m, r, s = rnd.randint(1, 400), rnd.randint(1, 12), rnd.randint(1, 12)
        n = r + s + rnd.randint(0, m)
        table = null_dist._kernel_steps(r, s, m, null_dist._triangle(m))
        assert lehmann._steps(m, n, r, s, m) >= table


def test_tables_are_cached_and_bounded():
    first = null_distribution(17, 19, 2, 3)
    assert null_distribution(17, 19, 2, 3) is first
    assert null_distribution.cache_info().maxsize <= 64


def test_exact_paths_load_neither_numpy_nor_mpmath(tmp_path, data_dir):
    # nor dataclasses (with inspect) or json, exact power included, whose
    # Beta sums run in decimal; what a bare interpreter already holds after
    # `site` has run in this environment does not count
    heavy = "sorted({'dataclasses', 'inspect', 'json', 'numpy', 'mpmath'} & set(sys.modules))"
    script = (
        "import sys, maxpe, maxpe.cli\n"
        "assert maxpe.cli.main(['null-dist', '--m', '8', '--n', '8', '--r', '1', '--s', '1',"
        " '--out', sys.argv[1] + '/n.csv']) == 0\n"
        "assert maxpe.cli.main(['critical-values', '--m', '10', '--n', '10',"
        " '--rho', '0.1', '--out', sys.argv[1] + '/c.csv']) == 0\n"
        "assert maxpe.cli.main(['test', '--training', sys.argv[2] + '/type1.txt',"
        " '--test', sys.argv[2] + '/type2.txt', '--r', '3', '--s', '3',"
        " '--out', sys.argv[1] + '/t.csv']) == 0\n"
        # T lands on c - 1, so the decision draws its uniform
        "assert maxpe.cli.main(['test', '--training', sys.argv[2] + '/type1.txt',"
        " '--test', sys.argv[2] + '/type2.txt', '--r', '1', '--s', '1', '--alpha', '0.2',"
        " '--format', 'csv', '--out', sys.argv[1] + '/u.csv']) == 0\n"
        "assert 'randomized' in open(sys.argv[1] + '/u.csv').read()\n"
        # the Lehmann law, whose Beta sums run in decimal, at n >> m
        "from maxpe.lehmann import exact_power\n"
        "assert 0 < exact_power(30, 300, 2, 2, 0.5, 0.05) < 1\n"
        "assert maxpe.cli.main(['power', '--m', '10', '--n', '12', '--r', '1', '--s', '1',"
        " '--gamma', '2', '--method', 'exact', '--out', sys.argv[1] + '/p.csv']) == 0\n"
        f"print({heavy})\n"
    )

    def loaded(code, *args):
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()

    assert loaded(script, str(tmp_path), str(data_dir)) == loaded(f"import sys; print({heavy})")
