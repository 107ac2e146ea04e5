"""The three workloads: their operation pools, seeded schedules, how one
operation runs (plain or traced) and how its output is checked.

Every workload is a fixed list of shapes. A shape is one kind of operation
at one size class, with a pool of POOL entries that vary the inputs (data,
rates, gamma, alternative, Monte-Carlo seed), sorted by what drives their
cost. A round runs each shape once, in a seeded order, with entries drawn
so that any seed gives nearly the same mix of work while the inputs change
(see Workload.rounds). References are recorded per pool entry (see
record.py).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracing

POOL = 24
STRATA = 8  # cost classes per pool; POOL // STRATA entries each
# small-cell checks enumerate at most this many interleavings
BRUTE_FORCE_CELLS = 5000
HERE = Path(__file__).resolve().parent


def _rnd(*parts) -> random.Random:
    return random.Random("/".join(str(p) for p in parts))


def _sig(value: float, digits: int = 3) -> float:
    return float(f"{value:.{digits}g}")


def op_key(op: dict) -> str:
    return json.dumps({k: v for k, v in op.items() if k != "key"}, sort_keys=True)


def _entry(**params) -> dict:
    params["key"] = op_key(params)
    return params


def critical_from_pmf(pmf, alpha) -> tuple[int, Fraction, Fraction]:
    """Smallest c with P[T >= c] <= alpha, and the tails at c and c - 1."""
    tails = [sum(pmf[t:], Fraction(0)) for t in range(len(pmf))] + [Fraction(0)]
    c = next(t for t, tail in enumerate(tails) if tail <= alpha)
    return c, tails[c], tails[c - 1] if c else Fraction(1)


class Workload:
    """Shared schedule, run loop hooks and classification."""

    name = ""
    shapes: dict[str, list[dict]] = {}
    works_in_children = False  # peak RSS is then taken over child processes

    def __init__(self, root: Path, workdir: Path, maxpe: dict, child_env: dict) -> None:
        self.root = root
        self.workdir = workdir
        self.maxpe = maxpe  # maxpe submodules by short name
        self.child_env = child_env
        self._brute: dict = {}

    def round_shapes(self, k: int) -> list[str]:
        return list(self.shapes)

    def rounds(self, seed: int, repeat: int = 1):
        """Endless seeded sequence of rounds; round k holds round_shapes(k).

        Each pool is sorted by what drives its cost and cut into STRATA
        equal blocks. A shape's c-th use draws from stratum
        (offset + c // repeat) mod STRATA, so every shape covers its whole
        cost range every STRATA * repeat uses, and the seeded offsets spread
        one round's shapes over all strata. The entry taken within a stratum
        is seeded too. With repeat=2, rounds 2j and 2j + 1 draw the same
        strata (different entries), so a plain and a traced round compare.
        """
        rng = random.Random(seed)
        names = sorted(self.shapes)
        offsets = dict(zip(names, rng.sample(range(len(names)), len(names))))
        size = POOL // STRATA
        order = {name: [rng.sample(range(i * size, (i + 1) * size), size)
                        for i in range(STRATA)] for name in names}
        used = dict.fromkeys(names, 0)
        k = 0
        while True:
            ops = []
            for name in self.round_shapes(k):
                block, phase = divmod(used[name], repeat)
                stratum = order[name][(offsets[name] + block) % STRATA]
                ops.append(self.shapes[name][stratum[(block // STRATA * repeat + phase) % size]])
                used[name] += 1
            rng.shuffle(ops)
            yield ops
            k += 1

    def prepare(self) -> None:
        """Write input files; runs before timing starts."""

    def execute(self, op: dict, tracer: tracing.Tracer | None) -> dict:
        """Run one operation; returns {"seconds", "error", "output", counters}."""
        raise NotImplementedError

    def reference(self, result: dict):
        """The value recorded and compared for a successful operation."""
        return result["output"]

    def matches(self, result: dict, ref) -> bool:
        return self.reference(result) == ref

    def problem(self, result: dict, referenced: bool) -> str | None:
        """First invariant the output breaks, or None."""
        return None

    def classify(self, results: list[dict], references: dict) -> list[tuple[str, str | None]]:
        """ok, failed (has a reference and misses it) or unsolved (no reference).

        References exist only for operations that passed every invariant
        when they were recorded, so an operation the recording commit got
        wrong is unsolved rather than failed, and a later fix turns it ok.
        """
        verdicts = []
        for result in results:
            ref = references.get(result["op"]["key"])
            problem = result["error"]
            if problem is None and ref is not None and not self.matches(result, ref):
                problem = "differs from the recorded reference"
            if problem is None:
                problem = self.problem(result, ref is not None)
            if problem is None:
                verdicts.append(("ok", None))
            else:
                verdicts.append(("unsolved" if ref is None else "failed", problem))
        return verdicts

    def brute_force_pmf(self, m: int, n: int, r: int, s: int):
        """Null pmf by enumerating interleavings, for small cells only."""
        if math.comb(m + n, n) > BRUTE_FORCE_CELLS:
            return None
        if (m, n, r, s) not in self._brute:
            dist = self.maxpe["null_dist"].brute_force_null_distribution(m, n, r, s)
            self._brute[m, n, r, s] = dist.pmf_values
        return self._brute[m, n, r, s]

    # in-process operations share this timing and tracing frame
    def _call(self, op: dict, tracer, fn, *args, **kwargs) -> dict:
        counter = self.maxpe["combinatorics"].bounded_composition_count
        before = counter.cache_info() if tracer else None
        root = tracer.begin("op") if tracer else None
        start = time.perf_counter()
        error = output = None
        try:
            output = fn(*args, **kwargs)
        except Exception as exc:  # a raising operation is an outcome, not a crash
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        result = {"op": op, "seconds": seconds, "error": error, "output": output}
        if tracer:
            tracer.end(root, error=error and error.split(":")[0])
            after = counter.cache_info()
            result["bcc_hits"] = after.hits - before.hits
            result["bcc_misses"] = after.misses - before.misses
        return result


# ---------------------------------------------------------------------------
# cli_exact: one fresh `python -m maxpe.cli` process per operation


def _weibull_values(rnd: random.Random, count: int, shape: float, scale: float) -> list[str]:
    return [
        f"{scale * (-math.log(1.0 - rnd.random())) ** (1.0 / shape):.6g}"
        for _ in range(count)
    ]


def _cli_pools() -> dict[str, list[dict]]:
    rates = [0.05, 0.06, 0.07, 0.08, 0.09, 0.1]
    pools: dict[str, list[dict]] = {}
    pools["test_insulation"] = [
        _entry(
            shape="test_insulation",
            training=("type1", "type2")[i % 2],
            rho1=rates[(i // 2) % 6],
            rho2=rates[(5 * i + 1) % 6],
            alpha=(0.05, 0.1)[(i // 3) % 2],
            seed=i,
        )
        for i in range(POOL)
    ]
    pools["test_insulation"].sort(key=lambda op: op["rho1"] + op["rho2"])
    for name, lo, hi in (("test_20", 18, 22), ("test_25", 23, 27), ("test_28", 26, 30),
                         ("test_30", 28, 32), ("test_35", 33, 37)):
        entries = []
        for i in range(POOL):
            rnd = _rnd("cli", name, i)
            entries.append(_entry(
                shape=name, index=i,
                m=rnd.randint(lo, hi), n=rnd.randint(lo, hi),
                weibull_shape=_sig(rnd.uniform(0.8, 3.0)),
                scale=_sig(rnd.uniform(0.6, 1.6)),
                rho1=rnd.choice(rates), rho2=rnd.choice(rates),
                alpha=rnd.choice((0.05, 0.1)), seed=rnd.randrange(1000),
            ))
        pools[name] = sorted(entries, key=lambda op: (op["m"] + op["n"], op["rho1"] + op["rho2"]))
    for name, command, lo, hi, top in (
        ("critical_22", "critical-values", 20, 25, 3),
        ("critical_26", "critical-values", 24, 28, 3),
        ("critical_30", "critical-values", 26, 32, 4),
        ("critical_34", "critical-values", 32, 36, 4),
        ("null_22", "null-dist", 20, 25, 3),
        ("null_27", "null-dist", 25, 29, 3),
        ("null_31", "null-dist", 28, 34, 4),
        ("null_36", "null-dist", 34, 38, 4),
        ("null_small", "null-dist", 4, 7, 2),
    ):
        entries = []
        for i in range(POOL):
            rnd = _rnd("cli", name, i)
            entries.append(_entry(
                shape=name, command=command,
                m=rnd.randint(lo, hi), n=rnd.randint(lo, hi),
                r=rnd.randint(1, top), s=rnd.randint(1, top),
                alpha=rnd.choice((0.01, 0.05, 0.1)),
            ))
        pools[name] = sorted(entries, key=lambda op: (op["m"] + op["n"], op["r"] + op["s"]))
    return pools


def _parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


class CliExact(Workload):
    name = "cli_exact"
    shapes = _cli_pools()
    works_in_children = True

    def _files(self, op: dict) -> tuple[str, str]:
        base = self.workdir / "data" / f"{op['shape']}_{op['index']}"
        return f"{base}_x.txt", f"{base}_y.txt"

    def prepare(self) -> None:
        (self.workdir / "data").mkdir(parents=True, exist_ok=True)
        for name, pool in self.shapes.items():
            if not name.startswith("test_") or name == "test_insulation":
                continue
            for op in pool:
                rnd = _rnd("data", op["key"])
                x_path, y_path = self._files(op)
                x = _weibull_values(rnd, op["m"], op["weibull_shape"], 1.0)
                y = _weibull_values(rnd, op["n"], op["weibull_shape"], op["scale"])
                Path(x_path).write_text("\n".join(x) + "\n")
                Path(y_path).write_text("\n".join(y) + "\n")

    def argv(self, op: dict) -> list[str]:
        shape = op["shape"]
        if shape == "test_insulation":
            data = str(HERE / "data" / "insulation.csv")
            other = "type2" if op["training"] == "type1" else "type1"
            return ["test", "--training", data, "--training-col", op["training"],
                    "--test", data, "--test-col", other,
                    "--rho1", str(op["rho1"]), "--rho2", str(op["rho2"]),
                    "--alpha", str(op["alpha"]), "--seed", str(op["seed"])]
        if shape.startswith("test_"):
            x_path, y_path = self._files(op)
            return ["test", "--training", x_path, "--test", y_path,
                    "--rho1", str(op["rho1"]), "--rho2", str(op["rho2"]),
                    "--alpha", str(op["alpha"]), "--seed", str(op["seed"])]
        return [op["command"], "--m", str(op["m"]), "--n", str(op["n"]),
                "--r", str(op["r"]), "--s", str(op["s"]), "--alpha", str(op["alpha"])]

    def execute(self, op: dict, tracer) -> dict:
        env = self.child_env
        argv = self.argv(op)
        if tracer is None:
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "maxpe.cli", *argv],
                                  cwd=self.root, env=env, capture_output=True)
            seconds = time.perf_counter() - start
            return self._result(op, seconds, proc)
        spans_path = self.workdir / "child_spans.json"
        spans_path.unlink(missing_ok=True)
        root = tracer.begin("op")
        start = tracer.spans[root]["start"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_shim.py"), str(spans_path), repr(start), *argv],
            cwd=self.root, env=env, capture_output=True,
        )
        seconds = time.perf_counter() - start
        result = self._result(op, seconds, proc)
        result["bcc_hits"] = result["bcc_misses"] = 0
        if spans_path.exists():
            child = json.loads(spans_path.read_text())
            tracer.adopt(child["spans"])
            result["bcc_hits"] = child["bcc_hits"]
            result["bcc_misses"] = child["bcc_misses"]
            tracer.end(tracer.begin("cli.exit", start=child["finished"]), end=start + seconds)
        tracer.end(root, error=result["error"] and "exit", end=start + seconds)
        return result

    @staticmethod
    def _result(op: dict, seconds: float, proc) -> dict:
        error = None
        if proc.returncode != 0:
            error = f"exit {proc.returncode}: {proc.stderr.decode(errors='replace').strip()[-200:]}"
        return {"op": op, "seconds": seconds, "error": error,
                "output": proc.stdout.decode(errors="replace")}

    def reference(self, result: dict) -> str:
        return hashlib.sha256(result["output"].encode()).hexdigest()

    def problem(self, result: dict, referenced: bool) -> str | None:
        op, rows = result["op"], _parse_csv(result["output"])
        if not rows:
            return "no output rows"
        alpha = Fraction(str(op["alpha"]))
        if op["shape"].startswith("test_"):
            row = rows[0]
            a1, a2 = Fraction(row["alpha1"]), Fraction(row["alpha2"])
            if not a1 <= alpha < a2:
                return f"alpha1 <= alpha < alpha2 broken: {a1} {alpha} {a2}"
            return None
        if op["command"] == "critical-values":
            row, half = rows[0], Fraction(1, 20000)  # printed to 4 places
            a1, a2 = Fraction(row["alpha1"]), Fraction(row["alpha2"])
            if not (a1 <= alpha + half and alpha < a2 + half):
                return f"alpha1 <= alpha < alpha2 broken: {a1} {alpha} {a2}"
            return None
        pmf = [Fraction(row["pmf"]) for row in rows]
        ulp = Fraction(1, 2 * 10**18)  # printed to 18 places
        if Fraction(rows[-1]["cdf"]) != 1 or abs(sum(pmf) - 1) > len(pmf) * ulp:
            return "null pmf does not sum to 1"
        exact = self.brute_force_pmf(op["m"], op["n"], op["r"], op["s"])
        if exact is not None and any(abs(p - q) > ulp for p, q in zip(pmf, exact)):
            return "null pmf differs from brute-force enumeration"
        return None


# ---------------------------------------------------------------------------
# exact_power_grid: one in-process exact_power call per operation

# Fifteen cells, so p50 and p90 land mid-cell. The middle of the cost range
# is the r = s = 4 ladder, whose cost barely depends on gamma; other cells
# get up to ten times cheaper as gamma grows.
_EXACT_CELLS = [
    (6, 6, 1, 1), (8, 8, 2, 2), (10, 10, 1, 1), (12, 12, 2, 2), (12, 12, 4, 4),
    (14, 14, 4, 4), (15, 15, 4, 4), (16, 16, 4, 4), (17, 17, 4, 4), (18, 18, 4, 4),
    (20, 20, 3, 3), (22, 22, 2, 4), (25, 25, 1, 1), (25, 25, 2, 2), (25, 25, 3, 3),
]


def _exact_pools() -> dict[str, list[dict]]:
    pools: dict[str, list[dict]] = {}

    def pool(name, cell_of):
        entries = []
        for i in range(POOL):
            rnd = _rnd("exact", name, i)
            m, n, r, s = cell_of(rnd)
            gamma = _sig(math.exp(rnd.uniform(math.log(0.25), math.log(10.0))))
            entries.append(_entry(shape=name, m=m, n=n, r=r, s=s, gamma=gamma,
                                  alpha=(0.05, 0.1)[i % 2]))
        # gamma drives the cost of most cells: it falls as gamma grows
        pools[name] = sorted(entries, key=lambda op: (op["gamma"], op["n"], op["m"]))

    for cell in _EXACT_CELLS:
        pool("cell_{}_{}_{}_{}".format(*cell), lambda rnd, cell=cell: cell)
    # unequal sizes: a tiny training group against a large test group
    pool("unequal_mid", lambda rnd: (5, rnd.choice((60, 70, 80, 90, 100)), 1, 1))
    # cells the seed refuses (pair budget) or answers imprecisely (n >= 120)
    pool("refused_r4", lambda rnd: (rnd.randint(20, 25),) * 2 + (4, 4))
    pool("unequal_large", lambda rnd: (5, rnd.choice((120, 140, 160, 200, 240)), 1, 1))
    return pools


class ExactPowerGrid(Workload):
    name = "exact_power_grid"
    shapes = _exact_pools()
    HARD = ("refused_r4", "unequal_large")

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._cells: dict = {}  # (m, n, r, s, alpha) -> critical-value problem or None

    def round_shapes(self, k: int) -> list[str]:
        # one hard cell per round, the two kinds alternating every two rounds
        regular = [name for name in self.shapes if name not in self.HARD]
        return regular + [self.HARD[(k // 2) % 2]]

    def execute(self, op: dict, tracer) -> dict:
        lehmann = self.maxpe["lehmann"]
        fn = lehmann.exact_power
        if tracer:
            fn = tracer.wrap("lehmann.exact_power", fn)
        return self._call(op, tracer, fn, op["m"], op["n"], op["r"], op["s"],
                          op["gamma"], op["alpha"])

    def matches(self, result: dict, ref) -> bool:
        return abs(result["output"] - ref) <= 1e-9

    def problem(self, result: dict, referenced: bool) -> str | None:
        op, power = result["op"], result["output"]
        if not 0.0 <= power <= 1.0:
            return f"power {power} outside [0, 1]"
        cell = (op["m"], op["n"], op["r"], op["s"], op["alpha"])
        if cell not in self._cells:
            self._cells[cell] = self._critical_problem(*cell)
        if self._cells[cell] or referenced:
            # a matching reference passed the Lehmann invariants when recorded
            return self._cells[cell]
        dist = self.maxpe["lehmann"].alternative_distribution(
            op["m"], op["n"], op["r"], op["s"], op["gamma"])
        total = math.fsum(dist.pmf_values)
        if abs(total - 1.0) > 1e-9:
            return f"Lehmann pmf sums to {total!r}"
        return None

    def _critical_problem(self, m, n, r, s, alpha) -> str | None:
        crit = self.maxpe["inference"].critical_value(m, n, r, s, alpha)
        if not crit.alpha1 <= alpha < crit.alpha2:
            return f"alpha1 <= alpha < alpha2 broken: {crit}"
        pmf = self.brute_force_pmf(m, n, r, s)
        if pmf is not None and tuple(crit) != critical_from_pmf(pmf, Fraction(alpha)):
            return f"critical value {tuple(crit)} differs from brute-force enumeration"
        return None


# ---------------------------------------------------------------------------
# mc_power_grid: one in-process mc_power call per operation

# (shape, m = n, r = s, statistic, reps). Sizes are fixed, so the largest Q
# cell sets peak RSS in every run; reps are chosen so that the cells' costs
# form an even ladder and no latency quantile sits in a gap between cells.
_MC_CELLS = [
    ("T_20", 20, 1, "T", 100_000),
    ("T_22", 22, 2, "T", 50_000),
    ("T_25", 25, 2, "T", 50_000),
    ("T_28", 28, 1, "T", 50_000),
    ("T_32", 32, 1, "T", 50_000),
    ("V_100", 100, 10, "V", 60_000),
    ("V_150", 150, 15, "V", 35_000),
    ("V_200", 200, 20, "V", 20_000),
    ("V_240", 240, 24, "V", 20_000),
    ("V_280", 280, 28, "V", 20_000),
    ("Q_100", 100, 10, "Q", 30_000),
    ("Q_130", 130, 13, "Q", 30_000),
    ("Q_160", 160, 16, "Q", 20_000),
    ("Q_180", 180, 18, "Q", 20_000),
    ("Q_200", 200, 20, "Q", 20_000),
]


def _alternative(rnd: random.Random, kind: str) -> dict:
    varied = rnd.choice(("test", "training"))
    if kind == "lehmann":
        return {"kind": kind, "gamma": _sig(math.exp(rnd.uniform(math.log(0.5), math.log(4.0)))),
                "varied": varied}
    if kind == "exponential":
        return {"kind": kind, "rate": _sig(rnd.uniform(0.5, 2.0)), "varied": varied}
    return {"kind": kind, "shape": _sig(rnd.uniform(0.8, 3.0)),
            "scale": _sig(rnd.uniform(0.7, 1.4)), "varied": varied}


def _mc_pools() -> dict[str, list[dict]]:
    pools = {}
    for name, m, r, statistic, reps in _MC_CELLS:
        entries = []
        for i in range(POOL):
            rnd = _rnd("mc", name, i)
            kind = ("lehmann", "exponential", "weibull")[i % 3]
            entries.append(_entry(
                shape=name, m=m, n=m, r=r, s=r, statistic=statistic, reps=reps,
                alpha=(0.05, 0.1)[(i // 3) % 2], alt=_alternative(rnd, kind),
                rng_seed=rnd.randrange(2**32),
            ))
        pools[name] = sorted(entries, key=lambda op: (op["alt"]["kind"], op["alpha"]))
    return pools


class McPowerGrid(Workload):
    name = "mc_power_grid"
    shapes = _mc_pools()

    def execute(self, op: dict, tracer) -> dict:
        inference = self.maxpe["inference"]
        alt = inference.AlternativeSpec(**op["alt"])

        def run():
            # looked up at call time, so a traced run sees the patched attribute
            estimate = inference.mc_power(
                op["m"], op["n"], op["r"], op["s"], op["alpha"], alt,
                statistic=op["statistic"], reps=op["reps"],
                rng=inference.SeededRng(op["rng_seed"]),
            )
            return [estimate.power, estimate.std_error, estimate.c,
                    estimate.alpha1, estimate.alpha2]

        return self._call(op, tracer, run)

    def problem(self, result: dict, referenced: bool) -> str | None:
        power, _, _, alpha1, alpha2 = result["output"]
        alpha = result["op"]["alpha"]
        if not 0.0 <= power <= 1.0:
            return f"power {power} outside [0, 1]"
        if not alpha1 <= alpha < alpha2:
            return f"alpha1 <= alpha < alpha2 broken: {alpha1} {alpha} {alpha2}"
        return None


WORKLOADS = {cls.name: cls for cls in (CliExact, ExactPowerGrid, McPowerGrid)}
