"""The package namespace: its public names, where each is defined, and which
modules a bare import and each CLI command load."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import maxpe

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = [
    "AlternativeDistribution", "AlternativeSpec", "BudgetExceededError", "CriticalValue",
    "FrequencyVector", "NullDistribution", "NumericalError", "ParameterError",
    "PowerEstimate", "RandomizedDecision", "Sample", "SeededRng", "StatisticBundle",
    "alternative_distribution", "asymptotic_null_cdf", "binomial",
    "bounded_composition_count", "brute_force_null_distribution", "critical_value",
    "exact_power", "frequency_vector", "joint_PE_pmf", "joint_frequency_pmf_lehmann",
    "joint_frequency_pmf_null", "log_beta", "mc_power", "null_distribution",
    "orders_from_rates", "randomized_decision", "sample_pair", "statistic_bundle",
    "table_experiment",
]


def test_public_names_in_order():
    assert maxpe.__all__ == PUBLIC_NAMES


def test_each_name_is_its_home_modules_object():
    for name in PUBLIC_NAMES:
        value = getattr(maxpe, name)
        assert value.__module__.startswith("maxpe.")
        assert getattr(sys.modules[value.__module__], name) is value


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(maxpe, "no_such_name")


def test_star_import_and_the_readme_library_example():
    namespace = {}
    exec("from maxpe import *", namespace)
    assert set(PUBLIC_NAMES) <= set(namespace)
    readme = (ROOT / "README.md").read_text()
    [example] = re.findall(r"## Library example\n\n```python\n(.*?)```", readme, re.S)
    namespace = {"x_values": [0.3, 1.2, 2.5, 3.1, 4.8, 5.0], "y_values": [0.1, 2.2, 2.9, 3.3, 6.1]}
    exec(example, namespace)
    assert 0 <= namespace["tail"] <= 1


LOADED = """
import json, sys
import maxpe
bare = sorted(m for m in sys.modules if m.startswith("maxpe."))
from maxpe.cli import main
lehmann = []
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    lehmann.append("maxpe.lehmann" in sys.modules)
print(json.dumps({"import maxpe": bare, "maxpe.lehmann loaded": lehmann}))
"""


def test_only_exact_power_loads_the_lehmann_law(tmp_path, data_dir):
    out = str(tmp_path / "out.csv")
    commands = [
        ["null-dist", "--m", "5", "--n", "5", "--r", "1", "--s", "1", "--out", out],
        ["critical-values", "--m", "8", "--n", "8", "--r", "1", "--s", "1", "--out", out],
        ["test", "--training", str(data_dir / "type1.txt"), "--test",
         str(data_dir / "type2.txt"), "--r", "2", "--s", "2", "--out", out],
        ["power", "--m", "8", "--n", "8", "--r", "1", "--s", "1", "--gamma", "2",
         "--out", out, "--method", "exact"],
    ]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED, json.dumps(commands)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(maxpe.__file__).parents[1])}, check=True,
    )
    assert json.loads(proc.stdout) == {
        "import maxpe": [],
        "maxpe.lehmann loaded": [False, False, False, True],
    }
