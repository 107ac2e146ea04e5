"""The package's immutable records: construction, defaults, equality, hashing,
immutability, the errors each raises while being built, and the laws' cdfs."""

import pickle
from fractions import Fraction

import pytest

from maxpe.errors import NumericalError, ParameterError
from maxpe.inference import AlternativeSpec, RandomizedDecision, SeededRng
from maxpe.lehmann import AlternativeDistribution
from maxpe.null_dist import NullDistribution
from maxpe.statistics import FrequencyVector, Sample, StatisticBundle

FV = FrequencyVector((1, 0), (2,), 5, 4, 2, 1)

# (type, positional arguments, keyword arguments, every field once built),
# the omitted arguments taking their defaults
CASES = {
    "Sample": (
        Sample, ((1, 2.5),), {"values": [1, 2.5]},
        {"values": (1.0, 2.5), "label": ""},
    ),
    "FrequencyVector": (
        FrequencyVector, ([1, 0], [2], 5, 4, 2, 1),
        {"f_p": (1, 0), "f_e": (2,), "m": 5, "n": 4, "r": 2, "s": 1},
        {"f_p": (1, 0), "f_e": (2,), "m": 5, "n": 4, "r": 2, "s": 1},
    ),
    "StatisticBundle": (
        StatisticBundle, (1, 2, 3, 1, None, None, FV),
        {"max_precedence": 1, "max_exceedance": 2, "max_sum": 3, "precedence_count": 1,
         "exceedance_count": None, "count_sum": None, "frequencies": FV},
        {"max_precedence": 1, "max_exceedance": 2, "max_sum": 3, "precedence_count": 1,
         "exceedance_count": None, "count_sum": None, "frequencies": FV},
    ),
    "NullDistribution": (
        NullDistribution, (1, 2, 1, 1, (Fraction(1, 3), Fraction(2, 3))),
        {"m": 1, "n": 2, "r": 1, "s": 1, "pmf_values": (Fraction(1, 3), Fraction(2, 3))},
        {"m": 1, "n": 2, "r": 1, "s": 1, "pmf_values": (Fraction(1, 3), Fraction(2, 3)),
         "complete": True, "cdf_values": (Fraction(1, 3), Fraction(1))},
    ),
    "NullDistribution-truncated": (
        NullDistribution, (9, 9, 1, 1, (Fraction(1, 4), Fraction(1, 2)), False),
        {"m": 9, "n": 9, "r": 1, "s": 1, "pmf_values": (Fraction(1, 4), Fraction(1, 2)),
         "complete": False},
        {"m": 9, "n": 9, "r": 1, "s": 1, "pmf_values": (Fraction(1, 4), Fraction(1, 2)),
         "complete": False, "cdf_values": (Fraction(1, 4), Fraction(3, 4))},
    ),
    "SeededRng": (SeededRng, (5,), {"seed": 5}, {"seed": 5, "stream": 0}),
    "AlternativeSpec": (
        AlternativeSpec, ("lehmann", 2.0), {"kind": "lehmann", "gamma": 2.0},
        {"kind": "lehmann", "gamma": 2.0, "rate": None, "shape": None, "scale": None,
         "varied": "test"},
    ),
    "RandomizedDecision": (
        RandomizedDecision, (5, 6, 0.03, 0.07, 0.5, "randomized", True),
        {"t_observed": 5, "c": 6, "alpha1": 0.03, "alpha2": 0.07, "phi": 0.5,
         "outcome": "randomized", "rejected": True},
        {"t_observed": 5, "c": 6, "alpha1": 0.03, "alpha2": 0.07, "phi": 0.5,
         "outcome": "randomized", "rejected": True},
    ),
    "AlternativeDistribution": (
        AlternativeDistribution, (1, 2, 1, 1, 2.0, (0.25, 0.75), 1.0),
        {"m": 1, "n": 2, "r": 1, "s": 1, "gamma": 2.0, "pmf_values": (0.25, 0.75),
         "condition_estimate": 1.0},
        {"m": 1, "n": 2, "r": 1, "s": 1, "gamma": 2.0, "pmf_values": (0.25, 0.75),
         "condition_estimate": 1.0, "complete": True, "cdf_values": (0.25, 1.0)},
    ),
    "AlternativeDistribution-truncated": (
        AlternativeDistribution, (9, 9, 1, 1, 2.0, (0.25, 0.5), 1.0, False),
        {"m": 9, "n": 9, "r": 1, "s": 1, "gamma": 2.0, "pmf_values": (0.25, 0.5),
         "condition_estimate": 1.0, "complete": False},
        {"m": 9, "n": 9, "r": 1, "s": 1, "gamma": 2.0, "pmf_values": (0.25, 0.5),
         "condition_estimate": 1.0, "complete": False, "cdf_values": (0.25, 0.75)},
    ),
    "AlternativeDistribution-clamped": (
        AlternativeDistribution, (1, 2, 1, 1, 2.0, (-1e-12, 1.0 + 1e-12), 3.0),
        {"m": 1, "n": 2, "r": 1, "s": 1, "gamma": 2.0, "pmf_values": (-1e-12, 1.0 + 1e-12),
         "condition_estimate": 3.0},
        {"m": 1, "n": 2, "r": 1, "s": 1, "gamma": 2.0, "pmf_values": (0.0, 1.0),
         "condition_estimate": 3.0, "complete": True, "cdf_values": (0.0, 1.0)},
    ),
}


@pytest.mark.parametrize("case", CASES)
def test_construction_equality_and_immutability(case):
    cls, args, kwargs, fields = CASES[case]
    built = cls(*args)
    assert built == cls(**kwargs)
    assert hash(built) == hash(cls(**kwargs))
    assert {name: getattr(built, name) for name in fields} == fields
    assert repr(built) == f"{cls.__name__}(" + ", ".join(
        f"{name}={value!r}" for name, value in fields.items()) + ")"
    assert pickle.loads(pickle.dumps(built)) == built
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(built, name, fields[name])


@pytest.mark.parametrize(
    "cls, args, kwargs, other",
    [
        (Sample, ((1.0,),), {"label": "a"}, {"label": "b"}),
        (SeededRng, (5,), {}, {"stream": 1}),
        (AlternativeSpec, ("lehmann", 2.0), {}, {"varied": "training"}),
        (NullDistribution, (1, 2, 1, 1, (Fraction(1, 3), Fraction(2, 3))), {},
         {"complete": False}),
        (AlternativeDistribution, (1, 2, 1, 1, 2.0, (0.25, 0.75), 1.0), {},
         {"complete": False}),
    ],
)
def test_records_differ_by_value(cls, args, kwargs, other):
    assert cls(*args, **kwargs) != cls(*args, **other)


def test_sample_length_counts_its_values():
    assert len(Sample((3, 1, 2), "x")) == 3
    assert len(Sample([0.5])) == 1


def test_laws_keep_their_lookups():
    null = NullDistribution(1, 2, 1, 1, (Fraction(1, 3), Fraction(2, 3)))
    assert (null.pmf(-1), null.pmf(1), null.pmf(2)) == (0, Fraction(2, 3), 0)
    assert (null.cdf(-1), null.cdf(0), null.cdf(5), null.tail(1)) == (
        0, Fraction(1, 3), 1, Fraction(2, 3))
    assert list(null.support) == [0, 1]
    alt = AlternativeDistribution(1, 2, 1, 1, 2.0, (0.25, 0.75), 1.0)
    assert (alt.cdf(-1), alt.cdf(0), alt.cdf(7), alt.tail(1), alt.pmf(3)) == (
        0.0, 0.25, 1.0, 0.75, 0.0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Sample(()), ParameterError,
         "a sample must contain at least one observation"),
        (lambda: Sample((1.0, float("nan")), "x"), ParameterError,
         "sample 'x' contains non-finite values"),
        (lambda: FrequencyVector((), (1,), 3, 3, 0, 1), ParameterError,
         "r and s must be positive"),
        (lambda: FrequencyVector((0,), (0,), 3, 1, 1, 1), ParameterError,
         "r + s = 2 exceeds the test-sample size n = 1"),
        (lambda: FrequencyVector((0, 0), (0,), 3, 4, 1, 1), ParameterError,
         "frequency vector lengths must equal r and s"),
        (lambda: FrequencyVector((-1,), (0,), 3, 4, 1, 1), ParameterError,
         "cell counts must be non-negative"),
        (lambda: FrequencyVector((2,), (2,), 3, 4, 1, 1), ParameterError,
         "cell counts sum to 4, more than m = 3"),
        (lambda: NullDistribution(1, 2, 1, 1, (Fraction(-1), Fraction(2))), ParameterError,
         "pmf entries must be non-negative"),
        (lambda: NullDistribution(2, 2, 1, 1, (Fraction(1, 2), Fraction(1, 2))),
         ParameterError, "complete support must cover 0..m"),
        (lambda: NullDistribution(1, 2, 1, 1, (Fraction(1, 3), Fraction(1, 3))),
         ParameterError, "pmf sums to 2/3, expected exactly 1"),
        (lambda: SeededRng(-1), ParameterError, "seed must be an unsigned 64-bit integer"),
        (lambda: SeededRng(0, 2**64), ParameterError,
         "stream must be an unsigned 64-bit integer"),
        (lambda: AlternativeSpec("gauss"), ParameterError, "unknown alternative kind 'gauss'"),
        (lambda: AlternativeSpec("lehmann", 2.0, varied="both"), ParameterError,
         "varied group must be 'test' or 'training'"),
        (lambda: AlternativeSpec("lehmann"), ParameterError,
         "lehmann alternative needs positive gamma, got None"),
        (lambda: AlternativeSpec("exponential", rate=float("inf")), ParameterError,
         "exponential alternative needs positive rate, got inf"),
        (lambda: AlternativeSpec("weibull", shape=2.0, scale=-1.0), ParameterError,
         "weibull alternative needs positive scale, got -1.0"),
        (lambda: AlternativeDistribution(1, 2, 1, 1, 2.0, (0.5, 1.5), 2.0), NumericalError,
         "pmf entries escaped [0, 1] beyond numerical slack; condition estimate was 2"),
        (lambda: AlternativeDistribution(1, 2, 1, 1, 2.0, (0.5, 0.6), 1.0), NumericalError,
         "pmf sums to 1.1, outside 1 +/- 1e-06; condition estimate was 1"),
    ],
)
def test_construction_errors(build, error, message):
    with pytest.raises(error) as raised:
        build()
    assert type(raised.value) is error
    assert str(raised.value) == message
