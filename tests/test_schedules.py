"""Step-schedule values, sum classification, and config round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference import TableSchedule
from saddle_escape import schedules as sch

# fifth partial harmonic-tail sum: 1/2 + 1/3 + ... + 1/6, exact fractions
H_TAIL_5 = 1 / 2 + 1 / 3 + 1 / 4 + 1 / 5 + 1 / 6


def test_power_values():
    s = sch.power(1.0, 1.0, 2)
    assert s.value(0) == 0.5
    assert s.value(98) == 1.0 / 100.0
    np.testing.assert_allclose(s.values(5), [1 / 2, 1 / 3, 1 / 4, 1 / 5, 1 / 6],
                               rtol=0, atol=0)


def test_power_partial_sum_matches_cumsum():
    s = sch.power(1.0, 1.0, 2)
    assert math.isclose(float(np.sum(s.values(5))), H_TAIL_5, rel_tol=1e-15)
    s2 = sch.power(2.0, 0.5, 3)
    assert math.isclose(float(np.sum(s2.values(100))), math.fsum(s2.value(k) for k in range(100)),
                        rel_tol=1e-13)


def test_constant_and_geometric_values():
    assert sch.constant(0.25).value(1234) == 0.25
    g = sch.geometric(0.1, 0.9)
    assert g.value(0) == 0.1
    assert math.isclose(g.value(10), 0.1 * 0.9 ** 10, rel_tol=1e-15)


def test_table_splices_head_then_tail():
    # the test-side schedule that stands in for the retired table kind
    t = TableSchedule([0.7, 0.6], sch.power(1.0, 1.0, 2))
    np.testing.assert_allclose(t.values(4), [0.7, 0.6, 0.5, 1 / 3])
    # tail indexing continues from where the head leaves off
    assert t.value(2) == 0.5


def test_repr_shows_the_config_or_the_class_name():
    assert repr(sch.power(1.0, 1.0, 2)) == \
        "<PowerSchedule {'kind': 'power', 'c': 1.0, 'p': 1.0, 'offset': 2}>"
    # a family that declares no fields has no config; C09's messages show it all the same
    assert repr(TableSchedule([0.2, 0.1], sch.power(1, 1, 20))) == "<TableSchedule>"


def test_classification():
    assert sch.power(1.0, 1.0, 2).classify_sum() == sch.DIVERGENT
    assert sch.power(1.0, 0.5, 1).classify_sum() == sch.DIVERGENT
    assert sch.power(1.0, 4.0, 2).classify_sum() == sch.CONVERGENT
    assert sch.constant(0.1).classify_sum() == sch.DIVERGENT
    assert sch.geometric(0.1, 0.9).classify_sum() == sch.CONVERGENT


@pytest.mark.parametrize("bad", [
    lambda: sch.power(0.0, 1.0, 2),
    lambda: sch.power(-1.0, 1.0, 2),
    lambda: sch.power(1.0, -0.5, 2),
    lambda: sch.power(1.0, 1.0, 0),
    lambda: sch.constant(0.0),
    lambda: sch.geometric(0.1, 1.0),
    lambda: sch.geometric(0.1, -0.1),
    lambda: sch.geometric(-0.1, 0.5),
    lambda: sch.constant(-0.25),
    lambda: sch.geometric(0.1, 0.0),
    lambda: sch.power(math.inf, 1.0, 2),  # an infinite step is no step size
    lambda: sch.constant(math.inf),
    lambda: sch.geometric(math.inf, 0.5),
    lambda: sch.power(1.0, math.inf, 2),
    lambda: sch.power(True, 1.0, 2),  # a bool is no step-size parameter
    lambda: sch.power(1.0, None, 2),
    lambda: sch.constant(True),
    lambda: sch.geometric(0.1, None),
    lambda: sch.geometric("0.1", 0.5),
    lambda: sch.power(1.0, 1.0, 2.5),  # the offset is an integer, and no bool
    lambda: sch.power(1.0, 1.0, True),
    lambda: sch.power(math.nan, 1.0, 2),  # NaN fails every bound
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(sch.ScheduleError):
        bad()


@pytest.mark.parametrize("bad, message", [
    (lambda: sch.power(True), "power schedule needs a real number for c, got True"),
    (lambda: sch.power(1.0, "1"), "power schedule needs a real number for p, got '1'"),
    (lambda: sch.geometric(0.1, None), "geometric schedule needs a real number for r, got None"),
    (lambda: sch.constant("0.5"), "constant schedule needs a real number for c, got '0.5'"),
])
def test_a_non_real_parameter_names_its_family_and_field(bad, message):
    with pytest.raises(sch.ScheduleError) as exc:
        bad()
    assert str(exc.value) == message


def test_numpy_scalars_are_real_parameters():
    s = sch.power(np.float64(1.0), np.float32(1.0), np.int64(2))
    assert s.to_config() == {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2}
    assert sch.geometric(np.float64(0.1), np.float64(0.9)).value(1) == 0.1 * 0.9


FIVE = [  # (schedule, its to_config)
    (lambda: sch.power(1.0, 1.0, 2), {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2}),
    (lambda: sch.power(0.3, 0.5, 1), {"kind": "power", "c": 0.3, "p": 0.5, "offset": 1}),
    (lambda: sch.constant(0.25), {"kind": "constant", "c": 0.25}),
    (lambda: sch.geometric(0.1, 0.9), {"kind": "geometric", "c": 0.1, "r": 0.9}),
    # an integer offset stays an integer
    (lambda: sch.power(2.5, 1.5, 1234567),
     {"kind": "power", "c": 2.5, "p": 1.5, "offset": 1234567}),
]


@pytest.mark.parametrize("make, config", FIVE,
                         ids=["power-1-2", "power-0.5-1", "constant", "geometric",
                              "power-offset-1234567"])
def test_to_config_round_trips(make, config):
    s = make()
    assert s.to_config() == config
    assert type(s.to_config().get("offset", 0)) is int
    s2 = sch.from_config(config)
    assert (type(s2), s2.to_config()) == (type(s), config)
    np.testing.assert_array_equal(s2.values(2000), s.values(2000))


def test_a_schedule_without_fields_has_no_config():
    with pytest.raises(NotImplementedError):
        sch.StepSchedule().to_config()


def test_the_factories_are_the_classes():
    assert (sch.power, sch.constant, sch.geometric) == (
        sch.PowerSchedule, sch.ConstantSchedule, sch.GeometricSchedule)
    assert sch.power().to_config() == {"kind": "power", "c": 1.0, "p": 1.0,
                                       "offset": 2}  # the default 1/(k+2)
    assert sch.geometric(r=0.5, c=0.1).to_config() == {"kind": "geometric", "c": 0.1, "r": 0.5}


@pytest.mark.parametrize("cfg, message", [
    ({"kind": "powr", "c": 1.0},
     "unknown schedule kind 'powr'; expected one of ['constant', 'geometric', 'power']"),
    ({"c": 1.0},
     "unknown schedule kind None; expected one of ['constant', 'geometric', 'power']"),
    ({"kind": "power", "c": 1.0, "p": 1.0, "offset": 2, "extra": 1, "more": 2},
     "unexpected schedule field(s) ['extra', 'more'] for kind 'power'"),
    ({"kind": "power", "c": 1.0}, "schedule kind 'power' missing field(s) ['p', 'offset']"),
    ({"kind": "geometric", "c": 0.1}, "schedule kind 'geometric' missing field(s) ['r']"),
    ("power", "schedule config must be a dict, got str"),
    ({"kind": ["power"], "c": 1.0},
     "unknown schedule kind ['power']; expected one of ['constant', 'geometric', 'power']"),
    ({"kind": {"power": 1}},
     "unknown schedule kind {'power': 1}; expected one of ['constant', 'geometric', 'power']"),
])
def test_from_config_messages_are_pinned(cfg, message):
    with pytest.raises(sch.ScheduleError) as exc:
        sch.from_config(cfg)
    assert str(exc.value) == message


def test_from_config_rejects_garbage():
    with pytest.raises(sch.ScheduleError):
        sch.from_config({"kind": "powr", "c": 1.0})
    with pytest.raises(sch.ScheduleError):
        sch.from_config({"kind": "power", "c": 1.0, "p": 1.0, "offset": 2,
                         "extra": 1})
    with pytest.raises(sch.ScheduleError):
        sch.from_config({"c": 1.0})
    with pytest.raises(sch.ScheduleError):
        sch.from_config("power")


@pytest.mark.parametrize("make", [
    lambda: sch.power(1.0, 1.0, 2),
    lambda: sch.power(0.3, 0.5, 1),
    lambda: sch.constant(0.25),
    lambda: sch.geometric(0.1, 0.9),
    lambda: sch.power(1.0, 4.0, 1),
])
def test_config_roundtrip(make):
    s = make()
    s2 = sch.from_config(s.to_config())
    np.testing.assert_array_equal(s.values(64), s2.values(64))
    assert s.classify_sum() == s2.classify_sum()


@given(c=st.floats(1e-3, 10.0), p=st.floats(0.01, 4.0), offset=st.integers(1, 50),
       n=st.integers(1, 200))
def test_power_positive_and_nonincreasing(c, p, offset, n):
    s = sch.power(c, p, offset)
    v = s.values(n)
    assert np.all(v > 0)
    assert np.all(np.diff(v) <= 0)


BLOCK_EDGES = [0, 5, 1023, 1024, 2047, 2048, 3000, 1500, 1023, 0, 10**7, 10**7 + 1023,
               10**7 + 1024, 17]  # in call order: 1500, 1023, 0 and 17 jump backward


@pytest.mark.parametrize("make", [
    lambda: sch.power(1.0, 0.5, 1),
    lambda: sch.power(1.0, 0.5, 7),
    lambda: sch.power(0.3, 0.75, 1),
    lambda: sch.power(0.3, 0.75, 50),
    lambda: sch.power(1.0, 1.0, 2),
    lambda: sch.power(1.0, 1.0, 3),
    lambda: sch.power(1.0, 4.0, 1),
    lambda: sch.power(2.0, 4.0, 5),
    lambda: sch.constant(0.25),
    lambda: sch.geometric(0.5, 0.9),
    lambda: sch.geometric(0.2, 0.999),
    lambda: TableSchedule([0.9, 0.8, 0.7], sch.power(0.3, 0.75, 1)),
], ids=["power-0.5-1", "power-0.5-7", "power-0.75-1", "power-0.75-50", "power-1-2",
        "power-1-3", "power-4-1", "power-4-5", "constant", "geometric-0.9",
        "geometric-0.999", "table-power-0.75"])
def test_value_reads_the_bits_values_computes(make):
    # one formula per family: value(k) is values(n)[k] bit for bit, at every
    # k of the first 5000, across value's block edges and after backward jumps
    s = make()
    n = 5000
    np.testing.assert_array_equal([s.value(k) for k in range(n)], s.values(n))
    far = s.values(10**7 + 1025)
    for k in BLOCK_EDGES:
        assert s.value(k) == far[k], k
    with pytest.raises(sch.ScheduleError):
        s.value(-1)
