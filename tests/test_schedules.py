"""Step-schedule values, sum classification, and config round-trips."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
    assert math.isclose(s.partial_sum(5), H_TAIL_5, rel_tol=1e-15)
    s2 = sch.power(2.0, 0.5, 3)
    assert math.isclose(s2.partial_sum(100), float(np.sum(s2.values(100))),
                        rel_tol=1e-13)


def test_constant_and_geometric_values():
    assert sch.constant(0.25).value(1234) == 0.25
    g = sch.geometric(0.1, 0.9)
    assert g.value(0) == 0.1
    assert math.isclose(g.value(10), 0.1 * 0.9 ** 10, rel_tol=1e-15)


def test_table_splices_head_then_tail():
    t = sch.table([0.7, 0.6], sch.power(1.0, 1.0, 2))
    np.testing.assert_allclose(t.values(4), [0.7, 0.6, 0.5, 1 / 3])
    # tail indexing continues from where the head leaves off
    assert t.value(2) == 0.5


def test_classification():
    assert sch.power(1.0, 1.0, 2).classify_sum() == sch.DIVERGENT
    assert sch.power(1.0, 0.5, 1).classify_sum() == sch.DIVERGENT
    assert sch.power(1.0, 4.0, 2).classify_sum() == sch.CONVERGENT
    assert sch.constant(0.1).classify_sum() == sch.DIVERGENT
    assert sch.geometric(0.1, 0.9).classify_sum() == sch.CONVERGENT
    assert sch.table([0.7, 0.6], sch.power(1.0, 1.0, 2)).classify_sum() == sch.DIVERGENT


@pytest.mark.parametrize("bad", [
    lambda: sch.power(0.0, 1.0, 2),
    lambda: sch.power(-1.0, 1.0, 2),
    lambda: sch.power(1.0, -0.5, 2),
    lambda: sch.power(1.0, 1.0, 0),
    lambda: sch.constant(0.0),
    lambda: sch.geometric(0.1, 1.0),
    lambda: sch.geometric(0.1, -0.1),
    lambda: sch.geometric(-0.1, 0.5),
    lambda: sch.table([], sch.constant(0.1)),
    lambda: sch.table([0.1, 0.2], sch.constant(0.05)),  # head not nonincreasing
    lambda: sch.power(math.inf, 1.0, 2),  # an infinite step is no step size
    lambda: sch.constant(math.inf),
    lambda: sch.geometric(math.inf, 0.5),
    lambda: sch.table([math.inf, 0.1], sch.constant(0.05)),
])
def test_invalid_parameters_rejected(bad):
    with pytest.raises(sch.ScheduleError):
        bad()


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
    lambda: sch.table([0.7, 0.6], sch.power(1.0, 1.0, 2)),
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
    lambda: sch.table([0.9, 0.8, 0.7], sch.power(0.3, 0.75, 1)),
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
