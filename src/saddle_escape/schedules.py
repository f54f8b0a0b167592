"""Deterministic step-size schedules for first-order methods.

A schedule is an immutable object mapping the iteration counter ``k`` (0-based)
to a finite step size ``alpha_k > 0``.  Four families are provided:

- ``power(c, p, offset)``:     ``alpha_k = c / (k + offset)**p``
- ``constant(c)``:             ``alpha_k = c``
- ``geometric(c, r)``:         ``alpha_k = c * r**k``
- ``table(values, tail)``:     explicit leading values, then a tail schedule

Each family is one formula for ``alpha_k``, so ``value(k)`` and
``values(n)[k]`` give the same bits, and one declaration: its ``kind`` and
its ``fields``, the constructor's argument names in config order, which
``to_config`` and :func:`from_config` both read.  The factories
``power``, ``constant``, ``geometric`` and ``table`` are the classes.

All schedules are positive and nonincreasing; this is validated at
construction (a table whose tail starts above its last explicit value is
rejected).  Whether ``sum_k alpha_k`` diverges decides the long-run behaviour
of the induced dynamics, so every schedule can classify its own series by the
p-test, without numerical summation.

Schedules serialize to plain JSON-able dicts, e.g.::

    {"kind": "power", "c": 1.0, "p": 1.0, "offset": 2}

and round-trip through :func:`from_config` / ``to_config``.
"""

from __future__ import annotations

import math
import numbers
from typing import Sequence

import numpy as np

__all__ = [
    "ScheduleError",
    "StepSchedule",
    "PowerSchedule",
    "ConstantSchedule",
    "GeometricSchedule",
    "TableSchedule",
    "power",
    "constant",
    "geometric",
    "table",
    "from_config",
]

DIVERGENT = "divergent"
CONVERGENT = "convergent"
_BLOCK = 1024  # entries of the formula that ``value`` holds between refills


class ScheduleError(ValueError):
    """Raised when schedule parameters violate the schedule contract."""


def _check_reals(kind: str, **params) -> None:
    """Raise ScheduleError naming ``kind`` and the field for a bool or a
    non-real parameter; numpy scalars are real."""
    for name, v in params.items():
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise ScheduleError(f"{kind} schedule needs a real number for {name}, got {v!r}")


class StepSchedule:
    """Base class: a positive, nonincreasing step-size sequence.

    A family is one formula, ``_alphas``.  ``values(n)`` evaluates it at
    ``0, ..., n-1`` and ``value(k)`` reads blocks of it: the same bits.
    A family declares its ``kind`` and its ``fields`` once; ``to_config``
    and :func:`from_config` read that declaration."""

    kind: str = "abstract"
    fields: tuple = ()  # the constructor's argument names, in config order
    _start = _stop = 0  # value's block holds alpha_k for _start <= k < _stop
    _block: Sequence[float] = ()

    def _alphas(self, ks: np.ndarray) -> np.ndarray:
        """``alpha_k`` at each float index ``k`` of ``ks`` (all ``>= 0``)."""
        raise NotImplementedError

    def value(self, k: int) -> float:
        """Step size ``alpha_k`` for integer ``k >= 0``: ``values(n)[k]`` for any ``n > k``."""
        start = self._start
        if start <= k < self._stop:
            return self._block[k - start]
        if k < 0:
            raise ScheduleError(f"iteration index must be >= 0, got {k}")
        self._start, self._stop = k, k + _BLOCK
        self._block = self._alphas(np.arange(k, k + _BLOCK, dtype=float)).tolist()
        return self._block[0]

    def values(self, n: int) -> np.ndarray:
        """Vectorized ``[alpha_0, ..., alpha_{n-1}]``."""
        return self._alphas(np.arange(n, dtype=float))

    def classify_sum(self) -> str:
        """Return ``"divergent"`` or ``"convergent"`` for ``sum_k alpha_k``.

        Decided analytically (p-test and friends), never by summation.
        """
        raise NotImplementedError

    def to_config(self) -> dict:
        """The JSON dict :func:`from_config` rebuilds this schedule from."""
        if not self.fields:
            raise NotImplementedError(f"{type(self).__name__} declares no fields")
        return {"kind": self.kind, **{name: getattr(self, name) for name in self.fields}}

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return f"<{type(self).__name__} {self.to_config()}>"


class PowerSchedule(StepSchedule):
    """``alpha_k = c / (k + offset)**p`` with ``c > 0``, ``p > 0``, integer
    ``offset >= 1``; the default is ``1/(k+2)``."""

    kind, fields = "power", ("c", "p", "offset")

    def __init__(self, c: float = 1.0, p: float = 1.0, offset: int = 2):
        _check_reals(self.kind, c=c, p=p)
        if not (c > 0) or not math.isfinite(c):
            raise ScheduleError(f"power schedule needs finite c > 0, got c={c}")
        if not (p > 0) or not math.isfinite(p):
            raise ScheduleError(f"power schedule needs finite p > 0, got p={p}")
        if not isinstance(offset, (int, np.integer)) or isinstance(offset, bool):
            raise ScheduleError(f"power schedule offset must be an integer, got {offset!r}")
        if offset < 1:
            raise ScheduleError(f"power schedule needs offset >= 1, got {offset}")
        self.c = float(c)
        self.p = float(p)
        self.offset = int(offset)

    def _alphas(self, ks: np.ndarray) -> np.ndarray:
        return self.c / (ks + self.offset) ** self.p

    def classify_sum(self) -> str:
        # p-test: sum 1/(k+m)^p diverges iff p <= 1.
        return DIVERGENT if self.p <= 1.0 else CONVERGENT


class ConstantSchedule(StepSchedule):
    """``alpha_k = c`` with ``c > 0``.  The series always diverges."""

    kind, fields = "constant", ("c",)

    def __init__(self, c: float):
        _check_reals(self.kind, c=c)
        if not (c > 0) or not math.isfinite(c):
            raise ScheduleError(f"constant schedule needs finite c > 0, got c={c}")
        self.c = float(c)

    def _alphas(self, ks: np.ndarray) -> np.ndarray:
        return np.full(ks.shape, self.c)

    def classify_sum(self) -> str:
        return DIVERGENT


class GeometricSchedule(StepSchedule):
    """``alpha_k = c * r**k`` with ``c > 0`` and ratio ``r`` in (0, 1).

    The series converges (to ``c / (1 - r)``), so the induced dynamics stall
    at a generally non-critical point.
    """

    kind, fields = "geometric", ("c", "r")

    def __init__(self, c: float, r: float):
        _check_reals(self.kind, c=c, r=r)
        if not (c > 0) or not math.isfinite(c):
            raise ScheduleError(f"geometric schedule needs finite c > 0, got c={c}")
        if not (0.0 < r < 1.0):
            raise ScheduleError(f"geometric schedule needs r in (0, 1), got r={r}")
        self.c = float(c)
        self.r = float(r)

    def _alphas(self, ks: np.ndarray) -> np.ndarray:
        return self.c * self.r ** ks

    def classify_sum(self) -> str:
        return CONVERGENT


class TableSchedule(StepSchedule):
    """Explicit leading ``values`` followed by a ``tail`` schedule.

    ``alpha_k = values[k]`` for ``k < len(values)`` and the tail's formula
    at ``k - len(values)`` afterwards.  The joint sequence
    must stay nonincreasing, so ``tail.value(0) <= values[-1]`` is enforced
    at construction.  The values are kept as the array ``head``.
    """

    kind, fields = "table", ("values", "tail")

    def __init__(self, values: Sequence[float], tail: StepSchedule):
        head_arr = np.asarray(values, dtype=object)
        if head_arr.ndim != 1 or head_arr.size == 0:
            raise ScheduleError("table schedule needs a nonempty 1-D value list")
        for v in head_arr:
            _check_reals(self.kind, values=v)
        head_arr = head_arr.astype(float)
        if not np.all((head_arr > 0) & np.isfinite(head_arr)):
            raise ScheduleError("table schedule values must be finite and strictly positive")
        if np.any(np.diff(head_arr) > 0):
            raise ScheduleError("table schedule values must be nonincreasing")
        if not isinstance(tail, StepSchedule):
            raise ScheduleError(f"table tail must be a StepSchedule, got {type(tail).__name__}")
        if tail.value(0) > head_arr[-1]:
            raise ScheduleError(
                "table tail starts above the last table value "
                f"({tail.value(0)} > {head_arr[-1]}), violating monotonicity"
            )
        self.head = head_arr
        self.tail = tail

    def _alphas(self, ks: np.ndarray) -> np.ndarray:
        n = self.head.size
        head = self.head[np.minimum(ks, n - 1).astype(np.intp)]
        return np.where(ks < n, head, self.tail._alphas(np.maximum(ks - n, 0.0)))

    def classify_sum(self) -> str:
        # A finite head never changes convergence; defer to the tail.
        return self.tail.classify_sum()

    def to_config(self) -> dict:
        return {"kind": self.kind, "values": self.head.tolist(), "tail": self.tail.to_config()}


power, constant, geometric, table = (PowerSchedule, ConstantSchedule, GeometricSchedule,
                                     TableSchedule)
_KINDS = {cls.kind: cls for cls in (power, constant, geometric, table)}


def from_config(cfg: dict) -> StepSchedule:
    """Build a schedule from its JSON dict form (see module docstring).

    Unknown kinds and missing/extra fields raise :class:`ScheduleError` naming
    the offending entry.
    """
    if not isinstance(cfg, dict):
        raise ScheduleError(f"schedule config must be a dict, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS:  # a list or dict kind is unhashable
        raise ScheduleError(f"unknown schedule kind {kind!r}; expected one of {sorted(_KINDS)}")
    cls = _KINDS[kind]
    extra = set(cfg) - {"kind", *cls.fields}
    if extra:
        raise ScheduleError(f"unexpected schedule field(s) {sorted(extra)} for kind {kind!r}")
    missing = [f for f in cls.fields if f not in cfg]
    if missing:
        raise ScheduleError(f"schedule kind {kind!r} missing field(s) {missing}")
    args = {f: cfg[f] for f in cls.fields}
    if "tail" in args:  # a table's tail is a schedule config of its own
        args["tail"] = from_config(args["tail"])
    return cls(**args)
