"""Deterministic step-size schedules for first-order methods.

A schedule is an immutable object mapping the iteration counter ``k`` (0-based)
to a finite step size ``alpha_k > 0``.  Four families are provided:

- ``power(c, p, offset)``:     ``alpha_k = c / (k + offset)**p``
- ``constant(c)``:             ``alpha_k = c``
- ``geometric(c, r)``:         ``alpha_k = c * r**k``
- ``table(values, tail)``:     explicit leading values, then a tail schedule

Each family is one formula for ``alpha_k``, so ``value(k)`` and
``values(n)[k]`` give the same bits.

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


class StepSchedule:
    """Base class: a positive, nonincreasing step-size sequence.

    A family is one formula, ``_alphas``.  ``values(n)`` evaluates it at
    ``0, ..., n-1`` and ``value(k)`` reads blocks of it: the same bits."""

    kind: str = "abstract"
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

    def partial_sum(self, n: int) -> float:
        """``sum_{k=0}^{n-1} alpha_k`` by direct accumulation."""
        if n < 0:
            raise ScheduleError(f"partial_sum needs n >= 0, got {n}")
        return float(np.sum(self.values(n)))

    def to_config(self) -> dict:
        raise NotImplementedError

    def describe(self) -> str:
        """Stable human-readable identifier used in records and CSV output."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - convenience only
        return f"<{type(self).__name__} {self.describe()}>"


class PowerSchedule(StepSchedule):
    """``alpha_k = c / (k + offset)**p`` with ``c > 0``, ``p > 0``, integer ``offset >= 1``."""

    kind = "power"

    def __init__(self, c: float = 1.0, p: float = 1.0, offset: int = 2):
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

    def to_config(self) -> dict:
        return {"kind": "power", "c": self.c, "p": self.p, "offset": self.offset}

    def describe(self) -> str:
        return f"power(c={self.c:g},p={self.p:g},offset={self.offset})"


class ConstantSchedule(StepSchedule):
    """``alpha_k = c`` with ``c > 0``.  The series always diverges."""

    kind = "constant"

    def __init__(self, c: float):
        if not (c > 0) or not math.isfinite(c):
            raise ScheduleError(f"constant schedule needs finite c > 0, got c={c}")
        self.c = float(c)

    def _alphas(self, ks: np.ndarray) -> np.ndarray:
        return np.full(ks.shape, self.c)

    def classify_sum(self) -> str:
        return DIVERGENT

    def to_config(self) -> dict:
        return {"kind": "constant", "c": self.c}

    def describe(self) -> str:
        return f"constant(c={self.c:g})"


class GeometricSchedule(StepSchedule):
    """``alpha_k = c * r**k`` with ``c > 0`` and ratio ``r`` in (0, 1).

    The series converges (to ``c / (1 - r)``), so the induced dynamics stall
    at a generally non-critical point.
    """

    kind = "geometric"

    def __init__(self, c: float, r: float):
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

    def to_config(self) -> dict:
        return {"kind": "geometric", "c": self.c, "r": self.r}

    def describe(self) -> str:
        return f"geometric(c={self.c:g},r={self.r:g})"


class TableSchedule(StepSchedule):
    """Explicit leading values followed by a tail schedule.

    ``alpha_k = values[k]`` for ``k < len(values)`` and the tail's formula
    at ``k - len(values)`` afterwards.  The joint sequence
    must stay nonincreasing, so ``tail.value(0) <= values[-1]`` is enforced
    at construction.
    """

    kind = "table"

    def __init__(self, head: Sequence[float], tail: StepSchedule):
        head_arr = np.asarray(head, dtype=float)
        if head_arr.ndim != 1 or head_arr.size == 0:
            raise ScheduleError("table schedule needs a nonempty 1-D value list")
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
        return {"kind": "table", "values": self.head.tolist(), "tail": self.tail.to_config()}

    def describe(self) -> str:
        return f"table(n={self.head.size},tail={self.tail.describe()})"


def power(c: float = 1.0, p: float = 1.0, offset: int = 2) -> PowerSchedule:
    """Power-law schedule ``c / (k + offset)**p``; default ``1/(k+2)``."""
    return PowerSchedule(c, p, offset)


def constant(c: float) -> ConstantSchedule:
    """Constant schedule ``alpha_k = c``."""
    return ConstantSchedule(c)


def geometric(c: float, r: float) -> GeometricSchedule:
    """Geometric schedule ``c * r**k`` with ratio ``r`` in (0, 1)."""
    return GeometricSchedule(c, r)


def table(values: Sequence[float], tail: StepSchedule) -> TableSchedule:
    """Explicit leading ``values`` followed by ``tail``."""
    return TableSchedule(values, tail)


def from_config(cfg: dict) -> StepSchedule:
    """Build a schedule from its JSON dict form (see module docstring).

    Unknown kinds and missing/extra fields raise :class:`ScheduleError` naming
    the offending entry.
    """
    if not isinstance(cfg, dict):
        raise ScheduleError(f"schedule config must be a dict, got {type(cfg).__name__}")
    kind = cfg.get("kind")
    known = {
        "power": ("c", "p", "offset"),
        "constant": ("c",),
        "geometric": ("c", "r"),
        "table": ("values", "tail"),
    }
    if kind not in known:
        raise ScheduleError(f"unknown schedule kind {kind!r}; expected one of {sorted(known)}")
    extra = set(cfg) - {"kind", *known[kind]}
    if extra:
        raise ScheduleError(f"unexpected schedule field(s) {sorted(extra)} for kind {kind!r}")
    missing = [f for f in known[kind] if f not in cfg]
    if missing:
        raise ScheduleError(f"schedule kind {kind!r} missing field(s) {missing}")
    if kind == "power":
        return PowerSchedule(cfg["c"], cfg["p"], cfg["offset"])
    if kind == "constant":
        return ConstantSchedule(cfg["c"])
    if kind == "geometric":
        return GeometricSchedule(cfg["c"], cfg["r"])
    return TableSchedule(cfg["values"], from_config(cfg["tail"]))
