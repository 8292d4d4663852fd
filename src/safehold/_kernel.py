"""The float kernel of held runs: RK4 rows generated as Python source.

``_float_rows`` generates, for a state of n coordinates, the kernel that
``simulator._run_held`` steps its rows on: ``simulator._rk4``'s operations
in its order on Python floats, which round each operation as numpy does, so
its rows equal ``_rk4``'s bit for bit. ``_recorded_drift`` records a plant's
``scalar_drift`` on stand-in arguments, and the kernel writes the recorded
operations into each RK4 stage in place of a call.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import re

import numpy as np

from .cbf_core import ControlAffineDynamics


# A hold's rows on Python floats for one state of n coordinates: each row is
# ``simulator._rk4``'s step, its operations in its order, under the rates on
# floats plus a constant input term (n floats g#), with one local per
# coordinate and the cheaper state test of ``simulator._state_gate`` inline.
# Without ``law`` the kernel steps one stretch of rows under the input term
# ``gu``. With a float ``law`` it runs periodic holds of ``hold`` substeps,
# hold after hold, under the constant actuation column ``g`` of a one-input
# plant: at each hold's sample row it samples u = law(*x), writes u to ``U``
# and 1 to ``EV``, and holds the term 0.0 + g_i * u, which is
# ``np.matvec(g, u)`` bit for bit (``np.matvec`` sums from 0.0).
# ``_float_rows`` writes each stage line ``$k = arg`` as the rates at the
# stage's coordinates ``arg`` plus the input term, into k# (see
# ``_stage_lines``), then each {...} once per coordinate i, with # standing
# for i, joined by ", " into a tuple (with a trailing comma, so n = 1 is one
# too) or by the separator after |.
_FLOAT_ROWS = """
def rows(rates, gu, half, full, sixth, X, row, end, lows, highs,
         law=None, g=None, U=None, EV=None, hold=0):
    try:
        {l#} = lows
        {h#} = highs
        {x#} = X[row - 1].tolist()
        if law is None:
            {g#} = gu
            stop = end
        else:
            {G#} = g
        while row <= end:
            if law is not None:
                u = law({x#})
                U[row - 1] = u
                EV[row - 1] = 1
                {g# = 0.0 + G# * u|; }
                stop = min(row - 1 + hold, end)
            while row <= stop:
                $a = x#
                $b = x# + half * a#
                $c = x# + half * b#
                $d = x# + full * c#
                {x# += (b# + b# + a# + (c# + c#) + d#) * sixth|; }
                if not ({l# <= x# <= h#| and }):
                    return row
                X[row] = {x#}
                row += 1
    except Exception:
        pass
    return row
"""

# An expression written into a stage that holds more parentheses than this
# is kept in a local, so that no recorded body nests past the parser's limit.
_INLINE_PARENS = 32


@functools.cache
def _float_rows(n: int, body: tuple | None = None):
    """The float kernel for n coordinates and the recorded drift ``body``
    (see ``_recorded_drift``), generated from ``_FLOAT_ROWS`` on first use,
    as ``dataclasses`` generates methods, and kept for the process. Its
    stages compute the rates with the body's operations, or, when body is
    None, call ``rates`` on the stage's coordinates.

    ``rows(rates, gu, half, full, sixth, X, row, end, lows, highs)`` steps
    X[row], ..., X[end] and returns the first row it could not step, or
    end + 1. With ``law, g, U, EV, hold`` as well it samples at row - 1 and
    every ``hold`` rows after it (see ``_FLOAT_ROWS``) and steps to X[end]
    the same way. A row is not stepped when its step or its sample raises
    (a stage whose rates are not n numbers among them) or its state fails
    the cheaper state test (see ``simulator._state_gate``); a sample that
    raised leaves its row of ``EV`` at 0. The caller steps such a row again
    with ``simulator._rk4`` and checks it."""
    def stage(match):
        indent, out, arg = match.groups()
        return "\n".join(indent + line for line in _stage_lines(n, body, out, arg))

    def expand(match):
        terms = [match[1].replace("#", str(i)) for i in range(n)]
        return ", ".join(terms) + "," if match[2] is None else match[2].join(terms)

    text = re.sub(r"^( *)\$(\w) = (.+)$", stage, _FLOAT_ROWS, flags=re.M)
    namespace = {}
    exec(re.sub(r"\{([^{}|]+)(?:\|([^{}]+))?\}", expand, text), namespace)
    return namespace["rows"]


def _stage_lines(n: int, body: tuple | None, out: str, arg: str) -> list[str]:
    """The lines of one RK4 stage of ``_FLOAT_ROWS``: out# = the rates at
    the coordinates arg (# standing for each coordinate) plus g#.

    Without a body the stage calls ``rates``. With one it writes the body's
    operations out, each as ``(left op right)`` or ``(-operand)``, constants
    as their text: an operation or a stage coordinate read more than once is
    kept in a local (t#, s#), one read once is written where it is read, and
    one the rates never read is left out. Python evaluates each operation on
    the same floats either way, so the stage equals a call of the recorded
    drift bit for bit."""
    if body is None:
        return [f"{{{out}#}} = rates({{{arg}}})", f"{{{out}# += g#|; }}"]
    tape, outs = body
    reads = collections.Counter(ref for ref in outs if isinstance(ref, tuple))
    for k in reversed(range(len(tape))):
        if reads["t", k]:
            reads.update(ref for ref in tape[k][1:] if isinstance(ref, tuple))

    lines, text = [], {}

    def term(ref) -> str:
        return text[ref] if isinstance(ref, tuple) else f"({ref})"

    def keep(ref, expr: str, local: str) -> None:
        if reads[ref] > 1 or expr.count("(") > _INLINE_PARENS:
            lines.append(f"{local} = {expr}")
            expr = local
        text[ref] = expr

    for i in range(n):
        coord = arg.replace("#", str(i))
        if coord.isidentifier():
            text["x", i] = coord
        elif reads["x", i]:
            keep(("x", i), f"({coord})", f"s{i}")
    for k, (op, *args) in enumerate(tape):
        if reads["t", k]:
            expr = f"({op}{term(args[0])})" if len(args) == 1 else f" {op} ".join(map(term, args))
            keep(("t", k), expr if len(args) == 1 else f"({expr})", f"t{k}")
    return lines + [f"{out}{i} = {term(ref)} + g{i}" for i, ref in enumerate(outs)]


class _StandIn:
    """A stand-in for one float argument of a plant's ``scalar_drift``.

    Each +, -, *, / and unary - it takes part in, reflected forms included,
    appends ``(op, left, right)`` or ``("-", operand)`` to the shared tape,
    in operand order, and returns the stand-in of its result. An operand is
    a reference, ``("x", i)`` for the i-th argument or ``("t", k)`` for the
    k-th line of the tape, or a constant as its text ``repr(float(c))``.
    Only finite ``float`` instances are constants (numpy's float64 is one;
    an int, a bool or a float32 is not). Whatever would read a value
    refuses with ``TypeError``: a comparison, ``bool()``, ``float()`` (and
    so any ``math`` function), and numpy's coercion (``__array__``; with
    ``__array_ufunc__ = None`` numpy's operators defer to the reflected
    forms, and its functions refuse)."""

    __slots__ = ("tape", "ref")
    __array_ufunc__ = None

    def __init__(self, tape: list, ref: tuple):
        self.tape, self.ref = tape, ref

    def _record(self, op: str, *operands) -> _StandIn:
        self.tape.append((op, *map(_operand, operands)))
        return _StandIn(self.tape, ("t", len(self.tape) - 1))

    def __add__(self, other):
        return self._record("+", self, other)

    def __radd__(self, other):
        return self._record("+", other, self)

    def __sub__(self, other):
        return self._record("-", self, other)

    def __rsub__(self, other):
        return self._record("-", other, self)

    def __mul__(self, other):
        return self._record("*", self, other)

    def __rmul__(self, other):
        return self._record("*", other, self)

    def __truediv__(self, other):
        return self._record("/", self, other)

    def __rtruediv__(self, other):
        return self._record("/", other, self)

    def __neg__(self):
        return self._record("-", self)

    def _refuse(self, *args):
        raise TypeError("a recorded drift is +, -, *, / and unary - on floats only")

    __lt__ = __le__ = __eq__ = __ne__ = __gt__ = __ge__ = _refuse
    __bool__ = __float__ = __int__ = __index__ = __array__ = _refuse


def _operand(value):
    """A recorded operand: a stand-in's reference or a constant's text."""
    if isinstance(value, _StandIn):
        return value.ref
    if isinstance(value, float) and math.isfinite(value):
        return repr(float(value))
    raise TypeError(f"{type(value).__name__} {value!r} is not a finite float constant")


_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


def _recorded_drift(dyn: ControlAffineDynamics, x0: np.ndarray) -> tuple | None:
    """The plant's ``scalar_drift`` recorded on stand-ins (``_StandIn``),
    as ``(tape, outputs)`` with each output an operand, for ``_float_rows``
    to write into its stages. None when the plant has no float drift, or
    when recording refuses, the drift does not return n values, or the
    recorded body differs from the drift at the start state x0 bit for bit:
    the kernel then calls the drift.

    The drift runs twice here, on the stand-ins and at x0, and any error of
    either (the drift is the plant's own code) means the body is not used.
    """
    if dyn.scalar_drift is None:
        return None
    tape, coords = [], x0.tolist()
    values = dict(zip((("x", i) for i in range(dyn.n)), coords))

    def value(ref) -> float:
        return values[ref] if isinstance(ref, tuple) else float(ref)

    try:
        outs = tuple(map(_operand, dyn.scalar_drift(
            *(_StandIn(tape, ("x", i)) for i in range(dyn.n))
        )))
        for k, (op, *args) in enumerate(tape):
            values["t", k] = -value(args[0]) if len(args) == 1 else _OPS[op](*map(value, args))
        want = np.array(dyn.scalar_drift(*coords), dtype=float)
    except Exception:
        return None
    got = np.array([value(ref) for ref in outs])
    if len(outs) != dyn.n or got.tobytes() != want.tobytes():
        return None
    return tuple(tape), outs
