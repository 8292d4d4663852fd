"""Float code generated as Python source: the RK4 rows of held runs, and the
writer behind them and behind the filter's float law.

``_float_rows`` generates, for a state of n coordinates, the kernel that
``simulator._run_held`` steps its rows on: ``simulator._rk4``'s operations
in its order on Python floats, which round each operation as numpy does, so
its rows equal ``_rk4``'s bit for bit. ``_recorded`` records a form (a
plant's drift, a barrier, a nominal law; see the batch contract in
``cbf_core``) on stand-in arguments, and ``_source`` writes the recorded
operations in place of a call of the form: into each RK4 stage of the
kernel, and into the filter's float law (``safety_filter._FLOAT_LAW``).
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import re

import numpy as np


# A hold's rows on Python floats for one state of n coordinates: each row is
# ``simulator._rk4``'s step, its operations in its order, under the rates on
# floats plus a constant input term (n floats g#), with one local per
# coordinate and the cheaper state test of ``simulator._state_gate`` inline.
# Without ``law`` the kernel steps one stretch of rows under the input term
# ``gu``. With a float ``law`` it runs periodic holds of ``hold`` substeps,
# hold after hold, under the constant actuation column ``g`` of a one-input
# plant: at each hold's sample row it samples u = law(*x), writes u to ``U``
# and 1 to ``EV``, and holds the term 0.0 + g_i * u, which is
# ``np.matvec(g, u)`` bit for bit (``np.matvec`` sums from 0.0). Rows and
# samples are written through flat memoryviews of X, U and EV (``_flat``),
# which store each float as it is, without numpy's conversion of a tuple.
# See ``_source`` for the stage lines ($) and the {...} lines.
_FLOAT_ROWS = """
def rows(rates, gu, half, full, sixth, X, row, end, lows, highs,
         law=None, g=None, U=None, EV=None, hold=0):
    try:
        {l#} = lows
        {h#} = highs
        {x#} = X[row - 1].tolist()
        xs, n = _flat(X), len(lows)
        j = row * n
        if law is None:
            {g#} = gu
            stop = end
        else:
            {G#} = g
            us, evs = _flat(U), _flat(EV)
        while row <= end:
            if law is not None:
                u = law({x#})
                us[row - 1] = u
                evs[row - 1] = 1
                {g# = 0.0 + G# * u|; }
                stop = min(row - 1 + hold, end)
            while row <= stop:
                $a# = rates(x#) + g#
                $b# = rates(x# + half * a#) + g#
                $c# = rates(x# + half * b#) + g#
                $d# = rates(x# + full * c#) + g#
                {x# += (b# + b# + a# + (c# + c#) + d#) * sixth|; }
                if not ({l# <= x# <= h#| and }):
                    return row
                {xs[j + #] = x#|; }
                j += n
                row += 1
    except Exception:
        pass
    return row
"""

# An expression written into a stage that holds more parentheses than this
# is kept in a local, so that no recorded body nests past the parser's limit.
_INLINE_PARENS = 32

# A stage line of a template: ``$outs = form(args)``, optionally followed by
# `` + plus``.
_STAGE = re.compile(r"^( *)\$(.+) = (\w+)\((.+)\)(?: \+ (.+))?$", re.M)


def _flat(a):
    """A flat memoryview of the C-contiguous array a in its own format; it
    writes into a and holds no copy."""
    view = memoryview(a)
    return view.cast("B").cast(view.format)


@functools.cache
def _float_rows(n: int, body: tuple | None = None):
    """The float kernel for n coordinates and the recorded drift ``body``
    (see ``_recorded``), generated from ``_FLOAT_ROWS`` on first use, as
    ``dataclasses`` generates methods, and kept for the process. Its stages
    compute the rates with the body's operations, or, when body is None,
    call ``rates`` on the stage's coordinates.

    ``rows(rates, gu, half, full, sixth, X, row, end, lows, highs)`` steps
    X[row], ..., X[end] and returns the first row it could not step, or
    end + 1. With ``law, g, U, EV, hold`` as well it samples at row - 1 and
    every ``hold`` rows after it (see ``_FLOAT_ROWS``) and steps to X[end]
    the same way. A row is not stepped when its step or its sample raises
    (a stage whose rates are not n numbers among them) or its state fails
    the cheaper state test (see ``simulator._state_gate``); a sample that
    raised leaves its row of ``EV`` at 0. The caller steps such a row again
    with ``simulator._rk4`` and checks it."""
    namespace = {"_flat": _flat}
    exec(_source(_FLOAT_ROWS, n, {"rates": body}), namespace)
    return namespace["rows"]


def _source(template: str, n: int, bodies: dict) -> str:
    """The template's text for n coordinates, with the recorded ``bodies``
    (by form name) written in.

    Each stage line ``$outs = form(args)`` becomes ``_stage_lines``' lines
    for the body of ``form``, or a call of ``form`` when it has none; outs
    is a list of names, args the coordinates, and ``+ plus`` adds to each
    output. An item with # stands for n items, # standing for each
    coordinate. Then each {...} is written once per coordinate i, with #
    standing for i, joined by ", " into a tuple (with a trailing comma, so
    n = 1 is one too) or by the separator after |."""
    def each(pattern: str) -> list[str]:
        return [pattern.replace("#", str(i)) for i in range(n)] if "#" in pattern else [pattern]

    def stage(match):
        indent, outs, form, args, plus = match.groups()
        outs = [name for item in outs.split(", ") for name in each(item)]
        lines = _stage_lines(bodies.get(form), form, outs, each(args), plus and each(plus))
        return "\n".join(indent + line for line in lines)

    def expand(match):
        terms = [match[1].replace("#", str(i)) for i in range(n)]
        return ", ".join(terms) + "," if match[2] is None else match[2].join(terms)

    text = _STAGE.sub(stage, template)
    return re.sub(r"\{([^{}|]+)(?:\|([^{}]+))?\}", expand, text)


def _stage_lines(
    body: tuple | None, call: str, outs: list[str], args: list[str], plus: list[str] | None
) -> list[str]:
    """The lines that set each name of outs to an output of a form
    at the coordinates args, plus the name at its place in plus when given.

    Without a body the lines call the form, as ``call``. With one they write
    the body's operations out, each as ``(left op right)`` or ``(-operand)``,
    constants as their text: an operation or a coordinate expression read
    more than once is kept in a local (t#, s#), one read once is written
    where it is read, and one the outputs never read is left out. Python
    evaluates each operation on the same floats either way, so the lines
    equal a call of the recorded form bit for bit."""
    if body is None:
        lines = [f"{', '.join(outs)}, = {call}({', '.join(args)})"]
        if plus:
            lines.append("; ".join(f"{o} += {p}" for o, p in zip(outs, plus)))
        return lines
    tape, refs = body
    reads = collections.Counter(ref for ref in refs if isinstance(ref, tuple))
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

    for i, coord in enumerate(args):
        if coord.isidentifier():
            text["x", i] = coord
        elif reads["x", i]:
            keep(("x", i), f"({coord})", f"s{i}")
    for k, (op, *operands) in enumerate(tape):
        if reads["t", k]:
            expr = (f"({op}{term(operands[0])})" if len(operands) == 1
                    else f"({f' {op} '.join(map(term, operands))})")
            keep(("t", k), expr, f"t{k}")
    adds = [f" + {p}" for p in plus] if plus else [""] * len(outs)
    return lines + [f"{o} = {term(ref)}{add}" for o, ref, add in zip(outs, refs, adds)]


class _StandIn:
    """A stand-in for one float argument of a form.

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
        raise TypeError("a recorded form is +, -, *, / and unary - on floats only")

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


def _recorded(form, x0, size: int) -> tuple | None:
    """The form ``form``, which takes the coordinates of one state and
    returns ``size`` floats, recorded on stand-ins (``_StandIn``), as
    ``(tape, outputs)`` with each output an operand, for ``_source`` to
    write in place of a call. None when recording refuses, the form does
    not return ``size`` values, or the recorded body differs from the form
    at the state x0 (an array) bit for bit: the generated code then calls
    the form.

    The form runs twice here, on the stand-ins and at x0, and any error of
    either (the form is the caller's own code) means the body is not used.
    """
    tape, coords = [], x0.tolist()
    values = dict(zip((("x", i) for i in range(len(coords))), coords))

    def value(ref) -> float:
        return values[ref] if isinstance(ref, tuple) else float(ref)

    try:
        outs = tuple(map(_operand, form(
            *(_StandIn(tape, ("x", i)) for i in range(len(coords)))
        )))
        for k, (op, *args) in enumerate(tape):
            values["t", k] = -value(args[0]) if len(args) == 1 else _OPS[op](*map(value, args))
        want = np.array(form(*coords), dtype=float)
    except Exception:
        return None
    got = np.array([value(ref) for ref in outs])
    if len(outs) != size or got.tobytes() != want.tobytes():
        return None
    return tuple(tape), outs
