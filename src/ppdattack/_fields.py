"""Dataclasses that check their fields from their annotations when built.

A dataclass derived from :class:`Checked` checks each field against its
annotation, then calls ``validate`` for the rules that tie fields together.
``int`` takes an integer and ``float`` a finite real number, numpy's too,
neither a bool; ``bool``, ``str`` and ``Literal`` take True or False, a
string, one of their strings; ``tuple`` a list or tuple of such entries,
kept as a tuple; a checked class an instance of it; a None default also
None.  Other types (arrays, functionals, likelihoods) are not checked.
Bounds are ``Annotated`` metadata: ``Count``, ``Size``, ``Positive``,
``NonNegative`` or an inline ``_Bound``.  A refusal names class and field:
``MlmcConfig field 'tau' must be a finite number > 1, got 1.0``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import numbers
import operator
import sys
from typing import Annotated, Literal, NamedTuple, get_args, get_origin, get_type_hints


class _Bound(NamedTuple):
    """``value <op> limit``: a bound written on a number field's annotation."""

    op: str
    limit: int


_COMPARE = {">=": operator.ge, ">": operator.gt, "<=": operator.le, "<": operator.lt}
Count = Annotated[int, _Bound(">=", 1)]
Size = Annotated[int, _Bound(">=", 0)]
Positive = Annotated[float, _Bound(">", 0)]
NonNegative = Annotated[float, _Bound(">=", 0)]

# The values a field of the key's type takes, and their name; a bool never
# counts as a number, although Python makes it an int.
_SCALARS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite number"),
            bool: (bool, "true or false"), str: (str, "a string")}
_FLOAT_MAX = sys.float_info.max  # bounds an int: math.isfinite(10**400) overflows


def _fits(value, kind):
    """True when ``value`` is what a field of type ``kind`` takes."""
    if get_origin(kind) is Annotated:  # a number and its bounds
        number, *bounds = get_args(kind)
        return _fits(value, number) and all(_COMPARE[op](value, limit) for op, limit in bounds)
    if get_origin(kind) is Literal:
        return isinstance(value, str) and value in get_args(kind)
    if get_origin(kind) is tuple:  # every entry of an array field is of one kind
        return isinstance(value, (list, tuple)) and all(_fits(v, get_args(kind)[0]) for v in value)
    if issubclass(kind, Checked):
        return isinstance(value, kind)
    if kind not in _SCALARS:
        return True
    if not isinstance(value, _SCALARS[kind][0]) or isinstance(value, bool) and kind is not bool:
        return False
    return kind is not float or (-_FLOAT_MAX <= value <= _FLOAT_MAX if isinstance(value, int)
                                 else math.isfinite(value))


def _describe(kind):
    """What a field of type ``kind`` takes, for an error message."""
    if get_origin(kind) is Annotated:
        number, *bounds = get_args(kind)
        return "%s %s" % (_describe(number), " and ".join("%s %s" % b for b in bounds))
    if get_origin(kind) is Literal:
        return "one of %s" % ", ".join(map(repr, get_args(kind)))
    if get_origin(kind) is tuple:
        return "an array, each entry %s" % _describe(get_args(kind)[0])
    if issubclass(kind, Checked):
        return "a %s" % kind.__name__
    return _SCALARS[kind][1]


@functools.cache
def _fields(cls):
    """(name, annotation with its bounds, default) of each field of a checked class."""
    kinds = get_type_hints(cls, include_extras=True)
    return tuple((f.name, kinds[f.name], f.default) for f in dataclasses.fields(cls))


def _tuples(value):
    return tuple(map(_tuples, value)) if isinstance(value, (list, tuple)) else value


class _FieldError(ValueError):
    """A field whose value its annotation refuses; ``owner`` names its class."""

    def __init__(self, owner, name, kind, value):
        super().__init__("%s field '%s' must be %s, got %r" % (owner, name, _describe(kind), value))
        self.name, self.kind = name, kind


def _setting(obj, name, kind, value):
    """``value``, or for a hand-built class the refusal a checked field of type ``kind`` gives."""
    if not _fits(value, kind):
        raise _FieldError(type(obj).__name__, name, kind, value)
    return value


class Checked:
    """A dataclass checked field by field when built, then validated."""

    _owner = None  # how a refusal names the class; None for the class's own name

    def __post_init__(self):
        for name, kind, default in _fields(type(self)):
            value = getattr(self, name)
            if not (value is None and default is None or _fits(value, kind)):
                raise _FieldError(self._owner or type(self).__name__, name, kind, value)
            if get_origin(kind) is tuple:
                # A list would leave a frozen instance unhashable.
                object.__setattr__(self, name, _tuples(value))
        self.validate()

    def validate(self):
        """Check the rules that tie fields together."""
