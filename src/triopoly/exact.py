"""Exact rational arithmetic: scalars, shared-denominator numerators, quadratic forms.

Every value the package computes is exact, so equality checks are decisive:
``Fraction`` at the interfaces, integer numerators over one shared
denominator (:func:`_over_lcm`) on the hot paths. Floats appear only at the
output boundary (decimal rendering) and in the float-mode numeric routines.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Sequence, Union

Rational = Fraction

RationalLike = Union[int, str, Fraction]

__all__ = [
    "Rational",
    "RationalLike",
    "as_rational",
    "format_rational",
    "decimal_string",
    "rational_vector",
    "SingularSystem",
    "QuadraticForm",
]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact ``Fraction``.

    Accepts ``Fraction``, ``int``, and strings in the forms ``"3"``,
    ``"-3/4"``, or a decimal literal like ``"2.5"`` (converted exactly).
    Floats are rejected: binary floats carry representation error that would
    silently poison exact results, so callers must pass a string instead.
    Bools are rejected too: ``True`` is an int, but never meant as 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"invalid rational literal {value!r}") from exc
    raise TypeError(
        f"cannot convert {type(value).__name__} to an exact rational; "
        "pass an int, a Fraction, or a string"
    )


def format_rational(value: RationalLike) -> str:
    """Render as ``"num/den"`` with the denominator always present, e.g. ``"3/1"``."""
    frac = as_rational(value)
    try:
        return f"{frac.numerator}/{frac.denominator}"
    except ValueError:
        # Python converts no int beyond its int-string limit to text.
        raise ValueError(
            f"a computed value has more than {sys.get_int_max_str_digits()} digits "
            "and cannot be printed") from None


def decimal_string(value) -> str:
    """12-significant-digit decimal rendering used by every human-facing output."""
    return format(float(value), ".12g")


def rational_vector(values: Sequence[RationalLike], dim: int | None = None) -> tuple[Fraction, ...]:
    """Coerce a sequence to a tuple of Fractions, optionally enforcing its length."""
    if type(values) is tuple and all(type(v) is Fraction for v in values):
        vec = values  # already coerced: the hot dataclasses pass such tuples through
    else:
        vec = tuple(as_rational(v) for v in values)
    if dim is not None and len(vec) != dim:
        raise ValueError(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def _over_lcm(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of ``values`` over the lcm of their denominators, and that lcm."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


_INT_ONLY = {int}


class SingularSystem(Exception):
    """A linear system has no unique solution; ``detail`` names the system."""

    def __init__(self, detail: str = ""):
        super().__init__(f"singular system ({detail})" if detail else "singular system")


@dataclass(frozen=True, init=False, repr=False)
class QuadraticForm:
    """An exact quadratic map ``v -> v' Q v + lin . v + const`` with symmetric Q.

    The form holds integer numerators over one positive denominator ``den``,
    reduced so that they share no common factor with it. That representation
    is unique, so equality and hashing are by value, and ``quad``, ``lin``
    and ``const`` are exact ``Fraction`` views of it. Symmetry is enforced
    at construction, so the slope in coordinate i is simply
    ``2 (Q v)_i + lin_i`` with no hidden factor bookkeeping. The package
    builds forms from its own integers (``payoff_slice``) and reads their
    numerators; a caller may build one from exact values and hand it to
    ``grid_minimax_pair``.
    """

    quad_num: tuple[tuple[int, ...], ...]
    lin_num: tuple[int, ...]
    const_num: int
    den: int

    def __init__(self, quad: Sequence[Sequence[RationalLike]], lin: Sequence[RationalLike],
                 const: RationalLike):
        lin = rational_vector(lin)
        n = len(lin)
        if len(quad) != n:
            raise ValueError(f"quadratic matrix must be {n}x{n} to match the linear part")
        rows = [rational_vector(row, n) for row in quad]
        flat, den = _over_lcm([*(v for row in rows for v in row), *lin, as_rational(const)])
        self._fill([flat[k:k + n] for k in range(0, n * n, n)], flat[n * n:-1], flat[-1], den)

    @classmethod
    def from_numerators(cls, quad: Sequence[Sequence[int]], lin: Sequence[int], const: int,
                        den: int) -> "QuadraticForm":
        """The form ``(quad, lin, const) / den`` from integer numerators over ``den`` > 0.

        Every value must be an ``int`` (a ``bool``, ``float`` or ``Fraction``
        raises ValueError, even where it equals an integer).
        """
        form = object.__new__(cls)
        form._fill(quad, lin, const, den)
        return form

    def _fill(self, quad, lin, const: int, den: int) -> None:
        n = len(lin)
        if len(quad) != n or any(len(row) != n for row in quad):
            raise ValueError(f"quadratic matrix must be {n}x{n} to match the linear part")
        for i in range(n):
            for j in range(i):
                if quad[i][j] != quad[j][i]:
                    raise ValueError("quadratic coefficient matrix must be symmetric")
        flat = (den, const, *lin, *chain.from_iterable(quad))
        if not _INT_ONLY.issuperset(map(type, flat)):
            raise ValueError(f"form numerators and den must be ints, got "
                             f"{next(v for v in flat if type(v) is not int)!r}")
        if den <= 0:
            raise ValueError(f"denominator must be positive, got {den}")
        g = gcd(*flat)
        object.__setattr__(self, "quad_num", tuple([tuple([v // g for v in row]) for row in quad]))
        object.__setattr__(self, "lin_num", tuple([v // g for v in lin]))
        object.__setattr__(self, "const_num", const // g)
        object.__setattr__(self, "den", den // g)

    @property
    def quad(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(v, self.den) for v in row) for row in self.quad_num)

    @property
    def lin(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(v, self.den) for v in self.lin_num)

    @property
    def const(self) -> Fraction:
        return Fraction(self.const_num, self.den)

    @property
    def dim(self) -> int:
        return len(self.lin_num)

    def __repr__(self) -> str:
        return f"QuadraticForm(quad={self.quad!r}, lin={self.lin!r}, const={self.const!r})"
