"""Exact rational arithmetic: scalars, small linear solves, quadratic forms.

Everything the solver computes runs over ``fractions.Fraction``, so equality
checks are decisive and no tolerance ever enters the algebra. Floats appear
only at the output boundary (decimal rendering) and in the explicitly
float-mode numeric routines elsewhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

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
    "solve_linear",
    "QuadraticForm",
]


def as_rational(value: RationalLike) -> Fraction:
    """Coerce ``value`` to an exact ``Fraction``.

    Accepts ``Fraction``, ``int``, and strings in the forms ``"3"``,
    ``"-3/4"``, or a decimal literal like ``"2.5"`` (converted exactly).
    Floats are rejected: binary floats carry representation error that would
    silently poison exact results, so callers must pass a string instead.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
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
    return f"{frac.numerator}/{frac.denominator}"


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


class SingularSystem(Exception):
    """A linear system has no unique solution: elimination step ``pivot_step`` finds no pivot."""

    def __init__(self, pivot_step: int, detail: str = ""):
        self.pivot_step = pivot_step
        message = f"singular system: no nonzero pivot at elimination step {pivot_step}"
        if detail:
            message = f"{message} ({detail})"
        super().__init__(message)


def solve_linear(matrix: Sequence[Sequence[RationalLike]],
                 rhs: Sequence[RationalLike]) -> tuple[Fraction, ...]:
    """Solve the square system A x = b exactly.

    Partial pivoting only needs a nonzero pivot over Fractions (there is no
    rounding to fight); SingularSystem is raised when a step has none. The
    result is checked by substituting back into the original system.
    """
    n = len(matrix)
    if n == 0:
        raise ValueError("matrix must have at least one row")
    rows = [rational_vector(row, n) for row in matrix]
    vec = rational_vector(rhs, n)
    aug = [[*row, v] for row, v in zip(rows, vec)]
    for step in range(n):
        pivot_row = next((r for r in range(step, n) if aug[r][step] != 0), None)
        if pivot_row is None:
            raise SingularSystem(step)
        aug[step], aug[pivot_row] = aug[pivot_row], aug[step]
        top = aug[step]
        for row in aug[step + 1:]:
            factor = row[step] / top[step]
            if factor:
                for c in range(step, n + 1):
                    row[c] -= factor * top[c]
    x = [Fraction(0)] * n
    for i in reversed(range(n)):
        x[i] = (aug[i][n] - sum(aug[i][c] * x[c] for c in range(i + 1, n))) / aug[i][i]
    for i, row in enumerate(rows):
        if sum(a * v for a, v in zip(row, x)) != vec[i]:
            raise ArithmeticError(f"back-substitution check failed in row {i}")
    return tuple(x)


@dataclass(frozen=True)
class QuadraticForm:
    """An exact quadratic map ``v -> v' Q v + lin . v + const`` with symmetric Q.

    Symmetry is enforced at construction so the gradient is simply
    ``2 Q v + lin`` with no hidden factor bookkeeping.
    """

    quad: tuple[tuple[Fraction, ...], ...]
    lin: tuple[Fraction, ...]
    const: Fraction

    def __post_init__(self):
        lin = rational_vector(self.lin)
        n = len(lin)
        if len(self.quad) != n:
            raise ValueError(f"quadratic matrix must be {n}x{n} to match the linear part")
        quad = tuple(rational_vector(row, n) for row in self.quad)
        for i in range(n):
            for j in range(i):
                if quad[i][j] != quad[j][i]:
                    raise ValueError("quadratic coefficient matrix must be symmetric")
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "lin", lin)
        object.__setattr__(self, "const", as_rational(self.const))

    @classmethod
    def zero(cls, dim: int) -> "QuadraticForm":
        row = (Fraction(0),) * dim
        return cls((row,) * dim, row, Fraction(0))

    @property
    def dim(self) -> int:
        return len(self.lin)

    def evaluate(self, point: Sequence[RationalLike]) -> Fraction:
        v = rational_vector(point, self.dim)
        total = self.const
        for i in range(self.dim):
            total += self.lin[i] * v[i]
            row = self.quad[i]
            for j in range(self.dim):
                total += row[j] * v[i] * v[j]
        return total

    def gradient(self, point: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        v = rational_vector(point, self.dim)
        return tuple(
            2 * sum(self.quad[i][j] * v[j] for j in range(self.dim)) + self.lin[i]
            for i in range(self.dim)
        )

    def slice(self, keep: Sequence[int], fixed: Mapping[int, RationalLike]) -> "QuadraticForm":
        """Restrict to the ``keep`` coordinates, pinning the rest at ``fixed`` values.

        The result is a quadratic form over len(keep) variables whose value at
        y equals this form's value at the full vector assembled from y and the
        fixed entries. ``keep`` and ``fixed`` together must cover every
        coordinate exactly once.
        """
        n = self.dim
        keep = tuple(keep)
        fixed_vals = {i: as_rational(v) for i, v in fixed.items()}
        seen = set(keep) | set(fixed_vals)
        if len(keep) + len(fixed_vals) != n or seen != set(range(n)):
            raise ValueError("keep and fixed must partition the coordinate indices")
        m = len(keep)
        quad = tuple(
            tuple(self.quad[keep[r]][keep[s]] for s in range(m)) for r in range(m)
        )
        lin = tuple(
            self.lin[keep[r]]
            + 2 * sum(self.quad[keep[r]][f] * val for f, val in fixed_vals.items())
            for r in range(m)
        )
        const = self.const
        for f, val in fixed_vals.items():
            const += self.lin[f] * val
        for f, vf in fixed_vals.items():
            for g, vg in fixed_vals.items():
                const += self.quad[f][g] * vf * vg
        return QuadraticForm(quad, lin, const)
