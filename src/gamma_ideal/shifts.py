"""Shift tuples and the rewrite relations they induce.

A shift tuple (a_0, ..., a_{n-1}) is partitioned into integer-difference
classes: i and j share a class exactly when a_i - a_j is an integer.  Within
a class every Gamma value is a polynomial multiple of the value at the
class's smallest shift (the representative), by iterating the recurrence
Gamma(s+1) = s*Gamma(s).  Each non-representative member therefore yields a
generating relation

    G(j) - (s + a_r)(s + a_r + 1)...(s + a_r + d - 1) * G(r),   a_j = a_r + d,

and these relations are the whole obstruction to independence: a tuple with
only singleton classes admits no nontrivial relation at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Tuple

from .poly import GammaPoly, UniPoly
from .scalars import GaussianRational, ScalarLike, to_scalar


def integer_difference(a: ScalarLike, b: ScalarLike) -> Optional[int]:
    """The integer a - b if that difference is one, else None.  Exact."""
    diff = to_scalar(a) - to_scalar(b)
    return diff.re if diff.is_integer() else None


def rising_factorial(start: GaussianRational, length: int) -> UniPoly:
    """(s + start)(s + start + 1)...(s + start + length - 1); one() for length 0."""
    if length < 0:
        raise ValueError("length must be non-negative")
    product = UniPoly.one()
    for k in range(length):
        product = product * UniPoly.linear(start + k)
    return product


@dataclass(frozen=True)
class Relation:
    """One rewrite rule G(target) -> multiplier(s) * G(source).

    ``as_poly`` is the generator polynomial G(target) - multiplier*G(source);
    substituting Gamma values at the shifted arguments makes it vanish
    identically.
    """

    source: int
    target: int
    multiplier: UniPoly
    as_poly: GammaPoly

    def __str__(self) -> str:
        return str(self.as_poly)


@dataclass(frozen=True)
class ShiftSystem:
    """An ordered shift tuple with its integer-difference class structure.

    ``classes`` lists index classes sorted by offset from the class
    representative (which therefore comes first); ``representatives`` is
    aligned with ``classes``.  Build instances with ``build_shift_system``.
    The index-to-class map and the generators are computed once, on first
    use.
    """

    shifts: Tuple[GaussianRational, ...]
    classes: Tuple[Tuple[int, ...], ...]
    representatives: Tuple[int, ...]

    @property
    def arity(self) -> int:
        return len(self.shifts)

    @property
    def in_h(self) -> bool:
        """True when every class is a singleton: no relation exists."""
        return all(len(cls) == 1 for cls in self.classes)

    @cached_property
    def _class_of(self) -> Tuple[int, ...]:
        """Class position of every variable index."""
        class_of = [0] * self.arity
        for c, cls in enumerate(self.classes):
            for index in cls:
                class_of[index] = c
        return tuple(class_of)

    @cached_property
    def _generators(self) -> Tuple[Relation, ...]:
        return tuple(
            generating_relation(self, self.representative_of(j), j)
            for j in self.non_representatives()
        )

    def class_index_of(self, index: int) -> int:
        if not 0 <= index < self.arity:
            raise ValueError(f"variable index {index} out of range")
        return self._class_of[index]

    def representative_of(self, index: int) -> int:
        return self.representatives[self.class_index_of(index)]

    def offset_of(self, index: int) -> int:
        """Integer d >= 0 with shift[index] = shift[representative] + d."""
        rep = self.representative_of(index)
        d = integer_difference(self.shifts[index], self.shifts[rep])
        assert d is not None and d >= 0
        return d

    def is_representative(self, index: int) -> bool:
        return self.representative_of(index) == index

    def non_representatives(self) -> Tuple[int, ...]:
        return tuple(
            i for i in range(self.arity) if not self.is_representative(i)
        )

    def generators(self) -> Tuple[Relation, ...]:
        """One generating relation per non-representative index, ascending."""
        return self._generators

    def shifts_text(self) -> str:
        return ", ".join(str(a) for a in self.shifts)

    def __str__(self) -> str:
        return f"ShiftSystem({self.shifts_text()})"


def build_shift_system(shifts: Sequence[ScalarLike]) -> ShiftSystem:
    """Partition a tuple of pairwise-distinct shifts into integer-difference
    classes and pick each class's minimal-offset member as representative."""
    values = tuple(to_scalar(a) for a in shifts)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if values[i] == values[j]:
                raise ValueError(
                    f"duplicate shift {values[i]} at positions {i} and {j}; "
                    "a repeated Gamma argument is degenerate"
                )

    groups: list[list[int]] = []
    for idx, a in enumerate(values):
        for group in groups:
            if integer_difference(a, values[group[0]]) is not None:
                group.append(idx)
                break
        else:
            groups.append([idx])

    # Integer-difference is transitive on exact scalars; verify rather than trust.
    for gi, group in enumerate(groups):
        for i in group:
            for j in group:
                assert integer_difference(values[i], values[j]) is not None
        for other in groups[gi + 1 :]:
            for j in other:
                assert integer_difference(values[group[0]], values[j]) is None

    classes = []
    representatives = []
    for group in groups:
        anchor = values[group[0]]
        ordered = sorted(group, key=lambda k: integer_difference(values[k], anchor))
        classes.append(tuple(ordered))
        representatives.append(ordered[0])
    return ShiftSystem(values, tuple(classes), tuple(representatives))


def generating_relation(sys: ShiftSystem, i: int, j: int) -> Relation:
    """The relation expressing G(j) through G(i) when a_j = a_i + d, d >= 1."""
    if sys.class_index_of(i) != sys.class_index_of(j):
        raise ValueError(
            f"shifts {sys.shifts[i]} and {sys.shifts[j]} do not differ by an integer"
        )
    d = integer_difference(sys.shifts[j], sys.shifts[i])
    if d is None or d < 1:
        raise ValueError(
            f"need a positive integer gap from index {i} to {j}, got {d}"
        )
    multiplier = rising_factorial(sys.shifts[i], d)
    as_poly = GammaPoly.variable(sys.arity, j) - GammaPoly.variable(
        sys.arity, i
    ) * multiplier
    return Relation(source=i, target=j, multiplier=multiplier, as_poly=as_poly)


def shift_apply(q: GammaPoly, sys: ShiftSystem) -> GammaPoly:
    """Substitute s -> s+1 and G(m) -> (s + a_m) * G(m).

    This is the polynomial image of replacing every Gamma value by its value
    one step to the right via the recurrence; it is a ring homomorphism and
    keeps every monomial (hence the highest term's monomial and the height)
    unchanged.
    """
    if q.arity != sys.arity:
        raise ValueError(f"arity mismatch: polynomial {q.arity}, shifts {sys.arity}")
    linear = [UniPoly.linear(a) for a in sys.shifts]
    out = {}
    for mono, coeff in q.terms.items():
        shifted = coeff.compose_shift(1)
        for idx, exp in enumerate(mono):
            if exp:
                shifted = shifted * linear[idx] ** exp
        out[mono] = shifted
    return GammaPoly(sys.arity, out)
