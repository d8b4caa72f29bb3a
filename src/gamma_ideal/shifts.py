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

A canonical shift (re + im*i)/den plus an integer k is (re + k*den + im*i)/den,
still canonical, so a_i - a_j is an integer exactly when the two shifts have
the same class key (re % den, im, den), and that integer is then the
difference of their values of re // den.  ``ShiftSystem`` groups by that key
in one pass when it is built, then walks each class once in offset order:
each multiplier is the previous one times the rising factorial over the gap
between them (the step), so one running product per class gives both the
generators and the steps.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ._record import Record, setfield
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
    if not length:
        return UniPoly.one()
    product = UniPoly.linear(start)
    for k in range(1, length):
        product = product * UniPoly.linear(start + k)
    return product


class Relation(Record):
    """One rewrite rule G(target) -> multiplier(s) * G(source).

    ``as_poly`` is the generator polynomial G(target) - multiplier*G(source);
    substituting Gamma values at the shifted arguments makes it vanish
    identically.
    """

    __slots__ = _fields = ("source", "target", "multiplier", "as_poly")

    def __init__(self, source: int, target: int, multiplier: UniPoly, as_poly: GammaPoly):
        setfield(self, "source", source)
        setfield(self, "target", target)
        setfield(self, "multiplier", multiplier)
        setfield(self, "as_poly", as_poly)

    def __str__(self) -> str:
        return str(self.as_poly)


class ShiftSystem(Record):
    """An ordered tuple of pairwise-distinct shifts with everything its
    integer-difference classes give, all derived once, on construction.

    ``classes`` lists index classes in order of first appearance, each sorted
    by offset from the class representative (which therefore comes first);
    ``representatives``, each class's first member, is aligned with
    ``classes``.  The shifts are the only field: pickling and copying rebuild
    the classes, the generators and the steps from them, so no system can
    hold relations its shifts do not give.
    """

    _fields = ("shifts",)
    __slots__ = _fields + ("classes", "representatives", "_offset", "_generators", "_steps")

    def __init__(self, shifts: Sequence[ScalarLike]):
        values = tuple(to_scalar(a) for a in shifts)
        first_seen, repeats, groups = {}, [], {}
        for idx, a in enumerate(values):
            seen = first_seen.setdefault(a, idx)
            if seen != idx:
                repeats.append((seen, idx))
            groups.setdefault((a.re % a.den, a.im, a.den), []).append(idx)
        if repeats:
            i, j = min(repeats)
            raise ValueError(
                f"duplicate shift {values[i]} at positions {i} and {j}; "
                "a repeated Gamma argument is degenerate"
            )
        classes = tuple(
            tuple(sorted(group, key=lambda k: values[k].re)) for group in groups.values()
        )
        # Each class is walked once in offset order with a running product:
        # the multiplier of a member is its predecessor's multiplier times
        # the step ``rising_factorial(predecessor's shift, gap)``, so a class
        # of n consecutive shifts costs O(n) polynomial products, not O(n^2).
        offset, by_target, steps = [0] * len(values), {}, []
        for rep, *members in classes:
            multiplier, prev = UniPoly.one(), rep
            for j in members:
                # Members of a class share im, den and re mod den.
                offset[j] = (values[j].re - values[rep].re) // values[rep].den
                step = rising_factorial(values[prev], offset[j] - offset[prev])
                multiplier = multiplier * step
                by_target[j] = _relation(len(values), rep, j, multiplier)
                steps.append((j, prev, step))
                prev = j
        setfield(self, "shifts", values)
        setfield(self, "classes", classes)
        setfield(self, "representatives", tuple(cls[0] for cls in classes))
        setfield(self, "_offset", tuple(offset))
        setfield(self, "_generators", tuple(by_target[j] for j in sorted(by_target)))
        setfield(self, "_steps", tuple(reversed(steps)))

    @property
    def arity(self) -> int:
        return len(self.shifts)

    @property
    def in_h(self) -> bool:
        """True when every class is a singleton: no relation exists."""
        return all(len(cls) == 1 for cls in self.classes)

    def check_arity(self, p: GammaPoly) -> None:
        """Reject a polynomial whose Gamma variables are not one per shift."""
        if p.arity != self.arity:
            raise ValueError(f"arity mismatch: polynomial {p.arity}, shifts {self.arity}")

    def _checked(self, index: int) -> int:
        if not 0 <= index < self.arity:
            raise ValueError(f"variable index {index} out of range")
        return index

    def offset_of(self, index: int) -> int:
        """Integer d >= 0 with shift[index] = shift[representative] + d."""
        return self._offset[self._checked(index)]

    def non_representatives(self) -> Tuple[int, ...]:
        return tuple(i for i, d in enumerate(self._offset) if d)

    def generators(self) -> Tuple[Relation, ...]:
        """One generating relation per non-representative index, ascending."""
        return self._generators

    def steps(self) -> Tuple[Tuple[int, int, UniPoly], ...]:
        """(j, prev, step) per non-representative j, each class from its
        highest offset down: prev is the member just below j and step the
        rising factorial from prev's shift over their gap.  The steps from j
        down to its representative multiply to j's multiplier."""
        return self._steps

    def shifts_text(self) -> str:
        return ", ".join(str(a) for a in self.shifts)

    def __str__(self) -> str:
        return f"ShiftSystem({self.shifts_text()})"


def build_shift_system(shifts: Sequence[ScalarLike]) -> ShiftSystem:
    """The system of a tuple of pairwise-distinct shifts: ``ShiftSystem(shifts)``.

    A repeated shift is an error naming the lexicographically first pair of
    positions.
    """
    return ShiftSystem(shifts)


def _relation(arity: int, source: int, target: int, multiplier: UniPoly) -> Relation:
    """The relation G(target) - multiplier * G(source), target term first."""
    monos = ([int(k == index) for k in range(arity)] for index in (target, source))
    as_poly = GammaPoly(arity, zip(monos, (UniPoly.one(), -multiplier)))
    return Relation(source=source, target=target, multiplier=multiplier, as_poly=as_poly)


def generating_relation(sys: ShiftSystem, i: int, j: int) -> Relation:
    """The relation expressing G(j) through G(i) when a_j = a_i + d, d >= 1."""
    a_i, a_j = sys.shifts[sys._checked(i)], sys.shifts[sys._checked(j)]
    d = integer_difference(a_j, a_i)
    if d is None:
        raise ValueError(f"shifts {a_i} and {a_j} do not differ by an integer")
    if d < 1:
        raise ValueError(f"need a positive integer gap from index {i} to {j}, got {d}")
    return _relation(sys.arity, i, j, rising_factorial(a_i, d))


def shift_apply(q: GammaPoly, sys: ShiftSystem) -> GammaPoly:
    """Substitute s -> s+1 and G(m) -> (s + a_m) * G(m).

    This is the polynomial image of replacing every Gamma value by its value
    one step to the right via the recurrence; it is a ring homomorphism and
    keeps every monomial (hence the highest term's monomial and the height)
    unchanged.
    """
    sys.check_arity(q)
    linear = [UniPoly.linear(a) for a in sys.shifts]
    out = {}
    for mono, coeff in q.terms.items():
        shifted = coeff.compose_shift(1)
        for idx, exp in enumerate(mono):
            if exp:
                shifted = shifted * linear[idx] ** exp
        out[mono] = shifted
    return GammaPoly(sys.arity, out)
