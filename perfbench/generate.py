"""Seeded benchmark inputs whose answers are known by construction.

Nothing here imports gamma_ideal: the inputs, and the answers they are checked
against, must not move when the package's own random generators do.

A polynomial is a dict ``{(k, e_0, ..., e_{n-1}): (re, im)}`` standing for
the sum of ``(re + im*i) * s^k * G(0)^e_0 * ... * G(n-1)^e_{n-1}`` with
``Fraction`` parts.  Answers come from the structure of the construction:

* members are cofactor combinations of the generating relations
  ``G(j) - (s+a_r)(s+a_r+1)...(s+a_r+d-1) * G(r)``, or ``P^d - Q^d`` where
  ``Q`` is ``P`` with every ``G(j)`` replaced by its image over ``G(r)``;
* non-members add a nonzero polynomial in the class representatives only,
  which is then the normal form;
* independence checks use shifts no two of which differ by an integer, so
  every nonzero polynomial is a non-member.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Scalar = Tuple[Fraction, Fraction]
Poly = Dict[Tuple[int, ...], Scalar]

ZERO = Fraction(0)


@dataclass(frozen=True)
class Query:
    """One query of a workload and the answer the benchmark expects.

    ``command`` is the CLI subcommand the query stands for; in-process
    workloads run the ``member`` pipeline.  ``poly`` is set instead of
    ``text`` when the query reaches the library as term dicts.  A query runs
    ``repeats`` times in each cycle of the timed loop, so that its median time
    rests on several samples.  A ``defect`` query fails today from a known
    defect of the package: it runs once per run, outside the timed loop and
    apart from the workload's operations, and its outcome is reported by
    name.
    """

    name: str
    command: str
    shifts: str = ""
    text: str = ""
    poly: Optional[Poly] = None
    member: Optional[bool] = None
    normal_form: Optional[Poly] = None
    classes: Optional[List[List[int]]] = None
    point: str = ""
    arity: int = 0
    sample_seed: int = 0
    terms: int = 0
    gap: int = 0
    repeats: int = 1
    defect: bool = False


# -- exact arithmetic on the dict representation


def _mul_scalar(x: Scalar, y: Scalar) -> Scalar:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _accumulate(out: Poly, key: Tuple[int, ...], c: Scalar) -> None:
    old = out.get(key, (ZERO, ZERO))
    value = (old[0] + c[0], old[1] + c[1])
    if value[0] or value[1]:
        out[key] = value
    else:
        out.pop(key, None)


def padd(*polys: Poly) -> Poly:
    out: Poly = {}
    for p in polys:
        for key, c in p.items():
            _accumulate(out, key, c)
    return out


def pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            _accumulate(out, tuple(a + b for a, b in zip(k1, k2)), _mul_scalar(c1, c2))
    return out


def pscale(p: Poly, c: Scalar) -> Poly:
    return {key: _mul_scalar(v, c) for key, v in p.items()}


def constant(arity: int, value) -> Poly:
    value = Fraction(value)
    return {(0,) * (arity + 1): (value, ZERO)} if value else {}


def gamma_var(arity: int, j: int) -> Poly:
    key = [0] * (arity + 1)
    key[j + 1] = 1
    return {tuple(key): (Fraction(1), ZERO)}


def rising_factorial(arity: int, start: Scalar, length: int) -> Poly:
    """(s + start)(s + start + 1)...(s + start + length - 1) as a Poly."""
    s_key = (1,) + (0,) * arity
    out = constant(arity, 1)
    for k in range(length):
        linear = {s_key: (Fraction(1), ZERO)}
        shifted = (start[0] + k, start[1])
        if shifted[0] or shifted[1]:
            linear[(0,) * (arity + 1)] = shifted
        out = pmul(out, linear)
    return out


# -- text rendering in the package's input language


def scalar_text(c: Scalar) -> str:
    re, im = c
    if not im:
        return str(re)
    if not re:
        return f"({im}*i)"
    return f"({re}{'-' if im < 0 else '+'}{abs(im)}*i)"


def poly_text(p: Poly) -> str:
    """Flat sum, one product per term; parses with the package's grammar."""
    if not p:
        return "0"
    pieces: List[str] = []
    for key in sorted(p, reverse=True):
        re, im = p[key]
        factors = []
        if key[0]:
            factors.append("s" if key[0] == 1 else f"s^{key[0]}")
        for j, e in enumerate(key[1:]):
            if e:
                factors.append(f"G({j})" if e == 1 else f"G({j})^{e}")
        negative = not im and re < 0
        magnitude = scalar_text((-re, im) if negative else (re, im))
        if magnitude == "1" and factors:
            body = "*".join(factors)
        else:
            body = "*".join([magnitude] + factors)
        if pieces or negative:
            pieces.append(("-" if negative else "+") + body)
        else:
            pieces.append(body)
    return "".join(pieces)


# -- random pieces


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([k for k in range(-bound, bound + 1) if k])


def _scalar(rng: random.Random, bound: int, complex_share: float = 0.0) -> Scalar:
    re = Fraction(_nonzero(rng, bound), rng.choice((1, 1, 2)))
    im = Fraction(_nonzero(rng, bound)) if rng.random() < complex_share else ZERO
    return (re, im)


def random_poly(
    rng: random.Random,
    arity: int,
    n_terms: int,
    variables: List[int],
    max_g_degree: int,
    max_s_degree: int,
    bound: int = 4,
    complex_share: float = 0.2,
) -> Poly:
    """``n_terms`` distinct monomials in ``variables`` with nonzero coefficients."""
    out: Poly = {}
    while len(out) < n_terms:
        key = [rng.randint(0, max_s_degree)] + [0] * arity
        for _ in range(rng.randint(0, max_g_degree)):
            key[rng.choice(variables) + 1] += 1
        out[tuple(key)] = _scalar(rng, bound, complex_share)
    return out


def _class_shifts(
    rng: random.Random, sizes: List[int], max_offset: int
) -> Tuple[List[Scalar], Dict[int, Tuple[int, int]], List[List[int]]]:
    """Shifts forming integer-difference classes of the given sizes.

    Returns the shifts, ``{j: (representative, offset)}`` for every
    non-representative, and the classes in the package's order (by first
    appearance, members sorted by offset).  Anchors are ``c/(m+1)`` with
    distinct ``c`` in ``0..m``, so no two classes are integer-linked.
    """
    anchors = rng.sample(range(len(sizes)), len(sizes))
    shifts: List[Scalar] = []
    owner: List[Tuple[int, int]] = []
    for c, size in enumerate(sizes):
        base = Fraction(anchors[c], len(sizes) + 1)
        for offset in sorted(rng.sample(range(max_offset + 1), size)):
            shifts.append((base + offset, ZERO))
            owner.append((c, offset))
    order = list(range(len(shifts)))
    rng.shuffle(order)
    shifts = [shifts[k] for k in order]
    owner = [owner[k] for k in order]
    members: Dict[int, List[int]] = {}
    for idx, (c, _) in enumerate(owner):
        members.setdefault(c, []).append(idx)
    links: Dict[int, Tuple[int, int]] = {}
    classes = []
    for c in sorted(members, key=lambda c: members[c][0]):
        ordered = sorted(members[c], key=lambda idx: owner[idx][1])
        classes.append(ordered)
        rep = ordered[0]
        for idx in ordered[1:]:
            links[idx] = (rep, owner[idx][1] - owner[rep][1])
    return shifts, links, classes


def generator_images(
    shifts: List[Scalar], links: Dict[int, Tuple[int, int]]
) -> Dict[int, Tuple[int, Poly]]:
    arity = len(shifts)
    return {
        j: (rep, rising_factorial(arity, shifts[rep], d))
        for j, (rep, d) in links.items()
    }


def generator_poly(arity: int, j: int, rep: int, multiplier: Poly) -> Poly:
    return padd(gamma_var(arity, j), pscale(pmul(multiplier, gamma_var(arity, rep)), (Fraction(-1), ZERO)))


# -- workloads

CHAIN_SIZES = ((3, 2), (4, 3), (6, 4), (8, 4))
CHAIN_SMALL_SIZES = ((3, 2), (4, 3))
CHAIN_ANCHOR = "chain-n8-d4-member"
# The n=8 anchor allows one cycle a run, so queries repeat within it.
CHAIN_SMALL_REPEATS = 4
CHAIN_ANCHOR_REPEATS = 3


def chain_members(seed: int) -> List[Query]:
    """``(G(0)+...+G(n-1))^d - ((1+s+s(s+1)+...)*G(0))^d`` at shifts 0..n-1.

    The second power is the substitution image of the first, so the
    difference is a member; the non-member variant appends one term
    ``c*s*G(0)^d`` with a seeded coefficient, which is then its normal form.
    Its shape is fixed, so that the seed changes values, not costs.
    """
    rng = random.Random(f"chain-members/{seed}")
    queries = []
    for n, d in CHAIN_SIZES:
        lhs = "+".join(f"G({k})" for k in range(n))
        images = ["*".join(f"(s+{j})" if j else "s" for j in range(k)) for k in range(1, n)]
        text = f"({lhs})^{d}-(({'+'.join(['1'] + images)})*G(0))^{d}"
        shifts = ",".join(str(k) for k in range(n))
        small = (n, d) in CHAIN_SMALL_SIZES
        name = f"chain-n{n}-d{d}-member"
        queries.append(
            Query(
                name=name,
                command="member",
                shifts=shifts,
                text=text,
                member=True,
                normal_form={},
                arity=n,
                repeats=CHAIN_SMALL_REPEATS if small else CHAIN_ANCHOR_REPEATS if name == CHAIN_ANCHOR else 1,
            )
        )
        if small:
            extra = {(1, d) + (0,) * (n - 1): (Fraction(_nonzero(rng, 5)), ZERO)}
            queries.append(
                Query(
                    name=f"chain-n{n}-d{d}-non-member",
                    command="member",
                    shifts=shifts,
                    text=f"{text}+{poly_text(extra)}".replace("+-", "-"),
                    member=False,
                    normal_form=extra,
                    arity=n,
                    repeats=CHAIN_SMALL_REPEATS,
                )
            )
    return queries


# One more independence check than small queries puts the median of the mix
# on the smallest independence check, whose cost barely moves with the seed,
# rather than on the costliest small query, whose cost does.
INDEPENDENCE_SHAPES = ((100, 3), (100, 5), (150, 4), (150, 5), (200, 3), (200, 5), (250, 3), (300, 4), (300, 5))
INDEPENDENCE_DEGREE = {3: 10, 4: 7, 5: 6}
SWEEP_PAIRS = 4
SWEEP_ANCHOR = "sweep-independent-t300-n5"


def _independent_shifts(rng: random.Random, n: int) -> List[Scalar]:
    """``k/(n+1)`` plus integer offsets: every pairwise difference is non-integral."""
    return [(Fraction(k, n + 1) + rng.randint(0, 2), ZERO) for k in range(n)]


def _shifts_text(shifts: List[Scalar]) -> str:
    """Shift lists here are real, so only the real parts are written."""
    return ",".join(str(re) for re, _ in shifts)


def linked_member(
    rng: random.Random, sizes: List[int], cofactor_terms: int, max_g_degree: int = 2
) -> Tuple[List[Scalar], Dict[int, Tuple[int, int]], List[List[int]], Poly]:
    """Shifts with the given class sizes and a nonzero cofactor combination
    of their generating relations.  The largest classes take consecutive
    offsets, so the multiplier degrees depend on ``sizes`` alone."""
    while True:
        shifts, links, classes = _class_shifts(rng, sizes, max_offset=max(sizes) - 1)
        arity = len(shifts)
        total: Poly = {}
        for j, (rep, multiplier) in generator_images(shifts, links).items():
            cofactor = random_poly(
                rng, arity, cofactor_terms, list(range(arity)), max_g_degree, 1, bound=3
            )
            total = padd(total, pmul(cofactor, generator_poly(arity, j, rep, multiplier)))
        if total:
            return shifts, links, classes, total


def representative_extra(
    rng: random.Random, arity: int, links: Dict[int, Tuple[int, int]], n_terms: int
) -> Poly:
    """A nonzero polynomial in the class representatives only."""
    reps = [j for j in range(arity) if j not in links]
    return random_poly(rng, arity, n_terms, reps, 2, 1, bound=3)


SMALL_CLASS_SIZES = ([2], [3], [2, 1], [2, 2], [3, 1])


def verify_sweep(seed: int) -> List[Query]:
    """Independence checks plus small members and non-members, as term dicts."""
    rng = random.Random(f"verify-sweep/{seed}")
    queries = []
    for t, n in INDEPENDENCE_SHAPES:
        shifts = _independent_shifts(rng, n)
        poly = random_poly(rng, n, t, list(range(n)), INDEPENDENCE_DEGREE[n], 2)
        queries.append(
            Query(
                name=f"sweep-independent-t{t}-n{n}",
                command="member",
                shifts=_shifts_text(shifts),
                poly=poly,
                member=False,
                normal_form=poly,
                arity=n,
                sample_seed=rng.randrange(2**31),
                terms=t,
            )
        )
    # Fixed shapes per slot, so that the seed changes values, not sizes.
    for k in range(SWEEP_PAIRS):
        for member in (True, False):
            sizes = SMALL_CLASS_SIZES[k % len(SMALL_CLASS_SIZES)]
            shifts, links, _, poly = linked_member(rng, sizes, 2)
            extra = {} if member else representative_extra(rng, len(shifts), links, 2)
            queries.append(
                Query(
                    name=f"sweep-{'member' if member else 'non-member'}-{k}",
                    command="member",
                    shifts=_shifts_text(shifts),
                    poly=padd(poly, extra),
                    member=member,
                    normal_form=extra,
                    arity=len(shifts),
                    sample_seed=rng.randrange(2**31),
                )
            )
    return queries


CLI_SMALL_ROUNDS = 6
FLAT_SUM_TERMS = (200, 400, 600, 800, 1200)
CLI_ANCHOR = "cli-reduce-flat-800"
# The timed wide-gap member verifies; the oracle overflows at the defect gap.
WIDE_GAP = 60
DEFECT_GAP = 100
DEFECT_TERMS = 1000
# Every timed query runs twice a cycle, so that its median rests on at
# least two samples in a run.
CLI_REPEATS = 2


def flat_sum(rng: random.Random, target: int) -> Tuple[str, Poly, Poly]:
    """Shifts text, a flat sum of ``target`` terms, and its normal form.

    The sum is a cofactor times ``G(1) - s*G(0)`` (shifts ``0, 1`` plus two
    singleton classes) plus a small polynomial in the representatives, so
    the normal form is that small polynomial.  Cofactor monomials are spread
    over many Gamma exponents, so the sum has many distinct monomials.
    """
    arity = 4
    shifts = [(Fraction(0), ZERO), (Fraction(1), ZERO), (Fraction(1, 3), ZERO), (Fraction(2, 3), ZERO)]
    links = {1: (0, 1)}
    generator = generator_poly(arity, 1, 0, rising_factorial(arity, shifts[0], 1))
    extra = representative_extra(rng, arity, links, 3)
    total: Poly = dict(extra)
    while len(total) < target:
        term = random_poly(rng, arity, 1, list(range(arity)), 9, 2, bound=9, complex_share=0.0)
        for key, c in pmul(term, generator).items():
            _accumulate(total, key, c)
    return _shifts_text(shifts), total, extra


def wide_gap(rng: random.Random, d: int, **fields) -> Query:
    """``(c1*s + c2*G(0) + c3*G(1)) * (G(1) - s(s+1)...(s+d-1)*G(0))`` at ``0, d``.

    Four terms with coefficients of hundreds of bits, and the only query
    that drives the numeric oracle at large arguments.
    """
    c1, c2, c3 = (_nonzero(rng, 5) for _ in range(3))
    cofactor = f"({c1}*s+{c2}*G(0)+{c3}*G(1))".replace("+-", "-")
    factors = "*".join(f"(s+{k})" if k else "s" for k in range(d))
    return Query(
        name=f"cli-member-wide-gap-d{d}",
        command="member",
        shifts=f"0,{d}",
        text=f"{cofactor}*(G(1)-{factors}*G(0))",
        member=True,
        normal_form={},
        arity=2,
        gap=d,
        **fields,
    )


def _gamma_point(rng: random.Random) -> str:
    """A point with one decimal, at least 0.2 away from every pole."""
    while True:
        re = rng.randint(-25, 60) / 10
        im = rng.randint(-30, 30) / 10
        if re > 0 or abs(re - round(re)) >= 0.2 or abs(im) >= 0.2:
            return f"{re}{'+' if im >= 0 else '-'}{abs(im)}i"


def cli_cold(seed: int) -> List[Query]:
    """README-sized commands in fresh processes, reduce on flat sums and
    one member query with a wide gap; and two defect queries, past the
    parser's recursion limit and the oracle's float range."""
    rng = random.Random(f"cli-cold/{seed}")
    queries = []
    for k in range(CLI_SMALL_ROUNDS):
        member = k % 2 == 0
        sizes = SMALL_CLASS_SIZES[rng.randrange(len(SMALL_CLASS_SIZES))]
        shifts, links, _, poly = linked_member(rng, sizes, 2)
        extra = {} if member else representative_extra(rng, len(shifts), links, 1)
        queries.append(
            Query(
                name=f"cli-member-{k}",
                command="member",
                shifts=_shifts_text(shifts),
                text=poly_text(padd(poly, extra)),
                member=member,
                normal_form=extra,
                arity=len(shifts),
                repeats=CLI_REPEATS,
            )
        )
        sizes = SMALL_CLASS_SIZES[rng.randrange(len(SMALL_CLASS_SIZES))] + [1]
        shifts, _, classes = _class_shifts(rng, sizes, max_offset=4)
        queries.append(
            Query(
                name=f"cli-classes-{k}",
                command="classes",
                shifts=_shifts_text(shifts),
                classes=classes,
                arity=len(shifts),
                repeats=CLI_REPEATS,
            )
        )
        sizes = SMALL_CLASS_SIZES[rng.randrange(len(SMALL_CLASS_SIZES))]
        shifts, links, _, poly = linked_member(rng, sizes, 2)
        extra = representative_extra(rng, len(shifts), links, rng.randint(1, 2))
        queries.append(
            Query(
                name=f"cli-reduce-{k}",
                command="reduce",
                shifts=_shifts_text(shifts),
                text=poly_text(padd(poly, extra)),
                normal_form=extra,
                arity=len(shifts),
                repeats=CLI_REPEATS,
            )
        )
        queries.append(Query(name=f"cli-gamma-{k}", command="gamma", point=_gamma_point(rng), repeats=CLI_REPEATS))
    for target in FLAT_SUM_TERMS:
        shifts, total, extra = flat_sum(rng, target)
        name = f"cli-reduce-flat-{target}"
        queries.append(
            Query(
                name=name,
                command="reduce",
                shifts=shifts,
                text=poly_text(total),
                normal_form=extra,
                arity=4,
                terms=len(total),
                repeats=CLI_REPEATS,
                defect=target > DEFECT_TERMS,
            )
        )
    queries.append(wide_gap(rng, WIDE_GAP, repeats=CLI_REPEATS))
    queries.append(wide_gap(rng, DEFECT_GAP, defect=True))
    return queries


WORKLOADS = {
    "chain-members": (chain_members, CHAIN_ANCHOR),
    "verify-sweep": (verify_sweep, SWEEP_ANCHOR),
    "cli-cold": (cli_cold, CLI_ANCHOR),
}
