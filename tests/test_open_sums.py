"""Each rewrite pass of ``ideal`` hands its open sums to the next.

A pass of ``_substitute`` returns its ``TermSums`` as it stands, and the
next pass reads the entries from it as they are, so a route makes its sums
canonical only after its last pass: ``normal_form`` once, ``certify`` once
per cofactor and once for the remainder.  The results must be those of the
per-pass-canonical routes in ``reference_substitute``, term order included,
also when a key cancels in one pass and comes back in the next.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from gamma_ideal import build_shift_system, parse_shifts
from gamma_ideal.ideal import certify, normal_form
from gamma_ideal.poly import GammaPoly, TermSums
import reference_substitute
from strategies import chain_member, monomials, nonzero_unipolys, system_with_polys
from test_output_cost import counter


def test_normal_form_makes_its_sums_canonical_once(monkeypatch):
    sys, member = chain_member(8)
    assert len(sys.steps()) == 7
    made = counter(monkeypatch, TermSums, "terms")
    normal_form(member, sys)
    monkeypatch.undo()
    assert len(made) == 1


def test_certify_makes_each_cofactor_and_the_remainder_canonical_once(monkeypatch):
    sys, member = chain_member(8)
    generators = sys.generators()
    made = counter(monkeypatch, TermSums, "terms")
    certify(member, sys)
    monkeypatch.undo()
    assert len(made) == len(generators) + 1 == 8


def same_terms(p: GammaPoly, q: GammaPoly) -> bool:
    """Equal, with the terms in the same order."""
    return p.arity == q.arity and list(p.terms.items()) == list(q.terms.items())


def check_routes(p: GammaPoly, sys) -> None:
    assert same_terms(normal_form(p, sys), reference_substitute.normal_form(p, sys))
    got, expected = certify(p, sys), reference_substitute.certify(p, sys)
    assert got.generators == expected.generators
    assert len(got.cofactors) == len(expected.cofactors)
    for cofactor, reference in zip(got.cofactors, expected.cofactors):
        assert same_terms(cofactor, reference)
    assert same_terms(got.normal_form, expected.normal_form)


@given(system_with_polys())
@settings(deadline=None)
def test_the_routes_match_the_per_pass_canonical_routes(case):
    sys, p = case
    check_routes(p, sys)


# Shifts 0, 1, 1/2, 3/2: classes {0, 1} and {2, 3}.  normal_form moves G(3)
# to G(2) first and then G(1) to G(0); certify moves them the other way round.
# Both moves take c*G(1)*G(2) and c*G(0)*G(3) to G(0)*G(2), so minus c times
# the first pass's multiplier at G(0)*G(2) cancels there in the first pass,
# and the second pass brings the key back.
TWO_CLASSES = "0,1,1/2,3/2"
RETURNING = (1, 0, 1, 0)
# Every monomial that reaches G(0)*G(2) on either route.
REACHING = {(1, 0, 1, 0), (0, 1, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)}


@given(
    nonzero_unipolys,
    st.dictionaries(monomials(4, 2).filter(lambda m: m not in REACHING), nonzero_unipolys, max_size=4),
    st.booleans(),
)
@settings(deadline=None)
def test_a_key_that_cancels_and_comes_back_keeps_the_per_pass_order(c, extras, extras_first):
    sys = build_shift_system(parse_shifts(TWO_CLASSES))
    first_moves = {
        "normal_form": sys.steps()[0],
        "certify": next((rel.target, rel.source, rel.multiplier) for rel in sys.generators()),
    }
    for route, (j, r, multiplier) in first_moves.items():
        special = {(0, 1, 1, 0): c, (1, 0, 0, 1): c, RETURNING: -(c * multiplier)}
        items = [*extras.items(), *special.items()] if extras_first else [*special.items(), *extras.items()]
        p = GammaPoly(4, items)
        assert RETURNING not in reference_substitute._substitute(p.terms, j, r, multiplier)
        check_routes(p, sys)
        reduced = normal_form(p, sys) if route == "normal_form" else certify(p, sys).normal_form
        assert RETURNING in reduced.terms
