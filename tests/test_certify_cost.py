"""``certify`` eliminates one generator at a time and multiplies each share
and each moved term once.

Each pass takes the terms that hold the generator's variable and multiplies
each term's cofactor shares and its moved image by the multiplier's power,
straight into the cofactor and the remainder.  Within one pass no two terms
land on one (monomial, k) or (image, e), since either key gives the term's
monomial back; the products still number fewer than the shares, because
moved images merge with other terms between passes.  It never adds,
subtracts or multiplies whole ``GammaPoly`` values (a division loop that
rebuilds the remainder at every step would, and its work would grow as
steps times terms), and it raises each rewrite multiplier to each power at
most once per call.
"""

import pytest

from gamma_ideal import poly
from gamma_ideal.ideal import certify
from gamma_ideal.poly import GammaPoly, TermSums, UniPoly
from strategies import chain_member
from test_output_cost import counter

WHOLE_POLY_OPERATIONS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__")


@pytest.mark.parametrize("n", [6, 8])
def test_certify_does_no_whole_polynomial_arithmetic(monkeypatch, n):
    sys, member = chain_member(n)
    calls = {
        name: counter(monkeypatch, GammaPoly, name) for name in WHOLE_POLY_OPERATIONS
    }
    cert = certify(member, sys)
    assert {name: len(made) for name, made in calls.items()} == dict.fromkeys(
        WHOLE_POLY_OPERATIONS, 0
    )
    monkeypatch.undo()
    assert cert.normal_form.is_zero()
    assert cert.is_exact()


@pytest.mark.parametrize("n", [6, 8])
def test_certify_raises_each_multiplier_to_each_power_once(monkeypatch, n):
    sys, member = chain_member(n)
    multipliers = {id(rel.multiplier) for rel in sys.generators()}
    calls = counter(monkeypatch, UniPoly, "__pow__")
    certify(member, sys)
    powers = [(id(base), exponent) for base, exponent in calls]
    assert powers, "the chain member needs rewriting"
    assert {base for base, _ in powers} <= multipliers
    assert len(powers) == len(set(powers))


@pytest.mark.parametrize("n", [6, 8])
def test_certify_raises_no_multiplier_to_the_zeroth_power(monkeypatch, n):
    """The k = 0 share takes the factor 1 from the power table as it is."""
    sys, member = chain_member(n)
    calls = counter(monkeypatch, UniPoly, "__pow__")
    cert = certify(member, sys)
    monkeypatch.undo()
    assert calls, "the chain member needs rewriting"
    assert [exponent for _, exponent in calls if exponent == 0] == []
    assert cert.is_exact()


def test_certify_builds_one_remainder_and_one_cofactor_per_generator(monkeypatch):
    sys, member = chain_member(8)
    generators = sys.generators()
    built = counter(monkeypatch, TermSums, "__init__")
    certify(member, sys)
    monkeypatch.undo()
    assert len(built) == 2 * len(generators) == 14


def elimination_counts(p: GammaPoly, sys) -> tuple:
    """(shares, share groups, move groups) of eliminating the generators one
    at a time, from the monomials alone.

    A share is one contribution c*m_j^k of an input term to cofactor j: each
    term makes e_j of them for each non-representative G(j)^e_j it holds.
    A group is a (monomial, k) or (image, e) key of one pass, over the
    distinct monomials left by the pass before.  Within one pass each key
    comes from one monomial, so a group is one term's share or move; the
    groups number fewer than the shares because moved images merge with
    other terms between passes.  Sums that cancel are not dropped here, so
    the group counts bound those of ``certify`` from above."""
    shares = sum(mono[rel.target] for mono in p.terms for rel in sys.generators())
    monomials = set(p.terms)
    share_groups = move_groups = 0
    for rel in sys.generators():
        j, r = rel.target, rel.source
        shared, moved, left = set(), set(), set()
        for mono in monomials:
            exponent = mono[j]
            if not exponent:
                left.add(mono)
                continue
            for k in range(exponent):
                image = list(mono)
                image[j], image[r] = exponent - 1 - k, mono[r] + k
                shared.add((tuple(image), k))
            image = list(mono)
            image[j], image[r] = 0, mono[r] + exponent
            moved.add((tuple(image), exponent))
            left.add(tuple(image))
        share_groups += len(shared)
        move_groups += len(moved)
        monomials = left
    return shares, share_groups, move_groups


def test_certify_multiplies_once_per_group_not_once_per_share(monkeypatch):
    sys, member = chain_member(8)
    shares, share_groups, move_groups = elimination_counts(member, sys)
    products = []
    convolve = poly._convolve_into

    def counting(*args):
        products.append(args)
        convolve(*args)

    # Every coefficient product, powers of the multipliers included.
    monkeypatch.setattr(poly, "_convolve_into", counting)
    certify(member, sys)
    assert 0 < len(products) <= share_groups + move_groups < shares
