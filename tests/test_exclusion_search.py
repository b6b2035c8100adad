"""The exclusion search over shared word images.

``symbolic.find_exclusion_relation`` decides a vanishing relation by
equalities of shared iterates and skips every relation that one of two
identities already decides.  Both identities are checked on their own, the
search against ``oracles.bfs_exclusion_relation`` on tuples where most
relations vanish, and the number of word images the cases compute is
pinned, so that recomputing them fails here.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import bfs_exclusion_relation
from quadorbits.families import ParamTuple, catalog
from quadorbits.polynomials import UniPoly
from quadorbits.ratfunc import RatFunc
from quadorbits.verifier import symbolic, verify_theorem_case
from quadorbits.verifier.symbolic import find_exclusion_relation

_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
_coeffs = st.lists(_small, min_size=1, max_size=3)


@st.composite
def ratfuncs(draw, var="t"):
    num = UniPoly(draw(_coeffs), var)
    den = UniPoly(draw(_coeffs.filter(any)), var)
    return RatFunc(num, den)


def f(c: RatFunc, x: RatFunc) -> RatFunc:
    return x * x + c


def relation(c: RatFunc, x: RatFunc) -> RatFunc:
    """f^4(x) - f^2(x), formed whole."""
    u = f(c, f(c, x))
    return f(c, f(c, u)) - u


class TestIdentities:
    @settings(max_examples=40, deadline=None)
    @given(ratfuncs(), ratfuncs())
    def test_x_and_minus_x_share_every_relation(self, c, x):
        assert f(c, -x) == f(c, x)
        assert relation(c, -x) == relation(c, x)

    @settings(max_examples=40, deadline=None)
    @given(ratfuncs(), ratfuncs())
    def test_the_relation_of_x_divides_that_of_its_image(self, c, x):
        # f^4(f(x)) - f^2(f(x)) = (f^4(x) - f^2(x)) (f^4(x) + f^2(x))
        u = f(c, f(c, x))
        assert relation(c, f(c, x)) == relation(c, x) * (f(c, f(c, u)) + u)

    @settings(max_examples=40, deadline=None)
    @given(ratfuncs(), st.booleans())
    def test_a_vanishing_relation_vanishes_forward_and_negated(self, u,
                                                              two_cycle):
        # u fixed by x^2 + c, or on its 2-cycle {u, -u - 1}
        c = -u * u - u - 1 if two_cycle else u - u * u
        assert f(c, f(c, u)) == u
        for x in (u, f(c, u), f(c, f(c, u))):
            assert relation(c, x).is_zero()
            assert relation(c, -x).is_zero()


@st.composite
def mostly_vanishing_tuples(draw):
    """A catalog family's (c1, c2, P), whose relations all vanish, with a
    third coefficient inserted at a drawn position: one that fixes a drawn
    point q of the family's stable set, puts q on a 2-cycle or maps q to
    the fixed point -q, or else a drawn line."""
    fam = draw(st.sampled_from(catalog()[0]))
    (c1, c2), P = fam.tup.cs, fam.tup.P
    q = draw(st.sampled_from((P, *fam.stable)))
    kind = draw(st.sampled_from(("fixed", "two-cycle", "pre-fixed", "line")))
    if kind == "fixed":
        c3 = q - q * q
    elif kind == "two-cycle":
        c3 = -q * q - q - 1
    elif kind == "pre-fixed":
        c3 = -q * q - q
    else:
        c3 = draw(_small) + draw(_small) * RatFunc.t(P.var)
    assume(c3 != c1 and c3 != c2)
    cs = [c1, c2]
    cs.insert(draw(st.integers(0, 2)), c3)
    return ParamTuple(tuple(cs), P)


@settings(max_examples=60, deadline=None)
@given(mostly_vanishing_tuples())
def test_search_equals_the_breadth_first_oracle(tup):
    assert find_exclusion_relation(tup) == bfs_exclusion_relation(tup)


def test_family_relations_all_vanish_up_to_the_longest_word():
    fam = catalog()[0][0]
    with pytest.raises(ArithmeticError):
        find_exclusion_relation(fam.tup)


def test_search_keeps_the_known_survivor():
    y = RatFunc.t("y")
    tup = ParamTuple(((1 - y * y) / 4, (1 - (y + 2) ** 2) / 4,
                      -(3 + y * y) / 4), (1 + y) / 2)
    found = find_exclusion_relation(tup)
    assert found == bfs_exclusion_relation(tup)
    assert Fraction(-1, 2) in found[3]


@pytest.mark.parametrize("case, images", [(1, 15), (4, 15)])
def test_word_images_computed_by_the_cases(monkeypatch, case, images):
    """Each word image is computed once per search, and a mirrored
    subcase, derived from its twin, runs none: a search that forms images
    again or decides relations the identities settle, or a mirrored
    subcase run again, computes more."""
    computed = []
    missing = symbolic._WordImages.__missing__

    def spy(self, word):
        computed.append(word)
        return missing(self, word)

    monkeypatch.setattr(symbolic._WordImages, "__missing__", spy)
    verify_theorem_case(case)
    assert len(computed) == images
