"""Verifier results decided once per process, and the shortcuts they take.

``lemmas.lemma_setup`` shares one immutable system per lemma id, and
``symbolic.dispose_tuple`` takes its decision from the memoized
``symbolic._decide``.  A cached decision must equal a fresh one, and no
caller may reach a cached value through what it is handed.  The squares
that skip the gcd and the word relations the exclusion search forms are
checked against the reduce-after-square and product-first forms, and the
search itself against the breadth-first oracle that forms every relation.
"""

import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import bfs_exclusion_relation, \
    product_first_word_relation_roots, ratfunc_family_accounts
from quadorbits.families import catalog, family_by_id
from quadorbits.groebner import Budget
from quadorbits.polynomials import BiPoly, UniPoly
from quadorbits.verifier import symbolic, verify_lemma, verify_theorem_case
from quadorbits.verifier.lemmas import LEMMA_IDS, groebner_route, \
    lemma_setup
from quadorbits.verifier.symbolic import BiRat, dispose_tuple

F = Fraction


@pytest.fixture(scope="module")
def visited():
    """The arguments of every tuple decision, and every tuple handed to the
    exclusion search with the (word, target, relation, roots) it returned,
    that one pass of the six lemmas and the ten cases makes, in call order.
    The search forms one relation per call, the one it returns: it decides
    every vanishing relation without forming it."""
    decisions, relations = [], []
    decide, search = symbolic._decide, symbolic.find_exclusion_relation

    def decide_spy(*key):
        decisions.append(key)
        return decide(*key)

    def search_spy(tup):
        found = search(tup)
        relations.append((tup, found))
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symbolic, "_decide", decide_spy)
        mp.setattr(symbolic, "find_exclusion_relation", search_spy)
        for lemma_id in LEMMA_IDS:
            verify_lemma(lemma_id)
        for n in range(1, 11):
            verify_theorem_case(n)
    return decisions, relations


class TestTupleDecisions:
    def test_cached_decisions_equal_fresh_ones(self, visited):
        decisions, _ = visited
        keys = set(decisions)
        # the pass repeats tuples, which is what the cache is for
        assert len(keys) < len(decisions)
        for key in keys:
            assert symbolic._decide(*key) == \
                symbolic._decide.__wrapped__(*key)

    def test_family_accounts_match_the_ratfunc_difference(self, visited):
        decisions, _ = visited
        checked = 0
        for cs, family_ids in set(decisions):
            finite, _ = symbolic._decide(cs, family_ids)
            if not finite or len(cs) != 2:
                continue
            bps = [r.basepoint for r in finite]
            for fid in family_ids:
                fam = family_by_id(fid)
                assert symbolic._family_accounts(fam, *cs, bps) == \
                    ratfunc_family_accounts(fam, *cs, bps)
                checked += 1
        assert checked

    @pytest.mark.parametrize("cs, P0, kind", [
        ((F(0), F(-1)), F(0), "family"),
        ((F(-5, 16), F(-13, 16)), F(1, 4), "sporadic"),
        ((F(-37, 16), F(-29, 16)), F(1, 4), "excluded"),
    ])
    def test_returned_values_are_new_on_every_call(self, cs, P0, kind):
        fams = catalog()[0]
        first = dispose_tuple("s", list(cs), P0, fams)
        expected = pickle.loads(pickle.dumps(first))
        assert first[0].kind == kind
        d, finite = first
        d.kind = "mutated"
        d.data["c"].append("9")
        d.data.setdefault("basepoints", []).append("9")
        finite.clear()
        assert dispose_tuple("s", list(cs), P0, fams) == expected


class TestLemmaSetups:
    @pytest.mark.parametrize("lemma_id", LEMMA_IDS)
    def test_one_shared_immutable_setup_per_id(self, lemma_id):
        setup = lemma_setup(lemma_id)
        assert lemma_setup(lemma_id) is setup
        with pytest.raises(AttributeError):
            setup.gens = ()
        assert isinstance(setup.gens, tuple)
        assert setup.structural == tuple(BiPoly.parse(b.curve, setup.vars)
                                         for b in setup.branches)

    def test_lemma_and_groebner_route_build_the_system_once(self):
        lemma_setup.cache_clear()
        verify_lemma("2.1")
        groebner_route(lemma_setup("2.1"),
                       Budget(max_pairs=10, max_coeff_bits=10_000))
        info = lemma_setup.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def test_word_relations_match_the_product_first_form(visited):
    _, relations = visited
    assert relations
    for tup, (word, target, relation, roots) in relations:
        assert (relation, roots) == \
            product_first_word_relation_roots(tup, word, target)


def test_searched_tuples_match_the_breadth_first_oracle(visited):
    _, relations = visited
    assert relations
    for tup, found in relations:
        assert found == bfs_exclusion_relation(tup)


_coef = st.integers(-6, 6)
_exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
_V = ("y", "z")


@settings(max_examples=80, deadline=None)
@given(st.dictionaries(_exps, st.fractions(min_value=-9, max_value=9,
                                           max_denominator=4), max_size=5),
       st.lists(_coef, min_size=1, max_size=3).filter(any),
       st.lists(_coef, min_size=1, max_size=3).filter(any),
       st.booleans())
def test_birat_square_equals_the_reduced_square(terms, d0, d1, negate):
    b = BiRat(BiPoly(terms, _V), UniPoly(d0, "y"), UniPoly(d1, "z")).reduced()
    if negate:
        b = -b
    assert b.square() == BiRat(b.num * b.num, b.den0 * b.den0,
                               b.den1 * b.den1).reduced()
