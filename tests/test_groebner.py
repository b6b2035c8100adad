import math

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import gcd_then_divide, leading_term, naive_normal_form, \
    squarefree_part
import quadorbits.groebner as gb
from quadorbits.groebner import Budget, BudgetExhausted, buchberger, \
    normal_form, s_polynomial
from quadorbits.polynomials import BiPoly
from quadorbits.verifier.lemmas import groebner_route, lemma_setup

XY = ("x", "y")


def B(s):
    return BiPoly.parse(s, vars=XY)


class TestSPolynomial:
    def test_examples(self):
        assert s_polynomial(B("x*y - 1"), B("y^2 - 1")) == B("x - y")
        assert s_polynomial(B("x - y"), B("x - 2*y")) == B("y")
        f = B("x^2*y - x")
        assert s_polynomial(f, f).is_zero()


class TestNormalForm:
    def test_examples(self):
        basis = [B("x - y"), B("y^2 - 1")]
        assert normal_form(B("x^2 - 1"), basis).is_zero()
        assert normal_form(BiPoly.zero(XY), basis).is_zero()
        g = B("x^2*y + y^2")
        assert normal_form(g, [g]).is_zero()

    def test_no_leading_term_divides_remainder(self):
        basis = [B("x*y - 1"), B("y^2 - 1")]
        r = normal_form(B("x^3*y^2 + x"), basis)
        lts = [leading_term(g)[0] for g in basis]
        for e in r.terms:
            assert not any(l[0] <= e[0] and l[1] <= e[1] for l in lts)


    def test_exponents_beyond_the_packed_range_raise(self):
        top = 2**31 - 1  # the largest exponent the reduction packs
        x_top = BiPoly({(top, 0): 1}, XY)
        assert normal_form(BiPoly({(top, top): 3}, XY), [x_top]).is_zero()
        assert normal_form(B("x"), [B("x") - BiPoly({(0, top): 1}, XY)]) \
            == BiPoly({(0, top): 1}, XY)
        with pytest.raises(ValueError):
            normal_form(BiPoly({(top + 1, 0): 1}, XY), [B("x - 1")])
        with pytest.raises(ValueError):
            normal_form(B("x"), [BiPoly({(0, top + 1): 1}, XY)])
        with pytest.raises(ValueError):
            buchberger([BiPoly({(1, top + 1): 1}, XY), B("y - 1")])
        # x*y reduces to y * y^top: a shift carries the y part past the range
        with pytest.raises(ValueError):
            normal_form(B("x*y"), [B("x") - BiPoly({(0, top): 1}, XY)])


class TestBuchberger:
    def test_example(self):
        basis = buchberger([B("x*y - 1"), B("y^2 - 1")])
        assert {str(g) for g in basis} == {"x - y", "y^2 - 1"}

    def test_single_generator(self):
        basis = buchberger([B("2*x*y - 4")])
        assert [str(g) for g in basis] == ["x*y - 2"]

    def test_unit_ideal(self):
        basis = buchberger([B("y - 1"), B("y + 1")])
        assert [str(g) for g in basis] == ["1"]

    def test_buchberger_criterion_post_hoc(self):
        gens = buchberger([B("x^2 + y"), B("x*y - 1"), B("y^3 - x")])
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                s = s_polynomial(gens[i], gens[j])
                if not s.is_zero():
                    assert normal_form(s, gens).is_zero()

    def test_normal_form_congruence(self):
        gens = [B("x^2 + y"), B("x*y - 1")]
        basis = buchberger(gens)
        f = B("x^3*y - x + y^2")
        r = normal_form(f, basis)
        assert normal_form(f - r, basis).is_zero()

    def test_budget_exhaustion(self):
        with pytest.raises(BudgetExhausted) as e:
            buchberger([B("x*y - 1"), B("y^2 - 1")],
                       budget=Budget(max_pairs=0))
        assert e.value.pairs_done > 0 or e.value.basis_size >= 2

    @pytest.mark.parametrize("limits", [{"max_pairs": -1},
                                        {"max_coeff_bits": -1}])
    def test_negative_budget_is_rejected(self, limits):
        with pytest.raises(ValueError):
            Budget(**limits)


class TestMembership:
    def test_examples(self):
        """Membership as the Groebner route decides it: the normal form
        with respect to the reduced basis vanishes."""
        f, g = B("x*y - 1"), B("y^2 - 1")
        basis = buchberger([f, g])
        assert normal_form(f, basis).is_zero()
        assert not normal_form(B("x"), buchberger([B("y")])).is_zero()
        assert normal_form(B("x - y"), basis).is_zero()


class TestEliminationConsistency:
    def test_reduced_lemma_factors_agree_with_resultant(self):
        """Lex basis of a zero-dimensional pair of reduced generator
        factors contains a survivor-variable-only element whose rational
        roots are resultant roots (cross-validation of the two routes)."""
        from quadorbits.polynomials import resultant
        from quadorbits.roots import rational_roots
        from quadorbits.verifier.elimination import eliminate_candidates
        from quadorbits.verifier.lemmas import lemma_setup

        setup = lemma_setup("2.1")
        out = eliminate_candidates(setup.gens, setup.structural,
                                   setup.poles)
        a = out.reduced[0].factors[0]
        b = out.reduced[1].factors[0]
        basis = buchberger([a, b], budget=Budget(max_pairs=4000))
        res_roots = set(
            rational_roots(squarefree_part(resultant(a, b))).root_set())
        found_z_only = False
        for g in basis:
            u = g.as_unipoly()
            if u is not None and u.var == "z" and u.degree > 0:
                found_z_only = True
                z_roots = set(
                    rational_roots(squarefree_part(u)).root_set())
                assert z_roots <= res_roots
        assert found_z_only


def small_bipolys(min_terms=0):
    coeff = st.fractions(min_value=-12, max_value=12, max_denominator=6)
    exps = st.tuples(st.integers(0, 4), st.integers(0, 4))
    return st.dictionaries(exps, coeff, min_size=min_terms, max_size=6).map(
        lambda t: BiPoly(t, XY))


nonzero_bipolys = small_bipolys(min_terms=1).filter(lambda f: not f.is_zero())


class TestAgainstNaiveReduction:
    """The heap-ordered, fraction-free reduction against plain division
    over Q, which rescans for the leading term at every step."""

    @settings(max_examples=150, deadline=None)
    @given(small_bipolys(), st.lists(nonzero_bipolys, min_size=1, max_size=3))
    # a divisor whose lex-leading coefficient is negative
    @example(B("y^3 + x*y"), [B("y^2 - x")])
    def test_normal_form_matches_oracle(self, f, basis):
        assert normal_form(f, basis) == naive_normal_form(f, basis)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(nonzero_bipolys, min_size=1, max_size=3))
    def test_basis_s_polynomials_reduce_to_zero(self, gens):
        try:
            G = buchberger(gens, Budget(max_pairs=400))
        except BudgetExhausted:
            return
        for i in range(len(G)):
            for j in range(i + 1, len(G)):
                s = s_polynomial(G[i], G[j])
                assert naive_normal_form(s, G).is_zero()
        for g in gens:  # and the basis generates the input ideal
            assert naive_normal_form(g, G).is_zero()
        # and it is the reduced basis: monic, sorted by leading exponent,
        # and no term of an element is divisible by another's leading term
        lts = [leading_term(g) for g in G]
        assert all(c == 1 for _, c in lts)
        assert [e for e, _ in lts] == sorted(e for e, _ in lts)
        for i, g in enumerate(G):
            for k, (l, _) in enumerate(lts):
                if k != i:
                    assert not any(l[0] <= e[0] and l[1] <= e[1]
                                   for e in g.terms)


nonzero_ints = st.integers(-2**70, 2**70).filter(bool)
coefficient_maps = st.dictionaries(st.integers(0, 2**40), nonzero_ints,
                                   min_size=1, max_size=12)


class TestContentSplit:
    """Content removal by one division per coefficient against one gcd
    over all coefficients followed by a division of each."""

    @settings(max_examples=300, deadline=None)
    @given(coefficient_maps, st.integers(1, 2**90))
    @example({7: -12}, 1)                             # a single term
    @example({1: 4, 2: -6, 3: 10}, 5)                 # candidate = content
    @example({1: 6 * 5, 2: 6 * 7, 3: 6 * 11, 4: 2 * 13, 5: -4}, 1)  # 6 -> 2
    def test_planted_content(self, work, content):
        work = {t: content * v for t, v in work.items()}
        assert gb._content_split(dict(work)) == gcd_then_divide(work)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 2**60), st.integers(2, 2**20),
           st.lists(nonzero_ints, min_size=gb._SAMPLE, max_size=gb._SAMPLE),
           st.lists(st.tuples(st.integers(-2**50, 2**50), st.integers(1)),
                    min_size=1, max_size=8))
    def test_candidate_with_an_extra_factor(self, content, p, head, tail):
        """The first coefficients share the factor p that the others
        lack, so the candidate shrinks and the quotients already taken
        are rescaled."""
        values = [content * p * v for v in head]
        values += [content * (p * v + r % (p - 1) + 1) for v, r in tail]
        work = dict(enumerate(values))
        d, quotients = gcd_then_divide(work)
        assert math.gcd(*values[:gb._SAMPLE]) != d
        assert gb._content_split(dict(work)) == (d, quotients)

    def test_normal_form_steps_remove_contents(self, monkeypatch):
        """Non-monic divisors: steps scale by m != 1 and then remove a
        content above 1, once after a candidate that shrank."""
        split, seen = gb._content_split, []

        def record(work):
            candidate = math.gcd(*list(work.values())[:gb._SAMPLE])
            d, out = split(work)
            seen.append((candidate, d))
            return d, out

        monkeypatch.setattr(gb, "_content_split", record)
        f = B("3*x^3 - 9*x*y^2 + 3*y^3 + 6")
        basis = [B("5*x*y + x"), B("4*x^3*y + 6")]
        assert normal_form(f, basis) == naive_normal_form(f, basis)
        assert any(1 < d < candidate for candidate, d in seen)


class TestPairOrder:
    """Pairs come off one heap keyed (lcm, -j, i): the smallest lcm first,
    and among equal lcms the pairs of the newest element, each with its
    oldest partner first."""

    @pytest.mark.parametrize("gens, reduced", [
        (["x^2*y - 1", "x*y^2 - 1", "x^2*y^2 - x", "x^2*y^2 - y"],
         ["y^3 - 1", "x - y"]),
        (["x^2*y^2 - 1", "x^2*y^2 - x", "x^2*y^2 - y"], ["y - 1", "x - 1"]),
    ])
    def test_ties_go_to_the_newest_element(self, monkeypatch, gens, reduced):
        import quadorbits.groebner as gb
        made, seen = [], []
        primitive, s_items = gb._primitive, gb._s_items

        def record_element(items):
            made.append(primitive(items))
            return made[-1]

        def record_pair(f, g):
            i, j = (next(k for k, e in enumerate(made) if e is el)
                    for el in (f, g))
            lcm = gb._lcm(gb._split(f[0]), gb._split(g[0]))
            seen.append((lcm, i, j, len(made)))
            return s_items(f, g)

        monkeypatch.setattr(gb, "_primitive", record_element)
        monkeypatch.setattr(gb, "_s_items", record_pair)
        # every pair of the generators has the lcm x^2*y^2
        basis = buchberger([B(g) for g in gens])
        assert [str(g) for g in basis] == reduced
        assert seen[0][1:3] == (0, len(gens) - 1)
        for n, (lcm, i, j, size) in enumerate(seen):
            for lcm2, i2, j2, _ in seen[n + 1:]:
                # a later pair of the same lcm that was already pending
                if lcm2 == lcm and j2 < size:
                    assert (-j, i) < (-j2, i2)


class TestCriterion7Outcomes:
    """The lemma systems of criterion 7 exhaust the budget with fixed run
    statistics (pairs done, largest coefficient, basis size).  Pinning them
    shows any change of reduction or pair order that alters the run."""

    @pytest.mark.parametrize("lid, expected", [
        ("2.3", ("budget-exhausted", 121, 400, 37)),
        ("2.5", ("budget-exhausted", 121, 274, 40)),
        ("2.1", ("budget-exhausted", 121, 503, 40)),
        ("2.2", ("budget-exhausted", 121, 503, 40)),
        ("2.4", ("budget-exhausted", 121, 649, 47)),
        ("2.6", ("budget-exhausted", 121, 270, 40)),
    ])
    def test_pinned_outcome(self, lid, expected):
        out = groebner_route(lemma_setup(lid),
                             Budget(max_pairs=120, max_coeff_bits=60_000))
        assert (out.status, out.pairs_done, out.max_coeff_bits,
                out.basis_size) == expected

    @pytest.mark.parametrize("lid, expected", [
        ("2.1", ("budget-exhausted", 501, 623, 70)),
        ("2.5", ("budget-exhausted", 501, 668, 77)),
        ("2.6", ("budget-exhausted", 501, 665, 77)),
    ])
    def test_pinned_outcome_at_500_pairs(self, lid, expected):
        out = groebner_route(lemma_setup(lid), Budget(max_pairs=500))
        assert (out.status, out.pairs_done, out.max_coeff_bits,
                out.basis_size) == expected
