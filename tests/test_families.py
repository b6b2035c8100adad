import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import sporadic_pairs
from quadorbits.dynamics import MapSet, monoid_orbit
from quadorbits.families import ExcludedParameter, ParamTuple, catalog, \
    family_by_id, family_verify_symbolic, lemma_statement, sporadic_triples
from quadorbits.rationals import rat, rat_str
from quadorbits.verifier.lemmas import LEMMA_IDS, _branch_tuple, lemma_setup


def family_instance(fam, t0):
    """The map set and basepoint of a family at t0."""
    cs, P, _ = fam.instance(t0)
    return MapSet(cs), P


class TestCatalog:
    def test_family_ids(self):
        fams, _ = catalog()
        assert [f.id for f in fams] == \
            ["F-11a", "F-11b", "F-12a", "F-12b", "F-22a"]

    def test_sporadic_pairs_golden(self):
        entries = sorted((s.lemma, tuple(map(str, s.cs)))
                         for s in sporadic_pairs())
        assert entries == sorted([
            ("2.1", ("-21/16", "-5/16")),
            ("2.1", ("3/16", "-5/16")),
            ("2.2", ("-5/16", "-13/16")),
            ("2.2", ("-21/16", "-13/16")),
            ("2.3", ("-3/4", "-7/4")),
            ("2.3", ("-7/4", "-3/4")),
            ("2.3", ("-13/16", "-21/16")),
            ("2.3", ("-21/16", "-13/16")),
            ("2.3", ("-37/16", "-21/16")),
            ("2.5", ("-21/16", "-29/16")),
        ])
        ids = [s.id for s in sporadic_pairs()]
        assert len(ids) == 10 and len(set(ids)) == 10

    def test_sporadic_triples_golden(self):
        triples = [tuple(map(str, s.cs)) for s in sporadic_triples()]
        assert triples == [("-5/16", "-13/16", "-21/16"),
                           ("3/16", "-5/16", "-13/16")]

    def test_every_sporadic_basepoint_confirms(self):
        _, sporadics = catalog()
        for s in sporadics:
            S = MapSet(s.cs)
            for P in s.basepoints:
                assert monoid_orbit(S, P).is_finite(), (s.id, P)


class TestSymbolicVerification:
    @pytest.mark.parametrize("fid", ["F-11a", "F-11b", "F-12a", "F-12b",
                                     "F-22a"])
    def test_families_verify(self, fid):
        assert family_verify_symbolic(family_by_id(fid))

    def test_mutated_family_fails(self):
        fam = family_by_id("F-11a")
        bad = fam._replace(
            stable=tuple(list(fam.stable[:-1]) + [fam.stable[-1] + 1]))
        assert not family_verify_symbolic(bad)


class TestInstances:
    def test_f12a_at_3(self):
        S, P = family_instance(family_by_id("F-12a"), 3)
        assert [f.c for f in S] == [rat("-2"), rat("-3")]
        assert P == 2
        res = monoid_orbit(S, P)
        assert res.is_finite()
        assert set(res.orbit) == {Fraction(2), Fraction(1), Fraction(-2),
                                  Fraction(-1)}

    def test_f11b_at_2(self):
        S, P = family_instance(family_by_id("F-11b"), 2)
        assert [f.c for f in S] == [rat("-55/36"), rat("-91/36")]
        assert P == rat("11/6")
        assert monoid_orbit(S, P).is_finite()

    def test_f22a_at_0(self):
        S, P = family_instance(family_by_id("F-22a"), 0)
        assert [f.c for f in S] == [rat("-7/4"), rat("-3/4")]
        # the basepoint is the exact-period-two point of the first map
        assert P == rat("1/2")
        f1 = S[0]
        assert f1(f1(P)) == P and f1(P) != P

    def test_excluded_collision(self):
        with pytest.raises(ExcludedParameter, match="collision"):
            family_instance(family_by_id("F-11a"), -1)

    def test_excluded_pole(self):
        with pytest.raises(ExcludedParameter, match="pole"):
            family_instance(family_by_id("F-11b"), 1)

    def test_excluded_values_computed(self):
        assert family_by_id("F-11a").tup.excluded_values() == {Fraction(-1)}
        assert family_by_id("F-11b").tup.excluded_values() == \
            {Fraction(1), Fraction(-1)}
        assert family_by_id("F-12a").tup.excluded_values() == set()

    def test_only_ints_and_fractions_are_accepted(self):
        fam = family_by_id("F-12a")
        for bad in (0.5, "1/2", "3"):
            with pytest.raises(TypeError):
                fam.instance(bad)
            with pytest.raises(TypeError):
                fam.tup.at(bad)


class TestFamilyInstance:
    def test_raises_at_every_excluded_value(self):
        fams, _ = catalog()
        for fam in fams:
            for t0 in fam.tup.excluded_values():
                with pytest.raises(ExcludedParameter,
                                   match=f"^{fam.id}: (pole|coefficient)"):
                    fam.instance(t0)

    def test_equals_specialize_elsewhere(self):
        fams, _ = catalog()
        for fam in fams:
            excluded = fam.tup.excluded_values()
            for t0 in (Fraction(k, 3) for k in range(-9, 10)):
                if t0 in excluded:
                    continue
                cs, P, stable = fam.instance(t0)
                assert cs == tuple(c.specialize(t0) for c in fam.tup.cs)
                assert P == fam.tup.P.specialize(t0)
                assert stable == tuple(u.specialize(t0) for u in fam.stable)

    def test_reason_names_the_function_and_the_value(self):
        with pytest.raises(ExcludedParameter) as e:
            family_by_id("F-11b").instance(1)
        assert str(e.value) == "F-11b: pole of c1 at t = 1"
        with pytest.raises(ExcludedParameter) as e:
            family_by_id("F-11a").instance(-1)
        assert str(e.value) == \
            "F-11a: coefficient collision c1 = c2 at y = -1"


def _one_parameter_tuples() -> dict[str, ParamTuple]:
    """Every catalog family's tuple and every curve-branch tuple of the six
    lemma setups, by name."""
    out = {fam.id: fam.tup for fam in catalog()[0]}
    for lemma_id in LEMMA_IDS:
        setup = lemma_setup(lemma_id)
        for br in setup.branches:
            out[f"{lemma_id} {br.curve}"] = _branch_tuple(setup, br)
    return out


TUPLES = _one_parameter_tuples()
# branches on which c1 = c2 identically: every value is excluded
COLLIDING = {name for name, tup in TUPLES.items()
             if (tup.cs[0] - tup.cs[1]).is_zero()}
EXCLUDED = {name: tup.excluded_values() for name, tup in TUPLES.items()
            if name not in COLLIDING}
small = st.fractions(min_value=-6, max_value=6, max_denominator=6)


class TestParamTupleAt:
    def test_tuples_cover_families_and_every_kind_of_branch(self):
        assert len(TUPLES) == 5 + 18 and len(COLLIDING) == 8

    @pytest.mark.parametrize("name", sorted(EXCLUDED))
    def test_raises_at_every_excluded_value(self, name):
        tup = TUPLES[name]
        for t0 in EXCLUDED[name]:
            with pytest.raises(ExcludedParameter) as e:
                tup.at(t0)
            e = e.value
            assert e.t0 == t0
            if e.pole:
                names = [f"c{k + 1}" for k in range(len(tup.cs))] + \
                    ["basepoint"]
                f = (*tup.cs, tup.P)[names.index(e.pole)]
                assert f.den(t0) == 0
                shown = "the basepoint" if e.pole == "basepoint" else e.pole
                assert str(e) == \
                    f"pole of {shown} at {tup.P.var} = {rat_str(t0)}"
            else:
                i, j = e.pair
                assert e.cs == tuple(c.specialize(t0) for c in tup.cs)
                assert e.cs[i - 1] == e.cs[j - 1]

    @pytest.mark.parametrize("name", sorted(COLLIDING))
    def test_identically_equal_coefficients_exclude_every_value(self, name):
        tup = TUPLES[name]
        with pytest.raises(ValueError, match="identically equal"):
            tup.excluded_values()
        for t0 in (Fraction(k, 2) for k in range(-6, 7)):
            with pytest.raises(ExcludedParameter):
                tup.at(t0)

    @settings(max_examples=60, deadline=None)
    @given(small)
    def test_raises_exactly_on_excluded_values(self, t0):
        for name, tup in TUPLES.items():
            excluded = name in COLLIDING or t0 in EXCLUDED[name]
            try:
                cs, P = tup.at(t0)
            except ExcludedParameter:
                assert excluded, (name, t0)
                continue
            assert not excluded, (name, t0)
            assert cs == tuple(c.specialize(t0) for c in tup.cs)
            assert P == tup.P.specialize(t0)

    def test_relabel_keeps_the_values(self):
        tup = family_by_id("F-11b").tup
        moved = tup.relabel("s")
        assert moved.P.var == "s" and {c.var for c in moved.cs} == {"s"}
        assert moved.at(Fraction(2)) == tup.at(Fraction(2))
        assert moved.excluded_values() == tup.excluded_values()


class TestLemmaStatement:
    def test_entries_of_each_lemma_in_catalog_order(self):
        fams, _ = catalog()
        for lemma_id in ("2.1", "2.2", "2.3", "2.4", "2.5", "2.6"):
            stated_fams, stated_pairs = lemma_statement(lemma_id)
            assert stated_fams == tuple(f for f in fams
                                        if f.lemma == lemma_id)
            assert stated_pairs == tuple(p for p in sporadic_pairs()
                                         if p.lemma == lemma_id)
        assert [f.id for f in lemma_statement("2.1")[0]] == \
            ["F-11a", "F-11b"]
        assert [p.id for p in lemma_statement("2.3")[1]] == \
            ["SP-22-1", "SP-22-2", "SP-22-3", "SP-22-4", "SP-22-5"]
        assert lemma_statement("2.4") == ((), ())


class TestRandomSpecializations:
    def test_orbits_stay_inside_stable_sets(self):
        rng = random.Random(17)
        fams, _ = catalog()
        for fam in fams:
            excluded = fam.tup.excluded_values()
            done = 0
            while done < 6:
                t0 = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
                if t0 in excluded:
                    continue
                S, P = family_instance(fam, t0)
                res = monoid_orbit(S, P)
                assert res.is_finite(), (fam.id, t0)
                allowed = {u.specialize(t0) for u in fam.stable} | {P}
                assert set(res.orbit) <= allowed, (fam.id, t0)
                done += 1
