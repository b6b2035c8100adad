from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import direct_search
from quadorbits.dynamics import MapSet, monoid_orbit
from quadorbits.search import SearchSpec, search


class TestSmallGrids:
    def test_integer_pairs(self):
        res = search(SearchSpec(2, 1, 5))
        as_dicts = [t.to_dict() for t in res]
        assert {"c": ["-3", "-2"], "basepoints": ["-2", "-1", "1", "2"]} \
            in as_dicts

    def test_every_result_reverifies(self):
        for t in search(SearchSpec(2, 1, 5)):
            S = MapSet(t.cs)
            for P in t.basepoints:
                assert monoid_orbit(S, P).is_finite()

    def test_triples_small_grid(self):
        res = search(SearchSpec(3, 16, 22))
        keys = [tuple(map(str, t.cs)) for t in res]
        assert keys == [("-21/16", "-13/16", "-5/16"),
                        ("-13/16", "-5/16", "3/16")]

    def test_workers_other_than_one_rejected(self):
        assert search(SearchSpec(2, 1, 5), workers=1) \
            == search(SearchSpec(2, 1, 5))
        with pytest.raises(ValueError):
            search(SearchSpec(2, 1, 5), workers=2)

    def test_quadruples_small_grid_empty(self):
        assert search(SearchSpec(4, 16, 22)) == []

    def test_spec_json_round_trip(self):
        spec = SearchSpec(3, 16, 40)
        import json

        again = SearchSpec.from_json(json.dumps(spec.to_dict()))
        assert again == spec

    def test_catalog_instances_in_grid_are_found(self):
        # the two-map families specialize into small grids; every instance
        # with coefficients inside the grid must be discovered
        from quadorbits.families import family_by_id, family_instance

        spec = SearchSpec(2, 4, 12)
        found = {frozenset(t.cs) for t in search(spec)}
        fam = family_by_id("F-12a")
        for t0 in (Fraction(0), Fraction(1), Fraction(2), Fraction(-2)):
            S, P = family_instance(fam, t0)
            cs = frozenset(f.c for f in S)
            if all(abs(c) <= 3 and c.denominator in (1, 2, 4) for c in cs):
                assert cs in found, t0


class TestAgainstDirectScan:
    """The subset reduction against the brute-force scan of every tuple."""

    # |k| <= 13 on the 1/16 grid holds the triple {-13/16, -5/16, 3/16}, so
    # the s = 3 comparison is not between two empty lists
    @pytest.mark.parametrize("spec, hits", [((1, 16, 40), 12), ((2, 1, 5), 3),
                                            ((2, 4, 12), 5), ((3, 16, 13), 1),
                                            ((4, 1, 5), 0)])
    def test_fixed_grids(self, spec, hits):
        spec = SearchSpec(*spec)
        found = search(spec)
        assert found == direct_search(spec)
        assert len(found) == hits

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.sampled_from([1, 2, 4, 9, 16, 36]),
           st.integers(0, 12))
    def test_generated_grids(self, set_size, denominator, numerator_bound):
        spec = SearchSpec(set_size, denominator, numerator_bound)
        assert search(spec) == direct_search(spec)


class TestSpecValidation:
    @pytest.mark.parametrize("args", [(0, 16, 40), (2, 0, 40), (2, -4, 40),
                                      (2, 16, -1)])
    def test_bad_spec_rejected(self, args):
        with pytest.raises(ValueError):
            SearchSpec(*args)

    @pytest.mark.parametrize("text", ['{"denominator": 16}',
                                      '{"set_size": null}', '[2, 16, 40]',
                                      '{"set_size": 2, "denominator": "x"}'])
    def test_malformed_json_is_a_value_error(self, text):
        with pytest.raises(ValueError):
            SearchSpec.from_json(text)
