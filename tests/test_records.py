"""The package's records: the ``typing.NamedTuple``s, the ``Frozen``
classes and the ``Mutable`` reports.

Every record survives ``pickle`` equal to itself (``verify_theorem``'s
process pool pickles the lemma and case reports), the immutable ones refuse
assignment to a field, and equal records hash equal.
"""

import pickle
from fractions import Fraction

import pytest

from quadorbits.dynamics import GUARD_ESCAPE, GuardHit, MapSet, QuadMap, \
    is_preperiodic, monoid_orbit, mu_set
from quadorbits.elliptic import INFINITY, SUBCASE_CURVE_E, point
from quadorbits.families import catalog, family_by_id
from quadorbits.groebner import Budget
from quadorbits.polynomials import BiPoly, UniPoly
from quadorbits.roots import rational_roots
from quadorbits.search import SearchSpec, search
from quadorbits.verifier.axioms import POONEN_AXIOMS
from quadorbits.verifier.cases import verify_theorem_case
from quadorbits.verifier.elimination import GeneratorFactors, \
    eliminate_candidates
from quadorbits.verifier.lemmas import lemma_setup
from quadorbits.verifier.reports import CaseReport, CurveBranchReport, \
    Disposition, GroebnerOutcome, TheoremSummary
from quadorbits.verifier.symbolic import BiRat

F = Fraction
IMMUTABLE = {
    "QuadMap", "MapSet", "GuardHit", "PreperiodicityReport", "MuReport",
    "OrbitResult", "ECPoint", "Curve", "ParamTuple", "FamilyDef",
    "SporadicTuple", "SearchSpec", "FoundTuple", "RootReport", "Budget",
    "GeneratorFactors", "PoonenAxiom", "BranchSpec", "BiRat", "LemmaSetup"}
MUTABLE = {
    "Disposition", "CurveBranchReport", "GroebnerOutcome", "LemmaReport",
    "CaseReport", "TheoremSummary", "EliminationOutcome"}


@pytest.fixture(scope="module")
def records(lemma_report):
    """One or more instances of every record class."""
    S = MapSet([F(-5, 16), F(-13, 16), F(-21, 16)])
    setup = lemma_setup("2.1")
    fam = family_by_id("F-11a")
    cases = verify_theorem_case(1)
    disposition = Disposition("parameter 1", "pole", "c1 has a pole at 1")
    return [
        QuadMap(F(-3, 4)), S, GuardHit(F(5, 2), 1, GUARD_ESCAPE),
        is_preperiodic(QuadMap(-1), F(0)), is_preperiodic(QuadMap(1), F(0)),
        mu_set(S), monoid_orbit(S, F(1, 4)), monoid_orbit(S, F(3, 4)),
        point(0, 1), INFINITY, SUBCASE_CURVE_E, fam.tup, fam,
        catalog()[1][0], SearchSpec(2, 4, 12), search(SearchSpec(2, 1, 5))[0],
        rational_roots(UniPoly.parse("x^2 - 1/4")), Budget(7, 9),
        setup.gens[0], POONEN_AXIOMS["tail-two"], setup.branches[-1],
        BiRat.from_poly(BiPoly.parse("y*z + 1/2", ("y", "z"))),
        disposition,
        CurveBranchReport("y - z", "excluded", True, word="12", target_map=2,
                          relation_degree=3, roots=["1"],
                          dispositions=[disposition]),
        GroebnerOutcome("completed", basis_size=2,
                        basis_leading_terms=["(1, 0)"]),
        lemma_report("2.1"), *cases,
        TheoremSummary(cases, [], [], {"holds": True}, {"holds": True},
                       {"2.1": "pass"}, [], "pass"),
        eliminate_candidates([GeneratorFactors("G1", (BiPoly.parse("z - 2"),)),
                              GeneratorFactors("G2", (BiPoly.parse("y - 1"),))],
                             [], ()),
        setup,
    ]


def fields(record) -> tuple[str, ...]:
    return getattr(record, "_fields", None) or type(record).__slots__


def test_every_record_class_is_covered(records):
    assert {type(r).__name__ for r in records} == IMMUTABLE | MUTABLE


def test_records_survive_pickle(records):
    for r in records:
        copy = pickle.loads(pickle.dumps(r))
        assert type(copy) is type(r) and copy == r, type(r).__name__


def test_immutable_records_refuse_assignment(records):
    for r in records:
        if type(r).__name__ in IMMUTABLE:
            for name in fields(r):
                with pytest.raises(AttributeError):
                    setattr(r, name, None)


def test_equal_records_hash_equal(records):
    hashed = set()
    for r in records:
        if type(r).__name__ in MUTABLE:
            with pytest.raises(TypeError):
                hash(r)
            continue
        try:
            h = hash(r)
        except TypeError:  # a dict field: unhashable, as the dict is
            assert any(isinstance(getattr(r, n), dict) for n in fields(r))
            continue
        assert hash(pickle.loads(pickle.dumps(r))) == h
        hashed.add(type(r).__name__)
    assert hashed == IMMUTABLE - {"MuReport", "OrbitResult", "RootReport"}
    assert QuadMap(1) == QuadMap(F(1)) and \
        hash(QuadMap(1)) == hash(QuadMap(F(1)))


@pytest.mark.parametrize("make, name", [
    (lambda: Disposition("s", "pole", "d"), "data"),
    (lambda: CurveBranchReport("y", "family", True), "roots"),
    (lambda: CurveBranchReport("y", "family", True), "dispositions"),
    (lambda: GroebnerOutcome("completed"), "basis_leading_terms"),
    (lambda: CaseReport(1, "1", "d"), "deductions"),
    (lambda: CaseReport(1, "1", "d"), "exclusion_witnesses"),
    (lambda: CaseReport(1, "1", "d"), "surviving_tuples"),
    (lambda: CaseReport(1, "1", "d"), "flags"),
])
def test_unset_list_and_dict_fields_are_new_per_report(make, name):
    a, b = make(), make()
    assert a == b and getattr(a, name) is not getattr(b, name)
