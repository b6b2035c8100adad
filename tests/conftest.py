"""Session-wide reports: each lemma and the theorem are verified once per
test session, and every test that reads an unmodified report shares that
run.  A test that patches the catalog, the clock or the route calls the
verifier itself."""

import pytest

from quadorbits.verifier import verify_lemma, verify_theorem


@pytest.fixture(scope="session")
def lemma_report():
    """lemma_report(id) is verify_lemma(id), run once per id."""
    reports = {}

    def get(lemma_id):
        if lemma_id not in reports:
            reports[lemma_id] = verify_lemma(lemma_id)
        return reports[lemma_id]

    return get


@pytest.fixture(scope="session")
def theorem_summary():
    """verify_theorem(), run once."""
    return verify_theorem()
