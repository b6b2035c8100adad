"""Golden reports: the SHA-256 of each section of the canonical dump.

The sections are the six ``verify_lemma(id).to_dict()`` without
``seconds``, the ten ``verify_theorem_case(n)`` as lists of ``to_dict()``,
``quadorbits family verify --id <id> --format json`` for the five families
and ``verify_theorem().to_dict()``.  Each is hashed as
``json.dumps(section, sort_keys=True)``, so a failure names the lemma,
case or family whose report changed.  Laid out as ``{"lemmas": {id: ...},
"cases": {"n": [...]}, "families": {id: ...}, "theorem": ...}``, the
whole dump hashes to ``WHOLE_DUMP``.  A deliberate change to a report
updates its hash here, and the whole dump's.

The orbit side is pinned the same way: the exact stdout bytes and exit code
of ``quadorbits orbit``, ``preperiodic``, ``mu`` and ``periodic`` with
``--format json`` on fixed inputs (finite orbits, a witness of each guard,
deep and on a later map, and the triple -21/16, -13/16, -5/16), the same
command lines with ``--format text``, and the results of two criterion-9
searches sorted by their c tuples.

Each lemma report is pinned a second time, restricted to its
conclusions (``CONCLUSION_KEYS``: the candidates, partners, dispositions,
branches, families, sporadic pairs, conclusion, flags and verdict), so that
a change to how a system is factored or eliminated, which moves the full
report's hash, shows that it left every conclusion in place.

The lemma systems themselves are pinned too, since the reports dump only
the factors of at most 40 terms: one SHA-256 per ``lemma_setup(id)`` of
``system_dump``, which holds every generator factor exactly, the branches,
the structural curves, the parametrizations, the poles and the statement.
"""

import hashlib
import json

import pytest

from quadorbits import cli
from quadorbits.rationals import rat_str
from quadorbits.search import SearchSpec, search
from quadorbits.verifier import verify_theorem_case
from quadorbits.verifier.lemmas import lemma_setup

LEMMAS = {
    "2.1": "64f7373f195ab9520dbe93fb6550c4aa4aa8e6cb1f9f239e2480db8e3067a2c9",
    "2.2": "d5b99477af79c17374df146227f194ae294e9284c85615d7319bf1c4fff12f13",
    "2.3": "bdb96555700b3c2d5fed8a93750a6dd731b741cbc1f28166b46f8618ff493117",
    "2.4": "a567aae0cce26d01b5f7ae04530aadfca60f11b65b17ba3aeba9d204c2a1b71b",
    "2.5": "45ae73f9f0b8d5ddf297bd0024dd8585c8446217e88327504282b981e0104dda",
    "2.6": "f14bbbb5b1babfccacd04d1dd26a5d740276a9c7f4a06bdc0a3f15ee51975240",
}
LEMMA_SYSTEMS = {
    "2.1": "0d0dd646453e0cd29852644fea20acec64fe654d466ef5d7fc13ba24d4377548",
    "2.2": "c26944a08cde051e1ef6ce8714be3b5571a44c748bff7156fc550946a92d1d1d",
    "2.3": "cfb02c681c385254b17dba95c1267dc9cc560cc1bd236fe8be80b6486dde453a",
    "2.4": "902943be15e57c9d2e72c7def0e5980860dfe0c1b866795e50e1016f6e492890",
    "2.5": "2ed3d56fa5d6d53c2f71e33aef6fd333f0a1bdb32ba4409d483b87643526f41b",
    "2.6": "235c7f42442af936d371448c6cf58ba5ec75bef351d9bc9d8984920ea79f2c9e",
}
# the report restricted to what it concludes: unchanged when only the
# system's factorization or the elimination's route changes
CONCLUSION_KEYS = ("raw_candidates", "dropped_artifacts", "candidates",
                   "partners", "pair_dispositions", "curve_branches",
                   "families", "sporadic_pairs", "conclusion", "flags",
                   "verdict")
LEMMA_CONCLUSIONS = {
    "2.1": "663bb90cf2333710e3433b9639dc7827e49592811230262fcc5938ff40e910af",
    "2.2": "e668c676bb779c2d8d297a17a1e56012717c67bd320f5875d161ad0ba0c8c571",
    "2.3": "c75e7228c54d7ff7263c429a0eb867e2bf965d80fec2612b4527aa3210209630",
    "2.4": "bed53a6d0997f908da4635da51f0730ded508750b645c6ebeb382a5ba994feeb",
    "2.5": "54e0b4efa749a03831aa2e64c2c0350cd7d931ea9edb04b0e0778dcc128f5368",
    "2.6": "6fcd28fe90ca4a2ed57a5997a6434e435978e7931f892c382d62d6c97cfa5383",
}
CASES = {
    1: "8e1fe3e7bda7bcd68c7aa3e50eb6f37945e821fc27278f8735cfc1003dd9ac03",
    2: "9e9558c34f49d0023d06d5c108da363266fc4e242bb32f58f3555810ca095595",
    3: "78a4f70567abc7d1c39e491dc72f36852aa7e7e56f843f7c990ca7196d0255a3",
    4: "67116fd79c6e06c00996f1a9e3b0607bb74ccade29ce9335264a3765a735d07a",
    5: "7c14a52b124c9b2694f86da3ca90440896f0be6a13e00e64a4f626d6a6d88abe",
    6: "bffc4a746d9708c5eeed11c26f02e330678be16adba46e8378533d3911fdeba4",
    7: "57f0cb97ec0b4603b172a1ca163eed399bee6b23d8980da0fdd1e93d28f8f1be",
    8: "d07a459bbd982b91e74bef0218e5dbf315a53e618695d6ed493740412b4ea171",
    9: "4e113f78728d81fec74263d6fc48074fb7738a6e94bbf0d146740c7b04fbae14",
    10: "3be915434bd797e33108422d5601ddff420cbbc187b59af06c7da53e50574032",
}
FAMILIES = {
    "F-11a": "e82c6043ccf70095c501968dfde060342d8edd253e8ab3ffc716e3b684bab838",
    "F-11b": "4ad3c6271872a36f3e27ad56dbbf7339e37e0aa192b167dc5cc76e266201ff6c",
    "F-12a": "439890c6a8717d66364059067d944b382ca3d5d6f38f7004e4fcceb750807549",
    "F-12b": "38b4f96ddb60cc365722518daa18947c03f5a779ec4f0069c2b1cdd24c717942",
    "F-22a": "f757e5197af1ab327209a167e6604bf252e82c141b40ffaa25d66f59109c3ccf",
}
THEOREM = "afcb6149625ab04a4bf1c90f5c97e1fe76bb4c011554f728f744e22415825cb8"
WHOLE_DUMP = \
    "22738f17ba62a94b1f6cd26c252d366d0510d69a111f81a8102cb607f1c32fab"
# command line (without "--format json") -> (exit code, SHA-256 of stdout)
ORBIT_CLI = {
    "orbit --maps -21/16,-13/16,-5/16 --point 1/4":
        (0, "5697ec8f1ef8a7f3bf9f7b35d433667ea610b4de5519382d81ff85cf5e214805"),
    "orbit --maps 255/65536,-257/65536 --point 1/256":
        (0, "c7480db3b4ea1f8d761bcf2287e13a69680c941a326829e3472c32242c5b5ab4"),
    "orbit --maps -1,-2 --point 0":
        (1, "eb56d1401805e5bb6e2ca79f6c8c3b69472055828487bcf39c64d761f6254644"),
    "orbit --maps -13/16,-29/16,-5/16,-21/16 --point 3/4":
        (1, "1303b18c6206b07a92ee12aeef573c2692c75c32e90ea89d6e0cfc5c272950a4"),
    "orbit --maps -5/16,-13/16,3/16 --point 1/2":
        (1, "8df11cad183357e226e60c4de6194b04719ff638bf7e2e66d4d043a2b9016a1d"),
    "orbit --maps -5/16,1/9 --point 1/4":
        (1, "6a9600f2bdf40a68df2fc80db9fb8bede7ac0e267fbf475946bc74f761991d83"),
    "preperiodic --c -13/16 --point 1/4":
        (0, "2860b957cab10a7f70c1fe121be836e9783db7005834c4f75e15c69245dc8eed"),
    "preperiodic --c -29/16 --point -1/4":
        (0, "fe611385f1a1a21d1c63eaf0855d3f7e166150f58f8a89768043047e31f4eefe"),
    "preperiodic --c 1 --point 0":
        (1, "3405498d7c9418647d76694a2ede1fed0f56389cb91aac3f777870d1f1948ae5"),
    "preperiodic --c 1/4 --point 1/3":
        (1, "c932cfda12af589cda8f1417a274949cb51afb045d91c16bf1b795582776e84e"),
    "mu --maps -21/16,-13/16,-5/16":
        (0, "9c3bfc5347c808588bbeafb769c837354a9c121c798898ad88476310107a800b"),
    "periodic --c -21/16 --n 1":
        (0, "f36ed5f1365b957b2f19c8f5be9d9e30b8b1328aa61db54b38066576004e5374"),
    "periodic --c -13/16 --n 2":
        (0, "42c3d2ad2fa435ae0f9199d213c75755a1d0caad59cc0eaf8102b9702cbc9f90"),
    "periodic --c -5/16 --n 1":
        (0, "3e15db752221ae5599273d75a212eacaf9fee71c059e51edc2b222c955352bf9"),
}
# the same command lines with "--format text"
ORBIT_CLI_TEXT = {
    "mu --maps -21/16,-13/16,-5/16":
        (0, "46c05f7b0074aee1943a7c067b0d24c1a90865a902ed88d0423b092e0807af54"),
    "orbit --maps -1,-2 --point 0":
        (1, "3d5f28cba04863b3c436279c8daa65c6cc2d7d1933cf52063486980fd1098da6"),
    "orbit --maps -13/16,-29/16,-5/16,-21/16 --point 3/4":
        (1, "910abadf3985866dd6c9cbb44dd3d9f8fcb130b717ea64b40b87215cf9564dba"),
    "orbit --maps -21/16,-13/16,-5/16 --point 1/4":
        (0, "eb614c3c993481712c10f21cdb062597ba21ac9909876e17115c9900eb16a184"),
    "orbit --maps -5/16,-13/16,3/16 --point 1/2":
        (1, "29b9c506f54bf8555643bfc7900e297ba5baacdb405fbd317de48c9294bd25bf"),
    "orbit --maps -5/16,1/9 --point 1/4":
        (1, "409ac95c27114dedd281aae85b46eb3b6d62c6b87f8615f85f184795a4422663"),
    "orbit --maps 255/65536,-257/65536 --point 1/256":
        (0, "d8147deb05872cc5c6ab409ce113a5430bc7346700b76cffd502acceb61d614f"),
    "periodic --c -13/16 --n 2":
        (0, "d95c2c4129281469df0fbec2ec70d1f4430162f4b2b06f9e8b4fbfd9753fd9b5"),
    "periodic --c -21/16 --n 1":
        (0, "933c3e87016afffae29b7671dce7e21eabf346b15826756833f59718d12af819"),
    "periodic --c -5/16 --n 1":
        (0, "9ff7345c4a11f4656886ef8d926495f88a3c4ecbb434ecb3bff043d7461be83f"),
    "preperiodic --c -13/16 --point 1/4":
        (0, "cff48d901cf631599493b434c08c0d112672d04e070a6f1ca01c8bcb9ee4a1dd"),
    "preperiodic --c -29/16 --point -1/4":
        (0, "ebe274358c7db4bccb7d29b46e0552d4d59bf3452fb2cff63b72e4ce412bef06"),
    "preperiodic --c 1 --point 0":
        (1, "5924e16fc140be945659ae13b0c4feb213484052c5b54f042fd2b139da2612e2"),
    "preperiodic --c 1/4 --point 1/3":
        (1, "fbe0e1be20e5d89d08d65e8e185614fcc038e803182c158281ad0c5cfcaa04c0"),
}
assert ORBIT_CLI_TEXT.keys() == ORBIT_CLI.keys()
SEARCHES = {
    (2, 16, 40):
        "41d9ba0de250a03e5699370f8af4e4551c0d350ee9f873bb508dbe3e00e654f2",
    (3, 16, 21):
        "b364899d696a32ae57ea5a0abbea833baf642b12b35225bd8e5c135234c21aae",
}


def digest(section) -> str:
    return hashlib.sha256(
        json.dumps(section, sort_keys=True).encode()).hexdigest()


def _poly_dump(f) -> list:
    return [f.den, sorted([i, j, c] for (i, j), c in f.ints.items())]


def system_dump(s) -> dict:
    """Every field of a ``LemmaSetup``, with ``structural`` and ``poles``,
    as JSON values: a polynomial as its denominator and sorted integer
    terms, a function by its ``str``."""
    def rats(xs):
        return None if xs is None else [rat_str(x) for x in xs]

    return {
        "lemma_id": s.lemma_id, "hypothesis": s.hypothesis,
        "vars": list(s.vars),
        "gens": [[g.name, [_poly_dump(f) for f in g.factors]]
                 for g in s.gens],
        "structural": [_poly_dump(f) for f in s.structural],
        "branches": [[b.curve, b.kind, str(b.y_of_s), str(b.v_of_s),
                      b.family_id] for b in s.branches],
        "c1_of": str(s.c1_of), "c2_of": str(s.c2_of), "P_of": str(s.P_of),
        "poles": list(s.poles), "statement": s.statement,
        "expected_candidates": rats(s.expected_candidates),
        "expected_partners": rats(s.expected_partners),
        "axioms": list(s.axioms),
        "groebner_expected_degree": s.groebner_expected_degree,
        "subtract_families": s.subtract_families,
    }


@pytest.mark.parametrize("lemma_id", sorted(LEMMA_SYSTEMS))
def test_lemma_system(lemma_id):
    assert digest(system_dump(lemma_setup(lemma_id))) == \
        LEMMA_SYSTEMS[lemma_id]


@pytest.mark.parametrize("lemma_id", sorted(LEMMAS))
def test_lemma_report(lemma_report, lemma_id):
    d = lemma_report(lemma_id).to_dict()
    del d["seconds"]
    assert digest(d) == LEMMAS[lemma_id]


@pytest.mark.parametrize("lemma_id", sorted(LEMMA_CONCLUSIONS))
def test_lemma_conclusion(lemma_report, lemma_id):
    d = lemma_report(lemma_id).to_dict()
    assert digest({k: d[k] for k in CONCLUSION_KEYS}) == \
        LEMMA_CONCLUSIONS[lemma_id]


@pytest.mark.parametrize("case", sorted(CASES))
def test_case_reports(case):
    assert digest([r.to_dict() for r in verify_theorem_case(case)]) == \
        CASES[case]


@pytest.mark.parametrize("family_id", sorted(FAMILIES))
def test_family_verify_json(capsys, family_id):
    assert cli.main(["family", "verify", "--id", family_id,
                     "--format", "json"]) == 0
    assert digest(json.loads(capsys.readouterr().out)) == \
        FAMILIES[family_id]


def test_theorem_summary(theorem_summary):
    assert digest(theorem_summary.to_dict()) == THEOREM


def test_whole_dump(capsys, lemma_report, theorem_summary):
    lemmas = {}
    for lemma_id in sorted(LEMMAS):
        lemmas[lemma_id] = lemma_report(lemma_id).to_dict()
        del lemmas[lemma_id]["seconds"]
    families = {}
    for family_id in sorted(FAMILIES):
        assert cli.main(["family", "verify", "--id", family_id,
                         "--format", "json"]) == 0
        families[family_id] = json.loads(capsys.readouterr().out)
    assert digest({
        "lemmas": lemmas,
        "cases": {str(n): [r.to_dict() for r in verify_theorem_case(n)]
                  for n in sorted(CASES)},
        "families": families,
        "theorem": theorem_summary.to_dict(),
    }) == WHOLE_DUMP


@pytest.mark.parametrize("line", sorted(ORBIT_CLI))
def test_orbit_cli_json(capsys, line):
    code = cli.main(line.split() + ["--format", "json"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        ORBIT_CLI[line]


@pytest.mark.parametrize("line", sorted(ORBIT_CLI_TEXT))
def test_orbit_cli_text(capsys, line):
    code = cli.main(line.split() + ["--format", "text"])
    out = capsys.readouterr().out
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == \
        ORBIT_CLI_TEXT[line]


@pytest.mark.parametrize("spec", sorted(SEARCHES), ids=str)
def test_search_results(spec):
    found = sorted(search(SearchSpec(*spec)), key=lambda t: t.cs)
    assert digest([t.to_dict() for t in found]) == SEARCHES[spec]
