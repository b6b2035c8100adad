import json

import pytest

from quadorbits.cli import main
from quadorbits.dynamics import MapSet, is_stable_set, monoid_orbit
from quadorbits.rationals import rat


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestOrbitVerb:
    def test_finite(self, capsys):
        code, out, _ = run(capsys, "orbit", "--maps",
                           "-5/16,-13/16,-21/16", "--point", "1/4")
        assert code == 0
        assert "size 6" in out

    def test_infinite(self, capsys):
        code, out, _ = run(capsys, "orbit", "--maps", "-1,-2", "--point", "0")
        assert code == 1
        assert "infinite" in out

    def test_json_round_trip_reverifies(self, capsys):
        code, out, _ = run(capsys, "orbit", "--maps", "-5/16,-13/16,-21/16",
                           "--point", "1/4", "--format", "json")
        assert code == 0
        data = json.loads(out)
        S = MapSet([rat(c) for c in ["-5/16", "-13/16", "-21/16"]])
        orbit = [rat(p) for p in data["orbit"]]
        assert is_stable_set(S, orbit)
        assert rat(data["basepoint"]) in orbit
        res = monoid_orbit(S, rat(data["basepoint"]))
        assert sorted(orbit) == list(res.orbit)


class TestOtherVerbs:
    def test_preperiodic_escape(self, capsys):
        code, out, _ = run(capsys, "preperiodic", "--c", "1", "--point", "0")
        assert code == 1 and "escape" in out

    def test_preperiodic_cycle(self, capsys):
        code, out, _ = run(capsys, "preperiodic", "--c", "-13/16",
                           "--point", "1/4")
        assert code == 0 and "tail 1" in out

    def test_mu(self, capsys):
        code, out, _ = run(capsys, "mu", "--maps", "-29/16")
        assert code == 0 and "= 3" in out

    def test_periodic(self, capsys):
        code, out, _ = run(capsys, "periodic", "--c", "-29/16", "--n", "3")
        assert code == 0
        assert "-7/4" in out and "5/4" in out

    def test_family_verify(self, capsys):
        code, out, _ = run(capsys, "family", "verify", "--id", "F-11b")
        assert code == 0 and "holds" in out

    def test_family_unknown_id(self, capsys):
        code, _, err = run(capsys, "family", "verify", "--id", "F-99")
        assert code == 2 and "unknown family" in err

    def test_verify_lemma(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma", "--id", "2.4")
        assert code == 0 and "verdict: pass" in out

    def test_verify_lemma_unknown(self, capsys):
        code, _, err = run(capsys, "verify", "lemma", "--id", "9.9")
        assert code == 2

    def test_verify_lemma_groebner_budget(self, capsys):
        code, out, _ = run(capsys, "verify", "lemma", "--id", "2.4",
                           "--route", "groebner", "--max-pairs", "5")
        assert code == 3

    def test_verify_theorem_single_case(self, capsys):
        code, out, _ = run(capsys, "verify", "theorem", "--case", "5",
                           "--skip-lemmas")
        assert code == 0 and "verdict: pass" in out

    def test_search(self, capsys):
        code, out, _ = run(capsys, "search", "--set-size", "2",
                           "--denominator", "1", "--numerator-bound", "5")
        assert code == 0 and "'-3'" in out

    def test_search_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"set_size": 2, "denominator": 1, '
                        '"numerator_bound": 3}')
        code, out, _ = run(capsys, "search", "--spec", str(spec),
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["spec"]["set_size"] == 2

    def test_search_missing_spec_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "search", "--spec",
                           str(tmp_path / "absent.json"))
        assert code == 2 and "cannot read spec file" in err

    def test_search_spec_without_set_size(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"denominator": 1, "numerator_bound": 3}')
        code, _, err = run(capsys, "search", "--spec", str(spec))
        assert code == 2 and "set_size" in err

    def test_search_spec_null_set_size(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text('{"set_size": null}')
        code, _, err = run(capsys, "search", "--spec", str(spec))
        assert code == 2 and "integers" in err

    @pytest.mark.parametrize("value", ["2.7", "true", '"3"'])
    def test_search_spec_non_integer_set_size(self, capsys, tmp_path, value):
        spec = tmp_path / "spec.json"
        spec.write_text('{"set_size": %s, "denominator": 1, '
                        '"numerator_bound": 3}' % value)
        code, out, err = run(capsys, "search", "--spec", str(spec))
        assert code == 2 and "integers" in err and not out

    def test_search_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "absent" / "x.json"
        code, out, err = run(capsys, "search", "--set-size", "2",
                             "--denominator", "1", "--numerator-bound", "3",
                             "--output", str(target))
        assert code == 2 and "cannot write output file" in err and not out

    def test_search_output_file(self, capsys, tmp_path):
        target = tmp_path / "x.json"
        code, _, _ = run(capsys, "search", "--set-size", "2",
                         "--denominator", "1", "--numerator-bound", "3",
                         "--output", str(target))
        assert code == 0
        assert json.loads(target.read_text())["spec"]["set_size"] == 2

    def test_search_zero_denominator(self, capsys):
        code, _, err = run(capsys, "search", "--set-size", "2",
                           "--denominator", "0")
        assert code == 2 and "denominator must be at least 1" in err

    def test_search_has_no_workers_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["search", "--set-size", "2", "--workers", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_verify_theorem_workers_below_one(self, capsys, workers):
        code, out, err = run(capsys, "verify", "theorem", "--case", "7",
                             "--skip-lemmas", "--workers", workers)
        assert code == 2 and "workers must be at least 1" in err
        assert out == ""

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "orbit", "--maps", "1.5", "--point", "0")
        assert code == 2 and "error" in err
