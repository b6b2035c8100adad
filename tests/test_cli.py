import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadorbits
from quadorbits import cli, verifier
from quadorbits.cli import main
from quadorbits.dynamics import MapSet, MuReport, is_stable_set, monoid_orbit
from quadorbits.groebner import Budget
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
        assert "no rational cycle longer than 3 (any length): confirmed" \
            in out

    def test_mu_json(self, capsys):
        code, out, _ = run(capsys, "mu", "--maps", "-29/16,-13/16",
                           "--format", "json")
        data = json.loads(out)
        assert code == 0
        assert data["max_cycle_length"] == 3
        assert data["higher_periods"] == {"4": False, "5": False, "6": False}
        assert data["hypothesis_holds_up_to_6"] is True

    def test_mu_cycle_longer_than_3_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "mu_set", lambda S: MuReport(
            0, {}, {4: False, 5: False, 6: False}, 7))
        code, out, _ = run(capsys, "mu", "--maps", "1")
        assert code == 1 and "VIOLATED" in out

    def test_periodic(self, capsys):
        code, out, _ = run(capsys, "periodic", "--c", "-29/16", "--n", "3")
        assert code == 0
        assert "-7/4" in out and "5/4" in out

    def test_periodic_beyond_three(self, capsys):
        code, out, _ = run(capsys, "periodic", "--c", "-29/16", "--n", "4")
        assert code == 0
        assert out.rstrip().endswith("none")

    def test_periodic_n_below_one(self, capsys):
        code, _, err = run(capsys, "periodic", "--c", "-29/16", "--n", "0")
        assert code == 2 and err.startswith("error:")

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

    @staticmethod
    def _groebner_budget(monkeypatch, flags):
        """The Budget that `verify lemma --route groebner` hands to
        verify_lemma, which is stubbed to stop there (the handler imports
        it from ``quadorbits.verifier`` when it runs)."""
        seen = []

        class Stop(Exception):
            pass

        def stop(lemma_id, budget=None):
            seen.append(budget)
            raise Stop

        monkeypatch.setattr(verifier, "verify_lemma", stop)
        with pytest.raises(Stop):
            main(["verify", "lemma", "--id", "2.1", "--route", "groebner",
                  *flags])
        assert len(seen) == 1
        return seen[0]

    def test_verify_lemma_budget_defaults(self, monkeypatch):
        """--route groebner alone runs under Budget()."""
        assert self._groebner_budget(monkeypatch, []) == Budget()

    @pytest.mark.parametrize("flags,budget", [
        (["--max-pairs", "7"], Budget(max_pairs=7)),
        (["--max-coeff-bits", "9"], Budget(max_coeff_bits=9)),
    ], ids=["pairs", "bits"])
    def test_verify_lemma_budget_flags(self, monkeypatch, flags, budget):
        """Each given flag replaces its own limit of Budget()."""
        assert self._groebner_budget(monkeypatch, flags) == budget

    @pytest.mark.parametrize("flags", [
        ["--max-pairs", "10"], ["--max-coeff-bits", "10"],
        ["--route", "resultant", "--max-pairs", "10"],
    ])
    def test_verify_lemma_budget_needs_groebner_route(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "lemma", "--id", "2.4", *flags])
        out = capsys.readouterr()
        assert exc.value.code == 2 and out.out == ""
        assert "need --route groebner" in out.err.splitlines()[-1]

    @pytest.mark.parametrize("flag", ["--max-pairs", "--max-coeff-bits"])
    def test_verify_lemma_negative_budget(self, capsys, flag):
        code, out, err = run(capsys, "verify", "lemma", "--id", "2.1",
                             "--route", "groebner", flag, "-1")
        assert code == 2 and "at least 0" in err and out == ""

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

    def test_search_spec_unknown_key(self, capsys, tmp_path):
        # a misspelt numerator_bound must not run the default grid
        spec = tmp_path / "spec.json"
        spec.write_text('{"set_size": 2, "numerator_bond": 3}')
        code, out, err = run(capsys, "search", "--spec", str(spec))
        assert code == 2 and '"numerator_bond"' in err and not out

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

    def test_verify_theorem_has_no_workers_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "theorem", "--workers", "2"])
        assert exc.value.code == 2

    def test_malformed_rational(self, capsys):
        code, _, err = run(capsys, "orbit", "--maps", "1.5", "--point", "0")
        assert code == 2 and "error" in err


class TestParseContract:
    """How flags take values; the contract the argparse front end gave."""

    @pytest.mark.parametrize("argv,first", [
        (["--maps", "-5/16", "--point", "1/4"], "size 2 from 1/4"),
        (["--maps=-5/16", "--point", "1/4"], "size 2 from 1/4"),
        (["--maps", "-5/16", "--point=-1/4"], "size 1 from -1/4"),
    ])
    def test_negative_values(self, capsys, argv, first):
        code, out, _ = run(capsys, "orbit", *argv)
        size, _, point = first.partition(" from ")
        assert code == 0 and out.startswith(
            f"finite orbit of {size} for {{x^2 - 5/16}} from {point}:")

    @pytest.mark.parametrize("argv", [["--ma", "-5/16", "--po", "1/4"],
                                      ["--ma=-5/16", "--po", "1/4"]])
    def test_abbreviated_flag_takes_negative_value(self, capsys, argv):
        code, out, _ = run(capsys, "orbit", *argv)
        assert code == 0 and out.startswith(
            "finite orbit of size 2 for {x^2 - 5/16} from 1/4:")

    def test_negative_int_reaches_the_handler(self, capsys):
        code, out, err = run(capsys, "periodic", "--c", "-29/16", "--n", "-1")
        assert (code, out, err) == \
            (2, "", "error: the period must be at least 1\n")

    def test_unique_prefix_is_accepted(self, capsys):
        code, _, _ = run(capsys, "verify", "lemma", "--id", "2.4",
                         "--route", "groebner", "--max-p", "3")
        assert code == 3

    def test_last_repeated_value_wins(self, capsys):
        argv = ["orbit", "--maps", "-1,-2", "--point", "0"]
        code, out, _ = run(capsys, *argv, "--format", "json",
                           "--format", "text")
        assert code == 1 and out.startswith("infinite orbit")
        code, out, _ = run(capsys, *argv, "--format", "text",
                           "--format", "json")
        assert code == 1 and json.loads(out)["verdict"] == "infinite"

    @pytest.mark.parametrize("argv", [
        ["verify", "lemma", "--id", "2.4", "--max", "3"],
        ["orbit", "--maps", "1"],
        ["orbit", "--maps", "1", "--point", "0", "--format", "xml"],
        ["verify", "theorem", "--case", "11"],
        ["periodic", "--c", "1", "--n", "x"],
        ["orbit", "--maps", "1", "--point", "0", "x"],
        ["orbit", "--maps"],
        [],
        ["orbits"],
    ], ids=lambda argv: " ".join(argv) or "no-verb")
    def test_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr()
        last = out.err.splitlines()[-1]
        assert exc.value.code == 2 and out.out == ""
        assert out.err.startswith("usage: quadorbits")
        assert last.startswith("quadorbits") and ": error: " in last

    @pytest.mark.parametrize("argv,names", [
        (["-h"], ["orbit", "preperiodic", "mu", "periodic", "verify",
                  "family", "search"]),
        (["verify", "-h"], ["lemma", "theorem"]),
        (["verify", "lemma", "-h"], ["--format", "--id", "--route",
                                     "--max-pairs", "--max-coeff-bits"]),
        (["orbit", "--help"], ["--format", "--maps", "--point"]),
    ], ids=["top", "verify", "verify-lemma", "orbit"])
    def test_help(self, capsys, argv, names):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out = capsys.readouterr().out
        assert exc.value.code == 0
        assert all(name in out for name in names), out


class TestParserReuse:
    def test_verbs_in_turn_match_verbs_alone(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"set_size": null}')
        calls = [["orbit", "--maps", "-5/16,-13/16,-21/16", "--point", "1/4"],
                 ["preperiodic", "--c", "1", "--point", "0"],
                 ["mu", "--maps", "-29/16", "--format", "json"],
                 ["search", "--spec", str(bad)]]
        in_turn = [run(capsys, *argv) for argv in calls]
        src = str(Path(quadorbits.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        for argv, (code, out, err) in zip(calls, in_turn):
            alone = subprocess.run(
                [sys.executable, "-m", "quadorbits.cli", *argv],
                capture_output=True, text=True, env=env, timeout=60)
            assert (code, out, err) == \
                (alone.returncode, alone.stdout, alone.stderr), argv
