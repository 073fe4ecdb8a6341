"""Command-line contract: golden outputs, exit codes, canonical files."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semihyp.cli as cli
from semihyp import algebra
from semihyp.algebra import CheckReport
from semihyp.amenability import Mean
from semihyp.construct import CayleyTable, from_semigroup, left_zero_semigroup
from semihyp.files import canonical_structure_json
from cli_cases import CASES, FIXTURES, GOLDEN, CliCase, normalize, run_case
from oracles import oracle_decimal_text


@pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
def test_golden_output(case: CliCase, tmp_path):
    stdout, code, written = run_case(case, tmp_path)
    assert code == case.exit_code
    expected = (GOLDEN / f"{case.name}.out").read_text()
    assert normalize(stdout) == expected
    if case.writes:
        golden_file = (GOLDEN / f"{case.name}.file.json").read_bytes()
        assert written == golden_file
        if case.identical_to_fixture:
            assert written == (FIXTURES / case.identical_to_fixture).read_bytes()


def test_outputs_deterministic(tmp_path):
    case = next(c for c in CASES if c.name == "lim-z2-both")
    first, _, _ = run_case(case, tmp_path / "a")
    second, _, _ = run_case(case, tmp_path / "b")
    assert normalize(first) == normalize(second)


def test_construct_round_trip(tmp_path):
    # re-checking a constructed file reproduces the construction report
    case = next(c for c in CASES if c.name == "construct-coset")
    stdout, code, written = run_case(case, tmp_path)
    assert code == 0
    target = tmp_path / "roundtrip.json"
    target.write_bytes(written)
    import io, contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["check", str(target)])
    assert code == 0
    check_lines = normalize(buf.getvalue()).splitlines()
    construct_lines = normalize(stdout).splitlines()
    # identical apart from the command header and construct-only fields
    assert check_lines[1:] == [
        l for l in construct_lines[1:] if not l.startswith(("kind:", "out:"))
    ]
    # and re-serializing the parsed file is byte-identical
    from semihyp.files import canonical_structure_json, parse_structure

    assert canonical_structure_json(
        parse_structure(target.read_text())
    ).encode() == written


def test_construct_round_trip_escaped_labels(tmp_path, capsys):
    # non-ASCII labels and a quote: the written file escapes them as json does
    labels = ["é", 'q"', "𝔊"]
    group = {"labels": labels, "table": [[(i + j) % 3 for j in range(3)] for i in range(3)]}
    (tmp_path / "z3.json").write_text(json.dumps(group), encoding="utf-8")
    out = tmp_path / "z3-semigroup.json"
    argv = ["construct", "semigroup", "--group", str(tmp_path / "z3.json"), "--out", str(out)]
    assert cli.main([*argv, "--json"]) == 0
    written = json.loads(capsys.readouterr().out)
    assert cli.main(["check", str(out), "--json"]) == 0
    checked = json.loads(capsys.readouterr().out)
    assert written["points"] == checked["points"] == sorted(labels)
    assert out.read_bytes().isascii()


def test_malformed_json_exit_2(capsys):
    assert cli.main(["check", str(FIXTURES / "malformed.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_repeated_convolution_key_exit_2(tmp_path, capsys):
    # z2.json with a second "0|0" entry
    text = (FIXTURES / "z2.json").read_text(encoding="utf-8")
    repeated = tmp_path / "z2-repeated.json"
    repeated.write_text(text.replace('    "0|1": [', '    "0|0": [\n      {\n        "point": '
                                     '"1",\n        "weight": "1"\n      }\n    ],\n'
                                     '    "0|1": [', 1), encoding="utf-8")
    assert cli.main(["check", str(repeated)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: invalid JSON: repeated key '0|0'"]


@pytest.mark.parametrize("fixture, old, new, argv, key", [
    # a doubling map "1" that a last-value-wins reader would drop
    ("z2-canonical-action.json", '"1": {',
     '"1": {"A": [["2", "0"], ["0", "2"]], "b": ["0", "0"]},\n    "1": {',
     ["fixpoint", str(FIXTURES / "z2.json"), "{}"], "1"),
    ("z2-canonical-action.json", '"dimension"', '"dimension": 7,\n  "dimension"',
     ["fixpoint", str(FIXTURES / "z2.json"), "{}"], "dimension"),
    ("z4-group.json", '"labels"', '"labels": ["a"],\n  "labels"',
     ["construct", "semigroup", "--group", "{}", "--out", "out.json"], "labels"),
], ids=["map", "dimension", "labels"])
def test_repeated_key_exit_2(fixture, old, new, argv, key, tmp_path, capsys):
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    repeated = tmp_path / fixture
    repeated.write_text(text.replace(old, new, 1), encoding="utf-8")
    argv = [str(repeated) if a == "{}" else str(tmp_path / a) if a == "out.json" else a
            for a in argv]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: invalid JSON: repeated key {key!r}"]
    assert not (tmp_path / "out.json").exists()


def test_missing_file_exit_2(capsys):
    assert cli.main(["check", str(FIXTURES / "does-not-exist.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "BAD"],
    ["lim", "BAD"],
    ["fixpoint", "BAD", str(FIXTURES / "z2-canonical-action.json")],
    ["fixpoint", str(FIXTURES / "z2.json"), "BAD"],
    ["construct", "semigroup", "--group", "BAD", "--out", "OUT"],
], ids=["check", "lim", "fixpoint-structure", "fixpoint-action", "construct-group"])
def test_a_file_that_is_not_utf8_exit_2(argv, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{}")
    argv = [str(bad) if a == "BAD" else str(tmp_path / "out.json") if a == "OUT" else a
            for a in argv]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: ") and "utf-8" in err
    assert not (tmp_path / "out.json").exists()


def test_mismatched_action_labels_exit_2(capsys, tmp_path):
    # lz2 action names points a/b, z2 structure has 0/1
    code = cli.main(
        [
            "fixpoint",
            str(FIXTURES / "z2.json"),
            str(FIXTURES / "lz2-canonical-action.json"),
        ]
    )
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_fixpoint_on_a_structure_that_fails_its_axioms_exit_1(capsys, tmp_path):
    # t3-corrupted is not associative, so no action file can make an action
    identity = {"A": [["1"]], "b": ["0"]}
    action = tmp_path / "identity.json"
    action.write_text(json.dumps({"carrier": "simplex", "dimension": 1,
                                  "maps": {p: identity for p in ("e", "a", "b")}}))
    code = cli.main(["fixpoint", str(FIXTURES / "t3-corrupted.json"), str(action)])
    captured = capsys.readouterr()
    assert code == 1
    assert "verdict: not an action (structure fails its axioms)\n" in captured.out
    assert captured.err == ""


def test_usage_error_exit_2(capsys):
    assert cli.main(["frobnicate"]) == 2
    assert cli.main([]) == 2


def test_incomplete_structure_exit_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "z2.json").read_text())
    del doc["convolution"]["1|1"]
    target = tmp_path / "partial.json"
    target.write_text(json.dumps(doc))
    assert cli.main(["check", str(target)]) == 2
    assert "incomplete" in capsys.readouterr().err


def test_lim_on_broken_structure_exit_2(capsys):
    code = cli.main(["lim", str(FIXTURES / "t3-corrupted.json")])
    assert code == 2
    assert "fails its axioms" in capsys.readouterr().err


def test_method_both_disagreement_exit_3(monkeypatch, capsys):
    # force the two oracles apart to exercise the bug-signal path
    monkeypatch.setattr(cli, "mean_via_dual_action", lambda shg, base_point=0: None)
    code = cli.main(["lim", str(FIXTURES / "z2.json"), "--method", "both"])
    assert code == 3
    assert "oracles_agree: false" in capsys.readouterr().out


def test_method_both_unverified_mean_exit_3(monkeypatch, capsys):
    # both routes find a mean, but the dual one fails the independent check
    monkeypatch.setattr(cli, "mean_via_dual_action",
                        lambda shg, base_point=0: Mean(shg.space, (1, 0)))
    code = cli.main(["lim", str(FIXTURES / "z2.json"), "--method", "both", "--json"])
    assert code == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["dual"] == {"exists": True, "mean": "1, 0", "verified": False}
    assert payload["direct"]["verified"] is True
    assert (payload["oracles_agree"], payload["verdict"]) == (False, "disagree")


def test_construct_write_failure_exit_2(tmp_path, capsys):
    code = cli.main(
        [
            "construct",
            "semigroup",
            "--group",
            str(FIXTURES / "z4-group.json"),
            "--out",
            str(tmp_path / "missing-dir" / "out.json"),
        ]
    )
    assert code == 2


def test_help_exits_zero():
    assert cli.main(["--help"]) == 0


@pytest.mark.parametrize("kind", ["coset", "doublecoset"])
def test_quotient_help_describes_both_options(kind, capsys):
    assert cli.main(["construct", kind, "--help"]) == 0
    out = capsys.readouterr().out
    assert "Cayley table JSON file" in out and "comma-separated subgroup labels" in out


def _module_env() -> dict[str, str]:
    """The environment for `python -m semihyp.cli`, with this source first."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_module_entry_point_exits_with_mains_code():
    # `python -m semihyp.cli` passes main's return value to sys.exit
    proc = subprocess.run([sys.executable, "-m", "semihyp.cli", "check"], env=_module_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "the following arguments are required: structure" in proc.stderr


@pytest.mark.parametrize(
    "tol, max_iter",
    [
        ("0", "10"),
        ("-0.5", "10"),
        ("nan", "10"),
        ("inf", "10"),
        ("1e-9", "0"),
        ("1e-9", "-5"),
        ("abc", "10"),
        ("1e-9", "1.5"),
    ],
)
def test_fixpoint_iterate_out_of_range_exit_2(tol, max_iter, capsys):
    code = cli.main(
        [
            "fixpoint",
            str(FIXTURES / "z2.json"),
            str(FIXTURES / "z2-canonical-action.json"),
            "--iterate",
            tol,
            max_iter,
        ]
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_fixpoint_iterate_huge_max_ends_on_the_repeated_state(capsys):
    # lz2's float state repeats from step 1 on, so 10^12 logical steps take
    # as long as a few; the report is the 1000-step golden's
    argv = ["fixpoint", str(FIXTURES / "lz2.json"), str(FIXTURES / "lz2-canonical-action.json"),
            "--iterate", "1e-9", "1000000000000", "--json"]
    assert cli.main(argv) == 1
    report = json.loads(capsys.readouterr().out)
    golden = dict(line.split(": ", 1) for line in
                  (GOLDEN / "fixpoint-lz2-iterate.out").read_text().splitlines()
                  if line.startswith(("point: ", "residual: ")))
    assert report["iterations"] == 1_000_000_000_000 and report["converged"] is False
    assert (report["point"], report["residual"]) == (golden["point"], golden["residual"])


def test_group_label_with_pipe_exit_2(tmp_path, capsys):
    # structure files key the convolution by "x|y", so such a label could
    # be written but never read back
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"labels": ["e", "a|b"], "table": [[0, 1], [1, 0]]}))
    out = tmp_path / "out.json"
    code = cli.main(["construct", "semigroup", "--group", str(group), "--out", str(out)])
    assert code == 2
    assert "'|'" in capsys.readouterr().err
    assert not out.exists()

    doc = json.loads((FIXTURES / "z3-inversion.json").read_text())
    doc["carrier"]["labels"][1] = "1|"
    action = tmp_path / "act.json"
    action.write_text(json.dumps(doc))
    code = cli.main(["construct", "orbit", "--action", str(action), "--out", str(out)])
    assert code == 2
    assert "'|'" in capsys.readouterr().err
    assert not out.exists()


def test_construct_with_a_surrogate_in_the_name_exit_2(tmp_path, capsys):
    # UTF-8 has no form for U+D800..U+DFFF, so the report could not print it
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"labels": ["a", "b"], "table": [[0, 1], [1, 0]]}))
    out = tmp_path / "out.json"
    argv = ["construct", "semigroup", "--group", str(group), "--out", str(out), "--name", "s\ud800"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err == ("error: structure name 's\\ud800' holds a surrogate code point "
                            "(U+D800-U+DFFF)\n")


def test_a_surrogate_label_exit_2_in_a_subprocess(tmp_path):
    # io.StringIO holds a surrogate, so only a real UTF-8 stdout shows the
    # crash this guards against: a group file with one, and the structure
    # file that `construct` used to write from it
    group = tmp_path / "g.json"
    group.write_text(json.dumps({"labels": ["\ud800", "b"], "table": [[0, 1], [1, 0]]}))
    structure = tmp_path / "s.json"
    shg = from_semigroup(CayleyTable(("a", "z"), ((0, 1), (1, 0))))
    structure.write_text(canonical_structure_json(shg).replace("z", "\\ud800"))
    out = tmp_path / "out.json"
    env = dict(_module_env(), PYTHONIOENCODING="utf-8")
    for argv in (["construct", "semigroup", "--group", str(group), "--out", str(out)],
                 ["check", str(structure)]):
        proc = subprocess.run([sys.executable, "-m", "semihyp.cli", *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
        assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
        assert "label '\\ud800' holds a surrogate code point" in proc.stderr
    assert not out.exists()


def test_group_label_with_comma_exit_2(tmp_path, capsys):
    # Z4 under inversion with a carrier labelled e, a, "a,b", b would give
    # the orbits {a, b} and {a,b} the same label "{a,b}"
    doc = {
        "acting": {"labels": ["1", "-1"], "table": [[0, 1], [1, 0]]},
        "carrier": {
            "labels": ["e", "a", "a,b", "b"],
            "table": [[(i + j) % 4 for j in range(4)] for i in range(4)],
        },
        "act": [[0, 1, 2, 3], [0, 3, 2, 1]],
    }
    action = tmp_path / "act.json"
    action.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = cli.main(["construct", "orbit", "--action", str(action), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert "','" in captured.err
    assert not out.exists()

    group = tmp_path / "g.json"
    group.write_text(json.dumps(doc["carrier"]))
    code = cli.main(
        ["construct", "coset", "--group", str(group), "--subgroup", "e,b", "--out", str(out)]
    )
    assert code == 2
    assert "','" in capsys.readouterr().err


def test_orbit_on_non_group_carrier_exit_2(tmp_path, capsys):
    doc = json.loads((FIXTURES / "z3-inversion.json").read_text())
    doc["carrier"] = {"labels": ["0", "1"], "table": [[0, 0], [1, 1]]}  # left zero
    doc["act"] = [[0, 1], [0, 1]]
    action = tmp_path / "act.json"
    action.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    code = cli.main(["construct", "orbit", "--action", str(action), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: carrier table is not a group\n"
    assert not out.exists()


def test_unknown_subgroup_label_exit_2(tmp_path, capsys):
    out = tmp_path / "out.json"
    code = cli.main(["construct", "coset", "--group", str(FIXTURES / "s3.json"),
                     "--subgroup", "e,(99)", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == "error: unknown point label: '(99)'\n"
    assert not out.exists()


def test_lim_certificate_left_zero_6(tmp_path, capsys):
    # pinned before the Farkas combinations were made sparse
    target = tmp_path / "lz6.json"
    target.write_text(canonical_structure_json(from_semigroup(left_zero_semigroup(6))))
    assert cli.main(["lim", str(target), "--json"]) == 1
    direct = json.loads(capsys.readouterr().out)["direct"]
    assert direct == {
        "exists": False,
        "certificate": "-1, 0, 0, 0, 0, 0, 1" + ", 0" * 29 + ", 1",
    }


@pytest.mark.parametrize(
    "name",
    ["lim-lz2", "check-corrupted", "check-rps", "fixpoint-lz2-iterate", "lim-z2-both",
     "fixpoint-z2"],
)
def test_golden_output_under_python_O(name, tmp_path):
    # python -O strips assert statements, so no verdict may rely on one
    case = next(c for c in CASES if c.name == name)
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "semihyp.cli", *case.argv],
        cwd=tmp_path, env=_module_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == case.exit_code, proc.stderr
    assert normalize(proc.stdout) == (GOLDEN / f"{name}.out").read_text()


# ---------------------------------------------------------------------------
# one parser per process: `main` reuses it, so no call may leak into the next


def _fresh_parser_output(argv, capsys) -> tuple[str, str]:
    """What a newly built parser prints for argv, which it rejects or answers."""
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    captured = capsys.readouterr()
    return captured.out, captured.err


def test_reused_parser_keeps_every_golden_in_reverse_order(tmp_path, capsys):
    bad_iterate = ["fixpoint", str(FIXTURES / "z2.json"),
                   str(FIXTURES / "z2-canonical-action.json"), "--iterate", "0", "10"]
    interruptions = [(["lim", "--method", "sideways", "x.json"], 2), (["--help"], 0),
                     (bad_iterate, 2)]
    for k, case in enumerate(reversed(CASES)):
        argv, code = interruptions[k % len(interruptions)]
        assert cli.main(argv) == code
        captured = capsys.readouterr()
        if argv != bad_iterate:  # the range check runs after parsing
            assert (captured.out, captured.err) == _fresh_parser_output(argv, capsys)
        stdout, code, written = run_case(case, tmp_path)
        assert code == case.exit_code, case.name
        assert normalize(stdout) == (GOLDEN / f"{case.name}.out").read_text(), case.name
        if case.writes:
            assert written == (GOLDEN / f"{case.name}.file.json").read_bytes()


@pytest.mark.parametrize("max_iter, code, verdict", [
    ("10", 1, "did not converge"),
    ("100", 0, "fixed point approximated"),
])
def test_fixpoint_iterate_on_a_hull_with_large_coordinates(
    max_iter, code, verdict, tmp_path, capsys
):
    # lz2 acting by one contraction toward (0, 0) on a hull with coordinates
    # near 4e9: the float spot check must not reject the valid action
    c, a = "201916997759/50", [["4/5", "1/5"], ["4/5", "1/5"]]
    action = tmp_path / "action.json"
    action.write_text(json.dumps({"dimension": 2, "carrier": {"hull": [["0", "0"], [c, c], [c, "0"]]},
                                  "maps": {p: {"A": a, "b": ["0", "0"]} for p in "ab"}}))
    argv = ["fixpoint", str(FIXTURES / "lz2.json"), str(action), "--iterate", "1e-9", max_iter]
    assert cli.main([*argv, "--json"]) == code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == verdict and captured.err == ""
    assert _json_report(argv[:3], capsys)["fixed_point"] == "0, 0"


def test_construct_semigroup_with_an_empty_name_is_named_semigroup(tmp_path, capsys):
    out = tmp_path / "z4.json"
    argv = ["construct", "semigroup", "--group", str(FIXTURES / "z4-group.json"),
            "--out", str(out), "--name", ""]
    assert _json_report(argv, capsys)["structure"] == "semigroup"
    assert json.loads(out.read_text())["name"] == "semigroup"


def _json_report(argv, capsys) -> dict:
    cli.main([*argv, "--json"])
    return json.loads(capsys.readouterr().out)


def test_reused_parser_restores_the_defaults(tmp_path, capsys):
    z2, action = str(FIXTURES / "z2.json"), str(FIXTURES / "z2-canonical-action.json")
    assert _json_report(["lim", z2, "--method", "dual"], capsys)["method"] == "dual"
    assert _json_report(["lim", z2], capsys)["method"] == "direct"
    iterate = ["fixpoint", z2, action, "--iterate", "1e-9", "100"]
    assert _json_report(iterate, capsys)["mode"] == "iterate"
    assert _json_report(["fixpoint", z2, action], capsys)["mode"] == "exact"
    triple = ["construct", "triple", "1/4", "1/4", "1/2", "1/4", "1/2", "1/4", "1/2",
              "1/2", "--out", str(tmp_path / "t.json")]
    assert _json_report([*triple, "--name", "X"], capsys)["structure"] == "X"
    assert _json_report(triple, capsys)["structure"] == "triple"


def test_help_equals_a_fresh_parsers_help(capsys):
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()


def test_main_builds_no_parser_after_the_first_call(monkeypatch, capsys):
    import argparse

    cli.main(["check", str(FIXTURES / "z2.json")])
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert cli.main(["check", str(FIXTURES / "z2.json")]) == 0
    assert cli.main(["lim", str(FIXTURES / "lz2.json")]) == 1
    assert cli.main(["frobnicate"]) == 2
    assert built == []


HUGE = "1" * 5000  # past the interpreter's 4300-digit int-string limit


@pytest.mark.parametrize("weight", [f'"{HUGE}"', f'"1/{HUGE}"', HUGE],
                         ids=["string", "denominator", "bare-integer"])
@pytest.mark.parametrize("command", ["check", "lim", "fixpoint"])
def test_overlong_rational_in_a_file_exit_2(command, weight, tmp_path, capsys):
    # the weight goes into the structure file, or for fixpoint into the action file
    structure = tmp_path / "z2.json"
    action = tmp_path / "act.json"
    structure.write_text((FIXTURES / "z2.json").read_text())
    action.write_text((FIXTURES / "z2-canonical-action.json").read_text())
    target = action if command == "fixpoint" else structure
    doc = json.loads(target.read_text())
    if command == "fixpoint":
        doc["maps"]["1"]["b"][0] = "HUGE"
    else:
        doc["convolution"]["1|1"][0]["weight"] = "HUGE"
    target.write_text(json.dumps(doc).replace('"HUGE"', weight))
    argv = [command, str(structure)] + ([str(action)] if command == "fixpoint" else [])
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")


def test_overlong_triple_parameter_exit_2(tmp_path, capsys):
    out = tmp_path / "t.json"
    params = ["1/4", "1/4", "1/2", "1/4", "1/2", "1/4", f"1/{HUGE}", "1/2"]
    code = cli.main(["construct", "triple", *params, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: rational too long: 5002 characters\n"
    assert not out.exists()


@pytest.mark.parametrize("param", ["1/4\n", "\u0661"], ids=["final-newline", "arabic-indic-digit"])
def test_triple_parameter_outside_the_p_q_form_exit_2(param, tmp_path, capsys):
    out = tmp_path / "t.json"
    params = [param, "1/4", "1/2", "1/4", "1/2", "1/4", "1/2", "1/2"]
    code = cli.main(["construct", "triple", *params, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: not a rational: {param!r} (use 'p/q' or an integer)\n"
    assert not out.exists()


@pytest.mark.parametrize("case", [c for c in CASES if c.argv[0] == "construct" and c.writes],
                         ids=lambda c: c.argv[1])
def test_construct_reports_the_check_of_the_written_file(case, tmp_path, monkeypatch, capsys):
    # a factory's verdict is read from the structure's own checks, which
    # `check` runs again on the file
    monkeypatch.chdir(tmp_path)
    shutil.copytree(FIXTURES, tmp_path / "fixtures")
    assert cli.main([*case.argv, "--json"]) == 0
    built = json.loads(capsys.readouterr().out)
    assert cli.main(["check", case.writes, "--json"]) == 0
    checked = json.loads(capsys.readouterr().out)
    keys = ("structure", "points", "checks", "identity", "commutative", "verdict")
    assert {k: built[k] for k in keys} == {k: checked[k] for k in keys}


def test_a_quotient_probability_failure_is_reported_under_probability(
    tmp_path, monkeypatch, capsys
):
    # the subgroup checks make every quotient entry a probability measure,
    # so the failure is forced
    failed = CheckReport("probability", False, detail="entry (eH, eH) has total 2")
    monkeypatch.setattr(algebra, "check_probability", lambda shg: failed)
    out = tmp_path / "out.json"
    code = cli.main(["construct", "coset", "--group", str(FIXTURES / "s3.json"),
                     "--subgroup", "e,(12)", "--out", str(out), "--json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and not out.exists()
    assert report["violations"] == [failed.detail]
    assert report["probability"] == {"passed": False, "detail": failed.detail}
    assert "associativity" not in report and report["verdict"] == "rejected"


DEEP = "[" * 100000  # past the interpreter's recursion limit for json.loads


@pytest.mark.parametrize("argv", [
    ["check", "deep.json"],
    ["fixpoint", str(FIXTURES / "z2.json"), "deep.json"],
    ["construct", "semigroup", "--group", "deep.json", "--out", "out.json"],
    ["construct", "orbit", "--action", "deep.json", "--out", "out.json"],
], ids=["structure", "affine-action", "group", "group-action"])
def test_deeply_nested_json_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "deep.json").write_text(DEEP)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: invalid JSON: ")
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_overlong_witness_is_reported(as_json, tmp_path, capsys):
    # a*a = W p_b, a*b = p_b, b*a = W p_a, b*b = p_a: the associativity
    # witness at (a, a, a) has lhs W^2 p_a, past the digit limit
    w = int("7" * 3000)
    conv = {"a|a": ("b", str(w)), "a|b": ("b", "1"), "b|a": ("a", str(w)), "b|b": ("a", "1")}
    doc = {"name": "big", "points": ["a", "b"],
           "convolution": {k: [{"point": z, "weight": v}] for k, (z, v) in conv.items()}}
    target = tmp_path / "big.json"
    target.write_text(json.dumps(doc))
    code = cli.main(["check", str(target)] + ["--json"] * as_json)
    out = capsys.readouterr().out
    assert code == 1
    if as_json:
        checks = json.loads(out)["checks"]
        witness = checks["associativity"]["witness"]
    else:
        assert "verdict: fail" in out
        assert "detail: (p_a*p_a)*p_a differs from p_a*(p_a*p_a)" in out
        witness = dict(line.strip().split(": ", 1) for line in out.splitlines()
                       if line.strip().startswith(("lhs:", "rhs:")))
    assert witness["lhs"] == f"{oracle_decimal_text(w * w)}, 0"
    assert witness["rhs"] == f"0, {w}"


def test_overlong_probability_total_is_reported(tmp_path, capsys):
    # two weights with coprime 4001-digit denominators sum to a total whose
    # denominator has about 8000 digits
    d1, d2 = int("1" * 4000 + "3"), int("1" * 4000 + "7")
    items = [{"point": "a", "weight": f"1/{d1}"}, {"point": "a", "weight": f"1/{d2}"}]
    target = tmp_path / "total.json"
    target.write_text(json.dumps({"name": "t", "points": ["a"], "convolution": {"a|a": items}}))
    assert cli.main(["check", str(target)]) == 1
    total = Fraction(1, d1) + Fraction(1, d2)
    expected = f"{oracle_decimal_text(total.numerator)}/{oracle_decimal_text(total.denominator)}"
    assert f"detail: entry (a, a) has total {expected} or a negative weight" in (
        capsys.readouterr().out)


def test_overlong_operator_seminorm_is_reported(tmp_path, capsys):
    # column 0 of A sums to 1 + 1/d1 + 1/d2, so the l1 seminorm, the bound
    # and the failing detail have about 8000-digit denominators
    d1, d2 = int("1" * 4000 + "3"), int("1" * 4000 + "7")
    doc = json.loads((FIXTURES / "z2-canonical-action.json").read_text())
    doc["maps"]["1"]["A"] = [[f"{d1 + 1}/{d1}", "0"], [f"1/{d2}", "1"]]
    action = tmp_path / "act.json"
    action.write_text(json.dumps(doc))
    assert cli.main(["fixpoint", str(FIXTURES / "z2.json"), str(action)]) == 1
    out = capsys.readouterr().out
    norm = 1 + Fraction(1, d1) + Fraction(1, d2)
    text = f"{oracle_decimal_text(norm.numerator)}/{oracle_decimal_text(norm.denominator)}"
    assert f"detail: map at 1 has l1 operator seminorm {text}\n" in out
    assert f"equicontinuity_bound: {text}\n" in out
    assert "verdict: not an action\n" in out


# ---------------------------------------------------------------------------
# exit-code contract on mutated documents


LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3),
    st.sampled_from(["0", "1", "1/2", "-1", "2", "a", "b", "e", "0|1", "a|b", "simplex",
                     "point", "weight", "hull", "A", "b"]),
    st.text(max_size=3),
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6,
)

# (fixture to mutate, argv with {} for the mutated file)
FUZZ_TARGETS = [
    ("z2.json", ["check", "{}"]),
    ("t3.json", ["check", "{}", "--json"]),
    ("rps.json", ["check", "{}"]),
    ("lz2.json", ["lim", "{}"]),
    ("t3.json", ["lim", "{}", "--method", "both"]),
    ("z2-canonical-action.json", ["fixpoint", str(FIXTURES / "z2.json"), "{}"]),
    ("z2-hull-action.json", ["fixpoint", str(FIXTURES / "z2.json"), "{}"]),
    ("lz2-canonical-action.json", ["fixpoint", str(FIXTURES / "lz2.json"), "{}",
                                   "--iterate", "1e-6", "50"]),
    ("z4-group.json", ["construct", "semigroup", "--group", "{}", "--out", "out.json"]),
    ("s3.json", ["construct", "coset", "--group", "{}", "--subgroup", "e,(12)",
                 "--out", "out.json"]),
    ("s3.json", ["construct", "doublecoset", "--group", "{}", "--subgroup", "e,(12)",
                 "--out", "out.json"]),
    ("z3-inversion.json", ["construct", "orbit", "--action", "{}", "--out", "out.json"]),
]


def _paths(value, path=()):
    """Every position in a JSON document, as a tuple of keys and indices."""
    yield path
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _paths(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _paths(v, path + (i,))


def _mutate(data, doc):
    """Replace, delete or duplicate the value at one drawn position."""
    path = data.draw(st.sampled_from(list(_paths(doc))))
    if not path:
        return data.draw(VALUES)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    op = data.draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if op == "replace":
        parent[key] = data.draw(VALUES)
    elif op == "delete":
        del parent[key]
    elif isinstance(parent, list):
        parent.insert(key, parent[key])
    else:
        parent[data.draw(st.text(max_size=3))] = parent[key]
    return doc


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_cli_keeps_its_exit_codes_on_mutated_documents(tmp_path_factory, data):
    fixture, argv = data.draw(st.sampled_from(FUZZ_TARGETS))
    doc = json.loads((FIXTURES / fixture).read_text())
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _mutate(data, doc)
    workdir = tmp_path_factory.mktemp("fuzz")
    (workdir / "doc.json").write_text(json.dumps(doc))
    argv = [str(workdir / "doc.json") if a == "{}" else a for a in argv]
    argv = [str(workdir / a) if a == "out.json" else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")
