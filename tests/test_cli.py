import argparse
import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import measure_spec

import dtmoments
from dtmoments import quasinil
from dtmoments.cli import build_parser, main, parse_measure_arg
from dtmoments.errors import WordParseError
from dtmoments.measures import Atomic, UniformAnnulus, UniformDisk
from dtmoments.moments import DEFAULT_Z_LEN_CAP
from dtmoments.quasinil import canonicalize, m_recursive
from dtmoments.rmt import DEFAULT_SIZE_CAP
from dtmoments.spectral import DEFAULT_MOMENT_CAP


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoment:
    def test_pure_t_word(self, capsys):
        code, out, _ = run(capsys, "moment", "--word", "T* T", "--measure", "delta0")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"word": "T* T", "backend": "exact", "re": "1/2", "im": "0"}

    def test_circular_word(self, capsys):
        code, out, _ = run(
            capsys, "moment", "--word", "Z* Z", "--measure", "disk:1", "--c", "1"
        )
        assert code == 0
        assert json.loads(out)["re"] == "1"

    def test_unbalanced_is_zero(self, capsys):
        code, out, _ = run(capsys, "moment", "--word", "T T")
        assert code == 0
        assert json.loads(out)["re"] == "0"

    def test_exponent_tuple(self, capsys):
        code, out, _ = run(capsys, "moment", "--exponents", "2,2,2,2")
        assert code == 0
        assert json.loads(out)["re"] == "2/15"

    def test_exponents_are_read_as_the_library_reads_them(self, capsys):
        # "2.0,2.0" exited 2 with "invalid literal for int()"
        code, out, _ = run(capsys, "moment", "--exponents", "2.0,2.0")
        assert code == 0
        assert json.loads(out) == {"word": "2.0,2.0", "backend": "exact", "re": "1/6", "im": "0"}

    @pytest.mark.parametrize("text, token", [("1.5,1.5", "'1.5'"), ("1,3/2", "'3/2'"),
                                             ("1,-1", ">= 0"), ("1,1,1", "even")])
    def test_a_bad_exponent_is_a_parse_error_that_names_it(self, capsys, text, token):
        code, out, err = run(capsys, "moment", "--exponents", text)
        assert code == 2
        assert out == ""
        assert token in err

    @pytest.mark.parametrize("seq", [(2, -1, 0, 1), (-1, 0), (-3, -3), (1, 0, 0, -1)])
    def test_one_exponent_rule_for_every_caller(self, capsys, seq):
        # canonicalize and m_recursive said "exponents must be nonnegative",
        # the CLI "exponent must be >= 0": now all three read through order
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            canonicalize(seq)
        with pytest.raises(ValueError, match="exponent must be >= 0"):
            m_recursive(seq)
        code, out, err = run(capsys, "moment", f"--exponents={','.join(map(str, seq))}")
        assert (code, out) == (2, "")
        assert "exponent must be >= 0" in err

    @pytest.mark.parametrize("measure", ["delta0", "delta:0", "delta:0,0", "delta:0/1,-0",
                                         '{"type": "atomic", "atoms": [{"re": 0, "w": 1}]}'])
    def test_t_word_takes_the_point_mass_at_zero_however_spelled(self, capsys, measure):
        # every spelling but delta0 exited 2, as if it were another measure
        code, out, _ = run(capsys, "moment", "--word", "T* T", "--measure", measure)
        assert code == 0
        assert json.loads(out)["re"] == "1/2"

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "moment", "--word", "T* T", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["re"] == "1/2"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "moment", "--word", "T X")
        assert code == 2
        assert "unknown word letter" in err

    def test_exponents_past_the_recursion_limit_exit_3(self, capsys, monkeypatch):
        # the subset recursion nests once per unit of degree; 1000,1000 used
        # to end in a RecursionError traceback and exit 1.  A fresh memo, as a
        # warm one holding (800, 800) shortens the recursion so that it returns
        monkeypatch.setattr(quasinil, "_MEMO", {(): 1})
        code, out, err = run(capsys, "moment", "--exponents", "1000,1000")
        assert code == 3
        assert out == ""
        assert err.startswith("error: ")

    def test_needs_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "moment")
        assert code == 2
        code, _, _ = run(capsys, "moment", "--word", "T T*", "--exponents", "1,1")
        assert code == 2

    def test_cap_exit_code(self, capsys):
        word = " ".join(["Z"] * (DEFAULT_Z_LEN_CAP + 2))
        code, _, err = run(capsys, "moment", "--word", word, "--measure", "disk:1")
        assert code == 3
        assert "cap" in err

    def test_numeric_exit_code(self, capsys):
        code, _, _ = run(capsys, "moment", "--word", "T* T", "--measure", "annulus:1/2")
        assert code == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["--word", "T* T T* T T* T"],
            ["--word", "D* D T* T", "--measure", "disk:1"],
            ["--exponents", "1,1"],
        ],
    )
    def test_max_degree_without_a_z_word_is_a_parse_error(self, capsys, argv):
        # the cap applies to Z-words only; these printed 9/8, 1/4 and 1/2 with exit 0
        code, out, err = run(capsys, "moment", *argv, "--max-degree", "2")
        assert code == 2
        assert out == ""
        assert "--max-degree" in err

    def test_max_degree_caps_z_words(self, capsys):
        argv = ("moment", "--word", "Z* Z Z* Z", "--measure", "disk:1")
        code, out, _ = run(capsys, *argv, "--max-degree", "4")
        assert code == 0
        assert json.loads(out)["re"] == "2"
        code, out, err = run(capsys, *argv, "--max-degree", "3")
        assert code == 3
        assert out == ""
        assert "cap" in err

    @pytest.mark.parametrize("value", ["abc", "1/0"])
    def test_unparsable_c_is_a_parse_error(self, capsys, value):
        # an unparsable --c used to exit 4, as a numeric failure
        code, out, err = run(
            capsys, "moment", "--word", "Z* Z", "--measure", "disk:1", "--c", value
        )
        assert code == 2
        assert out == ""
        assert "--c" in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--word", "T* T", "--c", "5"], "--c"),
            (["--word", "D* D T* T", "--measure", "disk:1", "--c", "-2"], "--c"),
            (["--exponents", "1,1", "--c", "2"], "--c"),
            (["--word", "T* T", "--measure", "disk:2"], "--measure"),
            (["--exponents", "1,1", "--measure", "disk:2"], "--measure"),
        ],
    )
    def test_unused_c_or_measure_is_a_parse_error(self, capsys, argv, flag):
        # --c scales T inside Z and --measure is the law of D: each was
        # silently ignored here (these printed 1/2, 1/4, 1/2, 1/2 and 1/2)
        code, out, err = run(capsys, "moment", *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    def test_c_and_measure_are_read_where_they_apply(self, capsys):
        code, out, _ = run(capsys, "moment", "--word", "Z* Z", "--measure", "disk:1", "--c", "2")
        assert code == 0
        assert json.loads(out)["re"] == "5/2"  # E|D|^2 + 2^2 tr(T*T) = 1/2 + 4/2
        code, out, _ = run(capsys, "moment", "--word", "D* D T* T", "--measure", "disk:1")
        assert code == 0
        assert json.loads(out)["re"] == "1/4"

    def test_non_positive_c_is_a_numeric_failure(self, capsys):
        code, out, _ = run(capsys, "moment", "--word", "Z* Z", "--measure", "disk:1", "--c", "-1")
        assert code == 4
        assert out == ""

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "moment", "--word", "T* T", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["re"] == "1/2"

    @pytest.mark.parametrize("before", [None, b'{"kept": true}\n'], ids=["absent", "present"])
    def test_a_failed_command_leaves_out_as_it_was(self, capsys, tmp_path, before):
        # the file was opened before the word was read: a failure left it empty
        target = tmp_path / "keep.json"
        if before is not None:
            target.write_bytes(before)
        code, out, err = run(capsys, "moment", "--word", "X", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ")
        assert (target.read_bytes() if target.exists() else None) == before

    def test_an_out_that_cannot_be_opened_exits_2(self, capsys, tmp_path):
        # it ended in a FileNotFoundError traceback and exit 1
        target = tmp_path / "missing" / "result.json"
        code, out, err = run(capsys, "moment", "--word", "T* T", "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_matches_schema(self, capsys):
        jsonschema = pytest.importorskip("jsonschema")
        import importlib.resources as resources

        schema = json.loads(
            resources.files("dtmoments")
            .joinpath("schemas/moment_result.schema.json")
            .read_text()
        )
        _, out, _ = run(capsys, "moment", "--word", "Z* Z", "--measure", "disk:1")
        jsonschema.validate(json.loads(out), schema)


class TestMeasureArg:
    def test_shorthands(self):
        assert parse_measure_arg("delta0") == Atomic.delta(0)
        assert parse_measure_arg("disk:3/2") == UniformDisk("3/2")
        assert parse_measure_arg("annulus:2") == UniformAnnulus(2)

    def test_json_and_shorthand_agree(self):
        mu = parse_measure_arg("disk:3/2")
        again = parse_measure_arg(json.dumps(measure_spec(mu)))
        assert mu == again

    def test_delta_with_imaginary_part(self):
        mu = parse_measure_arg("delta:1/2,1/3")
        assert mu.moment(1, 0).re == 0.5

    @pytest.mark.parametrize(
        "text",
        ["disk:1,2", "disk:", "disk", "annulus", "annulus:2,3", "ellipse:1", "ellipse:1,1/2,7",
         "delta:1,2,3", "delta", "delta:"],
    )
    def test_wrong_parameter_count_is_refused(self, text):
        kind = text.partition(":")[0]
        with pytest.raises(WordParseError, match=kind):
            parse_measure_arg(text)

    def test_extra_parameter_exits_2(self, capsys):
        # disk:1,2 used to answer 1, the value of disk:1, with exit 0
        code, out, err = run(
            capsys, "moment", "--word", "Z* Z", "--measure", "disk:1,2"
        )
        assert code == 2
        assert out == ""
        assert "disk" in err

    @pytest.mark.parametrize("text", ["delta:,1", "disk:1,", "delta:1,,2"])
    def test_empty_field_exits_2(self, capsys, text):
        # empty fields were dropped and the rest shifted: delta:,1 read as
        # delta:1, and D D printed 1 with exit 0 where delta:0,1 gives -1
        code, out, err = run(capsys, "moment", "--word", "D D", "--measure", text)
        assert code == 2
        assert out == ""
        assert "empty" in err

    def test_unparsable_json_rational_exits_2_with_its_spec(self, capsys):
        # exited 4 with the bare message "Fraction(1, 0)"
        spec = '{"type": "disk", "radius": "1/0"}'
        code, out, err = run(capsys, "moment", "--word", "D D*", "--measure", spec)
        assert code == 2
        assert out == ""
        assert "'radius': '1/0'" in err

    @pytest.mark.parametrize("text", ["annulus:1/2", '{"type": "annulus", "c": "1/2"}'])
    def test_annulus_below_one_exits_4_in_both_spellings(self, capsys, text):
        # the JSON spelling exited 2, as if it were malformed
        code, out, err = run(capsys, "moment", "--word", "D D*", "--measure", text)
        assert code == 4
        assert out == ""
        assert "c >= 1" in err


# each fault of a measure, in its shorthand and its JSON spelling (None where
# the spelling cannot express it), and the exit code both spellings share
MEASURE_FAULTS = {
    "unknown kind": ("square:1", {"type": "square", "radius": "1"}, 2),
    "wrong count": ("ellipse:1", None, 2),  # JSON names its fields: see missing key
    "empty field": ("disk:1,", {"type": "disk", "radius": ""}, 2),
    "unparsable rational": ("disk:1/0", {"type": "disk", "radius": "x"}, 2),
    "missing key": ("disk", {"type": "disk"}, 2),
    "disk radius zero": ("disk:0", {"type": "disk", "radius": "0"}, 4),
    "disk radius negative": ("disk:-1/2", {"type": "disk", "radius": "-1/2"}, 4),
    "annulus c below one": ("annulus:1/2", {"type": "annulus", "c": "1/2"}, 4),
    "ellipse a not positive": ("ellipse:0,1", {"type": "ellipse", "a": "0", "b": "1"}, 4),
    "ellipse b not positive": ("ellipse:1,-1", {"type": "ellipse", "a": "1", "b": "-1"}, 4),
    "atomic weight not positive": (
        None, {"type": "atomic", "atoms": [{"re": "0", "w": "2"}, {"re": "1", "w": "-1"}]}, 4),
    "atomic weights not summing to one": (
        None, {"type": "atomic", "atoms": [{"re": "0", "w": "1/2"}]}, 4),
    "table no measure has": (
        None, {"type": "table", "max_degree": 2, "entries": [{"r": 1, "s": 1, "re": "-3"}]}, 4),
    # both read with exit 0: the ellipse as UniformEllipse(1, 1), the table as
    # MomentTable(2, (((1, 0), 1/2),))
    "unread key": ("ellipse:1,1,7", {"type": "ellipse", "a": "1", "b": "1", "c": "7"}, 2),
    "fractional order": (
        None, {"type": "table", "max_degree": 2.9, "entries": [{"r": 1.5, "s": 0.2, "re": "1/2"}]}, 2),
    # both read with exit 0, a missing re as 0: the entry as M(1, 1) = 0, the atom as delta0
    "table entry without re": (None, {"type": "table", "max_degree": 2, "entries": [{"r": 1, "s": 1}]}, 2),
    "atom without re": (None, {"type": "atomic", "atoms": [{"w": "1"}]}, 2),
    # JSON booleans read as 1 and 0: the disk as the unit disk and the atom as
    # delta1, both with exit 0, and the order as 1, which exited 3
    "boolean radius": (None, {"type": "disk", "radius": True}, 2),
    "boolean atom": (None, {"type": "atomic", "atoms": [{"re": True, "im": False, "w": True}]}, 2),
    "boolean table order": (None, {"type": "table", "max_degree": True, "entries": []}, 2),
}


@pytest.mark.parametrize(
    "text, code",
    [
        pytest.param(text, code, id=f"{fault}-{spelling}")
        for fault, (short, spec, code) in MEASURE_FAULTS.items()
        for spelling, text in (("shorthand", short), ("json", spec and json.dumps(spec)))
        if text
    ],
)
def test_a_measure_fault_exits_alike_in_both_spellings(capsys, text, code):
    # malformed exits 2 and outside its model's domain exits 4, however written
    got, out, err = run(capsys, "moment", "--word", "D D*", "--measure", text)
    assert (got, out) == (code, "")
    assert err.startswith("error: ")


# one below the least value of each bounded integer flag, in a command whose
# other inputs are valid, except where an id names a second fault
BELOW_LEAST = [
    pytest.param(["moment", "--word", "Z* Z"], "--max-degree", "0", id="max-degree"),
    pytest.param(["moment", "--word", "Z* Z"], "--max-degree", "-3",
                 id="max-degree-negative"),  # exited 3, as a cap overflow
    pytest.param(["moment", "--word", "T* T", "--measure", "annulus:1/2"], "--max-degree", "0",
                 id="max-degree-and-measure-domain"),  # exited 4: the measure was read first
    pytest.param(["conjecture"], "--n-max", "0", id="n-max"),
    pytest.param(["conjecture"], "--k-max", "0", id="k-max"),
    pytest.param(["density", "--grid", "20"], "--p-max", "-1", id="p-max"),
    pytest.param(["density", "--p-max", "1"], "--grid", "0", id="grid"),
    pytest.param(["series"], "--order", "0", id="order"),
    pytest.param(["mc", "--word", "T* T", "--trials", "4"], "--n", "0", id="n"),
    pytest.param(["mc", "--word", "T* T", "--trials", "4"], "--n", "-2", id="n-negative"),
    pytest.param(["mc", "--word", "T* T", "--n", "8"], "--trials", "1", id="trials"),
    pytest.param(["mc", "--word", "T* T", "--n", "8", "--trials", "4"], "--seed", "-1",
                 id="seed"),  # keyed the generator as 2**64 - 1
]


@pytest.mark.parametrize("argv, flag, value", BELOW_LEAST)
def test_a_flag_below_its_least_value_exits_2(capsys, argv, flag, value):
    code, out, err = run(capsys, *argv, flag, value)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {flag} ")


# the integer flags with no least value, and why none is needed
UNBOUNDED_FLAGS = {
    "--cap": "a negative cap only marks every row skipped",
}


def test_every_integer_flag_has_a_least_value():
    # main checks the bound table; a new int flag must join it or this list
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    int_flags = {
        action.dest: action.option_strings[0]
        for command in subparsers.choices.values()
        for action in command._actions
        if action.type is int
    }
    assert {flag for dest, flag in int_flags.items() if dest not in dtmoments.cli._LEAST} == set(UNBOUNDED_FLAGS)
    assert set(dtmoments.cli._LEAST) <= set(int_flags)


class TestConjecture:
    def test_table_rows_all_equal(self, capsys):
        code, out, _ = run(capsys, "conjecture", "--n-max", "2", "--k-max", "3")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 6
        assert all(r["equal"] == "True" for r in rows)

    def test_rows_over_cap_marked_skipped(self, capsys):
        code, out, _ = run(
            capsys, "conjecture", "--n-max", "4", "--k-max", "4", "--cap", "6"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        skipped = [r for r in rows if r["equal"] == "skipped"]
        assert skipped and all(int(r["n"]) * int(r["k"]) > 6 for r in skipped)


class TestDensity:
    def test_grid_and_check_table(self, capsys):
        code, out, _ = run(capsys, "density", "--grid", "50", "--p-max", "1")
        assert code == 0
        grid_text, check_text = out.split("p,quadrature")
        grid = list(csv.DictReader(io.StringIO(grid_text)))
        assert all(0 < float(r["x"]) < math.e for r in grid)
        check = list(csv.DictReader(io.StringIO("p,quadrature" + check_text)))
        assert abs(float(check[0]["quadrature"]) - 1.0) <= 1e-10
        assert abs(float(check[1]["quadrature"]) - 0.5) <= 1e-8

    def test_out_file_holds_both_tables(self, capsys, tmp_path):
        target = tmp_path / "density.csv"
        code, out, _ = run(
            capsys, "density", "--grid", "20", "--p-max", "2", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        grid_text, check_text = target.read_text().split("p,quadrature")
        assert len(list(csv.DictReader(io.StringIO(grid_text)))) == 20
        check = list(csv.DictReader(io.StringIO("p,quadrature" + check_text)))
        assert [row["p"] for row in check] == ["0", "1", "2"]

    def test_p_max_over_the_cap_writes_nothing(self, capsys):
        code, out, err = run(
            capsys, "density", "--grid", "20", "--p-max", str(DEFAULT_MOMENT_CAP + 1)
        )
        assert code == 3
        assert out == ""
        assert "cap" in err


class TestSeries:
    def test_identity_table(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "6")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        checks = [r for r in rows if not r["check"].startswith("free_cumulant")]
        assert checks and all(r["ok"] == "True" for r in checks)
        kappa1 = next(r for r in rows if r["check"] == "free_cumulant_1")
        assert kappa1["ok"] == "1/2"


class TestMC:
    def test_deterministic_given_seed(self, capsys):
        args = ("mc", "--word", "T T*", "--n", "16", "--trials", "30", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("mode", [["--measure", "disk:1"], ["--theta", "0.5"]],
                             ids=["dt", "elliptic"])
    def test_a_seed_past_64_bits_exits_3(self, capsys, mode):
        # keyed the generator as seed 0 and printed "seed": 18446744073709551616
        argv = ["mc", "--word", "Z* Z", "--n", "8", "--trials", "4", *mode, "--seed"]
        code, out, err = run(capsys, *argv, str(2**64))
        assert (code, out) == (3, "")
        assert err == "error: seed 18446744073709551616 exceeds the cap of 18446744073709551615\n"
        code, out, _ = run(capsys, *argv, str(2**64 - 1))
        assert code == 0
        assert json.loads(out)["seed"] == 2**64 - 1

    def test_record_fields_and_target(self, capsys):
        code, out, _ = run(
            capsys, "mc", "--word", "Z* Z", "--measure", "disk:1",
            "--n", "32", "--trials", "20", "--seed", "1",
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["target_re"] == 1.0
        assert rec["n"] == 32 and rec["trials"] == 20

    def test_elliptic_mode(self, capsys):
        code, out, _ = run(
            capsys, "mc", "--word", "Z* Z", "--theta", str(math.pi / 4),
            "--n", "32", "--trials", "20", "--seed", "2",
        )
        assert code == 0
        rec = json.loads(out)
        assert abs(rec["target_re"] - 1.0) < 1e-9

    def test_elliptic_mode_refuses_diagonal_letters(self, capsys):
        # theta mode samples the elliptic operator alone; a D letter has no
        # meaning there and must not be read as an adjoint
        code, out, err = run(
            capsys, "mc", "--word", "D T", "--theta", "0.5",
            "--n", "8", "--trials", "2",
        )
        assert code == 2
        assert out == ""
        assert "D" in err

    @pytest.mark.parametrize("word, letter", [("T* T", "T*"), ("T T*", "T"), ("D* D", "D*")])
    def test_elliptic_mode_reads_z_letters_only(self, capsys, word, letter):
        # T* T printed the elliptic Z* Z estimate, with target 1, under its own name
        code, out, err = run(
            capsys, "mc", "--word", word, "--theta", "0.785398", "--n", "8", "--trials", "2",
        )
        assert code == 2
        assert out == ""
        assert f"{letter!r}" in err

    @pytest.mark.parametrize(
        "flag, value", [("--trials", "1"), ("--n", "0"), ("--n", "-2")]
    )
    @pytest.mark.parametrize("theta", ["0.5"])  # without --theta: see BELOW_LEAST
    def test_bad_size_or_trials_is_a_parse_error(self, capsys, flag, value, theta):
        argv = ["mc", "--word", "T* T", "--n", "8", "--trials", "4", flag, value, "--theta", theta]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize("flag, value", [("--measure", "disk:1"), ("--c", "2")])
    def test_elliptic_mode_refuses_measure_and_c(self, capsys, flag, value):
        # theta fixes the operator; a measure or c would be silently ignored
        code, out, err = run(
            capsys, "mc", "--word", "Z* Z", flag, value, "--theta", "0.7",
            "--n", "8", "--trials", "2",
        )
        assert code == 2
        assert out == ""
        assert flag in err

    @pytest.mark.parametrize(
        "argv, code, reason",
        [
            (["--word", "Z* Z", "--c", "-1"], 4, "c must be positive"),
            (["--word", "Z* Z " * 13, "--measure", "disk:1"], 3, "cap"),
            (["--word", "Z* Z " * 13, "--theta", "0.5"], 3, "cap"),
            (["--word", "Z* Z", "--theta", "2"], 4, "theta must lie"),
        ],
        ids=["bad-c", "z-cap", "theta-cap", "theta-domain"],
    )
    def test_target_fails_before_any_sampling(self, capsys, monkeypatch, argv, code, reason):
        # a target that cannot be built used to surface only after every trial ran
        def refuse(*args, **kwargs):
            raise AssertionError("sampled before the target was built")

        monkeypatch.setattr(dtmoments.cli, "estimate_word_moment", refuse)
        monkeypatch.setattr(dtmoments.cli, "estimate_elliptic_moment", refuse)
        got, out, err = run(capsys, "mc", *argv, "--n", "256", "--trials", "100")
        assert got == code
        assert out == ""
        assert err.startswith("error:") and reason in err

    @pytest.mark.parametrize("measure", [(), ("--measure", "delta0")], ids=["default", "delta0"])
    def test_t_word_passes_no_measure_to_the_estimator(self, capsys, measure):
        # the estimator refuses a measure on a word without D or Z letters
        code, out, _ = run(capsys, "mc", "--word", "T* T", "--n", "8", "--trials", "4", *measure)
        assert code == 0
        assert json.loads(out)["target_re"] == 0.5

    def test_measure_and_c_default_to_delta0_and_one(self, capsys):
        code, out, _ = run(capsys, "mc", "--word", "Z* Z", "--n", "8", "--trials", "4")
        assert code == 0
        rec = json.loads(out)
        assert rec["target_re"] == 0.5 and rec["target_im"] == 0.0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--word", "T* T", "--c", "5"], "--c"),
            (["--word", "D* D T* T", "--measure", "disk:1", "--c", "2"], "--c"),
            (["--word", "T* T", "--measure", "disk:2"], "--measure"),
        ],
    )
    def test_unused_c_or_measure_is_a_parse_error(self, capsys, argv, flag):
        # each printed an estimate whose sampling ignored the flag
        code, out, err = run(capsys, "mc", *argv, "--n", "8", "--trials", "4")
        assert code == 2
        assert out == ""
        assert flag in err

    def test_elliptic_mode_enforces_the_size_cap(self, capsys):
        code, _, err = run(
            capsys, "mc", "--word", "Z", "--theta", str(math.pi / 4),
            "--n", str(DEFAULT_SIZE_CAP + 1), "--trials", "2",
        )
        assert code == 3
        assert "cap" in err

    def test_size_cap_exits_3(self, capsys):
        # an --n over the cap used to exit 4, as a numeric failure
        code, out, err = run(
            capsys, "mc", "--word", "T* T", "--n", str(DEFAULT_SIZE_CAP + 1), "--trials", "2"
        )
        assert code == 3
        assert out == ""
        assert "cap" in err

    def test_unparsable_c_is_a_parse_error(self, capsys):
        # it used to exit 4, as a numeric failure
        code, out, err = run(capsys, "mc", "--word", "Z* Z", "--c", "abc", "--n", "8", "--trials", "2")
        assert code == 2
        assert out == ""
        assert "--c" in err


@pytest.mark.parametrize(
    "argv, status",
    [
        (["moment", "--word", "T* T"], 0),
        (["moment", "--word", "T X"], 2),
        (["moment", "--exponents", "1000,1000"], 3),
        (["moment", "--word", "D* D", "--measure", "annulus:1/2"], 4),
    ],
)
def test_process_exit_status(argv, status):
    # every other test calls main() in-process; this runs sys.exit(main())
    env = {**os.environ, "PYTHONPATH": str(Path(dtmoments.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "dtmoments.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == status, done.stderr
    assert ("error: " in done.stderr) == (status != 0)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_commands():
    """The ``dtmoment`` lines of README's "Command line" code block."""
    section = README.read_text().split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("dtmoment ")]


def test_readme_has_command_examples():
    assert len(readme_commands()) >= 8


@pytest.mark.parametrize("line", readme_commands())
def test_readme_command_runs(capsys, monkeypatch, tmp_path, line):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
    assert code == 0, err
    assert out or list(tmp_path.iterdir())
