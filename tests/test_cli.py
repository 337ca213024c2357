import csv
import io
import json
import math

import pytest

from dtmoments.cli import main, parse_measure_arg
from dtmoments.measures import Atomic, UniformAnnulus, UniformDisk, measure_to_json
from dtmoments.rmt import DEFAULT_SIZE_CAP


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

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "moment", "--word", "T* T", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["re"] == "1/2"

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "moment", "--word", "T X")
        assert code == 2
        assert "unknown word letter" in err

    def test_needs_exactly_one_input(self, capsys):
        code, _, _ = run(capsys, "moment")
        assert code == 2
        code, _, _ = run(capsys, "moment", "--word", "T T*", "--exponents", "1,1")
        assert code == 2

    def test_cap_exit_code(self, capsys):
        word = " ".join(["Z"] * 18)
        code, _, err = run(capsys, "moment", "--word", word, "--measure", "disk:1")
        assert code == 3
        assert "cap" in err

    def test_numeric_exit_code(self, capsys):
        code, _, _ = run(capsys, "moment", "--word", "T* T", "--measure", "annulus:1/2")
        assert code == 4

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "result.json"
        code, out, _ = run(
            capsys, "moment", "--word", "T* T", "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["re"] == "1/2"

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
        again = parse_measure_arg(json.dumps(measure_to_json(mu)))
        assert mu == again

    def test_delta_with_imaginary_part(self):
        mu = parse_measure_arg("delta:1/2,1/3")
        assert mu.moment(1, 0).re == 0.5


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


class TestSeries:
    def test_identity_table(self, capsys):
        code, out, _ = run(capsys, "series", "--order", "6")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        checks = [r for r in rows if not r["check"].startswith("free_cumulant")]
        assert checks and all(r["ok"] == "True" for r in checks)
        kappa1 = next(r for r in rows if r["check"] == "free_cumulant_1")
        assert kappa1["ok"] == "1/2"

    def test_order_validated(self, capsys):
        code, _, _ = run(capsys, "series", "--order", "0")
        assert code == 2


class TestMC:
    def test_deterministic_given_seed(self, capsys):
        args = ("mc", "--word", "T T*", "--n", "16", "--trials", "30", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

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

    def test_elliptic_mode_enforces_the_size_cap(self, capsys):
        code, _, err = run(
            capsys, "mc", "--word", "Z", "--theta", str(math.pi / 4),
            "--n", str(DEFAULT_SIZE_CAP + 1), "--trials", "2",
        )
        assert code == 4
        assert "cap" in err
