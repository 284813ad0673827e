"""Command-line behavior: outputs, formats, and the documented exit codes."""

import json
from fractions import Fraction

import pytest
from click.testing import CliRunner

from dualquant import rain_csv_path
from dualquant.cli import main


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def rain():
    return str(rain_csv_path())


NARROW_HEADER = "line 1 has 2 fields, column 3 is missing"


def rows_of(output):
    return [line.split() for line in output.strip().splitlines()]


class TestQuantileCommand:
    def test_text_table(self, runner, rain):
        res = runner.invoke(main, ["quantile", rain, "--column", "pH", "--levels", "0.2,0.8"])
        assert res.exit_code == 0
        rows = rows_of(res.stdout)
        assert rows[0] == ["level", "left", "right", "traditional"]
        assert rows[1] == ["0.2", "4.8327", "4.8492", "4.8327"]
        assert rows[2] == ["0.8", "5.2901", "5.5731", "5.2901"]

    def test_json_round_trips_exact_values(self, runner, rain):
        res = runner.invoke(
            main,
            ["quantile", rain, "--column", "aH", "--levels", "0.25,0.75", "--format", "json"],
        )
        assert res.exit_code == 0
        blob = json.loads(res.stdout)
        assert blob["column"] == "aH"
        assert blob["rows"] == [
            {"level": 0.25, "left": 5.1274e-06, "right": 5.1274e-06, "traditional": 5.1274e-06},
            {"level": 0.75, "left": 1.41514e-05, "right": 1.41514e-05, "traditional": 1.41514e-05},
        ]

    def test_infinities_render_as_words(self, runner, rain):
        res = runner.invoke(main, ["quantile", rain, "--column", "pH", "--levels", "0,1"])
        rows = rows_of(res.stdout)
        assert rows[1] == ["0.0", "-inf", "4.7336", "-inf"]
        assert rows[2] == ["1.0", "5.6105", "+inf", "5.6105"]
        blob = json.loads(
            runner.invoke(
                main, ["quantile", rain, "--column", "pH", "--levels", "0,1", "--format", "json"]
            ).stdout
        )
        assert blob["rows"][0]["left"] == "-inf"
        assert blob["rows"][1]["right"] == "+inf"

    def test_percent_and_fraction_levels(self, runner, rain):
        pct = runner.invoke(main, ["quantile", rain, "--column", "pH", "--levels", "20%,80%"])
        dec = runner.invoke(main, ["quantile", rain, "--column", "pH", "--levels", "0.2,0.8"])
        assert pct.stdout == dec.stdout
        frac = runner.invoke(
            main, ["quantile", rain, "--column", "pH", "--levels", "1/5", "--format", "json"]
        )
        assert json.loads(frac.stdout)["rows"][0]["left"] == 4.8327

    def test_weights_column(self, runner, tmp_path):
        f = tmp_path / "weighted.csv"
        f.write_text("value,weight\n1.0,1\n2.0,3\n")
        res = runner.invoke(
            main,
            ["quantile", str(f), "--column", "value", "--weights", "weight",
             "--levels", "0.5", "--format", "json"],
        )
        assert res.exit_code == 0
        assert json.loads(res.stdout)["rows"][0]["left"] == 2.0

    def test_single_row_file(self, runner, tmp_path):
        f = tmp_path / "one.csv"
        f.write_text("7.25\n")
        res = runner.invoke(main, ["quantile", str(f), "--levels", "0.5", "--format", "json"])
        row = json.loads(res.stdout)["rows"][0]
        assert row["left"] == row["right"] == row["traditional"] == 7.25

    def test_headerless_indexed_column_with_delimiter(self, runner, tmp_path):
        f = tmp_path / "bare.csv"
        f.write_text("3.0;1.0;x\n1.0;1.0;y\n2.0;1.0;z\n")
        res = runner.invoke(
            main,
            ["quantile", str(f), "--column", "0", "--delimiter", ";", "--levels", "1/3",
             "--format", "json"],
        )
        row = json.loads(res.stdout)["rows"][0]
        assert (row["left"], row["right"]) == (1.0, 2.0)

    @pytest.mark.parametrize("cell", [" 7 ", "+7", "07", "1_000", "\u0663", "0.5", "1/3"])
    def test_weight_cells_read_as_exact_numbers(self, runner, tmp_path, cell):
        # a weight cell means the exact number Fraction reads from it once
        # stripped: check against the quantiles of weights 1, w, 1 on 1, 2, 3
        f = tmp_path / "w.csv"
        f.write_text(f"v,w\n1.0,1\n2.0,{cell}\n3.0,1\n", encoding="utf-8")
        try:
            w = Fraction(cell.strip())
        except ValueError:  # "1_000" before Python 3.11: refused alike
            res = runner.invoke(
                main, ["quantile", str(f), "--column", "v", "--weights", "w", "--levels", "0.5"]
            )
            assert res.exit_code == 3
            assert f"line 3, w: cannot parse weight {cell!r}" in res.stderr
            return
        total = w + 2
        levels = [Fraction(1, 2) / total, 1 / total, (1 + w) / total, (2 + w) / (2 * total)]
        res = runner.invoke(
            main,
            ["quantile", str(f), "--column", "v", "--weights", "w", "--format", "json",
             "--levels", ",".join(f"{p.numerator}/{p.denominator}" for p in levels)],
        )
        assert res.exit_code == 0, res.stderr
        got = [(r["left"], r["right"]) for r in json.loads(res.stdout)["rows"]]
        assert got == [(1.0, 1.0), (1.0, 2.0), (2.0, 3.0), (2.0, 2.0)]

    def test_header_names_are_stripped(self, runner, tmp_path):
        f = tmp_path / "spaced.csv"
        f.write_text(" v , w \n 1.0 , 1 \n2.0,3\n")
        res = runner.invoke(
            main,
            ["quantile", str(f), "--column", "v", "--weights", "w", "--levels", "0.5",
             "--format", "json"],
        )
        assert res.exit_code == 0, res.stderr
        out = json.loads(res.stdout)
        assert out["column"] == "v" and out["rows"][0]["left"] == 2.0


class TestExitCodes:
    def test_unreadable_file_is_2(self, runner):
        res = runner.invoke(main, ["quantile", "/nonexistent/data.csv", "--levels", "0.5"])
        assert res.exit_code == 2
        assert "cannot read" in res.stderr

    def test_parse_error_is_3_and_names_the_cell(self, runner, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x\n1.0\noops\n")
        res = runner.invoke(main, ["quantile", str(f), "--column", "x", "--levels", "0.5"])
        assert res.exit_code == 3
        assert "line 3" in res.stderr and "oops" in res.stderr

    def test_bad_weight_is_3(self, runner, tmp_path):
        f = tmp_path / "w.csv"
        f.write_text("v,w\n1.0,0\n2.0,3\n")
        res = runner.invoke(
            main, ["quantile", str(f), "--column", "v", "--weights", "w", "--levels", "0.5"]
        )
        assert res.exit_code == 3
        assert "weight" in res.stderr

    def test_bad_level_is_4(self, runner, rain):
        res = runner.invoke(main, ["quantile", rain, "--column", "pH", "--levels", "1.5"])
        assert res.exit_code == 4
        assert "[0, 1]" in res.stderr

    @pytest.mark.parametrize("level", ["1e-3000000", "1e-10001"])
    def test_level_with_a_huge_exponent_is_4(self, runner, rain, level):
        res = runner.invoke(main, ["quantile", rain, "--column", "pH", "--levels", level])
        assert res.exit_code == 4
        assert f"cannot parse level {level!r}" in res.stderr

    @pytest.mark.parametrize("cell", ["1e-3000000", "1e10001"])
    def test_weight_with_a_huge_exponent_is_3_with_its_line(self, runner, tmp_path, cell):
        f = tmp_path / "w.csv"
        f.write_text(f"v,w\n1.0,1\n2.0,{cell}\n")
        res = runner.invoke(
            main, ["quantile", str(f), "--column", "v", "--weights", "w", "--levels", "0.5"]
        )
        assert res.exit_code == 3
        assert f"line 3, w: cannot parse weight {cell!r}" in res.stderr

    def test_bad_map_spec_is_5(self, runner, rain):
        res = runner.invoke(
            main,
            ["transform", rain, "--column", "pH", "--levels", "0.5", "--map", '{"kind":"nope"}'],
        )
        assert res.exit_code == 5

    def test_unreadable_map_file_is_2(self, runner, rain):
        res = runner.invoke(
            main, ["transform", rain, "--column", "pH", "--levels", "0.5", "--map", "/no/map.json"]
        )
        assert res.exit_code == 2

    def test_continuity_mismatch_is_6(self, runner, rain):
        spec = json.dumps(
            {
                "direction": "non_decreasing",
                "breakpoints": [{"at": 0.5, "continuity": "right"}],
                "pieces": [
                    {"lo": "-inf", "hi": 0.5, "slope": 1.0, "intercept": 0.0},
                    {"lo": 0.5, "hi": "inf", "slope": 1.0, "intercept": 1.0},
                ],
            }
        )
        res = runner.invoke(
            main,
            ["transform", rain, "--column", "pH", "--levels", "0.5", "--map", spec,
             "--side", "left"],
        )
        assert res.exit_code == 6
        assert "left-continuous" in res.stderr


    @pytest.mark.parametrize(
        "cell, spec", [("-400", '{"kind":"pow10neg"}'), ("1e308", '{"kind":"affine","a":10}')]
    )
    def test_images_past_the_float_range_are_5(self, runner, tmp_path, cell, spec):
        f = tmp_path / "big.csv"
        f.write_text(f"v\n1.0\n{cell}\n")
        res = runner.invoke(
            main, ["transform", str(f), "--column", "v", "--levels", "0.5", "--map", spec]
        )
        assert res.exit_code == 5
        assert "float range" in res.stderr

    @pytest.mark.parametrize(
        "command, data, code, message",
        [
            # a cell past csv.field_size_limit(), in a column the command does not read
            (["quantile"], b"v,w\n1.0,x\n2.0," + b"y" * 140_000 + b"\n", 3,
             "line 3: field larger than field limit"),
            (["quantile", "--delimiter", "ab"], b"v\n1.0\n", 2, "1-character string"),
            (["quantile", "--delimiter", ""], b"v\n1.0\n", 2, "1-character string"),
            (["quantile"], b"v\n1.0\n\xe92.0\n", 2, "cannot read"),
            (["transform", "--map", "@{map}"], b"v\n1.0\n", 2, "cannot read map file"),
        ],
        ids=["over-long-field", "two-char-delimiter", "empty-delimiter", "data-not-utf8",
             "map-not-utf8"],
    )
    def test_malformed_input_exits_without_a_traceback(
        self, runner, tmp_path, command, data, code, message
    ):
        f = tmp_path / "data.csv"
        f.write_bytes(data)
        map_file = tmp_path / "map.json"
        map_file.write_bytes(b'{"kind": "neg\xe9"}')
        args = [a.format(map=map_file) for a in command]
        res = runner.invoke(main, [*args, str(f), "--column", "v", "--levels", "0.5"])
        assert res.exit_code == code
        assert message in res.stderr
        assert isinstance(res.exception, SystemExit)

    @pytest.mark.parametrize(
        "data, message",
        [
            # in a column the command does not read, the quote never closes
            ('v,note\n1.0,"x\n2.0,y\n3.0,z\n', "line 2: unexpected end of data"),
            # the quote closes, but on a later line
            ('v,note\n1.0,"x\n2.0,y"\n3.0,z\n', "line 2: quoted field is not closed on its line"),
            ('v,note\n1.0,x\n2.0,y\n3.0,"z\n', "line 4: unexpected end of data"),
            # text after a closing quote, in the column read
            ('v\n1.0\n"1.0"5\n3.0\n', "line 3: ',' expected after '\"'"),
        ],
        ids=["open-mid-file", "closed-a-line-later", "open-on-last-line", "text-after-quote"],
    )
    def test_stray_quote_is_3_with_its_line(self, runner, tmp_path, data, message):
        f = tmp_path / "quoted.csv"
        f.write_text(data)
        res = runner.invoke(main, ["quantile", str(f), "--column", "v", "--levels", "0.5"])
        assert res.exit_code == 3
        assert message in res.stderr

    @pytest.mark.parametrize(
        "data, selectors, message",
        [
            # '²'.isdigit() is true, yet int('²') refuses it: it is a name
            ("v,w\n1,2\n", ["--column", "²"], "unknown column '²'"),
            ("v,w\n1,2\n", ["--column", "v", "--weights", "²"], "unknown column '²'"),
            ("v,w\n1,2\n", ["--column", "+-1"], "unknown column '+-1'"),
            ("v,w\n1,2\n", ["--column", "²", "--no-header"], "needs a header row"),
            ("v,w\n1,2\n", ["--column", "-1"], "column index -1 out of range"),
            # a header narrower than the data rows names no column 3
            ("a,b\n1,2,3,4\n", ["--column", "3"], NARROW_HEADER),
            ("a,b\n1,2,3,4\n", ["--column", "3", "--header"], NARROW_HEADER),
            ("a,b\n1,2,3,4\n", ["--weights", "3"], NARROW_HEADER),
            ("a,b\n1,2,3,4\n", ["--column", "a", "--weights", "3"], NARROW_HEADER),
            # a wider one leaves the data rows short
            ("a,b,c,d\n1,2\n", ["--column", "d"], "line 2 has 2 fields, d is missing"),
            ("a,b,c,d\n1,2\n", ["--column", "3"], "column index 3 out of range"),
        ],
        ids=["superscript-column", "superscript-weights", "two-signs", "superscript-no-header",
             "negative-index", "narrow-header", "narrow-header-forced", "narrow-header-weights",
             "narrow-header-named-column", "wide-header-name", "wide-header-index"],
    )
    def test_column_selectors_are_3(self, runner, tmp_path, data, selectors, message):
        f = tmp_path / "data.csv"
        f.write_text(data, encoding="utf-8")
        res = runner.invoke(main, ["quantile", str(f), *selectors, "--levels", "0.5"])
        assert res.exit_code == 3
        assert message in res.stderr
        assert isinstance(res.exception, SystemExit)

    def test_quoted_fields_on_one_line_still_read(self, runner, tmp_path):
        f = tmp_path / "quoted.csv"
        f.write_text('v,note\n1.0,"a,b"\n2.0,"c ""q"" d"\n3.0,z\n')
        res = runner.invoke(main, ["quantile", str(f), "--column", "v", "--levels", "0.5"])
        assert res.exit_code == 0
        assert rows_of(res.stdout)[1] == ["0.5", "2.0", "2.0", "2.0"]

    @pytest.mark.parametrize(
        "char", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_a_row(self, runner, tmp_path, char):
        # str.splitlines breaks at these too; inside an unread cell they
        # must not turn the rest of the row into a row of its own
        with_note = tmp_path / "note.csv"
        with_note.write_text(f"v,note\n1.0,x{char}5.0\n2.0,y\n", encoding="utf-8")
        plain = tmp_path / "plain.csv"
        plain.write_text("v\n1.0\n2.0\n", encoding="utf-8")
        args = ["--column", "v", "--levels", "0.5,1"]
        res = runner.invoke(main, ["quantile", str(with_note), *args])
        want = runner.invoke(main, ["quantile", str(plain), *args])
        assert res.exit_code == want.exit_code == 0
        assert res.stdout == want.stdout


class TestSymmetryCommand:
    def test_columns_pass_and_narrative_shows_the_one_row_shift(self, runner, rain):
        res = runner.invoke(main, ["symmetry", rain, "--column", "pH", "--levels", "0.2,0.8"])
        assert res.exit_code == 0
        table = rows_of(res.stdout.split("\n\n")[0])
        assert table[1] == ["0.2", "4.8327", "4.8492", "4.8327", "4.8492", "pass"]
        assert table[2] == ["0.8", "5.2901", "5.5731", "5.2901", "5.5731", "pass"]
        assert "direct 4.8327; via reversed scale 4.8492 -> off by 1 row (row 2 vs row 3)" in res.stdout
        assert "direct 5.2901; via reversed scale 5.5731 -> off by 1 row (row 8 vs row 9)" in res.stdout

    def test_quartiles_agree_across_scales(self, runner, rain):
        res = runner.invoke(main, ["symmetry", rain, "--column", "pH", "--levels", "0.25,0.75"])
        assert res.exit_code == 0
        assert "direct 4.8492; via reversed scale 4.8492 -> same answer (row 3)" in res.stdout
        assert "direct 5.2901; via reversed scale 5.2901 -> same answer (row 8)" in res.stdout

    def test_infinite_quantiles_are_named_without_a_row(self, runner, rain):
        res = runner.invoke(main, ["symmetry", rain, "--column", "pH", "--levels", "0,1"])
        assert res.exit_code == 0
        narrative = res.stdout.split("\n\n")[1].splitlines()
        assert narrative[1:] == ["  level 0.0: -inf vs 4.7336", "  level 1.0: 5.6105 vs +inf"]

    def test_point_mass_is_fully_symmetric(self, runner, tmp_path):
        f = tmp_path / "point.csv"
        f.write_text("v\n2.5\n2.5\n2.5\n")
        res = runner.invoke(main, ["symmetry", str(f), "--column", "v", "--levels", "0.5"])
        assert res.exit_code == 0
        assert rows_of(res.stdout.split("\n\n")[0])[1] == ["0.5", "2.5", "2.5", "2.5", "2.5", "pass"]
        assert "same answer" in res.stdout


class TestTransformCommand:
    def test_decreasing_rescale_reproduces_acidity(self, runner, rain):
        res = runner.invoke(
            main,
            ["transform", rain, "--column", "pH", "--levels", "0.2",
             "--map", '{"kind":"pow10neg"}', "--side", "left"],
        )
        assert res.exit_code == 0
        row = rows_of(res.stdout)[1]
        assert row[0] == "0.2"
        assert row[1] == row[2] == "2.6723909970469035e-06"
        assert row[3] == "yes"

    def test_identity_map_is_trivially_equivariant(self, runner, rain):
        res = runner.invoke(
            main,
            ["transform", rain, "--column", "pH", "--levels", "0.5",
             "--map", '{"kind":"affine","a":1.0,"b":0.0}'],
        )
        assert res.exit_code == 0
        row = rows_of(res.stdout)[1]
        assert row[1] == row[2] and row[3] == "yes"

    def test_boundary_level_is_not_claimed(self, runner, rain):
        res = runner.invoke(
            main,
            ["transform", rain, "--column", "pH", "--levels", "0",
             "--map", '{"kind":"pow10neg"}', "--side", "left"],
        )
        assert res.exit_code == 0
        assert rows_of(res.stdout)[1] == ["0.0", "-inf", "0.0", "boundary"]

    def test_neglog10_boundary_routes_to_its_limit(self, runner, rain):
        res = runner.invoke(
            main,
            ["transform", rain, "--column", "pH", "--levels", "0.5,1",
             "--map", '{"kind":"neglog10"}', "--side", "right"],
        )
        assert res.exit_code == 0, res.stderr
        assert rows_of(res.stdout)[2] == ["1.0", "+inf", "+inf", "yes"]

    def test_map_spec_from_file(self, runner, rain, tmp_path):
        f = tmp_path / "map.json"
        f.write_text('{"kind":"affine","a":2.0,"b":1.0}')
        for arg in (str(f), "@" + str(f)):
            res = runner.invoke(
                main, ["transform", rain, "--column", "pH", "--levels", "0.5", "--map", arg]
            )
            assert res.exit_code == 0
            assert rows_of(res.stdout)[1][3] == "yes"


class TestVerifyCommand:
    def test_smoke_run_passes(self, runner):
        res = runner.invoke(main, ["verify", "--seed", "7", "--n", "1"])
        assert res.exit_code == 0
        assert "71 reports" in res.stdout and "0 failed" in res.stdout

    def test_report_file(self, runner, tmp_path):
        path = tmp_path / "report.json"
        res = runner.invoke(main, ["verify", "--seed", "7", "--n", "1", "--report", str(path)])
        assert res.exit_code == 0
        blob = json.loads(path.read_text())
        assert blob["all_passed"] is True
        assert blob["total_reports"] == 71
        assert len(blob["reports"]) == 71

    def test_injected_mutation_fails_loudly(self, runner):
        res = runner.invoke(main, ["verify", "--seed", "7", "--n", "2", "--inject-mutation"])
        assert res.exit_code == 1
        assert "first failure" in res.stderr


class TestEntryPoints:
    def test_help_lists_all_subcommands(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        for sub in ("quantile", "symmetry", "transform", "verify"):
            assert sub in res.stdout
