"""Command-line behavior: outputs, formats, and the documented exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from pathlib import Path

import pytest
from click.testing import CliRunner

import dualquant.cli
import dualquant.distributions
import dualquant.quantiles
import dualquant.verify
from dualquant import rain_csv_path
from dualquant.cli import _load_column, main

GEN_CSV = Path(__file__).resolve().parents[1] / "tools" / "gen_csv.py"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def rain():
    return str(rain_csv_path())


NARROW_HEADER = "line 1 has 2 fields, column 3 is missing"
# Python's int digit limit; 0 where int has none (before 3.10.7, or unset)
INT_LIMIT = getattr(sys, "get_int_max_str_digits", int)()
needs_int_limit = pytest.mark.skipif(not INT_LIMIT, reason="int has no digit limit")
# the data file's column v at one level, for the refusal table
READ_V = ["{data}", "--column", "v", "--levels", "0.5"]


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

    @pytest.mark.parametrize(
        "data, args",
        [
            # headerless: the mark must not make the first row read as a header
            ("1.0\n2.0\n3.0\n4.0\n", ["--levels", "0.25,0.5"]),
            # with a header: the first name must not carry the mark
            ("value,w\n1.0,1\n2.0,3\n", ["--column", "value", "--weights", "w", "--levels", "0.5"]),
        ],
        ids=["headerless", "header-name"],
    )
    def test_a_byte_order_mark_is_not_data(self, runner, tmp_path, data, args):
        plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(data, encoding="utf-8")
        marked.write_text(data, encoding="utf-8-sig")
        want = runner.invoke(main, ["quantile", str(plain), *args])
        res = runner.invoke(main, ["quantile", str(marked), *args])
        assert res.exit_code == want.exit_code == 0, res.stderr
        assert res.stdout == want.stdout

    def test_a_header_name_wins_over_an_index(self, runner, tmp_path):
        # on a header row `1,0`, the selector 0 names the second column;
        # a selector no header cell spells is an index
        f = tmp_path / "digits.csv"
        f.write_text("1,0\n5,7\n6,8\n")
        got = {}
        for selector in ("0", "1", "-0"):
            res = runner.invoke(
                main,
                ["quantile", str(f), "--header", "--column", selector, "--levels", "1",
                 "--format", "json"],
            )
            assert res.exit_code == 0, res.stderr
            out = json.loads(res.stdout)
            got[selector] = (out["column"], out["rows"][0]["left"])
        assert got == {"0": ("0", 8.0), "1": ("1", 6.0), "-0": ("1", 6.0)}


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

    def test_weights_past_the_count_budget_are_3_naming_the_column(
        self, runner, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(dualquant.distributions, "MAX_COUNT_BITS", 7)
        f = tmp_path / "w.csv"
        f.write_text("v,w\n1.0,1/3\n2.0,1/5\n")
        read = [str(f), "--column", "v", "--weights", "w", "--levels"]
        negation = ["--map", '{"kind":"negation"}']
        for command in (["quantile"], ["symmetry"], ["transform", *negation]):
            res = runner.invoke(main, [*command, *read, "0.5"])
            assert res.exit_code == 3, command
            assert res.stderr == (
                f"error: {f}: weight column 'w': the weights' common denominator has 4 bits, "
                "too many for 2 distinct values (at most 7 bits in all)\n"
            )
        # a bad level is reported first, and before it transform's bad map
        assert runner.invoke(main, ["quantile", *read, "2"]).exit_code == 4
        res = runner.invoke(main, ["transform", "--map", '{"kind":"nope"}', *read, "2"])
        assert res.exit_code == 5

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

    @needs_int_limit
    def test_a_weight_past_the_int_digit_limit_is_3_naming_the_limit(self, runner, tmp_path):
        limit = INT_LIMIT
        f = tmp_path / "w.csv"
        f.write_text(f"v,w\n1.0,1\n2.0,{'7' * (limit + 700)}\n")
        res = runner.invoke(
            main, ["quantile", str(f), "--column", "v", "--weights", "w", "--levels", "0.5"]
        )
        assert res.exit_code == 3
        assert res.stderr == (
            f"error: {f}: line 3, w: weight holds a {limit + 700}-digit number, past Python's "
            f"int limit of {limit} digits (sys.get_int_max_str_digits())\n"
        )

    @needs_int_limit
    def test_a_level_past_the_int_digit_limit_is_4_naming_the_limit(self, runner, rain):
        limit = INT_LIMIT
        levels = f"0.5,1/{'3' * (limit + 700)}"
        res = runner.invoke(main, ["quantile", rain, "--column", "pH", "--levels", levels])
        assert res.exit_code == 4
        assert res.stderr == (
            f"error: level #2 holds a {limit + 700}-digit number, past Python's int limit "
            f"of {limit} digits (sys.get_int_max_str_digits())\n"
        )
        # a malformed token with a long run of digits is only unparseable
        res = runner.invoke(main, ["quantile", rain, "--column", "pH", "--levels", "x" + levels])
        assert res.exit_code == 4
        assert "cannot parse level 'x0.5'" in res.stderr

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
        # a right-owned jump below the pH data, and one inside it
        for at in (0.5, 5.0):
            spec = json.dumps(
                {
                    "direction": "non_decreasing",
                    "breakpoints": [{"at": at, "continuity": "right"}],
                    "pieces": [
                        {"lo": "-inf", "hi": at, "slope": 1.0, "intercept": 0.0},
                        {"lo": at, "hi": "inf", "slope": 1.0, "intercept": 1.0},
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
            (["quantile", *READ_V], b"v,w\n1.0,x\n2.0," + b"y" * 140_000 + b"\n", 3,
             "line 3: field larger than field limit"),
            (["quantile", "--delimiter", "ab", *READ_V], b"v\n1.0\n", 2, "1-character string"),
            (["quantile", "--delimiter", "", *READ_V], b"v\n1.0\n", 2, "1-character string"),
            (["quantile", *READ_V], b"v\n1.0\n\xe92.0\n", 2, "cannot read"),
            (["quantile", *READ_V], b"\xef\xbb\xbfv\n1.0\n\xe92.0\n", 2, "cannot read"),
            (["quantile", *READ_V], b"", 3, "file has no rows"),
            (["quantile", "{data}", "--levels", "0.5"], b"", 3, "file has no rows"),
            (["transform", "--map", "@{map}", *READ_V], b"v\n1.0\n", 2, "cannot read map file"),
            # nested past the recursion limit, and an int past 4300 digits
            # (braces doubled for str.format)
            (["transform", "--map", '{{"kind":' + "[" * 100_000, *READ_V], b"v\n1.0\n", 5,
             "map spec is not valid JSON"),
            (["transform", "{data}", "--levels", "0.5", "--map", "@{deep}"], b"1.0\n2.0\n3.0\n4.0\n", 5,
             "map spec is not valid JSON"),
            (["transform", "--map", '{{"kind":"affine","a":1,"b":1' + "0" * 4999 + "}}", *READ_V],
             b"v\n1.0\n", 5, "map spec is not valid JSON"),
            (["verify", "--n", "1", "--report", "{data}.missing/report.json"], b"", 2,
             "cannot write"),
        ],
        ids=["over-long-field", "two-char-delimiter", "empty-delimiter", "data-not-utf8",
             "data-not-utf8-after-a-bom", "empty-file", "empty-file-unnamed-column", "map-not-utf8",
             "map-nested-too-deep", "map-file-nested-too-deep", "map-int-too-long",
             "report-dir-missing"],
    )
    def test_malformed_input_exits_without_a_traceback(
        self, runner, tmp_path, command, data, code, message
    ):
        f = tmp_path / "data.csv"
        f.write_bytes(data)
        map_file = tmp_path / "map.json"
        map_file.write_bytes(b'{"kind": "neg\xe9"}')
        deep_map = tmp_path / "deep.json"
        deep_map.write_text('{"kind":' + "[" * 100_000 + "\n")
        res = runner.invoke(main, [a.format(map=map_file, deep=deep_map, data=f) for a in command])
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


B = dualquant.cli._BLOCK_ROWS


def spanning(header, row, edits):
    """The bytes of a file three blocks and five rows long: ``header``, then
    ``row(i)`` for data row i (on line i + 2), or ``edits[i]`` in its place."""
    lines = [header, *(edits.get(i, row(i)) for i in range(3 * B + 5))]
    return "".join(line + "\n" for line in lines).encode()


def spy_on_rows(monkeypatch):
    """Record the line numbers that each call of ``_nonblank_rows`` yields: the
    header's reader first, then each per-row loop."""
    calls = []
    nonblank_rows = dualquant.cli._nonblank_rows

    def spy(*args):
        calls.append(yielded := [])
        for line_num, row in nonblank_rows(*args):
            yielded.append(line_num)
            yield line_num, row

    monkeypatch.setattr(dualquant.cli, "_nonblank_rows", spy)
    return calls


# (id, file bytes, the quantile options after the file, whether the blocks
# take every data row, so that the per-row loop yields none)
READER_CASES = [
    ("plain", b"v\n3.0\n1.0\n2.0\n1.0\n", ["--column", "v"], True),
    ("int-weights", b"v,w\n1.0,3\n2.0,5\n1.0,07\n", ["--column", "v", "--weights", "w"], True),
    ("field-past-the-limit", b"v,w\n1.0,x\n2.0," + b"y" * 140_000 + b"\n", ["--column", "v"], False),
    ("quote-open-on-its-line", b'v,note\n1.0,x\n2.0,"y\n3.0,z\n', ["--column", "v"], False),
    ("quote-closed-a-line-later", b'v,note\n1.0,x\n2.0,"y\n3.0,z"\n4.0,w\n', ["--column", "v"],
     False),
    ("x1c-in-a-cell", b"v,note\n1.0,x\x1c5.0\n2.0,y\n", ["--column", "v"], True),
    # str.strip drops \x1c, float does not
    ("x1c-after-a-value", b"v,note\n1.0,x\n2.0\x1c,y\n", ["--column", "v"], False),
    ("form-feed-in-a-cell", b"v,note\n1.0,x\x0c5.0\n\x0c2.0,y\n", ["--column", "v"], True),
    ("blank-row", b"v\n1.0\n\n2.0\n", ["--column", "v"], True),
    ("whitespace-row", b"v,w\n1.0,2\n  , \n2.0,3\n", ["--column", "v", "--weights", "w"], False),
    ("trailing-blank-lines", b"v\n1.0\n2.0\n\n\n", ["--column", "v"], True),
    ("crlf", b"v,w\r\n1.0,2\r\n2.0,3\r\n", ["--column", "v", "--weights", "w"], True),
    ("bom", b"\xef\xbb\xbfv\n1.0\n2.0\n", ["--column", "v"], True),
    ("nul-in-an-unread-cell", b"v,note\n1.0,a\x00b\n2.0,c\n", ["--column", "v"], True),
    ("nul-in-a-value", b"v\n1.0\n2\x00.0\n", ["--column", "v"], False),
    ("nan", b"v\n1.0\nnan\n", ["--column", "v"], False),
    ("inf", b"v\n1.0\n-inf\n2.0\n", ["--column", "v"], False),
    *((f"weight-{cell.strip() or 'spaces'}", f"v,w\n1.0,2\n2.0,{cell}\n3.0,1\n".encode(),
       ["--column", "v", "--weights", "w"], False)
      for cell in ["1_0", "+5", " 5 ", "0", "1/3", "0.5"]),
    ("short-row", b"v,w\n1.0,2\n3.0\n", ["--column", "v", "--weights", "w"], False),
    ("quoted-cells", b'v,note\n"1.5","a,b"\n2.5,"c ""q"""\n', ["--column", "v"], True),
    ("no-header", b"1.0\n2.0\n3.0\n", ["--no-header"], True),
    ("weights-are-the-values", b"v\n3\n5\n3\n", ["--column", "v", "--weights", "v"], True),
    ("bad-value-in-block-3", spanning("v", "{}.5".format, {2 * B + 7: "x"}), ["--column", "v"],
     False),
    ("quote-across-blocks", spanning("v,note", "{}.5,n".format, {B - 1: '1.5,"y', B: 'z"'}),
     ["--column", "v"], False),
    ("decimal-weight-in-block-2",
     spanning("v,w", lambda i: f"{i}.5,{i % 9 + 1}", {B + 3: "7.5,0.5"}),
     ["--column", "v", "--weights", "w"], False),
    ("blank-line-mid-block", spanning("v", "{}.5".format, {B + B // 2: ""}), ["--column", "v"],
     True),
]


class TestBlockReader:
    """The blocks and the per-row loop give the same answers and errors."""

    @pytest.mark.parametrize("data, args, takes_blocks", [c[1:] for c in READER_CASES],
                             ids=[c[0] for c in READER_CASES])
    def test_both_readers_print_the_same(self, runner, tmp_path, monkeypatch, data, args,
                                         takes_blocks):
        f = tmp_path / "data.csv"
        f.write_bytes(data)
        argv = ["quantile", str(f), *args, "--levels", "0,0.25,0.5,1"]
        calls = spy_on_rows(monkeypatch)
        shipped = runner.invoke(main, argv)
        monkeypatch.setattr(dualquant.cli, "_BLOCK_ROWS", 0)  # no block is taken
        per_row = runner.invoke(main, argv)
        assert (calls[1] == []) == takes_blocks
        assert (shipped.stdout, shipped.stderr, shipped.exit_code) == (
            per_row.stdout, per_row.stderr, per_row.exit_code)
        assert isinstance(per_row.exception, SystemExit) or per_row.exception is None

    @pytest.mark.parametrize("case, message", [
        ("bad-value-in-block-3", f"line {2 * B + 9}, v: cannot parse 'x' as a number"),
        ("quote-across-blocks", f"line {B + 1}: quoted field is not closed on its line"),
    ])
    def test_an_error_past_the_first_block_names_its_line(self, runner, tmp_path, case, message):
        f = tmp_path / "data.csv"
        f.write_bytes({c[0]: c[1] for c in READER_CASES}[case])
        res = runner.invoke(main, ["quantile", str(f), "--column", "v", "--levels", "0.5"])
        assert res.exit_code == 3
        assert res.stderr == f"error: {f}: {message}\n"

    def test_the_per_row_loop_reads_on_from_the_block_refused(self, tmp_path, monkeypatch):
        f = tmp_path / "data.csv"
        n = 3 * B + 5
        f.write_bytes(spanning("v,w", lambda i: f"{i}.5,{i % 9 + 1}", {3 * B + 2: "7.5,0.5"}))
        calls = spy_on_rows(monkeypatch)
        values, weights, _ = _load_column(str(f), "v", "w", ",", None)
        # the last block's first data row is on line 3 * B + 2
        assert calls[1] == list(range(3 * B + 2, n + 2))
        assert values == [7.5 if i == 3 * B + 2 else i + 0.5 for i in range(n)]
        assert weights == [Fraction(1, 2) if i == 3 * B + 2 else i % 9 + 1 for i in range(n)]

    def test_blocks_cover_a_column_longer_than_one(self, tmp_path):
        f = tmp_path / "long.csv"
        n = 3 * dualquant.cli._BLOCK_ROWS + 5
        f.write_text("v,w\n" + "".join(f"{i}.5,{i % 9 + 1}\n" for i in range(n)))
        values, weights, label = _load_column(str(f), "v", "w", ",", None)
        assert values == [i + 0.5 for i in range(n)]
        assert weights == [i % 9 + 1 for i in range(n)]
        assert label == "v"


class TestSymmetryCommand:
    def test_columns_pass_and_narrative_shows_the_one_row_shift(self, runner, rain):
        res = runner.invoke(main, ["symmetry", rain, "--column", "pH", "--levels", "0.2,0.8"])
        assert res.exit_code == 0
        table = rows_of(res.stdout.split("\n\n")[0])
        assert table[1] == ["0.2", "4.8327", "4.8492", "4.8327", "4.8492", "pass"]
        assert table[2] == ["0.8", "5.2901", "5.5731", "5.2901", "5.5731", "pass"]
        assert "direct 4.8327; via reversed scale 4.8492 -> off by 1 row (row 2 vs row 3)" in res.stdout
        assert "direct 5.2901; via reversed scale 5.5731 -> off by 1 row (row 8 vs row 9)" in res.stdout

    def test_a_failing_identity_exits_1_naming_its_levels(self, runner, rain, monkeypatch):
        # the mirror's left quantile comes out one too high at every level
        right = dualquant.quantiles.right_quantile
        monkeypatch.setattr(dualquant.quantiles, "right_quantile", lambda d, p: right(d, p) + 1)
        for levels, named in ("0.5", "level 0.5"), ("0.2,0.8", "levels 0.2, 0.8"):
            res = runner.invoke(main, ["symmetry", rain, "--column", "pH", "--levels", levels])
            assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
            table = rows_of(res.stdout.split("\n\n")[0])
            assert [row[-1] for row in table[1:]] == ["FAIL"] * len(levels.split(","))
            assert res.stderr == f"error: the negation identity fails at {named}\n"

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

    def test_map_file_with_a_byte_order_mark(self, runner, rain, tmp_path):
        f = tmp_path / "map.json"
        f.write_text('{"kind":"affine","a":2.0,"b":1.0}', encoding="utf-8-sig")
        res = runner.invoke(
            main, ["transform", rain, "--column", "pH", "--levels", "0.5", "--map", "@" + str(f)]
        )
        assert res.exit_code == 0, res.stderr
        assert rows_of(res.stdout)[1][3] == "yes"

    @pytest.mark.parametrize("direction, pieces", [
        ("non_decreasing", [("-inf", 1.0, 0.0, -0.0), (1.0, "inf", 1.0, -1.0)]),
        ("non_increasing", [("-inf", -1.0, -1.0, -1.0), (-1.0, "inf", -0.0, -0.0)]),
    ])
    def test_a_flat_piece_keeps_the_sign_of_its_zero(self, runner, tmp_path, direction, pieces):
        # both levels route a point of the flat piece, one below 0 and one above
        data = tmp_path / "data.csv"
        data.write_text("v\n-0.6\n-0.2\n0.2\n0.4\n0.6\n")
        spec = {"direction": direction,
                "breakpoints": [{"at": pieces[0][1], "continuity": "left"}],
                "pieces": [dict(zip(("lo", "hi", "slope", "intercept"), p)) for p in pieces]}
        res = runner.invoke(main, ["transform", str(data), "--column", "v", "--levels", "0.3,0.7",
                                   "--map", json.dumps(spec)])
        assert res.exit_code == 0, res.stderr
        assert rows_of(res.stdout)[1:] == [[p, "-0.0", "-0.0", "yes"] for p in ("0.3", "0.7")]


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

    def test_injected_mutation_fails_loudly(self, runner, off_by_one):
        for seed in (["--seed", "7"], []):
            res = runner.invoke(main, ["verify", *seed, "--n", "2"])
            assert res.exit_code == 1
            assert "first failure" in res.stderr

    @pytest.mark.parametrize("where", ["missing/report.json", "."], ids=["dir-missing", "a-dir"])
    def test_an_unwritable_report_is_refused_before_the_run(
        self, runner, tmp_path, monkeypatch, where
    ):
        calls = []
        monkeypatch.setattr(dualquant.verify, "run_suite", lambda *a, **kw: calls.append(a))
        path = tmp_path / where
        res = runner.invoke(main, ["verify", "--n", "30", "--report", str(path)])
        assert res.exit_code == 2
        assert f"cannot write {path}" in res.stderr
        assert calls == [] and res.stdout == ""


class TestEntryPoints:
    def test_help_lists_all_subcommands(self, runner):
        res = runner.invoke(main, ["--help"])
        assert res.exit_code == 0
        for sub in ("quantile", "symmetry", "transform", "verify"):
            assert sub in res.stdout

    def test_the_smoke_script_that_ci_runs_passes(self):
        smoke = [sys.executable, str(GEN_CSV.with_name("smoke.py")), "--rows", "10000", "--"]
        src = str(Path(dualquant.cli.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        res = subprocess.run([*smoke, sys.executable, "-m", "dualquant"],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stdout[-2000:] + res.stderr
        assert res.stdout.splitlines()[-1] == "smoke: every check passed"


def fraction_cdf(path, weighted):
    """The distribution function of a generated file by the plain definition:
    pool each value's exact weight under the first equal value seen, sort,
    and add up the Fraction masses."""
    pooled = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            x = float(row["value"])
            pooled[x] = pooled.get(x, Fraction(0)) + Fraction(row["weight"] if weighted else 1)
    xs = sorted(pooled)
    total = sum(pooled.values())
    return xs, list(accumulate(pooled[x] / total for x in xs))


def bits(x):
    return x if isinstance(x, str) else float(x).hex()


class TestGeneratedData:
    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_quantiles_match_a_fraction_reference_bit_for_bit(self, runner, tmp_path, weighted):
        gen = [sys.executable, str(GEN_CSV), "--rows", "20000", "--seed", "5"]
        gen += ["--weights"] if weighted else []
        data = tmp_path / "data.csv"
        data.write_text(subprocess.run(gen, capture_output=True, text=True, check=True).stdout)
        xs, cum = fraction_cdf(data, weighted)
        # F at one data value is a level with a flat stretch [lq, rq)
        flat = cum[len(cum) // 3]
        levels = [Fraction(t) for t in ("0", "0.001", "0.1", "1/3", "0.5", "0.9", "0.999", "1")]
        levels.append(flat)
        spec = ",".join(f"{p.numerator}/{p.denominator}" for p in levels)
        want = [
            (bits("-inf" if p == 0 else xs[bisect_left(cum, p)]),
             bits("+inf" if p == 1 else xs[bisect_right(cum, p)]))
            for p in levels
        ]
        assert want[-1][0] != want[-1][1]
        args = ["quantile", str(data), "--column", "value", "--levels", spec, "--format", "json"]
        res = runner.invoke(main, args + (["--weights", "weight"] if weighted else []))
        assert res.exit_code == 0, res.stderr
        got = [(bits(r["left"]), bits(r["right"])) for r in json.loads(res.stdout)["rows"]]
        assert got == want
        # the generator's own reference, which CI checks the 1e6-row file against
        ref = subprocess.run(gen + ["--reference", spec], capture_output=True, text=True, check=True)
        assert [(bits(r["left"]), bits(r["right"])) for r in json.loads(ref.stdout)["rows"]] == want

    def test_transform_flips_the_reference_bit_for_bit(self, runner, tmp_path):
        gen = [sys.executable, str(GEN_CSV), "--rows", "20000", "--seed", "5", "--weights"]
        data = tmp_path / "data.csv"
        data.write_text(subprocess.run(gen, capture_output=True, text=True, check=True).stdout)
        xs, cum = fraction_cdf(data, True)
        levels = [Fraction(t) for t in ("0", "0.001", "0.1", "1/3", "0.5", "0.9", "0.999", "1")]
        levels.append(1 - cum[len(cum) // 3])  # 1 - p is a level with a flat stretch
        spec = ",".join(f"{p.numerator}/{p.denominator}" for p in levels)
        lq = [-math.inf if p == 1 else xs[bisect_left(cum, 1 - p)] for p in levels]
        # the right quantile of -3x + 0.5 at p is the image of lq(1 - p)
        want = [(bits(-3.0 * x + 0.5), "yes") for x in lq]
        args = ["transform", str(data), "--column", "value", "--weights", "weight", "--levels", spec,
                "--map", '{"kind":"affine","a":-3,"b":0.5}', "--side", "right"]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.stderr
        table = [line.split() for line in res.stdout.splitlines()[1:]]
        assert [(bits(float(row[1])), row[3]) for row in table] == want

    @pytest.mark.parametrize("levels", ["x", "50%", "1/0"])
    def test_generator_refuses_a_bad_reference_level(self, levels):
        gen = [sys.executable, str(GEN_CSV), "--rows", "3", "--reference", levels]
        res = subprocess.run(gen, capture_output=True, text=True)
        assert res.returncode == 2
        assert res.stderr.startswith("usage:") and "Traceback" not in res.stderr

    def test_digit_weight_cells_are_read_as_ints(self, tmp_path):
        data = tmp_path / "w.csv"
        data.write_text("value,weight\n1.0,3\n2.0,0.5\n3.0, 07 \n4.0,1/3\n")
        _, ws, _ = _load_column(str(data), "value", "weight", ",", None)
        assert ws == [3, Fraction(1, 2), 7, Fraction(1, 3)]
        assert [type(w) for w in ws] == [int, Fraction, int, Fraction]
