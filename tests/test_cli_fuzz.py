"""Random input to every subcommand ends in a documented exit code (0-6),
never in an uncaught exception.

Inputs are mostly well formed, so that most examples get past parsing
and reach the quantiles and the pushforward; about one in four has one
value replaced by junk.
"""

import json

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from dualquant.cli import main

FUZZ = settings(deadline=None, database=None, derandomize=True)

values = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-1000, 1000).map(str),
    st.sampled_from(["-400", "-330", "1e308", "-1e308", "-0.0", "0.0", "5e-324"]),
)
weights = st.one_of(st.integers(1, 9).map(str), st.sampled_from(["0.5", "1/3", "2.5e-3"]))
levels = st.one_of(
    st.fractions(0, 1, max_denominator=1000).map(str),
    st.decimals(0, 1, places=3).map(str),
    st.integers(0, 100).map(lambda k: f"{k}%"),
)
# short junk keeps exact parsing cheap: "1e999999" builds a million-digit int
junk = st.one_of(
    st.sampled_from(["", "nan", "inf", "-1", "0", "1.5", "1/0", "1" + "0" * 400]),
    st.text(alphabet="0123456789.-+e/x% ", max_size=5),
)
numbers = st.one_of(
    st.floats(-1e3, 1e3), st.sampled_from([1e300, -1e300, 10.0, -10.0, 1e-300])
)
json_junk = st.sampled_from([10**400, True, "2", None, 0, float("nan"), float("inf")])

# cells for a column the command does not read, paired with whether they
# are well formed: quoted and closed on their line, or unquoted (a quote
# inside an unquoted field is a plain character); the others open a quote
# or put text after a closing one
notes = st.one_of(
    st.text(alphabet='ab ,"', max_size=4).map(lambda t: ('"' + t.replace('"', '""') + '"', True)),
    st.sampled_from(["", "a", "a b", 'a"b']).map(lambda t: (t, True)),
    st.text(alphabet="ab ,", max_size=3).map(lambda t: ('"' + t, False)),
    st.sampled_from(["b", " ", '"']).map(lambda t: ('"a"' + t, False)),
)


@st.composite
def spoiled(draw, items):
    """A list from ``items``, with one entry sometimes replaced from ``junk``."""
    out = draw(items)
    if out and draw(st.integers(0, 3)) == 0:
        out[draw(st.integers(0, len(out) - 1))] = draw(junk)
    return out


@st.composite
def piecewise_specs(draw):
    ats = sorted(set(draw(st.lists(st.floats(-10, 10), min_size=1, max_size=3))))
    rising = draw(st.booleans())
    sign = 1.0 if rising else -1.0
    bounds = ["-inf", *ats, "inf"]
    pieces = []
    intercept = draw(numbers)
    for lo, hi in zip(bounds, bounds[1:]):
        slope = sign * draw(st.sampled_from([0.0, 0.5, 1.0, 1e300]))
        if pieces:
            # start where the previous piece ended, plus a jump that is
            # usually in the map's direction
            prev = pieces[-1]
            end = prev["slope"] * lo + prev["intercept"]
            intercept = end - slope * lo + sign * draw(st.sampled_from([0.0, 1.0, -1.0]))
        pieces.append({"lo": lo, "hi": hi, "slope": slope, "intercept": intercept})
    return {
        "direction": "non_decreasing" if rising else "non_increasing",
        "breakpoints": [
            {"at": at, "continuity": draw(st.sampled_from(["left", "right"]))} for at in ats
        ],
        "pieces": pieces,
    }


@st.composite
def map_specs(draw):
    spec = draw(
        st.one_of(
            st.sampled_from(["negation", "pow10neg", "neglog10"]).map(lambda k: {"kind": k}),
            st.builds(lambda a, b: {"kind": "affine", "a": a, "b": b}, numbers, numbers),
            piecewise_specs(),
        )
    )
    if draw(st.integers(0, 3)) == 0:
        target = spec["pieces"][0] if "pieces" in spec else spec
        target[draw(st.sampled_from(sorted(target)))] = draw(json_junk)
    return spec


@pytest.fixture(scope="module")
def data_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "data.csv"


def assert_documented_exit(res):
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    assert res.exit_code in range(7)


@st.composite
def data_args(draw, path):
    cells = draw(spoiled(st.lists(values, max_size=8)))
    ws = draw(spoiled(st.lists(weights, min_size=len(cells), max_size=len(cells))))
    path.write_text("v,w\n" + "".join(f"{v},{w}\n" for v, w in zip(cells, ws)), encoding="utf-8")
    level_spec = ",".join(draw(spoiled(st.lists(levels, min_size=1, max_size=4))))
    args = [str(path), "--column", "v", "--levels", level_spec]
    return args + (["--weights", "w"] if draw(st.booleans()) else [])


@settings(FUZZ, max_examples=30)
@given(data=st.data(), as_json=st.booleans())
@pytest.mark.parametrize("command", ["quantile", "symmetry"])
def test_data_commands_end_in_a_documented_exit_code(data_path, command, data, as_json):
    args = [command, *data.draw(data_args(data_path))]
    if command == "quantile" and as_json:
        args += ["--format", "json"]
    assert_documented_exit(CliRunner().invoke(main, args))


@settings(FUZZ, max_examples=60)
@given(cells=st.lists(values, min_size=1, max_size=6), data=st.data())
def test_quotes_in_an_unread_column_read_or_exit_3_at_their_line(data_path, cells, data):
    drawn = data.draw(st.lists(notes, min_size=len(cells), max_size=len(cells)))
    data_path.write_text(
        "v,note\n" + "".join(f"{v},{n}\n" for v, (n, _) in zip(cells, drawn)), encoding="utf-8"
    )
    plain = data_path.with_name("plain.csv")
    plain.write_text("v\n" + "".join(f"{v}\n" for v in cells), encoding="utf-8")
    args = ["--column", "v", "--levels", "0,0.5,1"]
    res = CliRunner().invoke(main, ["quantile", str(data_path), *args])
    bad = [i for i, (_, ok) in enumerate(drawn) if not ok]
    if bad:
        assert res.exit_code == 3
        assert f"line {bad[0] + 2}:" in res.stderr
    else:
        ref = CliRunner().invoke(main, ["quantile", str(plain), *args])
        assert (res.exit_code, res.stdout) == (ref.exit_code, ref.stdout)


@settings(FUZZ, max_examples=120)
@given(data=st.data(), spec=map_specs(), side=st.sampled_from(["left", "right"]))
def test_transform_ends_in_a_documented_exit_code(data_path, data, spec, side):
    args = ["transform", *data.draw(data_args(data_path)), "--map", json.dumps(spec)]
    assert_documented_exit(CliRunner().invoke(main, args + ["--side", side]))


@settings(FUZZ, max_examples=5)
@given(seed=st.integers(-(10**6), 10**9))
def test_verify_ends_in_a_documented_exit_code(seed):
    assert_documented_exit(CliRunner().invoke(main, ["verify", "--n", "1", "--seed", str(seed)]))
