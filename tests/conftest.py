"""Shared fixtures: the bundled rain-acidity sample and its empirical mixtures,
the location ranges of every float scale, and faults swapped into the
verification battery."""

import csv
import math
from bisect import bisect_right

import pytest

import dualquant.quantiles
import dualquant.verify
from dualquant import breakpoints, make_empirical, rain_csv_path


@pytest.fixture(scope="session")
def rain_columns():
    """The packaged rain sample as two parallel float lists (pH, aH)."""
    with open(rain_csv_path(), newline="") as fh:
        rows = list(csv.DictReader(fh))
    ph = [float(r["pH"]) for r in rows]
    ah = [float(r["aH"]) for r in rows]
    return ph, ah


@pytest.fixture(scope="session")
def ph_dist(rain_columns):
    return make_empirical(rain_columns[0])


@pytest.fixture(scope="session")
def ah_dist(rain_columns):
    return make_empirical(rain_columns[1])


@pytest.fixture(
    params=[
        (-4.0, 4.0),
        (999990.3, 1000010.7),
        (1e15, 1e15 + 4096.3),
        (-1e300, 1e300),
        (1e-310, 3e-310),
        (-3e-310, -1e-310),
    ],
    ids=lambda r: f"{r[0]!r},{r[1]!r}",
)
def location_range(request):
    """Today's corpus range, ranges near 1e6 and 1e15, most of the float
    range, and positive and negative subnormals."""
    return request.param


def off_by_one_left_quantile(d, p):
    """A deliberately broken left quantile: every finite answer is bumped to
    the next support landmark above (one atom or endpoint too high), the
    classic off-by-one indexing slip."""
    x = dualquant.quantiles.left_quantile(d, p)  # the real one, not the battery's name
    if isinstance(x, float) and math.isinf(x):
        return x
    bps = breakpoints(d)
    i = bisect_right(bps, x)
    return bps[i] if i < len(bps) else x


@pytest.fixture
def fake_left_quantile(monkeypatch):
    """``fake_left_quantile(fn)`` makes the battery call ``fn`` as its left
    quantile for the rest of the test, and returns it.  `dualquant.verify`
    calls `left_quantile` by that name, and the shards `run_suite` forks
    inherit the patch."""

    def swap(fn):
        monkeypatch.setattr(dualquant.verify, "left_quantile", fn)
        return fn

    return swap


@pytest.fixture
def off_by_one(fake_left_quantile):
    """The battery with `off_by_one_left_quantile` as its left quantile."""
    return fake_left_quantile(off_by_one_left_quantile)
