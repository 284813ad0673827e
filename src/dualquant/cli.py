"""Command-line front end.

stdout carries data, stderr carries diagnostics.  Exit codes:
0 success / all checks passed, 1 verification failures (``verify``, or
``symmetry`` where the negation identity fails), 2 unreadable
input, 3 malformed data (message names line and column), 4 invalid
level, 5 bad map description or map not applicable, 6 the map's
one-sided continuity cannot support the requested quantile side.

Each command imports the library code it runs when it runs, so
``--help`` loads none of it and ``quantile`` loads no map or verifier.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
import time
from bisect import bisect_left
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import TYPE_CHECKING

import click

from .errors import (
    ContinuityMismatchError,
    MapDomainError,
    MapSpecError,
    UnsupportedPushforwardError,
)

if TYPE_CHECKING:  # read only in annotations; --help need not import it
    from fractions import Fraction

EXIT_IO = 2
EXIT_PARSE = 3
EXIT_LEVEL = 4
EXIT_MAP = 5
EXIT_CONTINUITY = 6


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _print_table(headers: list[str], rows: list[list[str]]) -> None:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h) for i, h in enumerate(headers)]
    click.echo("  ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip())
    for r in rows:
        click.echo("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())


def _past_int_limit(token: str) -> str | None:
    # why a well-formed number fails to parse when only Python's int digit
    # limit stops it, else None: with each run of digits past the limit cut
    # to one digit, the token must parse
    limit = getattr(sys, "get_int_max_str_digits", int)()  # 0, no limit, before 3.10.7
    too_long = re.compile(rf"\d{{{limit + 1},}}")
    runs = too_long.findall(token) if limit else ()
    if not runs:
        return None
    from .distributions import as_exact

    try:
        as_exact(too_long.sub("1", token))
    except ValueError:
        return None
    return (f"holds a {max(map(len, runs))}-digit number, past Python's int limit "
            f"of {limit} digits (sys.get_int_max_str_digits())")


def _parse_levels(spec: str) -> list[Fraction]:
    from .distributions import as_exact

    out = []
    for k, raw in enumerate(spec.split(","), 1):
        tok = raw.strip()
        if not tok:
            _fail(EXIT_LEVEL, f"empty level in {spec!r}")
        denom = 1
        if tok.endswith("%"):
            tok = tok[:-1].strip()
            denom = 100
        try:
            level = as_exact(tok) / denom
        except ValueError:
            why = _past_int_limit(tok)
            _fail(EXIT_LEVEL, f"level #{k} {why}" if why else f"cannot parse level {raw.strip()!r}")
        if not 0 <= level <= 1:
            _fail(EXIT_LEVEL, f"level {raw.strip()!r} lies outside [0, 1]")
        out.append(level)
    return out


def _as_index(selector: str):
    # the index a selector names, or None for a column name; the int()
    # that reads an index decides, so '²' (a digit to str.isdigit) is a name
    try:
        return int(selector)
    except ValueError:
        return None


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _resolve_column(selector: str, header_row, n_cols: int, path: str) -> int:
    if header_row is not None and selector in header_row:
        return header_row.index(selector)
    idx = _as_index(selector)
    if idx is None:
        hint = f"header row is {header_row}" if header_row else "the file has no header row"
        _fail(EXIT_PARSE, f"{path}: unknown column {selector!r} ({hint})")
    if not 0 <= idx < n_cols:
        _fail(EXIT_PARSE, f"{path}: column index {idx} out of range (file has {n_cols} columns)")
    return idx


def _read_text(path: str, kind: str = "") -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")  # a leading BOM is not text
    except (OSError, UnicodeDecodeError) as exc:
        _fail(EXIT_IO, f"cannot read {kind}{path}: {getattr(exc, 'strerror', None) or exc}")


def _nonblank_rows(lines, delimiter: str, path: str, skipped: int = 0):
    # the non-blank rows after the first ``skipped`` lines, with their line
    # numbers, read one at a time; a record ends on the line it starts on, so
    # an unclosed quote fails there instead of joining the lines after it
    reader = csv.reader(islice(lines, skipped, None), delimiter=delimiter, strict=True)
    start = skipped + 1
    try:
        for row in reader:
            if skipped + reader.line_num != start:
                _fail(EXIT_PARSE, f"{path}: line {start}: quoted field is not closed on its line")
            if "".join(row).strip():
                yield start, row
            start = skipped + reader.line_num + 1
    except csv.Error as exc:
        _fail(EXIT_PARSE, f"{path}: line {start}: {exc}")


_BLOCK_ROWS = 512  # rows per block until one needs the per-row loop; 4096 took 1 MiB more, no faster


def _load_column(path: str, column: str, weights, delimiter: str, header):
    """Read one value column (and optional weight column) from a
    delimited text file.  Returns (values, weights-or-None, column label)."""
    from .distributions import as_exact

    # read_text has turned \r\n and \r into \n, the one line break left;
    # splitlines would also break at \f, \x1c, U+2028 and the like inside a cell
    lines = _read_text(path).split("\n")
    # the header row is stripped whole, a data row only in the cells read below
    rows = _nonblank_rows(lines, delimiter, path)
    first = next(rows, None)
    if first is None:
        _fail(EXIT_PARSE, f"{path}: file has no rows")

    named = [s for s in (column, weights) if s is not None and _as_index(s) is None]
    if header is None:
        if named:
            header = True
        else:
            idx = _as_index(column)
            cells = first[1]
            header = not (0 <= idx < len(cells) and _is_number(cells[idx].strip()))
    if header:
        header_line, header_row = first[0], [c.strip() for c in first[1]]
        first = next(rows, None)
    else:
        header_row = None
    if named and header_row is None:
        _fail(EXIT_PARSE, f"{path}: column {named[0]!r} needs a header row, but --no-header was given")
    if first is None:
        _fail(EXIT_PARSE, f"{path}: no data rows")

    n_cols = len(first[1])
    ci = _resolve_column(column, header_row, n_cols, path)
    wi = _resolve_column(weights, header_row, n_cols, path) if weights is not None else None
    width = 1 + max(i for i in (ci, wi) if i is not None)  # the fields a row must have
    if header_row is not None and len(header_row) < width:
        missing = ci if ci >= len(header_row) else wi
        _fail(EXIT_PARSE, f"{path}: line {header_line} has {len(header_row)} fields, column {missing} is missing")
    col_label = header_row[ci] if header_row else f"column {ci}"
    w_label = (header_row[wi] if header_row else f"column {wi}") if wi is not None else None

    # blocks of rows from the first data line on (the rows of empty lines
    # dropped), each taken whole, until one holds a row the per-row loop must
    # read: short, past its line or a csv.Error, a value that is not a finite
    # float, or a weight that is not a positive all-digit int
    values: list[float] = []
    wvals: list[int | Fraction] = []
    skipped = first[0] - 1  # the lines before the first data line
    reader = csv.reader(islice(lines, skipped, None), delimiter=delimiter, strict=True)
    taken = 0  # the lines read in the blocks taken
    try:
        while block := list(islice(reader, _BLOCK_ROWS)):
            if reader.line_num - taken != len(block):
                break
            if min(map(len, block)) < width:
                block = list(filter(None, block))  # the rows of empty lines
                if min(map(len, block), default=width) < width:
                    break
            vs = list(map(float, map(itemgetter(ci), block)))
            if not all(map(math.isfinite, vs)):
                break
            if wi is not None:
                cells = list(map(itemgetter(wi), block))
                digits = "".join(cells)
                if digits and not (digits.isascii() and digits.isdigit()):
                    break
                ws = list(map(int, cells))  # an empty cell raises here
                if 0 in ws:
                    break
                wvals += ws
            values += vs
            taken = reader.line_num
    except (csv.Error, ValueError):
        pass
    # then row by row from the first line not taken, the one source of this
    # column's error messages
    for line_num, row in _nonblank_rows(lines, delimiter, path, skipped + taken):
        if len(row) < width:
            label = col_label if ci >= len(row) else w_label
            _fail(EXIT_PARSE, f"{path}: line {line_num} has {len(row)} fields, {label} is missing")
        cell = row[ci].strip()
        try:
            v = float(cell)
        except ValueError:
            _fail(EXIT_PARSE, f"{path}: line {line_num}, {col_label}: cannot parse {cell!r} as a number")
        if not math.isfinite(v):
            _fail(EXIT_PARSE, f"{path}: line {line_num}, {col_label}: {cell!r} is not finite")
        values.append(v)
        if wi is not None:
            wcell = row[wi].strip()
            try:
                # an all-digit cell is read as an int, the common weight,
                # without the regex; make_empirical takes it as it is
                w = int(wcell) if wcell.isascii() and wcell.isdigit() else as_exact(wcell)
            except ValueError:
                why = _past_int_limit(wcell)
                _fail(EXIT_PARSE, f"{path}: line {line_num}, {w_label}: "
                      + (f"weight {why}" if why else f"cannot parse weight {wcell!r}"))
            if w.numerator <= 0:
                _fail(EXIT_PARSE, f"{path}: line {line_num}, {w_label}: weight must be positive, got {wcell!r}")
            wvals.append(w)
    return values, (wvals if wi is not None else None), col_label


def _load_data(path: str, column: str, weights, delimiter: str, header, levels_spec: str):
    """Read the column, then the levels; return (mixture, levels, column label)."""
    from .distributions import make_empirical
    from .errors import BadWeightError

    values, wvals, label = _load_column(path, column, weights, delimiter, header)
    levels = _parse_levels(levels_spec)
    try:
        d = make_empirical(values, wvals)
    except BadWeightError as exc:
        _fail(EXIT_PARSE, f"{path}: weight column {weights!r}: {exc}")
    return d, levels, label


def _check_delimiter(ctx, param, value: str) -> str:
    try:
        csv.reader((), delimiter=value)
    except (TypeError, ValueError) as exc:
        raise click.BadParameter(str(exc)) from None
    return value


def _data_options(f):
    for option in reversed(
        (
            click.option("--column", default="0", show_default=True,
                         help="value column: a header name, else a 0-based index read by int()"),
            click.option("--weights", default=None,
                         help="optional weight column: a header name, else a 0-based index read by int()"),
            click.option("--delimiter", default=",", show_default=True, callback=_check_delimiter,
                         help="field delimiter"),
            click.option("--header/--no-header", "header", default=None,
                         help="treat the first row as a header (default: autodetect)"),
            click.option("--levels", "levels_spec", required=True,
                         help="comma-separated levels in [0,1]; percent forms like '25%' work too"),
        )
    ):
        f = option(f)
    return f


@click.group()
def main():
    """Dual (left/right) quantiles of empirical data, computed exactly."""


@main.command()
@click.argument("data_file")
@_data_options
@click.option("--format", "fmt", type=click.Choice(["text", "json"]), default="text",
              show_default=True, help="output format")
def quantile(data_file, column, weights, delimiter, header, levels_spec, fmt):
    """Print left and right quantiles of one data column.

    The 'traditional' column repeats the left quantile, which is what
    the everyday inf-based definition computes.
    """
    from .distributions import format_extended
    from .quantiles import quantile_pair

    d, levels, label = _load_data(data_file, column, weights, delimiter, header, levels_spec)
    pairs = [quantile_pair(d, p) for p in levels]
    if fmt == "json":
        rows = []
        for p, pair in zip(levels, pairs):
            # JSON has no infinities; they go out in their text form
            left, right = (
                x if math.isfinite(x) else format_extended(x) for x in (pair.left, pair.right)
            )
            rows.append({"level": float(p), "left": left, "right": right, "traditional": left})
        payload = {"source": data_file, "column": label, "rows": rows}
        click.echo(json.dumps(payload, indent=2))
        return
    rows = [
        [*map(format_extended, (float(p), pair.left, pair.right, pair.left))]
        for p, pair in zip(levels, pairs)
    ]
    _print_table(["level", "left", "right", "traditional"], rows)


def _row_position(d, x):
    # 1-based rank of x among the distinct sorted data values, if it is one
    from .distributions import breakpoints

    bps = breakpoints(d)
    i = bisect_left(bps, x)
    return i + 1 if i < len(bps) and bps[i] == x else None


@main.command()
@click.argument("data_file")
@_data_options
def symmetry(data_file, column, weights, delimiter, header, levels_spec):
    """Demonstrate the left/right mirror identities on one data column.

    For each level p the table shows lq(p) and rq(p) next to the same
    quantities recovered from the negated data at 1-p; the final column
    confirms lq(p) == -rq(-X, 1-p) and rq(p) == -lq(-X, 1-p).  A
    narrative then contrasts the traditional (left) quantile with what
    the traditional definition yields on a reversed scale: the two
    disagree precisely over flat stretches of the distribution
    function, typically landing one data row apart.
    """
    from .distributions import format_extended, negate
    from .quantiles import left_quantile, quantile_pair, right_quantile

    d, levels, label = _load_data(data_file, column, weights, delimiter, header, levels_spec)
    nd = negate(d)
    pairs = [quantile_pair(d, p) for p in levels]
    rows = []
    failed = []  # the levels where the identity fails
    for q in pairs:
        mirror_lq = -right_quantile(nd, 1 - q.level)
        mirror_rq = -left_quantile(nd, 1 - q.level)
        ok = q.left == mirror_lq and q.right == mirror_rq
        if not ok:
            failed.append(format_extended(float(q.level)))
        rows.append(
            [*map(format_extended, (float(q.level), q.left, q.right, mirror_lq, mirror_rq)),
             "pass" if ok else "FAIL"]
        )
    _print_table(
        ["level", "left", "right", "-rq(-X,1-p)", "-lq(-X,1-p)", "symmetry"], rows
    )
    click.echo("")
    click.echo(f"traditional quantile vs the traditional quantile of a reversed scale ({label}):")
    for q in pairs:
        ri, rj = _row_position(d, q.left), _row_position(d, q.right)
        level, lq_text, rq_text = map(format_extended, (float(q.level), q.left, q.right))
        if ri is None or rj is None:
            click.echo(f"  level {level}: {lq_text} vs {rq_text}")
            continue
        if ri == rj:
            verdict = f"same answer (row {ri})"
        else:
            off = rj - ri
            verdict = f"off by {off} row{'s' if abs(off) != 1 else ''} (row {ri} vs row {rj})"
        click.echo(
            f"  level {level}: direct {lq_text}; via reversed scale {rq_text} -> {verdict}"
        )
    if failed:
        plural = "s" if len(failed) > 1 else ""
        _fail(1, f"the negation identity fails at level{plural} {', '.join(failed)}")


def _load_map(map_arg: str):
    from .transforms import map_from_spec

    if map_arg.lstrip().startswith("{"):
        text = map_arg
    else:
        text = _read_text(map_arg.removeprefix("@"), "map file ")
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also an int past 4300 digits
        _fail(EXIT_MAP, f"map spec is not valid JSON: {exc}")
    try:
        return map_from_spec(obj)
    except MapSpecError as exc:
        _fail(EXIT_MAP, str(exc))


@main.command()
@click.argument("data_file")
@_data_options
@click.option("--map", "map_arg", required=True,
              help="monotone map: inline JSON, or a path (optionally prefixed with @)")
@click.option("--side", type=click.Choice(["left", "right"]), default="left",
              show_default=True, help="which quantile to transport")
def transform(data_file, column, weights, delimiter, header, levels_spec, map_arg, side):
    """Compare the pushforward's quantile with the transported quantile.

    Computes, per level, the requested quantile of the mapped data two
    ways: directly on the pushforward distribution, and by transporting
    the matching quantile of the original data through the map.  The
    two agree whenever the map's one-sided continuity supports the
    requested side; otherwise the command refuses with exit code 6.
    """
    from .distributions import format_extended
    from .quantiles import QuantileSide
    from .transforms import check_transport, equivariant_quantile, pushforward

    m = _load_map(map_arg)
    d, levels, label = _load_data(data_file, column, weights, delimiter, header, levels_spec)
    try:
        push = pushforward(d, m)
    except (UnsupportedPushforwardError, MapDomainError) as exc:
        _fail(EXIT_MAP, str(exc))
    side_enum = QuantileSide(side)
    rows = []
    for p in levels:
        try:
            routed = equivariant_quantile(d, m, p, side_enum)
        except ContinuityMismatchError as exc:
            _fail(EXIT_CONTINUITY, str(exc))
        except MapDomainError as exc:
            _fail(EXIT_MAP, str(exc))
        direct, verdict = check_transport(push, p, side_enum, routed)
        rows.append([*map(format_extended, (float(p), direct, routed)), verdict.value])
    _print_table(["level", "pushforward quantile", "transported quantile", "equal"], rows)


@main.command()
@click.option("--seed", default=42, show_default=True, type=int, help="corpus seed")
@click.option("--n", "n_dists", default=100, show_default=True,
              type=click.IntRange(min=1), help="number of random mixtures")
@click.option("--report", "report_path", default=None,
              help="also write the full JSON report to this path")
def verify(seed, n_dists, report_path):
    """Run the property-based verification suite on seeded random mixtures."""
    from .verify import (
        GeneratorConfig,
        first_failure,
        reports_to_json,
        run_suite,
        standard_levels,
        summarize,
    )

    # opened before the run, so an unwritable path costs no battery
    report = None
    if report_path:
        try:
            report = open(report_path, "w", encoding="utf-8")
        except OSError as exc:
            _fail(EXIT_IO, f"cannot write {report_path}: {exc.strerror or exc}")
    levels = standard_levels(seed)
    cfg = GeneratorConfig(seed=seed)
    start = time.perf_counter()
    reports = run_suite(cfg, n_dists, levels)
    elapsed = time.perf_counter() - start
    click.echo(
        f"{n_dists} mixtures x {len(levels)} levels -> {summarize(reports)} [{elapsed:.1f}s]"
    )
    if report:
        try:
            with report:
                report.write(json.dumps(reports_to_json(reports), indent=2))
        except OSError as exc:
            _fail(EXIT_IO, f"cannot write {report_path}: {exc.strerror or exc}")
        click.echo(f"report written to {report_path}")
    worst = first_failure(reports)
    if worst is not None:
        report, check = worst
        click.echo(
            f"first failure: [{check.check_id}] on {report.distribution} "
            f"at level {report.level}: {check.details}",
            err=True,
        )
        sys.exit(1)


if __name__ == "__main__":
    main()
