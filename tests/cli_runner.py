"""A stand-in for ``click.testing.CliRunner``: run the CLI's ``main`` in this
process with its streams captured, and report how it ended."""

import contextlib
import io
from typing import NamedTuple


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr interleaved, as a terminal shows them
    exception: BaseException | None  # None on exit code 0


class _Tee(io.StringIO):
    def __init__(self, both: io.StringIO):
        super().__init__()
        self.both = both

    def write(self, text: str) -> int:
        self.both.write(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main, args) -> Result:
        both = io.StringIO()
        out, err = _Tee(both), _Tee(both)
        code, exception = 0, None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
            except SystemExit as exc:
                code = exc.code or 0
                exception = exc if code else None
            except Exception as exc:  # reported, as click's runner does
                code, exception = 1, exc
        return Result(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
