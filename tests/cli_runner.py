"""In-process runner for ``finsub.cli.main`` that captures its output."""

import contextlib
import io


class Result:
    """What one ``CliRunner.invoke`` saw.

    ``output`` holds stdout and stderr interleaved as written;
    ``exception`` is the exception that escaped ``main``, or None when
    it returned or raised ``SystemExit``.
    """

    def __init__(self, exit_code, output, exception):
        self.exit_code = exit_code
        self.output = output
        self.exception = exception


class CliRunner:
    def invoke(self, main, args):
        """Runs ``main(args)`` with stdout and stderr captured.

        The exit code is 0 when ``main`` returns, the ``SystemExit``
        code when it exits (a message instead of a number is printed and
        gives 1, as the interpreter does) and 1 for any other exception.
        """
        buffer = io.StringIO()
        exception = None
        with contextlib.redirect_stdout(buffer), \
                contextlib.redirect_stderr(buffer):
            try:
                main(list(args))
                exit_code = 0
            except SystemExit as exc:
                exit_code = exc.code
                if exit_code is None:
                    exit_code = 0
                elif not isinstance(exit_code, int):
                    print(exit_code, file=buffer)
                    exit_code = 1
            except Exception as exc:
                exception, exit_code = exc, 1
        return Result(exit_code, buffer.getvalue(), exception)
