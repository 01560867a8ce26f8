"""Runs one benchmark job in a fresh interpreter, optionally traced.

    python3 perfbench/launch.py [--trace SPANS] cli ARG...
    python3 perfbench/launch.py [--trace SPANS] library --seed N --out FILE

``cli`` calls ``finsub.cli.main`` exactly as the ``finsub`` console
script does.  With ``--trace`` the public functions are wrapped before
the job starts and the spans are written to SPANS when it ends.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> None:
    trace_path = None
    if argv[:1] == ["--trace"]:
        trace_path, argv = argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    tracer = None
    if trace_path:
        from tracer import Tracer
        tracer = Tracer(" ".join(argv))
        tracer.install()
    try:
        if kind == "cli":
            import finsub.cli
            finsub.cli.main(args, prog_name="finsub")
        elif kind == "library":
            import library
            library.main(args)
        else:
            raise SystemExit(f"unknown job kind {kind!r}")
    finally:
        if tracer is not None:
            tracer.dump(trace_path)


if __name__ == "__main__":
    main(sys.argv[1:])
