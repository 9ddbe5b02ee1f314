"""Run one locosparse command with every public function traced.

    python3 bench/launcher.py TRACE_JSON locosparse-args...

Behaves like `python -m locosparse locosparse-args...` (same exit code,
same outputs) and, when the command ends, writes the span aggregates of
this process to TRACE_JSON. The whole command runs inside a
`cli.entrypoint` span, so the parent can subtract it from the child's
wall time to get the process start-up cost.
"""

import json
import sys

from tracer import Tracer, instrument


def main(argv):
    trace_path, args = argv[0], argv[1:]
    tracer = Tracer()
    instrument(tracer)
    from locosparse import cli  # bound after instrument() swapped the functions

    code = 1
    try:
        code = cli.entrypoint(args)
    except SystemExit as exc:  # argparse usage errors exit 2
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
