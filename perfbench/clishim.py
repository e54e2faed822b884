"""``python -m slidebench`` with the benchmark's span wrappers installed.

Traced ``challenge`` passes start each CLI step through this file instead of
``-m slidebench``. The spans attach under the parent span and pass named in
the environment (see ``tracer.Tracer.child_env``) and are written to the
trace directory when the command ends.

Usage: PYTHONPATH=src PERFBENCH_TRACE_DIR=DIR python3 perfbench/clishim.py ARGS...
"""
import sys

import tracer
from slidebench import cli


def main() -> int:
    t = tracer.Tracer.from_env()
    try:
        with tracer.instrument(t):
            return cli.main(sys.argv[1:])
    finally:
        t.dump()


if __name__ == "__main__":
    sys.exit(main())
