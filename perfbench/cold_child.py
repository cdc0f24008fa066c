"""Traced cold op: `python cold_child.py SPANS.csv ARGV...`.

Behaves like `python -m pdmtpt.cli ARGV...` (same exit codes, a traceback
and exit 1 for an exception that escapes `main`), with the benchmark's span
wrappers installed; the spans of the one op are written to SPANS.csv.
"""

import sys
import traceback

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from pdmtpt import cli

    tracer = tracing.Tracer()
    tracer.install()
    rec = tracer.begin_op(0)
    try:
        rc = cli.main(argv)
    except Exception:  # mirror the interpreter: print the traceback, exit 1
        traceback.print_exc()
        rc = 1
    finally:
        tracer.end_op(rec)
        tracer.write_csv(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
