"""Run one `spikecert` CLI command with the tracer installed.

Usage: python3 perfbench/traced_cli.py TRACE_JSON ARG...

Runs `spikecert.cli.main(ARG...)` in this process, writes the traced
operation's spans, counts and values to TRACE_JSON and exits with the
command's exit code.  The parent sets PYTHONPATH to the checkout's `src`.
"""

import json
import sys
from pathlib import Path

from tracer import Tracer


def main() -> int:
    import spikecert.cli

    tracer = Tracer()
    tracer.begin_op()
    with tracer:
        code = spikecert.cli.main(sys.argv[2:])
    Path(sys.argv[1]).write_text(json.dumps(tracer.op_summary(0)))
    return code


if __name__ == "__main__":
    sys.exit(main())
