"""One traced ``boolops`` invocation, for the traced run of ``cli-small``.

Usage: ``python3 perfbench/cli_child.py <boolops argv...>`` with ``src`` on
PYTHONPATH.  Behaves like ``python3 -m boolops.cli`` but captures the
program's output and prints one JSON envelope instead: exit code, stdout,
stderr, the import time of ``boolops.cli`` and the spans of the call.
"""

import io
import json
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

start = perf_counter()
import boolops.cli  # noqa: E402  (timed import)

import_ms = (perf_counter() - start) * 1e3

from tracing import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
tracer.op = 0
out, err = io.StringIO(), io.StringIO()
with redirect_stdout(out), redirect_stderr(err):
    try:
        rc = boolops.cli.main(sys.argv[1:])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code
    except Exception:
        traceback.print_exc()
        rc = 1
tracer.uninstall()
tracer.counts["cli.stdout_bytes"] += len(out.getvalue())
json.dump({
    "rc": rc,
    "stdout": out.getvalue(),
    "stderr": err.getvalue(),
    "import_ms": import_ms,
    "spans": [span[:4] for span in tracer.spans],
    "counts": tracer.counts,
}, sys.stdout)
