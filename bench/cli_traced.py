"""``python -m geolin.cli`` with the benchmark's span tracer installed.

Usage: ``python3 bench/cli_traced.py COMMAND FILE [CLI options]``.
Standard output and the exit code are the CLI's own; the last line of
standard error is a JSON span summary, including the time taken by
``import geolin.cli``.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

started = perf_counter()
import geolin.cli  # noqa: E402

import_s = perf_counter() - started

from tracer import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
code = tracer.item(geolin.cli.main, sys.argv[1:])
sys.stdout.flush()
summary = tracer.summary()
summary["import_s"] = import_s
print(json.dumps(summary), file=sys.stderr)
sys.exit(code)
