"""Run ``repro.cli`` with layer spans recorded, for traced ``cold-open``.

Usage: ``python cli_shim.py SPANS_FILE ARGS...`` behaves like
``python -m repro ARGS...`` and also writes the recorded layer aggregates,
and the counters of every store the command opened, to ``SPANS_FILE`` as
JSON.  The import of ``repro.cli`` is recorded as the
``cli.import`` span.
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import layers  # noqa: E402
from common import store_counts  # noqa: E402


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    recorder = layers.Recorder()
    started = time.perf_counter_ns()
    import repro.cli

    elapsed = time.perf_counter_ns() - started
    recorder.close("cli.import", elapsed)
    recorder.covered_ns += elapsed
    recorder.outermost_ns["cli.import"] = elapsed
    layers.install()
    from repro.store import DocumentStore

    stores = []
    opened = DocumentStore.__init__

    def capture(self, *args, **kwargs):
        opened(self, *args, **kwargs)
        stores.append(self)

    DocumentStore.__init__ = capture
    layers.activate(recorder)
    try:
        code = repro.cli.main(argv)
    finally:
        layers.activate(None)
    sys.stdout.flush()
    with open(spans_file, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "spans": layers.dump(recorder),
                "stores": [store_counts(store) for store in stores],
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main())
