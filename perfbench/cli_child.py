"""Run one ``lab`` subcommand in this fresh process with layer spans recorded.

    PERFBENCH_SPANS=spans.json python3 perfbench/cli_child.py <lab arguments>

Used by the traced pass of the cli-cold workload in place of the ``lab``
entry point; the spans and counts go to the file named by PERFBENCH_SPANS.
"""

from __future__ import annotations

import os
import sys

import spans
from elliptic_lab import cli


def main() -> int:
    tracer = spans.Tracer()
    with tracer:
        spans.install_layers(tracer)
        spans.install_cli(tracer)
        with tracer.span("cli.main"):
            code = cli.main(sys.argv[1:])
    tracer.dump(os.environ["PERFBENCH_SPANS"])
    return code


if __name__ == "__main__":
    sys.exit(main())
