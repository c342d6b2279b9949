"""Traced server for the ``serve-*`` workloads.

Usage: ``python repobench/serve_proc.py SPANS.json SERVE-ARGS...``

Installs span recording around the program's layers, runs ``repro serve``
with ``SERVE-ARGS`` until SIGTERM drains it, then writes every span to
``SPANS.json``.  Untraced runs start ``python -m repro serve`` directly.
"""

from __future__ import annotations

import sys

from tracer import Recorder, install


def main(argv: list[str]) -> int:
    recorder = Recorder()
    install(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(["serve", *argv[1:]])
    finally:
        recorder.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
