"""Run one cardiotox command with layer spans recorded.

    python perfbench/traced.py TRACE.json ARGS...   # cardiotox.cli.main(ARGS)

The package must be importable (``PYTHONPATH=src``). Spans and counters go
to TRACE.json when the command returns; the exit code is the command's.
"""

from __future__ import annotations

import sys

from spans import Recorder


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    recorder = Recorder()
    recorder.install()
    from cardiotox.cli import main as run
    try:
        return run(args)
    finally:
        recorder.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
