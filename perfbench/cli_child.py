"""Run one ``bnpoly`` CLI call in this interpreter, sampling the speed of
the machine while it runs.

Usage::

    python3 cli_child.py SAMPLES.json ARG...

The CLI output goes to stdout unchanged and the exit code is the CLI's.  One
unit of ``calibrate.work`` runs right before the call, every
``SAMPLE_EVERY_S`` seconds during it (from a ``SIGALRM`` handler, between
bytecodes), and right after it.  The duration of each unit is written to
SAMPLES.json, so the caller can subtract them from the call's wall time and
scale that time to a reference speed.
"""

from __future__ import annotations

import json
import signal
import sys
from time import perf_counter

import calibrate

SAMPLE_EVERY_S = 0.5

_samples: list[float] = []


def _sample(*_: object) -> None:
    start = perf_counter()
    calibrate.work()
    _samples.append(perf_counter() - start)


def main(argv: list[str]) -> int:
    samples_path, cli_args = argv[0], argv[1:]
    from bnpoly.cli import main as cli_main

    _sample()
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        code = cli_main(cli_args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _sample()
        with open(samples_path, "w") as handle:
            json.dump(_samples, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
