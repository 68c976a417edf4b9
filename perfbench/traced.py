"""Run a ``repro`` CLI command with the benchmark's span wrappers installed.

Usage::

    python3 perfbench/traced.py --out SPANS.json [--start on|off] -- serve IDX.db ...
    python3 perfbench/traced.py --out SPANS.json -- build CORPUS -o IDX.db

The wrappers from :mod:`tracer` are installed around the program's
layer functions, then ``repro.cli.main`` runs the command unchanged.
Signals steer a long-running server:

* ``SIGUSR2`` starts recording and writes ``OUT.on``;
* ``SIGUSR1`` writes the spans recorded so far to ``OUT`` (then
  ``OUT.done``) and clears them.

A command that returns on its own (``build``) writes its spans on exit.
"""

from __future__ import annotations

import argparse
import signal
import sys
from pathlib import Path

from tracer import Recorder, install_build_wrappers, install_serving_wrappers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--start", choices=["on", "off"], default="on")
    parser.add_argument("command", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    rec = Recorder(enabled=args.start == "on")
    install_build_wrappers(rec)
    install_serving_wrappers(rec)
    out: Path = args.out

    def start_recording(signum, frame) -> None:
        rec.enabled = True
        out.with_suffix(".on").touch()

    def dump(signum, frame) -> None:
        rec.dump(str(out))
        out.with_suffix(".done").touch()

    signal.signal(signal.SIGUSR2, start_recording)
    signal.signal(signal.SIGUSR1, dump)

    from repro.cli import main as repro_main

    try:
        return repro_main(command)
    finally:
        rec.dump(str(out))


if __name__ == "__main__":
    sys.exit(main())
