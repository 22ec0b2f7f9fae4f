"""Launcher for the process under test:
``python3 perfbench/launch.py [--spans FILE] [--fsync-count FILE] ARGS...``.

Runs ``repro.cli.main(ARGS)`` (for example ``serve --port 0 ...``) exactly
as the ``segroute`` entry point would, after two optional changes:

* ``--spans FILE`` installs the timing wrappers of :mod:`tracer` and writes
  the recorded spans to ``FILE`` when the program returns (a server
  returns after its SIGTERM drain);
* ``--fsync-count FILE`` replaces ``os.fsync`` with a no-op that counts
  its calls, and writes the count to ``FILE`` when the program returns.
  ``fsync`` time is set by the host's disk, which other tenants share;
  counting the calls keeps that noise out of the timings while a change
  in how often the program syncs still shows.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import tracer  # noqa: E402

FSYNC_CALLS = [0]


def _counted_fsync(fd) -> None:
    FSYNC_CALLS[0] += 1


def main() -> int:
    argv = sys.argv[1:]
    options = {}
    while argv and argv[0] in ("--spans", "--fsync-count"):
        options[argv[0]] = argv[1]
        argv = argv[2:]
    if "--spans" in options:
        tracer.install()
    if "--fsync-count" in options:
        os.fsync = _counted_fsync
    from repro.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        if "--spans" in options:
            tracer.dump(options["--spans"])
        if "--fsync-count" in options:
            with open(options["--fsync-count"], "w", encoding="ascii") as fh:
                fh.write(str(FSYNC_CALLS[0]))


if __name__ == "__main__":
    sys.exit(main())
