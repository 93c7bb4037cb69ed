"""Print the golden digest of each command line given.

    PYTHONPATH=src python3 tests/record_digests.py "typea --n 9" "info --type E6"

Each argument is one command line of ``coxclusters``.  It runs through
``coxclusters.cli.main`` in this process, and the sha256 of what it writes
on stdout is printed as a ``"command": "sha256"`` line, the form of an entry
of ``golden_digests.json`` and the hash ``test_golden.test_output_digest``
checks.  A command that exits non-zero stops the script before anything is
printed for it.
"""

import contextlib
import hashlib
import io
import json
import sys

from coxclusters.cli import main as cli_main


def digest(command: str) -> str:
    """sha256 of the stdout of ``command``; SystemExit if it exits non-zero."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(command.split())
    if code != 0:
        raise SystemExit(f"{command!r} exited with {code}")
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def main(commands) -> None:
    for command in commands:
        print(f"{json.dumps(command)}: {json.dumps(digest(command))}")


if __name__ == "__main__":
    main(sys.argv[1:])
