"""Byte-for-byte guard on the JSON that ``info``, ``verify`` and ``explore`` print.

``golden_digests.json`` maps each command line to the sha256 of its stdout,
recorded once from a trusted build; a refactor must leave every digest
unchanged.  To record them again, run each command line through
``coxclusters.cli.main`` and hash its stdout.
"""

import hashlib
import json
from pathlib import Path

import pytest

from coxclusters.cli import main

DIGESTS = json.loads((Path(__file__).parent / "golden_digests.json").read_text())


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]
