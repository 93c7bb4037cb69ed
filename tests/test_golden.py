"""Byte-for-byte guards on the engine's output.

``golden_digests.json`` maps each command line to the sha256 of what
``info``, ``verify``, ``explore`` or ``typea`` prints, recorded once from a
trusted build: JSON by default, the ``--format text`` rendering for the
command lines that ask for it.  ``tests/record_digests.py`` prints the
entry of each command line it is given, hashed as this module hashes it:
``PYTHONPATH=src python3 tests/record_digests.py "typea --n 9"``.  The
``typea --n 11`` digest must also equal the one ``perfbench/expected.json``
gates the benchmark on, so the tests and the benchmark guard the same bytes.

The CLI JSON shows counts and records, not seeds or relations, so
``graph_digests.json`` maps each start seed named by
``conftest.exchange_graph_instances`` to the sha256 of
:func:`graph_document` of its whole ``ExchangeGraph``.  To record them
again, hash ``graph_document(explore(instance_seed(name)))`` for every name.

A refactor must leave every digest unchanged.
"""

import hashlib
import json
from pathlib import Path

import pytest

import record_digests
from coxclusters import explore
from coxclusters.cli import main
from conftest import exchange_graph_instances, instance_seed

HERE = Path(__file__).parent
DIGESTS = json.loads((HERE / "golden_digests.json").read_text())
GRAPH_DIGESTS = json.loads((HERE / "graph_digests.json").read_text())
BENCH_EXPECTED = HERE.parent / "perfbench" / "expected.json"


def graph_document(graph) -> str:
    """Variables by ``str``, then each seed's var_ids, coeffs and B, then the
    edges, then each relation's pair and sides, as compact JSON."""
    doc = [
        [str(v) for v in graph.variables],
        [[s.var_ids, s.coeffs, s.B] for s in graph.seeds],
        graph.edges,
        [[r.pair, r.sides] for r in graph.relations],
    ]
    return json.dumps(doc, separators=(",", ":"))


@pytest.mark.parametrize("command", sorted(DIGESTS))
def test_output_digest(command, capsys):
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == DIGESTS[command]


def test_recorder_prints_the_recorded_entries(capsys):
    commands = ["typea --n 5", "info --type A2 --coxeter all"]
    record_digests.main(commands)
    printed = json.loads("{" + ",".join(capsys.readouterr().out.splitlines()) + "}")
    assert printed == {command: DIGESTS[command] for command in commands}
    with pytest.raises(SystemExit, match="exited with 2"):
        record_digests.main(["typea --n 0"])


def test_typea_digest_is_the_benchmark_digest():
    expected = json.loads(BENCH_EXPECTED.read_text())
    assert DIGESTS["typea --n 11"] == expected["typea-A11"]["sha256"]


@pytest.mark.parametrize("name", exchange_graph_instances())
def test_exchange_graph_digest(name):
    doc = graph_document(explore(instance_seed(name)))
    assert hashlib.sha256(doc.encode()).hexdigest() == GRAPH_DIGESTS[name]
