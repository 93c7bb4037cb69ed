import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from coxclusters import checks
from coxclusters.cli import main
from coxclusters.coxeter import InternalCheckError

SRC_DIR = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env=None, **kwargs):
    """Run the CLI in a child interpreter.

    The child inherits this process's environment with ``env`` merged in,
    and the repo's ``src`` directory first on ``PYTHONPATH``, so it imports
    this checkout whatever the working directory.
    """
    child_env = {**os.environ, **(env or {})}
    child_env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, child_env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "coxclusters.cli", *args],
        capture_output=True,
        text=True,
        env=child_env,
        **kwargs,
    )


def test_info_a2(capsys):
    assert main(["info", "--type", "A2", "--coxeter", "1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["h"] == [2, 1]
    assert doc["star"] == [2, 1]
    assert doc["coxeter_number"] == [3]
    assert len(doc["variables"]) == 5
    fpolys = sorted(v["f_polynomial"] for v in doc["variables"])
    assert fpolys == ["1", "1", "1+t1", "1+t1+t1*t2", "1+t2"]
    assert doc["exchange_graph"] == {"seeds": 5, "edges": 5, "variables": 5}


def test_info_a3(capsys):
    assert main(["info", "--type", "A3", "--coxeter", "1,2,3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["variables"]) == 9
    assert len(doc["clusters"]) == 14


def test_usage_error_exit_code():
    proc = run_cli("info", "--type", "B1")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_explore_stats(capsys):
    assert main(["explore", "--type", "A2", "--coxeter", "1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc["seeds"], doc["edges"], doc["variables"]) == (5, 5, 5)


def test_cap_exit_code():
    proc = run_cli("explore", "--type", "A2", "--coxeter", "1,2", "--cap", "3")
    assert proc.returncode == 3
    assert "cap exceeded" in proc.stderr


def test_cap_env_override():
    proc = run_cli(
        "explore", "--type", "A2", "--coxeter", "1,2",
        env={"COXCLUSTERS_CAP": "3"},
    )
    assert proc.returncode == 3
    assert "seed cap 3 exceeded" in proc.stderr


def test_typea_command(capsys):
    assert main(["typea", "--n", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_relations_ok"] is True
    assert doc["relations_checked"] == 5


def test_verify_small(capsys):
    assert main(["verify", "--type", "A2", "--coxeter", "all"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == []
    assert doc["checks"] > 10


def test_json_byte_stable(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["info", "--type", "A2xA1", "--coxeter", "bipartite",
                 "--output", str(out1)]) == 0
    assert main(["info", "--type", "A2xA1", "--coxeter", "bipartite",
                 "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_matrix_file_input(tmp_path, capsys):
    path = tmp_path / "cartan.txt"
    path.write_text("2 -1\n-1 2\n")
    assert main(["info", "--type", str(path), "--coxeter", "1,2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rank"] == 2
    bad = tmp_path / "affine.txt"
    bad.write_text("2 -2\n-2 2\n")
    assert main(["info", "--type", str(bad), "--coxeter", "1,2"]) == 2


def test_text_format(capsys):
    assert main(["explore", "--type", "A1", "--coxeter", "1", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "seeds: 2" in out


def test_coxeter_all_enumerates_orientations(capsys):
    assert main(["explore", "--type", "A3", "--coxeter", "all"]) == 0
    docs = json.loads(capsys.readouterr().out)
    assert isinstance(docs, list) and len(docs) == 4


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_usage_error(cap, monkeypatch, capsys):
    argv = ["explore", "--type", "A2", "--coxeter", "1,2"]
    assert main([*argv, "--cap", cap]) == 2
    assert capsys.readouterr().err == f"error: --cap must be at least 1, got {cap}\n"
    monkeypatch.setenv("COXCLUSTERS_CAP", cap)
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: COXCLUSTERS_CAP must be at least 1, got {cap}\n"


def test_bad_cap_env_is_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("COXCLUSTERS_CAP", "abc")
    assert main(["explore", "--type", "A2", "--coxeter", "1,2"]) == 2
    assert capsys.readouterr().err == "error: bad COXCLUSTERS_CAP value 'abc'\n"


def test_typea_rank_below_one_is_usage_error(capsys):
    assert main(["typea", "--n", "0"]) == 2
    assert capsys.readouterr().err == "error: --n must be at least 1\n"


def test_typea_takes_no_cap(capsys):
    assert main(["typea", "--n", "2", "--cap", "1"]) == 2
    assert "unrecognized arguments: --cap 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "target, exc",
    [
        ("coxclusters.cli.h_vector", InternalCheckError("injected")),
        ("coxclusters.algebra.weight_label", KeyError((1, 0))),
        ("coxclusters.checks.principal_run", OverflowError("injected")),
    ],
)
def test_internal_error_exit_code(target, exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(target, fail)
    assert main(["info", "--type", "A2", "--coxeter", "1,2"]) == 4
    err = capsys.readouterr().err
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


@pytest.mark.parametrize("command", ["info", "verify", "explore"])
def test_no_earlier_graph_is_alive_when_the_next_is_explored(command, monkeypatch, capsys):
    """Over ``--coxeter all`` the principal run of one orientation is dropped
    before the next orientation is explored.  A universal-coefficient walk
    (``g_vector_walk``), which ``verify`` runs after the principal one, sees
    only the principal graph of its own orientation."""
    graphs = []

    def tracked(walk):
        def walked(seed, cap):
            gc.collect()
            alive = [ref for ref in graphs if ref() is not None]
            principal = seed.ring.names[seed.n:] == tuple(f"y{i + 1}" for i in range(seed.n))
            assert len(alive) == (0 if principal else 1)
            graph = walk(seed, cap)
            graphs.append(weakref.ref(graph))
            return graph

        return walked

    monkeypatch.setattr(checks, "explore", tracked(checks.explore))
    monkeypatch.setattr(checks, "g_vector_walk", tracked(checks.g_vector_walk))
    assert main([command, "--type", "A2", "--coxeter", "all"]) == 0
    capsys.readouterr()
    assert len(graphs) == (4 if command == "verify" else 2)


def test_unwritable_output_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    assert main(["info", "--type", "A2", "--output", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(target)!r}: ")
    assert err.count("\n") == 1


def test_type_label_wins_over_file_of_that_name(tmp_path):
    (tmp_path / "A3").write_text("2 -1\n-1 2\n")
    label = run_cli("info", "--type", "A3", cwd=tmp_path)
    assert label.returncode == 0, label.stderr
    assert json.loads(label.stdout)["rank"] == 3
    path = run_cli("info", "--type", "./A3", cwd=tmp_path)
    assert path.returncode == 0, path.stderr
    assert json.loads(path.stdout)["rank"] == 2


def test_cli_import_leaves_out_networkx():
    code = "import sys, coxclusters.cli; print('networkx' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC_DIR},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "body",
    ["2 -1\n-1 x\n", "2 -1\n-1\n", "# comment only\n\n", "2 -2\n-2 2\n"],
    ids=["non-integer", "ragged", "empty", "affine"],
)
def test_bad_matrix_file_is_usage_error(body, tmp_path, capsys):
    path = tmp_path / "cartan.txt"
    path.write_text(body)
    assert main(["info", "--type", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot load Cartan data from {str(path)!r}: ")
    assert err.count("\n") == 1


def test_missing_matrix_file_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["info", "--type", "./nope.txt"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot load Cartan data from './nope.txt': ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("word", ["1", "1,x"])
def test_bad_coxeter_word_is_usage_error(word, capsys):
    assert main(["info", "--type", "A2", "--coxeter", word]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad coxeter spec {word!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "spec,word,message",
    [
        ("E6", "1,2", "(1, 2) is not a permutation of 1..6"),
        ("A3", "0,1,2", "(0, 1, 2) is not a permutation of 1..3"),
        ("A2", "2,2", "(2, 2) is not a permutation of 1..2"),
    ],
)
def test_bad_coxeter_word_is_reported_one_based(spec, word, message, capsys):
    assert main(["verify", "--type", spec, "--coxeter", word]) == 2
    assert capsys.readouterr().err == f"error: bad coxeter spec {word!r}: {message}\n"


def _text_block(out: str, key: str) -> list[str]:
    """The indented lines under the top-level ``key:`` of a text document."""
    lines = out.splitlines()
    start = lines.index(f"{key}:") + 1
    block = []
    for line in lines[start:]:
        if not line.startswith("  "):
            break
        block.append(line)
    return block


def _item_sizes(block: list[str]) -> list[int]:
    """Entries under each ``-`` head of a list of lists, one level down."""
    sizes = []
    for line in block:
        if line == "  -":
            sizes.append(0)
        else:
            assert line.startswith("    - ")
            sizes[-1] += 1
    return sizes


def test_text_format_nests_lists(capsys):
    assert main(["info", "--type", "A2", "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert _item_sizes(_text_block(out, "B")) == [2, 2]
    assert _item_sizes(_text_block(out, "clusters")) == [2] * 5
    records = _text_block(out, "variables")
    assert records.count("  -") == 5
    assert sum(line == "    label:" for line in records) == 5
    assert main(["info", "--type", "A2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["B"]) == 2 and len(doc["clusters"]) == 5
