"""The in-repo random regular graph generator behind the QAOA circuit.

It reproduces networkx's ``random_regular_graph`` edge for edge, so the
Fig. 11 suite is unchanged, and the package imports without networkx.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.circuits import library
from repro.circuits.library import qaoa_maxcut_circuit, random_regular_edges

SRC = Path(__file__).resolve().parent.parent / "src"

#: Every size the fig11 presets build the suite at, plus a few more.
SIZES = (3, 4, 5, 6, 7, 8, 10, 12, 16, 20, 24, 32, 40)


def _degree(n):
    return 3 if n >= 4 and (3 * n) % 2 == 0 else 2


def test_edges_match_networkx():
    nx = pytest.importorskip("networkx")
    for n in SIZES:
        for degree in {_degree(n), 2, 4}:
            if (n * degree) % 2 or degree >= n:
                continue
            for seed in (0, 1, 2, 7, 11, 1234):
                graph = nx.random_regular_graph(degree, n, seed=seed)
                assert random_regular_edges(degree, n, seed) == list(
                    graph.edges()
                ), (degree, n, seed)


def test_qaoa_circuit_matches_networkx_graph(monkeypatch):
    nx = pytest.importorskip("networkx")
    for n in SIZES:
        for seed in (7, 3, 19):
            ported = qaoa_maxcut_circuit(n, seed=seed).ops
            with monkeypatch.context() as patch:
                patch.setattr(
                    library,
                    "random_regular_edges",
                    lambda d, n, seed: list(
                        nx.random_regular_graph(d, n, seed=seed).edges()
                    ),
                )
                reference = qaoa_maxcut_circuit(n, seed=seed).ops
            assert ported == reference, (n, seed)


def test_graph_is_simple_and_regular():
    for n in SIZES:
        degree = _degree(n)
        edges = random_regular_edges(degree, n, seed=7)
        assert len(set(edges)) == len(edges) == n * degree // 2
        assert all(u < v for u, v in edges)
        for node in range(n):
            assert sum(node in edge for edge in edges) == degree


def test_impossible_degree_is_refused():
    with pytest.raises(ValueError):
        random_regular_edges(3, 5, seed=0)
    with pytest.raises(ValueError):
        random_regular_edges(4, 4, seed=0)
    assert random_regular_edges(0, 4, seed=0) == []


def test_package_imports_and_fig11_runs_without_networkx(tmp_path):
    script = (
        "import sys\n"
        "sys.modules['networkx'] = None\n"
        "import repro.analysis.experiments\n"
        "from repro.__main__ import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            script,
            "run",
            "fig11",
            "--smoke",
            "--no-cache",
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        cwd=tmp_path,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads((tmp_path / "out" / "fig11-smoke.json").read_text())
    assert payload["experiment"] == "fig11"
