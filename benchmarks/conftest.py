"""Shared helpers for the artefact suite.

Every bench regenerates one paper artefact (figure/table) or ablation
once, asserts its shape, and

* saves the rendered text under ``benchmarks/results/<id>.txt``,
* prints it (visible with ``pytest -s``).

Timing lives in ``perfbench/`` (see ``docs/performance.md``).
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_figure(results_dir):
    """Persist a FigureData and echo it."""

    def _record(figure) -> None:
        path = results_dir / f"{figure.figure_id}.txt"
        path.write_text(figure.text + "\n")
        print(f"\n{figure.text}\n[saved to {path}]")

    return _record
