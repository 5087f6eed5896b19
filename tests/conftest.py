import os
import subprocess
import sys
from pathlib import Path

import pytest

import binpdf

REPO_ROOT = Path(__file__).resolve().parent.parent
QOI_SCRIPT = REPO_ROOT / "scripts" / "make_qoi_samples.py"


@pytest.fixture(scope="session")
def qoi_csv(tmp_path_factory) -> Path:
    """Synthetic output-of-interest sample CSV at the full 16**6 size.

    Generated once per session by the documented script with its default
    seed; writing its 337 MB of CSV and the binary twin takes about 7 s on
    2 cores.
    """
    path = tmp_path_factory.mktemp("qoi") / "qoi_samples.csv"
    subprocess.run(
        [sys.executable, str(QOI_SCRIPT), "--out", str(path)],
        check=True,
        capture_output=True,
        cwd=REPO_ROOT,
    )
    return path


@pytest.fixture
def run_fresh():
    """Runs a Python script in a fresh interpreter that imports this binpdf."""
    src = str(Path(binpdf.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(script: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)

    return run
