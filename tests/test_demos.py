"""The demo scripts run to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# stability_bench.py is left out: it is slow, and `ppp bench` covers its path
DEMOS = ["full_pipeline.py", "gmm_em.py", "kmeans_restarts.py", "som_quantization.py"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_exits_zero(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
