"""Shared fixtures: the full classification run is expensive, build it once."""

import os
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest

from tpg import classify


@pytest.fixture(scope="session")
def classification_report():
    return classify.classify_all()


@pytest.fixture(scope="session")
def cli_classify(tmp_path_factory):
    """`tpg classify` in two fresh processes with different hash seeds.

    The outputs must not depend on the seed; `seconds` times the first run.
    """
    runs = []
    for seed in ("1", "12345"):
        out = tmp_path_factory.mktemp(f"classify-seed{seed}")
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tpg.cli", "--out", str(out), "classify"],
            capture_output=True, env={**os.environ, "PYTHONHASHSEED": seed})
        runs.append((proc.returncode, out, time.perf_counter() - t0))
    (code1, out1, seconds), (code2, out2, _) = runs
    return SimpleNamespace(
        code1=code1, code2=code2, out1=out1, out2=out2, seconds=seconds)
