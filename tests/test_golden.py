"""The reference bytes: the sha256 of the report.json and model.fcm.json of each run below,
pinned in ``golden.json``.

The runs are the built-in scenario with each learner; the three learners on a 2500-row tank
CSV, windowed and standardized; and the same CSV learned by an in-process ``LearnerServer``.
One child interpreter computes every digest with the Prescott OpenBLAS kernel, which any x86-64
CPU runs, because the ``linear`` bytes depend on the BLAS kernel.

A change that alters reference bytes on purpose regenerates the manifest with::

    OPENBLAS_CORETYPE=Prescott OPENBLAS_NUM_THREADS=1 PYTHONPATH=src \\
        python tests/test_golden.py > tests/golden.json

and the manifest's diff shows which bytes changed.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from cpslearn import OdeEnvironment, WaterTankSystem, write_csv
from cpslearn.config import WATERTANK_LEARNERS, run_config, watertank_config, write_result
from cpslearn.remote import LearnerServer
from conftest import skip_unless_dynamic_arch_openblas, sweep_config

GOLDEN = Path(__file__).with_name("golden.json")
KERNEL = {"OPENBLAS_CORETYPE": "Prescott", "OPENBLAS_NUM_THREADS": "1"}


def digests(cfg: dict, out: Path) -> dict:
    paths = write_result(run_config(cfg), out)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def manifest() -> dict:
    """Every run's digests, with the Python and numpy versions that computed them."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        csv_path = work / "tank.csv"
        write_csv(OdeEnvironment(WaterTankSystem()).sample_trajectory(2500), csv_path)
        runs = {f"watertank {name}": watertank_config(name) for name in WATERTANK_LEARNERS}
        runs.update({f"sweep {name}": sweep_config(csv_path, {"kind": kind})
                     for name, kind in WATERTANK_LEARNERS.items()})
        with LearnerServer() as server:
            host, port = server.address
            runs["sweep remote"] = sweep_config(csv_path, {"kind": "remote", "address": f"{host}:{port}"})
            sha256 = {name: digests(cfg, work / str(index)) for index, (name, cfg) in enumerate(runs.items())}
    return {"python": platform.python_version(), "numpy": np.__version__, "sha256": sha256}


def test_reference_bytes_match_the_golden_manifest():
    skip_unless_dynamic_arch_openblas()
    result = subprocess.run(
        [sys.executable, __file__], env={**os.environ, **KERNEL}, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr
    fresh = json.loads(result.stdout)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert fresh["sha256"] == golden["sha256"], (
        f"golden.json was made with Python {golden['python']} and numpy {golden['numpy']}; "
        f"this run used Python {fresh['python']} and numpy {fresh['numpy']}. Its manifest:\n{result.stdout}"
    )


def test_a_remote_run_writes_the_bytes_of_a_linear_run():
    """The server names each model by its content id, so the remote run's report names the model it writes."""
    sha256 = json.loads(GOLDEN.read_text(encoding="utf-8"))["sha256"]
    assert sha256["sweep remote"] == sha256["sweep linear"]


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2, sort_keys=True))
