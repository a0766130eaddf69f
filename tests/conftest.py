import json
import os
import socket
import threading
from pathlib import Path

import numpy as np
import pytest

from cpslearn import Dataset, OdeEnvironment, WaterTankSystem

DBL_MAX_INT = 2**1024 - 2**971  # the largest double, as an integer


@pytest.fixture(scope="session", autouse=True)
def checkout_on_child_path():
    """Child interpreters (CLI runs, demos) import the package from this checkout too."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", str(Path(__file__).resolve().parents[1] / "src"), prepend=os.pathsep)
        yield


@pytest.fixture
def toy_series() -> Dataset:
    """The canonical 5-row two-signal series used by windowing tests."""
    return Dataset({"V": [1.0, 2.0, 3.0, 4.0, 5.0], "x": [10.0, 20.0, 30.0, 40.0, 50.0]})


@pytest.fixture(scope="session")
def tank_trajectory() -> Dataset:
    """250 samples of the benchmark tank at 0.1 s, shared across tests."""
    return OdeEnvironment(WaterTankSystem(), sample_period=0.1).sample_trajectory(250)


def skip_unless_dynamic_arch_openblas() -> None:
    """Skip the calling test unless numpy's BLAS is a DYNAMIC_ARCH OpenBLAS, the build in which
    ``OPENBLAS_CORETYPE`` picks the kernel of a child interpreter."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its build only as text
        blas = {}
    build = f"{blas.get('name', 'unknown')} {blas.get('openblas configuration', '')}".strip()
    if "openblas" not in build.lower() or "DYNAMIC_ARCH" not in build:
        pytest.skip(f"numpy's BLAS is not a DYNAMIC_ARCH OpenBLAS: {build}")


def sweep_config(csv_path: Path, learner: dict) -> dict:
    """A windowed and standardized run on ``csv_path``, like the benchmark's offline sweep."""
    return {
        "environment": {"kind": "csv", "path": str(csv_path)},
        "transforms": [
            {"kind": "sliding_window", "window_size": 3},
            {"kind": "standardize", "names": ["V_0", "V_1", "V_2"]},
        ],
        "io": {"inputs": ["V_0", "x_0", "V_1", "x_1", "V_2"], "outputs": ["x_2"]},
        "split_fraction": 0.8,
        "learner": learner,
        "metrics": ["mae", "mse", "max_error", "r2"],
    }


def random_dataset(rng: np.random.Generator, rows: int, columns: int, prefix: str = "c") -> Dataset:
    return Dataset(
        [(f"{prefix}{i}", rng.uniform(-5.0, 5.0, size=rows)) for i in range(columns)]
    )


def concat_rows(parts) -> Dataset:
    """The rows of ``parts`` in order, as one dataset of their (shared, scalar) columns."""
    names = parts[0].column_names
    return Dataset([(name, np.concatenate([part.column(name) for part in parts])) for name in names])


def read_frame(reader) -> bytes:
    """One message of the wire protocol from ``reader``: its header line and the body that
    line declares, as sent; what is left at EOF (b"" between messages)."""
    line = reader.readline()
    if not line.endswith(b"\n"):
        return line
    return line + reader.read(json.loads(line).get("body", 0))


class StubServer:
    """Scriptable fake server for client-side fault injection."""

    def __init__(self, script):
        self._script = script
        self._sock = socket.socket()
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.address = self._sock.getsockname()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        conn, _ = self._sock.accept()
        reader = conn.makefile("rb")
        try:
            self._script(conn, reader)
        finally:
            conn.close()
            self._sock.close()
