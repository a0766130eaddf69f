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


def random_dataset(rng: np.random.Generator, rows: int, columns: int, prefix: str = "c") -> Dataset:
    return Dataset(
        [(f"{prefix}{i}", rng.uniform(-5.0, 5.0, size=rows)) for i in range(columns)]
    )


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
