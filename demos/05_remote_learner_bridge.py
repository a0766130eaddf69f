"""Training through the TCP learner bridge instead of in process.

A reference server wraps the native linear learner behind a TCP protocol
whose messages are one JSON header line each. On connect, client and server
agree on the protocol version; float columns follow their header as a
binary body of raw little-endian float64 bytes, and no message exceeds the
fixed 64 MiB frame limit. The client fits and predicts over the wire,
downloads the trained artifact, and the results match the in-process
learner bit for bit. The server names each model by its content id, so the
id it reports is the id of the model downloaded.

Run with: python demos/05_remote_learner_bridge.py
"""

import numpy as np

from cpslearn import Dataset, fit_linear
from cpslearn.remote import LearnerServer, connect


def main():
    with LearnerServer() as server:
        host, port = server.address
        print(f"reference server listening on {host}:{port}")

        with connect((host, port), timeout=10.0) as session:
            inputs = Dataset({"x": [0.0, 1.0, 2.0, 3.0]})
            outputs = Dataset({"y": [1.0, 3.0, 5.0, 7.0]})
            remote_model = session.fit(inputs, outputs)
            print(f"server trained {remote_model.model_id}")

            probe = Dataset({"x": [0.0, 10.0, -4.0]})
            over_the_wire = remote_model.predict(probe).column("y")
            in_process = fit_linear(inputs, outputs).predict(probe).column("y")
            print(f"remote predictions:     {over_the_wire.tolist()}")
            print(f"in-process predictions: {in_process.tolist()}")
            print(f"bit-identical: {np.array_equal(over_the_wire, in_process)}")

            # The trained artifact can leave the server and live on as a file.
            local_copy = remote_model.fetch()
            print(f"downloaded model {local_copy.model_id} with weights {local_copy.weights.tolist()}")
            print(f"same id: {local_copy.model_id == remote_model.model_id}")


if __name__ == "__main__":
    main()
