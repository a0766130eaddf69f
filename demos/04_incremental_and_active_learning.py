"""Incremental streams and active interaction, on the same tank system.

The incremental driver replays a dataset batch by batch through an
incremental least-squares learner, which folds the rows into the triangular
factor R of a QR factorization and solves it once at the end; after one pass
its fitted function agrees with batch least squares. The active driver lets an
epsilon-greedy policy choose inflow actions, building a one-step surrogate of
the level dynamics from its own interactions: the same incremental learner, fed
one transition at a time, whose factor R also scores how unexplored each action is.

Run with: python demos/04_incremental_and_active_learning.py
"""

import numpy as np

from cpslearn import (
    Dataset,
    DatasetStream,
    EpsilonGreedyActiveLearner,
    IncrementalLinearLearner,
    IoSpec,
    LinearRegressionLearner,
    OdeEnvironment,
    OfflineEnvironment,
    SlidingWindow,
    WaterTankActiveEnvironment,
    WaterTankSystem,
    learn_active,
    learn_incremental,
    learn_offline,
)
from cpslearn.metrics import mae


def main():
    trajectory = OdeEnvironment(WaterTankSystem(), sample_period=0.1).sample_trajectory(250)
    windowed = SlidingWindow(3).apply(trajectory)
    io = IoSpec(["V_0", "x_0", "V_1", "x_1", "V_2"], ["x_2"])

    # Stream the windowed rows in batches of 16 through the online learner.
    # The windowed tank columns are strongly correlated, so individual weights
    # are poorly pinned down; the fitted functions still coincide.
    online = learn_incremental(
        DatasetStream(windowed, batch_size=16), None, io, IncrementalLinearLearner()
    )
    batch = learn_offline(
        OfflineEnvironment.from_dataset(windowed), None, io, LinearRegressionLearner()
    )
    probe = windowed.select(io.inputs)
    gap = np.max(np.abs(online.predict(probe).column("x_2") - batch.predict(probe).column("x_2")))
    print(f"incremental vs batch least squares, max prediction gap: {gap:.2e}")

    # Active learning: the policy drives the tank itself for 500 steps.
    env = WaterTankActiveEnvironment()
    policy = EpsilonGreedyActiveLearner(
        env.action_space, state_columns=("x",), target_column="x", epsilon=0.3, seed=42
    )
    surrogate = learn_active(env, policy, step_budget=500)
    print(f"explored for 500 steps; simulated time is now {env.time:.1f} s")

    # Judge the surrogate on a passive trajectory it never saw.
    check = OdeEnvironment(WaterTankSystem(), sample_period=0.1).sample_trajectory(200)
    levels, inflows = check.column("x"), check.column("V")
    probe = Dataset({"x": levels[:-1], "V": inflows[:-1]})
    predicted_next = surrogate.predict(probe).column("x")
    print(f"surrogate one-step MAE on held-out trajectory: {mae(predicted_next, levels[1:]):.5f}")
    print(f"(an untrained surrogate scores {mae(np.zeros(199), levels[1:]):.5f})")


if __name__ == "__main__":
    main()
