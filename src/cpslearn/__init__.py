"""Modular pipelines for data-driven modeling of cyber-physical systems.

Typed datasets, three environment kinds (offline batch, incremental stream,
active interaction), chainable transforms, native learners with strictly
separated models, standard metrics, a remote-learner bridge, and a
declarative CLI runner.
"""

from .dataset import Dataset, load_csv, load_json, write_csv
from .environments import (
    ActionSpace,
    ActiveEnvironment,
    DatasetStream,
    IncrementalEnvironment,
    OdeEnvironment,
    OfflineEnvironment,
    WaterTankActiveEnvironment,
    WaterTankSystem,
)
from .errors import PipelineError
from .learners import (
    EpsilonGreedyActiveLearner,
    IncrementalLinearLearner,
    LinearModel,
    LinearRegressionLearner,
    Model,
    RegressionTreeLearner,
    RegressionTreeModel,
    fit_linear,
    fit_tree,
    load_model,
    model_from_dict,
    save_model,
)
from .strategies import (
    EvaluationReport,
    IoSpec,
    evaluate,
    learn_active,
    learn_incremental,
    learn_offline,
)
from .transforms import (
    Explode,
    Select,
    SlidingWindow,
    Standardize,
    Transform,
    TransformChain,
)

__version__ = "0.1.0"

__all__ = [
    "ActionSpace",
    "ActiveEnvironment",
    "Dataset",
    "DatasetStream",
    "EpsilonGreedyActiveLearner",
    "EvaluationReport",
    "Explode",
    "IncrementalEnvironment",
    "IncrementalLinearLearner",
    "IoSpec",
    "LinearModel",
    "LinearRegressionLearner",
    "Model",
    "OdeEnvironment",
    "OfflineEnvironment",
    "PipelineError",
    "RegressionTreeLearner",
    "RegressionTreeModel",
    "Select",
    "SlidingWindow",
    "Standardize",
    "Transform",
    "TransformChain",
    "WaterTankActiveEnvironment",
    "WaterTankSystem",
    "evaluate",
    "fit_linear",
    "fit_tree",
    "learn_active",
    "learn_incremental",
    "learn_offline",
    "load_csv",
    "load_json",
    "load_model",
    "model_from_dict",
    "save_model",
    "write_csv",
]
