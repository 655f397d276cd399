"""Shapley explanations for black-box models via local surrogate trees.

The pipeline perturbs around an instance, weights by an exponential
distance kernel, fits a weighted decision tree, and reads exact Shapley
values off the tree in polynomial time.  A kernel-regression baseline,
a brute-force oracle, a submodular instance picker, and deterministic
SVG plots round out the toolkit.
"""
from .core import (
    CLASSIFICATION,
    REGRESSION,
    BlackBoxModel,
    ConfigError,
    DataError,
    Dataset,
    FeatureMeta,
    LimaseError,
    ModelOutput,
    ModelOutputError,
    RandomStream,
    Task,
    child_seed,
    compute_feature_meta,
    dataset_summary,
    load_csv,
    write_csv,
)
from .external import ExternalModel, ProtocolError, attach_external
from .kernel import kernel_shap
from .models import (
    ForestModel,
    MlpModel,
    TreeModel,
    fit_mlp,
    fit_random_forest,
    load_model,
    save_model,
    training_score,
)
from .pipeline import (
    LimaseConfig,
    LimaseResult,
    PerturbationSet,
    kernel_weights,
    limase_explain,
    limase_explain_batch,
    sample_around,
    sigma_sweep,
)
from .shapley import (
    ShapExplanation,
    enumerate_tree_values,
    forest_shap,
    shapley_brute_force,
    tree_conditional_value,
    tree_shap,
)
from .sp import (
    ExplanationMatrix,
    SpResult,
    coverage,
    feature_importance,
    sp_explain,
    submodular_pick,
)
from .trees import DecisionTree, TreeParams, fit_tree, predict_batch
from .viz import (
    ForcePlotData,
    SummaryPlotData,
    build_force_plot,
    build_summary_plot,
    render_svg,
)

__version__ = "0.1.0"
