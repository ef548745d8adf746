"""Cross-modal subspace learning and fine-grained retrieval benchmarking.

Nine linear subspace methods (CCA, PLS, BLM, GMLDA, GMMFA, CDFE, CCA-3V,
LCFS, JFSSL) over paired two-modality feature datasets, plus the evaluation
protocol around them: cosine-ranked retrieval in both directions, MAP and
acc@K/CMC metrics, repeated random splits with summary statistics, t-tests,
lambda sweeps, and timing.
"""

from ._version import __version__
from .bench import (
    BenchmarkConfig,
    MethodSpec,
    box_stats,
    compute_ttests,
    config_from_dict,
    default_method_specs,
    lambda_sweep,
    run_benchmark,
    students_t_test,
    summary_stats,
)
from .dataset_io import (
    FeatureMatrix,
    PairedMultimodalDataset,
    encode_labels,
    load_dataset,
    random_split,
    save_dataset,
    stratified_split,
    subset,
)
from .errors import ConfigError, DataError, NumericalError, XmsError
from .methods import (
    CdfeConfig,
    GmaConfig,
    GmmfaConfig,
    LcfsConfig,
    SparseCoupledConfig,
    SubspaceModel,
    fit_cca,
    fit_cca3v,
    fit_cdfe,
    fit_gma,
    fit_jfssl,
    fit_lcfs,
    fit_method,
    fit_pls,
    load_model,
    project,
    save_model,
)
from .preprocess import PcaModel, center_fit, pca_apply, pca_fit
from .retrieval_eval import evaluate_direction
from .synthetic import make_synthetic_dataset
