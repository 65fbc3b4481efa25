"""Population EEG spectral tensors: build, decompose, project, classify."""

__version__ = "0.1.0"

from .errors import ArgumentError, IngestError, ParseError
from .tensor import (
    FactorSet,
    Tensor3,
    load_factors,
    load_tensor,
    mttkrp,
    relative_error,
    save_factors,
    save_tensor,
)
from .edf import Recording, read_edf, read_edf_file, read_manifest, select_channels, write_edf
from .preprocess import (
    BANDS,
    FREQ_GRID,
    bandpass,
    epoch_and_reject,
    pib,
    select_awake_epochs,
    welch,
)
from .cpd import CpdOptions, cpd_als, cpd_gn
from .rank import diffit
from .projection import build_basis, project
from .classify import (
    CohortDataset,
    assign_folds,
    auc,
    cross_validate,
    gnb_fit,
    gnb_score,
    svm_fit,
    svm_objective,
    svm_score,
)
from .synth import SynthSpec, make_cohort, make_recording, make_tensor
