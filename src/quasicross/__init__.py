"""Lattice tilings of R^n by quasi-crosses: splitting search, non-existence
criteria, and dimension-by-dimension classification."""

from .classify import (
    ClassificationRun,
    ContradictionError,
    Summary,
    TilesSource,
    Verdict,
    classify_range,
    default_certificates_path,
    default_registry,
    load_certificates,
    report_csv,
    report_json,
    report_text,
    store_certificate,
    summarize,
)
from .criteria import (
    CRITERION_ORDER,
    CriterionOutcome,
    CriterionStatus,
    VerdictStatus,
)
from .search import (
    DEFAULT_NODE_BUDGET,
    CountOutcome,
    SearchOutcome,
    SearchStatus,
    count_splittings,
    find_splitting,
)
from .splitting import (
    LatticeBasis,
    MultiplierSet,
    QuasiCrossShape,
    Splitting,
    VerificationResult,
    check_arms,
    from_json_line,
    interval_multipliers,
    lattice_basis,
    multiplier_set,
    phi_kernel_basis,
    to_json_line,
    verify_cover,
)

__version__ = "0.1.0"
