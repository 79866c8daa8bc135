"""Doubly sparse non-negative Poisson matrix factorization for count data.

A binary feature matrix with restricted row sums and power-law feature
weights (an Indian-buffet-process family prior) multiplies sparse Gamma
loadings to form Poisson rates.  The package bundles the generative
samplers, the Gibbs/MH inference kernel, the evaluation suite, and a CLI.
"""

from .condbern import (
    LogESPTable,
    inclusion_probs,
    log_esp,
    log_odds,
    poisson_binomial_log_pmf,
    restricted_row_log_prior,
    sample_row_given_sum,
)
from .errors import (
    CheckpointError,
    DomainError,
    InvariantError,
    NumericsError,
    ParseError,
    S3RIBPError,
)
from .evaluate import (
    EvalReport,
    MatchResult,
    baseline_row_mean_log_perplexity,
    binomial_baseline_qq,
    evaluate_folds,
    feature_line,
    jaccard_match,
    live_features,
    log_perplexity,
    meta_features,
    qq_row_nonzeros,
    top_features,
    umass_coherence,
)
from .io import (
    RunConfig,
    load_counts,
    load_raw_matrix,
    load_summary,
    make_splits,
    save_counts,
    save_summary,
)
from .mcmc import (
    ChainConfig,
    ChainRunner,
    gibbs_update_B,
    predictive_log_lik,
    run_chain,
    sample_alpha,
)
from .model import (
    PI_CEILING,
    SIGMA_CEILING,
    CountMatrix,
    HyperParams,
    LatentState,
    ObservationMask,
    PosteriorSummary,
    negbin_log_pmf,
    negbin_row_sum_log_pmf,
    poisson_log_pmf,
    rca_index,
    rca_transform,
)
from .priors import (
    BinaryFeatureMatrix,
    atom_log_prior,
    levy_exposure_mass,
    new_dish_rate,
    sample_3p_ibp,
    sample_3r_ibp,
    sample_ibp,
    sample_pi_truncated,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "S3RIBPError",
    "DomainError",
    "NumericsError",
    "InvariantError",
    "CheckpointError",
    "ParseError",
    # model
    "CountMatrix",
    "ObservationMask",
    "HyperParams",
    "LatentState",
    "PosteriorSummary",
    "PI_CEILING",
    "SIGMA_CEILING",
    "poisson_log_pmf",
    "negbin_log_pmf",
    "negbin_row_sum_log_pmf",
    "rca_index",
    "rca_transform",
    # conditional Bernoulli
    "LogESPTable",
    "log_odds",
    "log_esp",
    "poisson_binomial_log_pmf",
    "inclusion_probs",
    "sample_row_given_sum",
    "restricted_row_log_prior",
    # priors
    "BinaryFeatureMatrix",
    "sample_ibp",
    "sample_3p_ibp",
    "sample_3r_ibp",
    "new_dish_rate",
    "atom_log_prior",
    "sample_pi_truncated",
    "levy_exposure_mass",
    # mcmc
    "ChainConfig",
    "ChainRunner",
    "gibbs_update_B",
    "sample_alpha",
    "run_chain",
    "predictive_log_lik",
    # evaluation
    "EvalReport",
    "MatchResult",
    "log_perplexity",
    "baseline_row_mean_log_perplexity",
    "umass_coherence",
    "qq_row_nonzeros",
    "binomial_baseline_qq",
    "jaccard_match",
    "top_features",
    "live_features",
    "meta_features",
    "evaluate_folds",
    # io
    "load_counts",
    "load_raw_matrix",
    "save_counts",
    "save_summary",
    "load_summary",
    "make_splits",
    "RunConfig",
]
