"""Credible distributions of overall rankings from noisy entity estimates."""

from .credset import (
    CredibleSelection,
    Dispersion,
    cartesian_select,
    elliptical_select,
    tune_kappa,
)
from .domain import HIGHEST_OF_TIES, MIDRANK, Dataset, DomainError, rank_of
from .fileio import baseball_dataset, parse_csv_text, parse_dataset
from .kww import BONFERRONI, INDEPENDENCE, KwwRankSet, gamma_from_alpha, rank_confidence_set
from .metrics import (
    SizeReport,
    ellipse_lengths,
    ellipse_size,
    expected_abs_deviation,
    kww_abs_deviation,
    orthotope_size,
    tese,
)
from .posterior import (
    PosteriorDraws,
    PosteriorSummary,
    gibbs_hb,
    sample_ub,
    summarize,
)
from .rankdist import (
    EQUAL,
    MAHALANOBIS_EXP,
    Fit,
    RankCredibleDistribution,
    build_distribution,
    expected_rank,
    rank_marginal,
    rank_table,
)
from .simlab import SimConfig, generate_instance, run_study

__all__ = [
    "BONFERRONI",
    "EQUAL",
    "HIGHEST_OF_TIES",
    "INDEPENDENCE",
    "MAHALANOBIS_EXP",
    "MIDRANK",
    "CredibleSelection",
    "Dataset",
    "Dispersion",
    "DomainError",
    "Fit",
    "KwwRankSet",
    "PosteriorDraws",
    "PosteriorSummary",
    "RankCredibleDistribution",
    "SimConfig",
    "SizeReport",
    "baseball_dataset",
    "build_distribution",
    "cartesian_select",
    "ellipse_lengths",
    "ellipse_size",
    "elliptical_select",
    "expected_abs_deviation",
    "expected_rank",
    "gamma_from_alpha",
    "generate_instance",
    "gibbs_hb",
    "kww_abs_deviation",
    "orthotope_size",
    "parse_csv_text",
    "parse_dataset",
    "rank_confidence_set",
    "rank_marginal",
    "rank_of",
    "rank_table",
    "sample_ub",
    "summarize",
    "tese",
    "tune_kappa",
    "run_study",
]
