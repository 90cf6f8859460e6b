"""Joint clustering and linear embedding by alternating minimization,
with mixture-model sub-algorithms, baselines, metrics, and synthetic
benchmark generators."""

from .baselines import kmeans_pca, reduced_kmeans
from .cempca import (CempcaConfig, EmbeddingBundle, fit_cempca, objective,
                     pca_embed, update_B, update_M, update_Q)
from .data import (FCPS_SHAPES, LabeledDataset, gen_chang, gen_fcps,
                   knn_graph, load_csv, save_csv, smooth, standardize)
from .errors import (CempcaError, DataError, DegenerateUpdateError,
                     EmptyClusterError, InvalidInputError, NumericalError,
                     ParseError, SettingError, SingularMatrixError)
from .linalg import spd_solve, thin_svd
from .metrics import accuracy, ari, contingency, nmi
from .mixture import (FitResult, MixtureParams, Partition, c_step, cem,
                      cem_refine, complete_log_likelihood, e_step, em_gmm,
                      kmeans, log_likelihood, m_step)

__all__ = [
    "CempcaConfig", "CempcaError", "DataError",
    "DegenerateUpdateError", "EmbeddingBundle", "EmptyClusterError",
    "FCPS_SHAPES", "FitResult", "InvalidInputError", "LabeledDataset",
    "MixtureParams", "NumericalError", "ParseError", "Partition",
    "SettingError", "SingularMatrixError", "accuracy", "ari", "c_step", "cem",
    "cem_refine", "complete_log_likelihood", "contingency", "e_step", "em_gmm",
    "fit_cempca", "gen_chang", "gen_fcps", "kmeans", "kmeans_pca",
    "knn_graph", "load_csv", "log_likelihood", "m_step", "nmi", "objective",
    "pca_embed", "reduced_kmeans", "save_csv", "smooth", "spd_solve",
    "standardize", "thin_svd", "update_B", "update_M", "update_Q",
]
