"""seqnet: alignment-free protein sequence analysis via k-mer similarity networks."""

__version__ = "0.1.0"

from . import errors
from .seqio import (
    ALPHABET,
    Dataset,
    SequenceRecord,
    SplitPlan,
    parse_fasta,
    synthesize_dataset,
    write_fasta,
)
from .featurize import (
    FeatureMatrix,
    featurize_dataset,
    kmer_rank,
    kmer_unrank,
    total_kmers,
)
from .ssn import (
    SimilarityNetwork,
    build_ssn,
    connected_components,
    knn_query,
    load_graph,
    save_graph,
)
from .embed import (
    EmbeddingMatrix,
    WalkConfig,
    deepwalk,
    generate_walks,
    graph_factorization,
    hope_embed,
    laplacian_eigenmaps,
    lle_embed,
    node2vec,
)
from .cluster import (
    ClusterAssignment,
    ElbowCurve,
    agglomerative,
    dbscan,
    elbow_select_k,
    gaussian_mixture,
    kmeans,
    spectral_clustering,
)
from .evalmetrics import (
    ClassificationReport,
    ClusterQualityReport,
    calinski_harabasz,
    classification_report,
    cluster_quality,
    davies_bouldin,
    silhouette,
)
from .classify import (
    DecisionTree,
    GaussianNB,
    KNNClassifier,
    LinearSVM,
    LogisticRegression,
    RandomForest,
    run_experiment,
)
from .config import PipelineConfig, load_config
