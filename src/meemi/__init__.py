"""Cross-lingual word embeddings: orthogonal alignment of two monolingual
spaces plus a meeting-in-the-middle refinement that pulls every word and
its translation toward their average vector."""

from .alignment import (
    AlignedPair,
    AlignmentConfig,
    SpacePair,
    align_supervised,
    induce_dictionary,
    iterate_self_learning,
    unit_head,
)
from .embeddings import (
    EmbeddingSpace,
    load_space,
    normalize_unit,
    save_space,
)
from .evaluation import (
    EvalReport,
    eval_bli,
    eval_hypernyms,
    eval_similarity,
    fit_hypernym_projection,
)
from .lexicon import (
    BilingualLexicon,
    HypernymDataset,
    SimilarityDataset,
    load_hypernyms,
    load_lexicon,
    load_similarity,
    resolve,
)
from .refinement import (
    MeemiModel,
    apply_meemi,
    compute_averages,
    fit_meemi,
    similarity_shift_report,
)
from .retrieval import RetrievalIndex, build_index
from .solvers import (
    LinearMap,
    apply_map,
    fit_least_squares,
    fit_procrustes,
    load_map,
    save_map,
)

__version__ = "0.1.0"
