"""bitextkit: contrastive distillation of sentence encoders with a negative
queue, margin-based bitext alignment, and parallel-corpus filtering.

Desk-scale reference implementation built on hashed character n-gram
features and linear encoders; see the README for the pipeline walkthrough.
"""

from .analysis import (
    Histogram,
    SweepRow,
    cosine_histogram,
    similarity_distribution,
    similarity_values,
    threshold_sweep,
    write_histogram_csv,
    write_sweep_csv,
)
from .embfile import read_embeddings, write_embeddings
from .encoder import (
    EncoderParams,
    FeaturizerConfig,
    SparseCounts,
    encode,
    encode_batch,
    encode_masked,
    featurize,
    featurize_batch,
    load_encoder,
    make_teacher,
    save_encoder,
)
from .errors import (
    AllFilteredError,
    BadMagicError,
    BitextkitError,
    ConfigError,
    CorpusFormatError,
    DimMismatchError,
    DimZeroError,
    DivergenceError,
    EmptyNegativesError,
    FormatError,
    FrozenEncoderError,
    KTooLargeError,
    SizeMismatchError,
    TooFewPairsError,
    TruncatedFileError,
    ZeroVectorError,
)
from .filtering import (
    ScoredPair,
    count_tokens,
    read_pairs_tsv,
    score_corpus,
    select_by_token_budget,
    write_pairs_tsv,
    write_scored_tsv,
)
from .margin import (
    SearchConfig,
    align,
    knn,
    xsim_error_rate,
    xsim_report,
)
from .synth import CipherSpec, NoisyCorpus, gen_cipher_corpus, inject_noise
from .trainer import (
    EpochStats,
    NegativeQueue,
    TrainConfig,
    TrainResult,
    batch_indices,
    default_student,
    equalize_negatives,
    filtered_infonce_loss,
    infonce_loss,
    prefilter_mask,
    queue_update,
    train_distill,
    train_step,
)
from .vectors import normalize_rows

__version__ = "0.1.0"
