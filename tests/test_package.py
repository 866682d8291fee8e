"""The package's top-level names, pinned so that an added or re-added
export (such as a second implementation of a pipeline step) shows up here."""

from types import ModuleType

import bitextkit

EXPORTED = {
    # errors
    "AllFilteredError", "BadMagicError", "BitextkitError", "ConfigError",
    "CorpusFormatError", "DimMismatchError", "DimZeroError", "DivergenceError",
    "EmptyNegativesError", "FormatError", "FrozenEncoderError", "KTooLargeError",
    "SizeMismatchError", "TooFewPairsError", "TruncatedFileError", "ZeroVectorError",
    # encoder and EMB1 files
    "EncoderParams", "FeaturizerConfig", "SparseCounts", "encode", "encode_batch",
    "encode_masked", "featurize", "featurize_batch", "load_encoder", "make_teacher",
    "save_encoder", "read_embeddings", "write_embeddings", "normalize_rows",
    # trainer
    "EpochStats", "NegativeQueue", "TrainConfig", "TrainResult",
    "batch_indices", "default_student", "equalize_negatives", "filtered_infonce_loss",
    "infonce_loss", "prefilter_mask", "queue_update", "train_distill", "train_step",
    # margin search and filtering
    "SearchConfig", "align", "knn", "xsim_error_rate", "xsim_report", "ScoredPair",
    "count_tokens", "read_pairs_tsv", "score_corpus", "select_by_token_budget",
    "write_pairs_tsv", "write_scored_tsv",
    # synthetic data and diagnostics
    "CipherSpec", "NoisyCorpus", "gen_cipher_corpus", "inject_noise", "Histogram",
    "SweepRow", "cosine_histogram", "similarity_distribution", "similarity_values",
    "threshold_sweep", "write_histogram_csv", "write_sweep_csv",
}


def test_package_exports_exactly_the_pinned_names():
    public = {
        name
        for name, value in vars(bitextkit).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == EXPORTED
    # no function shadows the submodule of the same name
    assert isinstance(bitextkit.margin, ModuleType)
    assert bitextkit.margin.__name__ == "bitextkit.margin"
