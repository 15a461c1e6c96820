"""Layered memory network for multiple-choice video question answering.

Frames attend over a frozen word-embedding memory to build semantic frame
representations; frames then attend over a per-movie subtitle memory (with
optional update and question-guided passes) to build the clip representation
that scores the five candidate answers. Only the feature-to-word projection
is learned, by plain SGD on the cross-entropy loss.
"""

from .answering import QAItem, predict, score_answers
from .data_io import (
    DataFormatError,
    Example,
    SyntheticSpec,
    generate_synthetic,
    load_features,
    load_params,
    load_qa_jsonl,
    parse_srt,
    save_features,
    save_params,
    subsample_frames,
)
from .frame_encoder import ClipFeatures, encode_frames_cached
from .subtitle_memory import build_memory, encode_clip_cached
from .training import (
    ModelConfig,
    ModelParams,
    TrainConfig,
    evaluate,
    forward,
    gradcheck,
    init_params,
    prepare_example,
    rank_subtitles,
    train,
)
from .word_memory import (
    EmbeddingFormatError,
    StaticWordMemory,
    embed_sentence,
    load_word2vec_text,
    tokenize,
)

__version__ = "0.1.0"

__all__ = [
    "ClipFeatures",
    "DataFormatError",
    "EmbeddingFormatError",
    "Example",
    "ModelConfig",
    "ModelParams",
    "QAItem",
    "StaticWordMemory",
    "SyntheticSpec",
    "TrainConfig",
    "build_memory",
    "embed_sentence",
    "encode_clip_cached",
    "encode_frames_cached",
    "evaluate",
    "forward",
    "generate_synthetic",
    "gradcheck",
    "init_params",
    "load_features",
    "load_params",
    "load_qa_jsonl",
    "load_word2vec_text",
    "parse_srt",
    "predict",
    "prepare_example",
    "rank_subtitles",
    "save_features",
    "save_params",
    "score_answers",
    "subsample_frames",
    "tokenize",
    "train",
]
