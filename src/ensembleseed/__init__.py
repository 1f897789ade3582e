"""Event-level HMM base calling with posterior sample ensembles and k-mer seeding."""

from .decode import (
    BaseCall,
    ForwardMatrix,
    IllegalPathError,
    ReadEnsemble,
    StatePath,
    call_read,
    forward,
    path_to_sequence,
    sample_paths,
    viterbi,
)
from .kmers import decode_kmer, encode_kmer, reverse_complement
from .pore_model import (
    DEFAULT_ORDER_PROBS,
    EventSequence,
    Hmm,
    PoreModel,
    ReadScaling,
    TransitionModel,
    load_events,
    load_pore_model,
    make_hmm,
    write_events,
    write_pore_model,
)

__version__ = "0.1.0"

__all__ = [
    "BaseCall",
    "DEFAULT_ORDER_PROBS",
    "EventSequence",
    "ForwardMatrix",
    "Hmm",
    "IllegalPathError",
    "PoreModel",
    "ReadEnsemble",
    "ReadScaling",
    "StatePath",
    "TransitionModel",
    "call_read",
    "decode_kmer",
    "encode_kmer",
    "forward",
    "load_events",
    "load_pore_model",
    "make_hmm",
    "path_to_sequence",
    "reverse_complement",
    "sample_paths",
    "viterbi",
    "write_events",
    "write_pore_model",
    "__version__",
]
