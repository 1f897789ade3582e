"""Integer encoding of k-mers and small DNA string utilities.

Every k-mer over {A, C, G, T} maps to an integer in [0, 4**k) with A=0,
C=1, G=2, T=3 and the first base in the most significant position. The
encoding is fixed so that indexes and trained transition tables stay
portable across runs.
"""

from __future__ import annotations

import numpy as np

BASES = "ACGT"
STRANDS = ("+", "-")  # hit rows hold the index; a tuple, as "" in "+-" is True
_BASE_TO_CODE = {b: i for i, b in enumerate(BASES)}
_BYTE_TO_CODE = np.full(256, -1, dtype=np.int8)  # -1 for every byte but A, C, G, T
_BYTE_TO_CODE[[ord(b) for b in BASES]] = range(len(BASES))
_COMPLEMENT = str.maketrans("ACGTacgt", "TGCAtgca")
# byte b of 4 bases, the first in its top 2 bits -> the byte of their reverse complement
_RC_BYTE = sum((~np.arange(256) >> 2 * j & 3) << 2 * (3 - j) for j in range(4)).astype(np.uint8)


def encode_kmer(kmer: str) -> int:
    """Return the integer code of a k-mer (A=0..T=3, first base most significant)."""
    code = 0
    for base in kmer:
        try:
            code = (code << 2) | _BASE_TO_CODE[base]
        except KeyError:
            raise ValueError(f"non-ACGT base {base!r} in k-mer {kmer!r}") from None
    return code


def decode_kmer(code: int, k: int) -> str:
    """Return the k-mer string for an integer code."""
    if not 0 <= code < 4**k:
        raise ValueError(f"code {code} out of range for k={k}")
    out = []
    for shift in range(2 * (k - 1), -1, -2):
        out.append(BASES[(code >> shift) & 3])
    return "".join(out)


def encode_sequence(seq: str) -> np.ndarray:
    """Encode a DNA string as an int8 array of base codes."""
    return _BYTE_TO_CODE[np.frombuffer(seq.encode("ascii"), dtype=np.uint8)]


def kmer_codes(seq: str, k: int) -> np.ndarray:
    """Integer codes of all overlapping k-mers of ``seq``, built in one int64 array.

    Positions whose k-mer overlaps a non-ACGT character get code -1.
    """
    codes = encode_sequence(seq)
    n = len(seq) - k + 1
    if n <= 0:
        return np.empty(0, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for j in range(k):
        out <<= 2
        out |= codes[j : j + n]  # a non-ACGT -1 sets every bit: the code stays negative
    out[out < 0] = -1
    return out


def reverse_complement(seq: str) -> str:
    return seq.translate(_COMPLEMENT)[::-1]


def reverse_complement_codes(codes: np.ndarray, k: int) -> np.ndarray:
    """``uint32`` codes of the reverse complements of k-mer codes, for k <= 16.

    A code is the last k of the 16 bases of a little-endian 32-bit word. Each
    byte's 4 bases are complemented and reversed through a 256-entry table, and
    then the byte order: the word's reverse complement leads with the k-mer's,
    and the shift drops the complements of the leading A's.
    """
    words = _RC_BYTE[codes.astype("<u4").view(np.uint8)].view("<u4")
    words.byteswap(inplace=True)
    words >>= 32 - 2 * k
    return words
