import numpy as np
import pytest

from ensembleseed.kmers import (
    decode_kmer,
    encode_kmer,
    encode_sequence,
    kmer_codes,
    reverse_complement,
)


def test_encode_examples():
    assert encode_kmer("A") == 0
    assert encode_kmer("T") == 3
    assert encode_kmer("AA") == 0
    assert encode_kmer("ACGT") == 0b00011011
    # first base is the most significant pair of bits
    assert encode_kmer("CA") == 4
    assert encode_kmer("AC") == 1


def test_round_trip_all_small_k():
    for k in (1, 2, 3, 4):
        for code in range(4**k):
            assert encode_kmer(decode_kmer(code, k)) == code


def test_encode_rejects_non_acgt():
    with pytest.raises(ValueError, match="non-ACGT"):
        encode_kmer("ACN")


def test_decode_rejects_out_of_range():
    with pytest.raises(ValueError):
        decode_kmer(64, 3)
    with pytest.raises(ValueError):
        decode_kmer(-1, 2)


def test_encode_sequence():
    np.testing.assert_array_equal(encode_sequence("ACGT"), [0, 1, 2, 3])
    np.testing.assert_array_equal(encode_sequence("ANT"), [0, -1, 3])


def test_kmer_codes_matches_per_position_encoding():
    seq = "GATTACAGATT"
    k = 3
    got = kmer_codes(seq, k)
    want = [encode_kmer(seq[i : i + k]) for i in range(len(seq) - k + 1)]
    np.testing.assert_array_equal(got, want)


def test_kmer_codes_flags_ambiguous_windows():
    got = kmer_codes("ACNGT", 2)
    np.testing.assert_array_equal(got, [encode_kmer("AC"), -1, -1, encode_kmer("GT")])


@pytest.mark.parametrize("k", [1, 3, 15, 16])
def test_kmer_codes_mark_each_k_mer_over_a_non_acgt_character(k):
    """Runs of N longer than k, single N, lowercase and gap characters, at both ends."""
    rng = np.random.default_rng(k)
    seq = "N" + "".join(rng.choice(list("ACGTNa-"), 400, p=[0.22] * 4 + [0.04] * 3)) + "-"
    seq = seq[:100] + "N" * 20 + seq[100:]
    got = kmer_codes(seq, k)
    windows = [seq[i : i + k] for i in range(len(seq) - k + 1)]
    want = [encode_kmer(w) if set(w) <= set("ACGT") else -1 for w in windows]
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, want)


def test_kmer_codes_short_sequence():
    assert kmer_codes("AC", 3).size == 0


def test_reverse_complement():
    assert reverse_complement("ACGT") == "ACGT"
    assert reverse_complement("AAC") == "GTT"
    assert reverse_complement("") == ""
    seq = "GATTACA"
    assert reverse_complement(reverse_complement(seq)) == seq
