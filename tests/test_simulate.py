import numpy as np
import pytest

from ensembleseed import simulate
from ensembleseed.decode import path_log_joint, path_to_sequence
from ensembleseed.kmers import kmer_codes, reverse_complement
from ensembleseed.pore_model import TransitionModel, make_hmm
from ensembleseed.simulate import (
    generate_reference,
    load_true_paths,
    load_truth,
    simulate_corpus,
    simulate_read,
    synthetic_pore_model,
    write_true_paths,
    write_truth,
)


@pytest.fixture(scope="module")
def small_hmm():
    return make_hmm(synthetic_pore_model(3, seed=7))


@pytest.fixture(scope="module")
def reference():
    return generate_reference(4000, seed=3)


def test_generate_reference():
    ref = generate_reference(500, seed=1)
    assert len(ref) == 500
    assert set(ref) <= set("ACGT")
    assert generate_reference(500, seed=1) == ref
    assert generate_reference(500, seed=2) != ref


def test_synthetic_pore_model_shape_and_determinism():
    a = synthetic_pore_model(3, seed=9)
    b = synthetic_pore_model(3, seed=9)
    assert a.k == 3
    np.testing.assert_array_equal(a.level_mean, b.level_mean)
    assert np.all(a.level_stdv > 0)


@pytest.mark.parametrize("strand", ["+", "-"])
def test_simulated_read_ground_truth_invariant(small_hmm, reference, strand):
    """The translated true path must equal the reference span it claims."""
    read = simulate_read(small_hmm, reference, 60, strand, seed=11, read_id="r")
    contig, start, end, s = read.truth
    assert s == strand
    assert 0 <= start < end <= len(reference)
    span = reference[start:end]
    want = span if strand == "+" else reverse_complement(span)
    assert read.true_sequence == want
    call = path_to_sequence(read.true_path.states, 3)
    assert call.sequence == read.true_sequence
    assert len(read.events) == 60


def test_simulate_read_deterministic(small_hmm, reference):
    a = simulate_read(small_hmm, reference, 40, "+", seed=5)
    b = simulate_read(small_hmm, reference, 40, "+", seed=5)
    np.testing.assert_array_equal(a.events.means, b.events.means)
    np.testing.assert_array_equal(a.true_path.states, b.true_path.states)
    assert a.truth == b.truth


def test_simulate_read_log_joint_is_consistent(small_hmm, reference):
    read = simulate_read(small_hmm, reference, 30, "-", seed=21)
    want = path_log_joint(small_hmm, read.events, read.true_path.states)
    assert read.true_path.log_joint == pytest.approx(want, rel=1e-12)


def test_simulate_read_rejects_bad_strand(small_hmm, reference):
    with pytest.raises(ValueError, match="strand"):
        simulate_read(small_hmm, reference, 30, "x", seed=1)


def test_simulate_read_needs_room(small_hmm):
    # reference shorter than one event's k-mer cannot host any walk
    with pytest.raises(ValueError):
        simulate_read(small_hmm, "AC", 10, "+", seed=1)


def test_gave_up_walks_that_overran_are_counted(small_hmm):
    with pytest.raises(RuntimeError) as info:
        simulate_read(small_hmm, "ACGTACGTAC", 300, "+", seed=1)
    assert str(info.value) == (
        "no accepted walk for read0 after 200 tries: "
        "200 overran the 10 bp reference, 0 read back shorter than they walked"
    )


def test_gave_up_walks_that_read_back_shorter_are_counted():
    """Every move between the As of "AAC" reads back as a split, so no walk matches."""
    hmm = make_hmm(synthetic_pore_model(1, seed=5), TransitionModel.per_order(1, (0.5, 0.5)))
    with pytest.raises(RuntimeError) as info:
        simulate_read(hmm, "AAC" * 10_000, 60, "+", seed=0)
    assert str(info.value) == (
        "no accepted walk for read0 after 200 tries: "
        "0 overran the 30000 bp reference, 200 read back shorter than they walked"
    )


def test_per_transition_models_also_simulate(reference):
    pore = synthetic_pore_model(2, seed=13)
    m = 16
    rng = np.random.default_rng(0)
    tables = [rng.uniform(0.05, 0.2, m), rng.uniform(0.1, 0.3, (m, 4))]
    tables[1] *= ((1.0 - tables[0]) / tables[1].sum(axis=1))[:, None]
    model = TransitionModel(2, tables, mode="per-transition")
    hmm = make_hmm(pore, model)
    read = simulate_read(hmm, reference, 25, "+", seed=2)
    assert path_to_sequence(read.true_path.states, 2).sequence == read.true_sequence
    with pytest.raises(RuntimeError, match="200 overran the 10 bp reference, 0 read back"):
        simulate_read(hmm, "ACGTACGTAC", 300, "-", seed=1)


class TestCorpus:
    def test_shapes_and_ids(self, small_hmm):
        ref, reads = simulate_corpus(
            small_hmm, reference_length=3000, read_count=5, events_per_read=50, seed=42
        )
        assert len(ref) == 3000
        assert len(reads) == 5
        ids = [r.read_id for r in reads]
        assert len(set(ids)) == 5
        for r in reads:
            assert len(r.events) == 50

    def test_rejects_a_negative_read_count(self, small_hmm):
        with pytest.raises(ValueError, match=r"read count must be >= 0, got -1"):
            simulate_corpus(small_hmm, reference_length=3000, read_count=-1)

    def test_same_seed_reruns_give_identical_reads(self, small_hmm):
        kw = dict(reference_length=3000, read_count=6, events_per_read=40, seed=9)
        ref1, reads1 = simulate_corpus(small_hmm, **kw)
        ref2, reads2 = simulate_corpus(small_hmm, **kw)
        assert ref1 == ref2
        assert len(reads1) == len(reads2) == 6
        for a, b in zip(reads1, reads2):
            np.testing.assert_array_equal(a.events.means, b.events.means)
            np.testing.assert_array_equal(a.true_path.states, b.true_path.states)
            assert a.truth == b.truth

    def test_each_strand_is_encoded_once_per_corpus(self, small_hmm, monkeypatch):
        calls = []

        def counted(seq, k):
            calls.append(k)
            return kmer_codes(seq, k)

        monkeypatch.setattr(simulate, "kmer_codes", counted)
        # a reference length no other test uses, so no cached encoding applies
        simulate_corpus(
            small_hmm, reference_length=3100, read_count=6, events_per_read=40, seed=9
        )
        assert 1 <= len(calls) <= 2


def test_truth_file_round_trip(tmp_path, small_hmm):
    _, reads = simulate_corpus(
        small_hmm, reference_length=2000, read_count=4, events_per_read=30, seed=8
    )
    path = tmp_path / "truth.tsv"
    write_truth(path, reads)
    loaded = load_truth(path)
    assert set(loaded) == {r.read_id for r in reads}
    for r in reads:
        contig, start, end, strand = r.truth
        assert loaded[r.read_id] == (contig, start, end, strand)


def test_truth_loader_rejects_duplicates(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text(
        "contig\tstart\tend\tstrand\tread_id\n"
        "ref\t0\t10\t+\tr1\n"
        "ref\t5\t15\t-\tr1\n"
    )
    with pytest.raises(ValueError, match="duplicate"):
        load_truth(path)


def test_truth_loader_rejects_bad_header(tmp_path):
    path = tmp_path / "truth.tsv"
    path.write_text("a\tb\n")
    with pytest.raises(ValueError, match="header"):
        load_truth(path)


def test_true_paths_round_trip(tmp_path, small_hmm):
    _, reads = simulate_corpus(
        small_hmm, reference_length=2000, read_count=3, events_per_read=25, seed=31
    )
    path = tmp_path / "paths.jsonl"
    write_true_paths(path, reads)
    loaded = load_true_paths(path)
    for r in reads:
        got = loaded[r.read_id]
        np.testing.assert_array_equal(got.states, r.true_path.states)
        assert got.log_joint == r.true_path.log_joint


def test_true_paths_loader_rejects_duplicates(tmp_path):
    path = tmp_path / "paths.jsonl"
    path.write_text(
        '{"read_id": "r1", "states": [0, 1], "log_joint": -1.0}\n'
        '{"read_id": "r2", "states": [2], "log_joint": -2.0}\n'
        '{"read_id": "r1", "states": [3], "log_joint": -3.0}\n'
    )
    with pytest.raises(ValueError, match=r"paths\.jsonl:3: duplicate read id 'r1'"):
        load_true_paths(path)


@pytest.mark.parametrize(
    "line,message",
    [
        ("ref\tfoo\t10\t+\tr3", "cannot parse start 'foo'"),
        ("ref\t10\t3\t+\tr3", r"interval \[10, 3\) is empty or negative"),
        ("ref\t0\t10\t*\tr3", "bad strand '\\*'"),
        ("ref\t0\t10\t+", "expected 5 columns, got 4"),
    ],
)
def test_truth_loader_names_malformed_line(tmp_path, line, message):
    path = tmp_path / "truth.tsv"
    path.write_text(
        "contig\tstart\tend\tstrand\tread_id\nref\t0\t10\t+\tr1\nref\t5\t15\t-\tr2\n" + line + "\n"
    )
    with pytest.raises(ValueError, match=rf"truth\.tsv:4: {message}"):
        load_truth(path)


@pytest.mark.parametrize(
    "line,message",
    [
        ('{"read_id": "r2", "states": [[1, 2], [3, 4]], "log_joint": -2.0}', "states must be a"),
        ('{"read_id": "r2", "states": [1.5], "log_joint": -2.0}', "states must be a"),
        ('{"read_id": "r2", "states": [], "log_joint": -2.0}', "states must be a"),
        ('{"read_id": "r2", "states": ["1"], "log_joint": -2.0}', "states must be a"),
        ('{"read_id": ["r2"], "states": [1], "log_joint": -2.0}', "read_id must be a JSON str"),
        ('{"read_id": "r2", "states": [1], "log_joint": "x"}', "log_joint must be a JSON float"),
        ('{"read_id": "r2", "log_joint": -2.0}', "record lacks states"),
        ("[1, 2]", "not a JSON object"),
        ('{"read_id": "r2", "states": [1]', "not a JSON record"),
    ],
)
def test_true_paths_loader_names_malformed_line(tmp_path, line, message):
    path = tmp_path / "paths.jsonl"
    path.write_text('{"read_id": "r1", "states": [0, 1], "log_joint": -1.0}\n' + line + "\n")
    with pytest.raises(ValueError, match=rf"paths\.jsonl:2: {message}"):
        load_true_paths(path)
