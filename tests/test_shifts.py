import numpy as np
import pytest
from hypothesis import given, strategies as st

from ensembleseed.pore_model import TransitionModel
from ensembleseed.shifts import (
    distinct_pairs,
    gained,
    incoming_edges,
    links,
    pair_probs,
    predecessors,
    smallest_orders,
    successors,
)


def kmer_string(code, k):
    return "".join("ACGT"[(code >> (2 * (k - 1 - i))) & 3] for i in range(k))


@st.composite
def state_pairs(draw):
    k = draw(st.integers(1, 8))
    max_shift = draw(st.integers(0, k))
    x = draw(st.integers(0, 4**k - 1))
    # Half the time derive y from x so that linked pairs are common.
    if draw(st.booleans()):
        j = draw(st.integers(0, k))
        y = (x % 4 ** (k - j)) * 4**j + draw(st.integers(0, 4**j - 1))
    else:
        y = draw(st.integers(0, 4**k - 1))
    return k, max_shift, x, y


@given(state_pairs())
def test_smallest_orders_matches_string_rule(case):
    k, max_shift, x, y = case
    a, b = kmer_string(x, k), kmer_string(y, k)
    want = next((j for j in range(max_shift + 1) if a[j:] == b[: k - j]), -1)
    assert int(smallest_orders(x, y, k, max_shift)) == want


@pytest.mark.parametrize("k,j", [(1, 0), (1, 1), (3, 0), (3, 1), (3, 2), (3, 3)])
def test_predecessors_and_successors_are_the_order_j_edges(k, j):
    states = np.arange(4**k)
    targets = successors(states, k, j)
    assert links(states[:, None], targets, k, j).all()
    assert (targets & (4**j - 1) == np.arange(4**j)).all()
    pool, gained = predecessors(states, k, j)
    assert links(pool, states[:, None], k, j).all()
    np.testing.assert_array_equal(gained, states & (4**j - 1))
    # every state has exactly 4**j order-j predecessors and 4**j successors
    assert (np.sort(pool, axis=1) == pool).all()
    assert len(set(pool[0].tolist())) == 4**j


def test_summed_tables_differ_exactly_on_parallel_pairs():
    """Pair totals over incoming edges differ from raw weights on exactly the parallel pairs."""
    trans = TransitionModel.per_order(5)
    pool, raw = incoming_edges(trans.tables, 5)
    targets = np.arange(4**5)[:, None]
    total = pair_probs(trans, pool, targets)
    changed = {(int(pool[y, i]), int(y)) for y, i in zip(*np.nonzero(total != raw))}
    orders_linking = {
        pair: sum(bool(links(pair[0], pair[1], 5, j)) for j in range(3)) for pair in changed
    }
    assert len(changed) == 76
    assert min(orders_linking.values()) >= 2
    aaaaa = 0
    assert (aaaaa, aaaaa) in changed  # a homopolymer links to itself by every order


def test_distinct_pairs_lists_each_linked_pair_once():
    x, y = distinct_pairs(3, 2)
    pairs = list(zip(x.tolist(), y.tolist()))
    assert pairs == sorted(set(pairs))
    want = {(a, b) for a in range(64) for b in range(64) if smallest_orders(a, b, 3, 2) >= 0}
    assert set(pairs) == want


def test_incoming_edges_list_each_order_in_code_order():
    k, rng = 3, np.random.default_rng(2)
    tables = [rng.random(64), rng.random((64, 4)), rng.random((64, 16))]
    pool, weights = incoming_edges(tables, k)
    assert pool.shape == weights.shape == (64, 21)
    for y in range(64):
        want = [(y, tables[0][y])]
        for j in (1, 2):
            want += [(x, tables[j][x, y % 4**j]) for x in range(64) if links(x, y, k, j)]
        assert list(zip(pool[y].tolist(), weights[y].tolist())) == want
    assert gained(np.arange(64), 2).tolist() == [y % 16 for y in range(64)]
