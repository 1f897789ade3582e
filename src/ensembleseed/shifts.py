"""The shift graph of the k-mer HMM: which states an order-j transition links.

Order j links k-mer x to k-mer y when the last k-j bases of x equal the first
k-j bases of y: the pore context moved j bases, order 0 being a split (x
stays) and order 1 a one-base move. With the integer encoding (first base most
significant) write x = a*4**(k-j) + s and y = s*4**j + b, where a holds the j
bases x drops, s the k-j bases both share and b the j bases y gains. Order-j
edge tables are (m, 4**j) arrays indexed [x, b], so reshaping one to
(4**j, 4**(k-j), 4**j) indexes it [a, s, b]: reducing over a lands on the
targets y, in code order, and the predecessors of y are a*4**(k-j) + (y >> 2j).

Some pairs are linked by more than one order, for example a homopolymer and
itself by every order, or a period-2 k-mer and itself by orders 0 and 2. Their
total transition probability sums the parallel edges in order j = 0, 1, ...

This is the shift-structured k-mer HMM of Nanocall (David et al.,
Bioinformatics 2017). The rule is written only here.
"""

from __future__ import annotations

import numpy as np


def links(x, y, k: int, j: int):
    """Whether order j links k-mer codes x to y (elementwise over arrays)."""
    return (x & (4 ** (k - j) - 1)) == (y >> (2 * j))


def smallest_orders(x, y, k: int, max_shift: int) -> np.ndarray:
    """Smallest order in [0, max_shift] linking each (x, y) pair; -1 where none does."""
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    orders = np.full(np.broadcast(x, y).shape, -1, dtype=np.int64)
    for j in range(max_shift, -1, -1):
        orders[links(x, y, k, j)] = j
    return orders


def edge_table(tables, j: int) -> np.ndarray:
    """Order-j edge probabilities as an (m, 4**j) array indexed [x, b]."""
    return tables[0][:, None] if j == 0 else tables[j]


def by_dropped_bases(values: np.ndarray, k: int, j: int) -> np.ndarray:
    """View (m, 4**j) order-j edge values as (4**j, 4**(k-j), 4**j), indexed [a, s, b].

    Entry [a, s, b] belongs to the edge from x = a*4**(k-j) + s to
    y = s*4**j + b, so a reduction over axis 0 reshaped to (m,) is per target.
    """
    return values.reshape(4**j, 4 ** (k - j), 4**j)


def gained(y, j: int):
    """The j bases b that order-j edges into y append: y's column in the order-j table."""
    return y & (4**j - 1)


def predecessors(y: np.ndarray, k: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Order-j predecessors of each target and the bases b each target gains.

    Predecessors come as a (len(y), 4**j) array in code order; b is the
    target's column in the order-j edge table.
    """
    pool = (y >> (2 * j))[:, None] + np.arange(4**j) * 4 ** (k - j)
    return pool, gained(y, j)


def incoming_edges(tables, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every state's incoming edges as (m, 1 + 4 + ... + 4**max_shift) tables.

    Row y lists y's predecessors order by order (the split first, then order
    1, 2, ..., each in code order) and beside them the weight of that edge in
    ``tables``, one (m, 4**j) or (m,) table per order j.
    """
    m = 4**k
    targets = np.arange(m)
    pools, weights = [], []
    for j, table in enumerate(tables):
        pool, b = predecessors(targets, k, j)
        pools.append(pool)
        weights.append(np.reshape(table, (m, 4**j))[pool, b[:, None]])
    return np.concatenate(pools, axis=1), np.concatenate(weights, axis=1)


def successors(x: np.ndarray, k: int, j: int) -> np.ndarray:
    """Order-j targets of each source, shape (len(x), 4**j), indexed by gained bases b."""
    return ((x & (4 ** (k - j) - 1)) * 4**j)[:, None] + np.arange(4**j)


def pair_probs(transitions, x, y) -> np.ndarray:
    """Total transition probability of each (x, y) pair, parallel orders summed."""
    k = transitions.k
    total = np.zeros(np.broadcast(x, y).shape)
    for j in range(transitions.max_shift + 1):
        table = edge_table(transitions.tables, j)
        total = total + np.where(links(x, y, k, j), table[x, gained(y, j)], 0.0)
    return total


def distinct_pairs(k: int, max_shift: int) -> tuple[np.ndarray, np.ndarray]:
    """Every linked (x, y) pair once, sorted by source then target."""
    states = np.arange(4**k)
    xs, ys = [], []
    for j in range(max_shift + 1):
        y = successors(states, k, j)
        x = np.broadcast_to(states[:, None], y.shape)
        first = smallest_orders(x, y, k, max_shift) == j
        xs.append(x[first])
        ys.append(y[first])
    x, y = np.concatenate(xs), np.concatenate(ys)
    order = np.lexsort((y, x))
    return x[order], y[order]
