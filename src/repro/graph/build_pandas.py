"""Integer edge counts of the transaction graph, and the one fold that
turns them into Definition 2's weights.

A transaction touching ``n = |A_Tx|`` accounts adds one count to each of
its ``C(n, 2)`` account pairs under the key ``(src, dst, n)``, with
``src < dst``; a single-account transaction adds one to the self-loop key
``(a, a, 1)``. A count table is four aligned int64 arrays
``(src, dst, n, count)``, sorted by ``(src, dst, n)`` with unique keys.

Integer counts add exactly, so a table merged step by step
(:func:`merge_tx_counts`) equals the table of the whole stream, whatever
the order of its rows. :func:`fold_tx_counts` is the only place weights
are made: per pair, in ascending ``n``,
``w = Σ_n float(2·c_n) / float(n·(n−1))``, or ``float(c_1)`` for the
self-loop. The Spark builder (:func:`repro.graph.build.build_tx_graph`)
counts the same keys and is folded by the same function, so both builders
give the same weights bit for bit at any partition count.

The adaptive simulation (paper Figs. 9-10) keeps a count table across
steps and merges in only each step's counts; a Spark job per step would
dominate the measured A-TxAllo run time (DESIGN.md §5).
"""
import numpy as np
import pandas as pd

from repro.chain.ethdata import tx_incidence


def _layout(max_account: int, max_n: int) -> tuple[int, int]:
    """Bit widths of the account and arity fields of a packed key."""
    acct_bits, n_bits = int(max_account).bit_length(), int(max_n).bit_length()
    if 2 * acct_bits + n_bits > 63:
        raise ValueError(
            f"edge keys need {2 * acct_bits + n_bits} bits (account ids up to "
            f"{max_account}, arity up to {max_n}); at most 63 fit an int64"
        )
    return acct_bits, n_bits


def _pack(src, dst, n, layout: tuple[int, int]) -> np.ndarray:
    """One int64 per key that sorts as ``(src, dst, n)`` does."""
    acct_bits, n_bits = layout
    return (src << (acct_bits + n_bits)) | (dst << n_bits) | n


def _unpack(key: np.ndarray, layout: tuple[int, int]):
    acct_bits, n_bits = layout
    return (
        key >> (acct_bits + n_bits),
        (key >> n_bits) & ((1 << acct_bits) - 1),
        key & ((1 << n_bits) - 1),
    )


def count_tx_edges(tx_pdf: pd.DataFrame):
    """The count table ``(src, dst, n, count)`` of a transaction frame.

    Account ids must be non-negative. Transactions of one arity ``n`` are
    expanded together through ``np.triu_indices(n, 1)`` over their sorted
    accounts (the ``(0, 0)`` self-pair for ``n = 1``).
    """
    offsets, accounts = tx_incidence(tx_pdf)
    if accounts.min(initial=0) < 0:
        raise ValueError(f"account ids must be non-negative, got {accounts.min()}")
    arity = np.diff(offsets)
    layout = _layout(accounts.max(initial=0), arity.max(initial=0))
    keys = [np.empty(0, dtype=np.int64)]
    for n in np.unique(arity).tolist():
        iu, ju = np.triu_indices(n, 1 if n > 1 else 0)
        base = offsets[:-1][arity == n, None]
        keys.append(_pack(accounts[base + iu], accounts[base + ju], n, layout).ravel())
    key, count = np.unique(np.concatenate(keys), return_counts=True)
    return (*_unpack(key, layout), count)


def merge_tx_counts(kept, new):
    """The count table of two streams from their tables: counts of a key in
    both are added, keys of ``new`` only are inserted in sorted order."""
    layout = _layout(
        max(kept[1].max(initial=0), new[1].max(initial=0)),
        max(kept[2].max(initial=0), new[2].max(initial=0)),
    )
    kept_key, new_key = _pack(*kept[:3], layout), _pack(*new[:3], layout)
    pos = np.searchsorted(kept_key, new_key)
    hit = pos < len(kept_key)
    hit[hit] = kept_key[pos[hit]] == new_key[hit]
    count = kept[3].copy()
    count[pos[hit]] += new[3][hit]
    miss = ~hit
    key = np.insert(kept_key, pos[miss], new_key[miss])
    return (*_unpack(key, layout), np.insert(count, pos[miss], new[3][miss]))


def fold_tx_counts(src, dst, n, count) -> pd.DataFrame:
    """Weighted edges ``(src, dst, weight)`` of a count table, one row per
    pair, sorted. Each pair's terms ``float(2·c_n)/float(n·(n−1))`` are
    added in ascending ``n`` (``np.bincount`` adds in row order)."""
    loop = n == 1
    term = np.where(loop, count, 2 * count) / np.where(loop, 1, n * (n - 1))
    first = np.ones(len(src), dtype=bool)
    first[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
    weight = np.bincount(np.cumsum(first) - 1, weights=term, minlength=int(first.sum()))
    weight = weight.astype(float, copy=False)  # bincount of an empty input is int64
    return pd.DataFrame({"src": src[first], "dst": dst[first], "weight": weight})


def build_tx_graph_pandas(tx_pdf: pd.DataFrame) -> pd.DataFrame:
    """Aggregated weighted edges ``(src, dst, weight)`` with ``src <= dst``:
    the fold of the stream's count table, equal bit for bit to the folded
    Spark counts of :func:`repro.graph.build.build_tx_graph`."""
    return fold_tx_counts(*count_tx_edges(tx_pdf))
