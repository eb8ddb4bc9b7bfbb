"""Synthetic Ethereum-like transaction generator.

The paper evaluates on Ethereum blocks 10,000,000-10,600,000 (91.8M
transactions, 12.6M accounts). That dump is unavailable offline, so this
module generates a deterministic synthetic stream with the structural
features the evaluation depends on (paper Fig. 1):

- **persistent relationships** — transactions are drawn from a fixed
  universe of account pairs (real transaction graphs reuse edges heavily:
  exchange deposits, contract calls), so the transaction graph has dense,
  detectable communities rather than one fresh edge per transaction;
- **long-tail activity** — zipf-weighted accounts and zipf-popular
  relationships, so most accounts appear in a handful of transactions;
- **one hyperactive hub** (account 0) touching ~11% of all transactions
  with globally scattered partners — the paper calls this account out as
  the main challenge for workload balance (Figs. 1 and 4);
- **planted community structure** — non-hub relationships stay inside a
  latent account community with probability ``P_INTRA``;
- **self-loop transactions** (§V-B motivates handling them explicitly);
- **multi-input/output transactions** with ``|A_Tx| > 2``;
- **block-sequenced chronology** so the adaptive experiments (Figs. 9-10)
  can step through time, with accounts first appearing mid-stream.

Scale factor: SF=0.1 ~ 200k txs / ~30k candidate accounts; tests use
SF<=0.01.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa

_N_TX_PER_SF = 2_000_000
_N_ACCT_PER_SF = 300_000
_N_BLOCK_PER_SF = 2_000

# The stream's shape, fixed to Fig. 1's.
HUB_SHARE = 0.11  # fraction of txs touching the hyperactive hub
ACTIVITY_ALPHA = 1.05  # zipf exponent of account activity
REL_ALPHA = 0.85  # zipf exponent of relationship popularity
RELS_PER_ACCOUNT = 2.5  # relationship-universe size / n_accounts
P_INTRA = 0.95  # prob. a non-hub relationship stays in-community
P_SELF = 0.01  # prob. of a self-loop tx
P_MULTI = 0.03  # prob. of a multi-account (contract-like) tx
ACCOUNTS_PER_COMMUNITY = 150

# The stream's Arrow buffers come from the C allocator that numpy's arrays
# use; Arrow's default pool (jemalloc) would keep freed pages for reuse.
_POOL = pa.system_memory_pool()


def tx_incidence(tx_pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """The transaction→account incidence of a stream, as ``(offsets, accounts)``,
    which the pandas graph builder and evaluator read.

    Row ``i`` of ``tx_pdf`` touches ``accounts[offsets[i]:offsets[i+1]]``:
    its account set A_Tx, sorted ascending and deduplicated. ``offsets``
    has length ``|T|+1``; ``accounts`` is flat int64 in row order.

    The ``accounts`` column is read in one Arrow conversion, whether it is
    the generator's Arrow list column or an object column of lists or
    arrays. Every transaction touches at least one account (Definition 2
    gives it total edge weight 1); a null or empty row raises
    ``ValueError``.
    """
    col = tx_pdf["accounts"]
    # An Arrow column's ``.to_numpy(object)`` would turn it back into lists.
    data = col.array if isinstance(col.dtype, pd.ArrowDtype) else col.to_numpy(object)
    lists = pa.array(data, type=pa.large_list(pa.int64()), memory_pool=_POOL)
    if isinstance(lists, pa.ChunkedArray):
        lists = lists.combine_chunks()
    # ``value_lengths``/``flatten`` honour a sliced array; ``.offsets``/``.values``
    # do not. A null row's length reads NaN, so it fails ``> 0`` as an empty one does.
    lengths = lists.value_lengths().to_numpy(zero_copy_only=False)
    if not (lengths > 0).all():
        tx_id = tx_pdf["tx_id"].iloc[int(np.argmin(lengths > 0))]
        raise ValueError(f"transaction {tx_id} has no accounts")
    flat = lists.flatten().to_numpy()
    return owner_sets(np.repeat(np.arange(len(lists)), lengths), flat, len(lists))


def owner_sets(owner: np.ndarray, values: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, values)`` of owners ``0..n-1`` from unordered ``(owner,
    value)`` rows: each owner's values sorted ascending and deduplicated.
    One stable sort of an int64 key orders the rows as
    ``np.lexsort((values, owner))`` would; ``ValueError`` if it overflows."""
    lo = int(values.min(initial=0))
    span = int(values.max(initial=0)) - lo + 1
    if n * span > np.iinfo(np.int64).max:
        raise ValueError(f"set keys need {n} owners x {span} values, more than an int64 holds")
    order = np.argsort(owner.astype(np.int64) * span + (values - lo), kind="stable")
    owner, values = owner[order], values[order]
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = (values[1:] != values[:-1]) | (owner[1:] != owner[:-1])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=n), out=offsets[1:])
    return offsets, values[keep]


@dataclass(frozen=True)
class EthParams:
    """Scale factor and seed of the synthetic stream; its shape is the
    module constants above."""

    sf: float = 0.01
    seed: int = 7

    @property
    def n_txs(self) -> int:
        return max(10, int(_N_TX_PER_SF * self.sf))

    @property
    def n_accounts(self) -> int:
        return max(8, int(_N_ACCT_PER_SF * self.sf))

    @property
    def n_blocks(self) -> int:
        return max(1, int(_N_BLOCK_PER_SF * self.sf))

    @property
    def n_communities(self) -> int:
        return max(2, self.n_accounts // ACCOUNTS_PER_COMMUNITY)

    @property
    def n_relationships(self) -> int:
        return max(4, int(RELS_PER_ACCOUNT * self.n_accounts))


def _community_assignment(p: EthParams) -> np.ndarray:
    """Latent community id per account; sizes follow a truncated zipf.

    Membership is a deterministic permutation (seeded from ``p.seed``) so
    that community membership is *independent* of an account's activity
    rank — every community has its own hot and cold accounts, as in real
    transaction graphs. The hub (account 0) always sits in community 0.
    """
    sizes = 1.0 / np.arange(1, p.n_communities + 1) ** 0.8
    sizes = np.maximum(1, np.round(sizes / sizes.sum() * p.n_accounts)).astype(np.int64)
    drift = p.n_accounts - int(sizes.sum())
    sizes[0] = max(1, sizes[0] + drift)
    comm = np.repeat(np.arange(len(sizes)), sizes)[: p.n_accounts]
    g = np.random.default_rng(p.seed + 1)
    perm = g.permutation(p.n_accounts)
    assigned = np.empty(p.n_accounts, dtype=np.int64)
    assigned[perm] = comm
    # Pin the hub into community 0 by swapping labels with whichever
    # account drew community 0 first.
    if assigned[0] != 0:
        j = int(np.nonzero(assigned == 0)[0][0])
        assigned[j] = assigned[0]
        assigned[0] = 0
    return assigned


def _activity_weights(p: EthParams) -> np.ndarray:
    """Per-account endpoint-sampling weight: zipf over a deterministic
    permutation of the ranks, so activity is independent of account id
    (and therefore of community membership). Account 0 keeps rank 0 —
    it is the hub whose tx share is pinned later."""
    w = 1.0 / np.arange(1, p.n_accounts + 1) ** ACTIVITY_ALPHA
    g = np.random.default_rng(p.seed + 2)
    perm = np.concatenate([[0], 1 + g.permutation(p.n_accounts - 1)])
    out = np.empty(p.n_accounts)
    out[perm] = w
    return out / out.sum()


def _communities(comm_of: np.ndarray, act: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per community: its accounts, ascending, and their activity weights
    normalised to sum 1 (the in-community sampling law)."""
    members = np.split(np.argsort(comm_of, kind="stable"), np.cumsum(np.bincount(comm_of))[:-1])
    return [(m, act[m] / act[m].sum()) for m in members]


def _relationship_universe(
    p: EthParams, g: np.random.Generator, comm_of: np.ndarray, act: np.ndarray, comms: list
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The persistent (src, dst) pair universe and its tx-popularity, given
    the :func:`_community_assignment`, :func:`_activity_weights` and
    :func:`_communities` of ``p``.

    Non-hub sources pick an in-community destination with prob ``P_INTRA``
    (activity-weighted) and a global one otherwise. The hub's
    relationships are always global (an exchange serves everyone). The
    popularity of hub-incident relationships is renormalized so that
    exactly ``HUB_SHARE`` of transactions touch the hub.
    """
    R = p.n_relationships

    src = g.choice(p.n_accounts, size=R, p=act)
    # A slice of the universe belongs to the hub regardless of the zipf
    # draw, so the hub always has a wide, global partner set.
    n_hub_rel = max(2, int(0.02 * R))
    src[:n_hub_rel] = 0

    dst = np.empty(R, dtype=np.int64)
    intra = (g.random(R) < P_INTRA) & (src != 0)
    idx_glob = np.nonzero(~intra)[0]
    dst[idx_glob] = g.choice(p.n_accounts, size=idx_glob.size, p=act)

    src_comm = comm_of[src]
    for c, (m, w) in enumerate(comms):
        idx = np.nonzero(intra & (src_comm == c))[0]
        if idx.size:
            dst[idx] = g.choice(m, size=idx.size, p=w)

    # A relationship is between two *distinct* accounts (self-transfers
    # are generated separately via P_SELF); nudge collisions off-diagonal
    # so e.g. a popular (hub, hub) pair cannot distort the intra mass.
    coll = dst == src
    dst[coll] = (dst[coll] + 1) % p.n_accounts

    # Relationship popularity: zipf over a deterministic shuffle so that
    # popularity is independent of construction order.
    pop = 1.0 / np.arange(1, R + 1) ** REL_ALPHA
    pop = pop[g.permutation(R)]
    pop /= pop.sum()

    hub_mask = (src == 0) | (dst == 0)
    hub_pop = pop[hub_mask].sum()
    if 0.0 < hub_pop < 1.0:
        pop[hub_mask] *= HUB_SHARE / hub_pop
        pop[~hub_mask] *= (1.0 - HUB_SHARE) / (1.0 - hub_pop)
    return src, dst, pop


def eth_transactions_pandas(params: EthParams | None = None) -> pd.DataFrame:
    """Generate the transaction stream as a pandas DataFrame.

    Columns: ``tx_id`` (int64, == chronological order), ``block`` (int64,
    non-decreasing), ``accounts`` (the deduplicated, sorted account set
    A_Tx of the transaction, as ``pd.ArrowDtype(pa.list_(pa.int64()))``:
    one offsets array and one flat int64 array, not one Python list per
    row). Iterating the column still yields Python lists; ``tx_incidence``
    reads its arrays without them.
    """
    p = params or EthParams()
    g = np.random.default_rng(p.seed)
    n = p.n_txs

    comm_of = _community_assignment(p)
    act = _activity_weights(p)
    comms = _communities(comm_of, act)
    rel_src, rel_dst, rel_pop = _relationship_universe(p, g, comm_of, act, comms)
    r = g.choice(len(rel_pop), size=n, p=rel_pop)
    src = rel_src[r]
    dst = rel_dst[r].copy()

    self_mask = g.random(n) < P_SELF
    dst[self_mask] = src[self_mask]

    multi_mask = (g.random(n) < P_MULTI) & ~self_mask
    n_extra = np.where(multi_mask, g.integers(1, 4, size=n), 0)
    # Extra accounts of a multi-account tx come from the source's own
    # community (contract calls inside one dapp), activity-weighted — this
    # keeps multi-account txs clusterable, like the underlying stream.
    total_extra = int(n_extra.sum())
    extra_pool = np.empty(total_extra + 1, dtype=np.int64)
    if total_extra:
        src_comm_per_extra = np.repeat(comm_of[src], n_extra)
        for c in np.unique(src_comm_per_extra):
            sel = np.nonzero(src_comm_per_extra == c)[0]
            members, weights = comms[c]
            extra_pool[sel] = g.choice(members, size=sel.size, p=weights)

    # A_Tx = {src, dst} ∪ the tx's extras, as sorted deduplicated lists.
    tx = np.arange(n)
    offsets, flat = owner_sets(
        np.concatenate([tx, tx, np.repeat(tx, n_extra)]),
        np.concatenate([src, dst, extra_pool[:total_extra]]),
        n,
    )
    # Arrow's list offsets are int32; the checked cast raises on overflow.
    offsets = pa.array(offsets, pa.int32(), memory_pool=_POOL)
    accounts = pa.ListArray.from_arrays(offsets, pa.array(flat), pool=_POOL)

    txs_per_block = max(1, n // p.n_blocks)
    block = np.minimum(np.arange(n) // txs_per_block, p.n_blocks - 1)
    return pd.DataFrame(
        {
            "tx_id": np.arange(n, dtype=np.int64),
            "block": block.astype(np.int64),
            "accounts": pd.arrays.ArrowExtensionArray(accounts),
        }
    )
