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
  latent account community with probability ``p_intra``;
- **self-loop transactions** (§V-B motivates handling them explicitly);
- **multi-input/output transactions** with ``|A_Tx| > 2``;
- **block-sequenced chronology** so the adaptive experiments (Figs. 9-10)
  can step through time, with accounts first appearing mid-stream.

Scale factor: SF=0.1 ~ 200k txs / ~30k candidate accounts; tests use
SF<=0.01.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import types as T

_N_TX_PER_SF = 2_000_000
_N_ACCT_PER_SF = 300_000
_N_BLOCK_PER_SF = 2_000

TX_SCHEMA = T.StructType(
    [
        T.StructField("tx_id", T.LongType(), nullable=False),
        T.StructField("block", T.LongType(), nullable=False),
        T.StructField("accounts", T.ArrayType(T.LongType(), False), nullable=False),
    ]
)


def tx_incidence(tx_pdf: pd.DataFrame) -> tuple[np.ndarray, np.ndarray]:
    """The transaction→account incidence of a stream, as ``(offsets, accounts)``:
    the one place the driver reads the ``accounts`` lists.

    Row ``i`` of ``tx_pdf`` touches ``accounts[offsets[i]:offsets[i+1]]``:
    its account set A_Tx, sorted ascending and deduplicated. ``offsets``
    has length ``|T|+1``; ``accounts`` is flat int64 in row order.

    Every transaction touches at least one account (Definition 2 gives it
    total edge weight 1); a row with an empty list raises ``ValueError``.
    """
    lists = tx_pdf["accounts"]
    lengths = np.fromiter(map(len, lists), np.int64, len(lists))
    if (lengths == 0).any():
        tx_id = tx_pdf["tx_id"].iloc[int(np.argmin(lengths))]
        raise ValueError(f"transaction {tx_id} has no accounts")
    flat = np.fromiter(chain.from_iterable(lists), np.int64, int(lengths.sum()))
    return _account_sets(np.repeat(np.arange(len(lists)), lengths), flat, len(lists))


def _account_sets(owner: np.ndarray, flat: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(offsets, accounts)`` of ``n`` transactions from unordered
    ``(owner, account)`` incidence rows: each transaction's accounts
    sorted ascending and deduplicated."""
    order = np.lexsort((flat, owner))
    flat, owner = flat[order], owner[order]
    keep = np.ones(len(flat), dtype=bool)
    keep[1:] = (flat[1:] != flat[:-1]) | (owner[1:] != owner[:-1])
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner[keep], minlength=n), out=offsets[1:])
    return offsets, flat[keep]


@dataclass(frozen=True)
class EthParams:
    """Tunables for the synthetic stream; defaults target Fig. 1's shape."""

    sf: float = 0.01
    seed: int = 7
    hub_share: float = 0.11  # fraction of txs touching the hyperactive hub
    activity_alpha: float = 1.05  # zipf exponent of account activity
    rel_alpha: float = 0.85  # zipf exponent of relationship popularity
    rels_per_account: float = 2.5  # relationship-universe size / n_accounts
    p_intra: float = 0.95  # prob. a non-hub relationship stays in-community
    p_self: float = 0.01  # prob. of a self-loop tx
    p_multi: float = 0.03  # prob. of a multi-account (contract-like) tx
    accounts_per_community: int = 150

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
        return max(2, self.n_accounts // self.accounts_per_community)

    @property
    def n_relationships(self) -> int:
        return max(4, int(self.rels_per_account * self.n_accounts))


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
    w = 1.0 / np.arange(1, p.n_accounts + 1) ** p.activity_alpha
    g = np.random.default_rng(p.seed + 2)
    perm = np.concatenate([[0], 1 + g.permutation(p.n_accounts - 1)])
    out = np.empty(p.n_accounts)
    out[perm] = w
    return out / out.sum()


def _relationship_universe(
    p: EthParams, g: np.random.Generator, comm_of: np.ndarray, act: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The persistent (src, dst) pair universe and its tx-popularity, given
    the :func:`_community_assignment` and :func:`_activity_weights` of ``p``.

    Non-hub sources pick an in-community destination with prob ``p_intra``
    (activity-weighted) and a global one otherwise. The hub's
    relationships are always global (an exchange serves everyone). The
    popularity of hub-incident relationships is renormalized so that
    exactly ``hub_share`` of transactions touch the hub.
    """
    n_comm = int(comm_of.max()) + 1
    R = p.n_relationships

    src = g.choice(p.n_accounts, size=R, p=act)
    # A slice of the universe belongs to the hub regardless of the zipf
    # draw, so the hub always has a wide, global partner set.
    n_hub_rel = max(2, int(0.02 * R))
    src[:n_hub_rel] = 0

    dst = np.empty(R, dtype=np.int64)
    intra = (g.random(R) < p.p_intra) & (src != 0)
    idx_glob = np.nonzero(~intra)[0]
    dst[idx_glob] = g.choice(p.n_accounts, size=idx_glob.size, p=act)

    members = [np.nonzero(comm_of == c)[0] for c in range(n_comm)]
    member_w = []
    for c in range(n_comm):
        wc = act[members[c]]
        member_w.append(wc / wc.sum())
    src_comm = comm_of[src]
    for c in range(n_comm):
        idx = np.nonzero(intra & (src_comm == c))[0]
        if idx.size:
            dst[idx] = g.choice(members[c], size=idx.size, p=member_w[c])

    # A relationship is between two *distinct* accounts (self-transfers
    # are generated separately via p_self); nudge collisions off-diagonal
    # so e.g. a popular (hub, hub) pair cannot distort the intra mass.
    coll = dst == src
    dst[coll] = (dst[coll] + 1) % p.n_accounts

    # Relationship popularity: zipf over a deterministic shuffle so that
    # popularity is independent of construction order.
    pop = 1.0 / np.arange(1, R + 1) ** p.rel_alpha
    pop = pop[g.permutation(R)]
    pop /= pop.sum()

    hub_mask = (src == 0) | (dst == 0)
    hub_pop = pop[hub_mask].sum()
    if 0.0 < hub_pop < 1.0:
        pop[hub_mask] *= p.hub_share / hub_pop
        pop[~hub_mask] *= (1.0 - p.hub_share) / (1.0 - hub_pop)
    return src, dst, pop


def eth_transactions_pandas(params: EthParams | None = None, **kw) -> pd.DataFrame:
    """Generate the transaction stream as a pandas DataFrame.

    Columns: ``tx_id`` (int64, == chronological order), ``block`` (int64,
    non-decreasing), ``accounts`` (list[int64] — the deduplicated,
    sorted account set A_Tx of the transaction).
    """
    if params is not None and kw:
        raise TypeError("pass either an EthParams or keyword overrides, not both")
    p = params or EthParams(**kw)
    g = np.random.default_rng(p.seed)
    n = p.n_txs

    comm_of = _community_assignment(p)
    act = _activity_weights(p)
    rel_src, rel_dst, rel_pop = _relationship_universe(p, g, comm_of, act)
    r = g.choice(len(rel_pop), size=n, p=rel_pop)
    src = rel_src[r]
    dst = rel_dst[r].copy()

    self_mask = g.random(n) < p.p_self
    dst[self_mask] = src[self_mask]

    multi_mask = (g.random(n) < p.p_multi) & ~self_mask
    n_extra = np.where(multi_mask, g.integers(1, 4, size=n), 0)
    # Extra accounts of a multi-account tx come from the source's own
    # community (contract calls inside one dapp), activity-weighted — this
    # keeps multi-account txs clusterable, like the underlying stream.
    total_extra = int(n_extra.sum())
    extra_pool = np.empty(total_extra + 1, dtype=np.int64)
    if total_extra:
        src_comm_per_extra = np.repeat(comm_of[src], n_extra)
        for c in np.unique(src_comm_per_extra):
            members_c = np.nonzero(comm_of == c)[0]
            wc = act[members_c] / act[members_c].sum()
            sel = np.nonzero(src_comm_per_extra == c)[0]
            extra_pool[sel] = g.choice(members_c, size=sel.size, p=wc)

    # A_Tx = {src, dst} ∪ the tx's extras, as sorted deduplicated lists.
    tx = np.arange(n)
    offsets, flat = _account_sets(
        np.concatenate([tx, tx, np.repeat(tx, n_extra)]),
        np.concatenate([src, dst, extra_pool[:total_extra]]),
        n,
    )
    flat, bounds = flat.tolist(), offsets.tolist()
    accounts = [flat[bounds[i] : bounds[i + 1]] for i in range(n)]

    txs_per_block = max(1, n // p.n_blocks)
    block = np.minimum(np.arange(n) // txs_per_block, p.n_blocks - 1)
    return pd.DataFrame(
        {
            "tx_id": np.arange(n, dtype=np.int64),
            "block": block.astype(np.int64),
            "accounts": accounts,
        }
    )


def spark_transactions(spark: SparkSession, tx_pdf: pd.DataFrame) -> DataFrame:
    """A pandas transaction frame as a Spark DataFrame of ``TX_SCHEMA``,
    converted through Arrow when the session enables it."""
    return spark.createDataFrame(tx_pdf, schema=TX_SCHEMA)
