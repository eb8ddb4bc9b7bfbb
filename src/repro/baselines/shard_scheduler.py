"""Shard Scheduler — transaction-level streaming allocator (Król et al.).

The paper's transaction-level baseline (§II-C, §VI-B): instead of a
global graph partition, accounts are placed (and may migrate) as each
transaction arrives, chronologically. Our deterministic distillation
keeps the properties the paper's comparison relies on:

- **hard load cap** (buffer ratio × λ, buffer = 1 per §VI-B1): a shard
  whose accumulated load reached the cap receives no placements, and
  resident accounts drain out of it over time, so the workload
  distribution is essentially flat with no overloaded shard (paper
  Figs. 3 and 4c) and the worst-case latency is the best of all methods
  (Fig. 7);
- **affinity placement, one migration per transaction**: new accounts
  are pulled toward the shard already holding most of the transaction's
  accounts (or the least-loaded shard when that one is full). Because
  moving account *state* across shards is expensive, at most one
  existing account migrates per transaction — the first one stuck in a
  full shard. Busy account groups therefore split when their shard
  fills and re-align only gradually, which is why Shard Scheduler's γ
  sits above the graph-based methods (but well below random);
- **streaming accounting**: a transaction's shard span μ and workload
  charges are those at processing time (a transaction-level allocator
  assigns transactions, not a retroactive final map);
- **per-transaction processing**: every transaction evaluates the
  objective over all k shards, so running time grows with the number of
  transactions times k, where the graph methods' grows with the accounts
  and edges (Fig. 8). The loop runs in C (``shard_scheduler`` in
  ``repro/kernels.c``); EXPERIMENTS.md T6 reports where that puts it.

The full Shard Scheduler objective (sender/receiver roles, explicit
migration cost model) is simplified to affinity + per-block least-load;
DESIGN.md documents this substitution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro import kernels
from repro.chain.ethdata import tx_incidence
from repro.metrics.blockchain import Stats, shard_stats
from repro.txallo.a_txallo import LABEL_DTYPE

BUFFER_RATIO = 1.0  # placement cap = BUFFER_RATIO·λ; buffer = 1 per §VI-B1
MAX_ACCOUNTS = np.iinfo(np.int32).max  # the kernel's dense account ids are int32


@dataclass(frozen=True)
class SchedulerResult:
    """Final mapping + the *streaming* per-(shard, μ) counts."""

    accounts: np.ndarray  # every account of the stream, ascending
    shards: np.ndarray  # LABEL_DTYPE: the final shard of each of ``accounts``
    counts: tuple[np.ndarray, np.ndarray, np.ndarray]  # (shard, mu, count) at processing time

    def stats(self) -> Stats:
        """The evaluation state of ``counts``, the triple
        ``repro.spark.collect_stats`` gives per allocation."""
        return shard_stats(*self.counts)


def shard_scheduler(
    tx_pdf: pd.DataFrame,
    k: int,
    *,
    eta: float,
    lam: float,
) -> SchedulerResult:
    """Stream transactions in ``tx_id`` order, each as its sorted account
    set A_Tx; a transaction with no accounts raises ``ValueError``, as do
    k outside ``[1, 32768]`` (:data:`LABEL_DTYPE` shards) and more than
    :data:`MAX_ACCOUNTS` accounts.

    ``lam`` is the per-shard capacity over the full window (λ = |T|/k in
    the paper's setting); the placement cap is ``BUFFER_RATIO·λ``.
    Each transaction's span μ at processing time is counted per
    ``(shard, μ)`` in integers; :meth:`SchedulerResult.stats` folds the
    counts with :func:`repro.metrics.blockchain.shard_stats`, as both
    evaluators do. Deterministic.
    """
    if not 1 <= k <= np.iinfo(LABEL_DTYPE).max + 1:
        raise ValueError(f"k={k} shards must lie in [1, {np.iinfo(LABEL_DTYPE).max + 1}]")
    tx_ids = tx_pdf["tx_id"].to_numpy()
    if (tx_ids[1:] < tx_ids[:-1]).any():
        tx_pdf = tx_pdf.iloc[np.argsort(tx_ids, kind="stable")]
    offsets, flat = tx_incidence(tx_pdf)
    dense, accounts = pd.factorize(flat, sort=True)
    if len(accounts) > MAX_ACCOUNTS:
        raise ValueError(f"{len(accounts)} accounts do not fit the kernel's int32 account ids")
    dense = dense.astype(np.int32)
    n = len(offsets) - 1
    base = int(np.diff(offsets).max(initial=0)) + 1  # μ <= |A_Tx|
    shards = np.full(len(accounts), -1, dtype=LABEL_DTYPE)
    load = np.zeros(k)
    count = np.zeros(k * base, dtype=np.int64)  # transactions per (shard, μ) at s·base + μ
    ptr = kernels.ptr
    if kernels.lib.shard_scheduler(
        n, ptr(offsets, n + 1), ptr(dense, len(dense)), k, BUFFER_RATIO * lam, eta, base,
        ptr(shards, len(shards)), ptr(load, k), ptr(count, k * base),
    ):
        raise MemoryError("shard_scheduler: out of memory")
    key = np.flatnonzero(count)
    return SchedulerResult(accounts, shards, (key // base, key % base, count[key]))
