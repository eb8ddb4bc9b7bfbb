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
- **per-transaction processing**: running time scales with the number
  of transactions, making it by far the slowest method (Fig. 8).

The full Shard Scheduler objective (sender/receiver roles, explicit
migration cost model) is simplified to affinity + per-block least-load;
DESIGN.md documents this substitution.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.chain.ethdata import tx_incidence
from repro.metrics.blockchain import Stats, shard_stats

BUFFER_RATIO = 1.0  # placement cap = BUFFER_RATIO·λ; buffer = 1 per §VI-B1
CHUNK = 4096  # transactions whose account lists are built at a time


@dataclass(frozen=True)
class SchedulerResult:
    """Final mapping + the *streaming* per-(shard, μ) counts."""

    shard_of: dict[int, int]
    counts: tuple[np.ndarray, np.ndarray, np.ndarray]  # (shard, mu, count) at processing time

    def stats(self) -> Stats:
        """The evaluation state of ``counts``, the triple
        ``repro.metrics.blockchain.collect_stats`` gives per allocation."""
        return shard_stats(*self.counts)


def _account_lists(offsets: np.ndarray, incidence: np.ndarray):
    """Each transaction's accounts as a list of ints, in row order; built
    ``CHUNK`` transactions at a time, so no list of the whole incidence
    is ever held (it would add ~5 MiB of peak RSS at SF 0.06)."""
    for lo in range(0, len(offsets) - 1, CHUNK):
        bounds = offsets[lo : lo + CHUNK + 1]
        flat = incidence[bounds[0] : bounds[-1]].tolist()
        cuts = (bounds - bounds[0]).tolist()
        yield from (flat[a:b] for a, b in zip(cuts, cuts[1:]))


def shard_scheduler(
    tx_pdf: pd.DataFrame,
    k: int,
    *,
    eta: float,
    lam: float,
) -> SchedulerResult:
    """Stream transactions in ``tx_id`` order.

    ``lam`` is the per-shard capacity over the full window (λ = |T|/k in
    the paper's setting); the placement cap is ``BUFFER_RATIO·λ``.
    Each transaction's span μ at processing time is counted per
    ``(shard, μ)`` in integers; :meth:`SchedulerResult.stats` folds the
    counts with :func:`repro.metrics.blockchain.shard_stats`, as both
    evaluators do. Deterministic.
    """
    cap = BUFFER_RATIO * lam
    order = np.argsort(tx_pdf["tx_id"].to_numpy(), kind="stable")
    offsets, incidence = tx_incidence(tx_pdf.iloc[order])
    base = int(np.diff(offsets).max(initial=0)) + 1  # μ <= |A_Tx|

    shard_of: dict[int, int] = {}
    load = [0.0] * k
    count = [0] * (k * base)  # transactions per (shard, μ) at s·base + μ

    def best_shard(counts: dict[int, int]) -> int:
        """Shard Scheduler's placement objective, evaluated over every
        candidate shard: the under-cap shard with the highest affinity
        (most involved accounts already there; ties by lower load, then
        lower id), falling back to the least-loaded shard overall. This
        O(k) per-object scan, run for every transaction of the stream,
        is what makes transaction-level allocation expensive at chain
        scale (paper Fig. 8)."""
        best_aff = None
        best_aff_key = None
        least = 0
        least_load = load[0]
        for s in range(k):
            ls = load[s]
            if ls < least_load:
                least, least_load = s, ls
            aff = counts.get(s, 0)
            if aff > 0 and ls < cap:
                key = (-aff, ls, s)
                if best_aff is None or key < best_aff_key:
                    best_aff, best_aff_key = s, key
        return least if best_aff is None else best_aff

    for accounts in _account_lists(offsets, incidence):
        counts: dict[int, int] = {}
        for a in accounts:
            s = shard_of.get(a)
            if s is not None:
                counts[s] = counts.get(s, 0) + 1

        # The objective is evaluated for every transaction (its target
        # shard drives both placement of new accounts and migration).
        target = best_shard(counts)
        migrated = False
        for a in accounts:
            s = shard_of.get(a)
            if s is None:
                shard_of[a] = target
            elif s != target and load[s] >= cap and not migrated:
                # One state migration per transaction: the first account
                # stuck in a full shard moves with the transaction.
                shard_of[a] = target
                migrated = True

        shards = {shard_of[a] for a in accounts}
        mu = len(shards)
        w = 1.0 if mu == 1 else eta
        for s in shards:
            load[s] += w
            count[s * base + mu] += 1
    count = np.array(count, dtype=np.int64)
    key = np.flatnonzero(count)
    return SchedulerResult(shard_of, (key // base, key % base, count[key]))
