"""The sharding planner: split a campaign into independent jobs.

Sharding is pure arithmetic over item counts — no I/O, no randomness —
so a plan is reproducible from (n_items, shards) alone and two
processes planning the same campaign agree on every shard boundary.

Contiguous chunking is the default: it preserves the serial enumeration
order *within* each shard, which lets sharded consumers reproduce
index-dependent behaviour (the fuzz campaign's every-Nth determinism
re-check) exactly, and makes merging a simple ordered concatenation.

:func:`plan_slice_jobs` and :func:`merge_slices` are that pattern as
jobs: every sharded campaign (fuzz, race, profile, serve) plans its
items into one job per slice and merges the slice payloads back in
serial order through these two functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, TypeVar

from repro.runner.job import JobResult, JobSpec

T = TypeVar("T")


@dataclass(frozen=True)
class Shard:
    """A half-open slice ``[start, stop)`` of the item sequence."""

    index: int
    start: int
    stop: int

    def __len__(self) -> int:
        return self.stop - self.start


def plan_shards(n_items: int, shards: int) -> List[Shard]:
    """Split ``n_items`` into at most ``shards`` contiguous shards.

    Sizes differ by at most one (the first ``n_items % shards`` shards
    take the extra item), no shard is empty, and concatenating the
    slices in shard order reproduces the original sequence.
    """
    if n_items < 0:
        raise ValueError(f"negative item count {n_items}")
    if shards < 1:
        raise ValueError(f"shard count must be positive, got {shards}")
    shards = min(shards, n_items) or (1 if n_items == 0 else shards)
    if n_items == 0:
        return []
    base, extra = divmod(n_items, shards)
    out: List[Shard] = []
    start = 0
    for i in range(shards):
        size = base + (1 if i < extra else 0)
        out.append(Shard(index=i, start=start, stop=start + size))
        start += size
    return out


def shard_items(items: Sequence[T], shards: int) -> List[Sequence[T]]:
    """The planned slices applied to an actual sequence."""
    return [items[s.start:s.stop] for s in plan_shards(len(items), shards)]


def default_shard_count(n_items: int, jobs: int,
                        per_worker: int = 4) -> int:
    """How many shards to cut for a ``jobs``-worker pool.

    ``per_worker`` shards per worker keeps the pool busy when shard
    runtimes vary (stragglers hand their tail to idle workers) without
    drowning small campaigns in per-process overhead.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be positive, got {jobs}")
    return max(1, min(n_items, jobs * per_worker))


def plan_slice_jobs(kind: str, items: Sequence[object], *, seed: int,
                    jobs: int, shards: Optional[int] = None,
                    timeout: float, max_retries: int = 1,
                    **fields: object) -> List[JobSpec]:
    """One ``kind`` job per contiguous slice of ``items``.

    Each payload is ``{"index_base", "items", **fields}``: the slice's
    offset into ``items``, the slice itself (JSON-ready), and the
    fields every slice shares.  Job ids are ``<kind prefix>-NNNN``
    (kind ``race.scan`` plans ``race-0000``, ``race-0001``, ...).
    ``shards`` defaults to :func:`default_shard_count` for ``jobs``
    workers (at least one, so ``jobs=0`` plans for an inline run).
    """
    prefix = kind.split(".", 1)[0]
    shards = shards or default_shard_count(len(items), max(jobs, 1))
    return [JobSpec(job_id=f"{prefix}-{shard.index:04d}", kind=kind,
                    seed=seed, timeout=timeout, max_retries=max_retries,
                    retry_backoff=0.5,
                    payload={"index_base": shard.start,
                             "items": list(items[shard.start:shard.stop]),
                             **fields})
            for shard in plan_shards(len(items), shards)]


def merge_slices(results: Sequence[JobResult], what: str) -> List[dict]:
    """The slice jobs' payloads in ``index_base`` (serial) order.

    Independent of completion order.  Any job that failed terminally
    raises ``RuntimeError`` naming it (``what`` names the campaign in
    the message): a merge accounts for every item or refuses, it never
    leaves silent holes.
    """
    failed = [r for r in results if not r.ok]
    if failed:
        detail = "; ".join(f"{r.job_id}: {r.status} ({r.error})"
                           for r in failed)
        raise RuntimeError(f"{len(failed)} {what} shard(s) failed "
                           f"terminally: {detail}")
    return [r.payload for r in sorted(
        results, key=lambda r: int(r.payload["index_base"]))]
