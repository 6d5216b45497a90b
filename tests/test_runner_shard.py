"""The sharding planner: pure arithmetic, reproducible boundaries."""

import pytest

from repro.runner import (JobResult, Shard, default_shard_count, merge_slices,
                          plan_shards, plan_slice_jobs, shard_items)


class TestPlanShards:
    def test_even_split(self):
        shards = plan_shards(12, 4)
        assert [(s.start, s.stop) for s in shards] \
            == [(0, 3), (3, 6), (6, 9), (9, 12)]
        assert [s.index for s in shards] == [0, 1, 2, 3]

    def test_remainder_goes_to_leading_shards(self):
        shards = plan_shards(10, 4)
        assert [len(s) for s in shards] == [3, 3, 2, 2]

    def test_sizes_differ_by_at_most_one_and_cover_everything(self):
        for n_items in (1, 5, 17, 100, 257):
            for n_shards in (1, 2, 3, 7, 16):
                shards = plan_shards(n_items, n_shards)
                sizes = [len(s) for s in shards]
                assert max(sizes) - min(sizes) <= 1
                assert all(size > 0 for size in sizes)
                # Contiguous, ordered, complete coverage.
                assert shards[0].start == 0
                assert shards[-1].stop == n_items
                for a, b in zip(shards, shards[1:]):
                    assert a.stop == b.start

    def test_never_more_shards_than_items(self):
        assert len(plan_shards(3, 10)) == 3

    def test_zero_items_is_empty_plan(self):
        assert plan_shards(0, 4) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            plan_shards(-1, 2)
        with pytest.raises(ValueError):
            plan_shards(5, 0)


class TestShardItems:
    def test_concatenation_reproduces_the_sequence(self):
        items = list(range(23))
        chunks = shard_items(items, 5)
        assert [x for chunk in chunks for x in chunk] == items

    def test_slices_preserve_serial_order_within_shard(self):
        chunks = shard_items("abcdefg", 3)
        assert [list(c) for c in chunks] \
            == [["a", "b", "c"], ["d", "e"], ["f", "g"]]


class TestDefaultShardCount:
    def test_per_worker_multiplier(self):
        assert default_shard_count(100, 4) == 16
        assert default_shard_count(100, 4, per_worker=2) == 8

    def test_capped_at_item_count(self):
        assert default_shard_count(5, 4) == 5

    def test_at_least_one(self):
        assert default_shard_count(0, 4) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            default_shard_count(10, 0)


#: Every sharded campaign's job kind and the job-id prefix it has always
#: planned under (journals and manifests key on these ids).
_KIND_PREFIXES = [("fuzz.shard", "fuzz"), ("race.scan", "race"),
                  ("profile.workload", "profile"),
                  ("service.shard", "service")]


class TestSliceJobs:
    @pytest.mark.parametrize("kind,prefix", _KIND_PREFIXES)
    def test_slices_tile_items_with_the_kind_prefix(self, kind, prefix):
        items = [{"n": i} for i in range(11)]
        plan = plan_slice_jobs(kind, items, seed=7, jobs=2, timeout=60.0,
                               shared="x")
        assert [s.job_id for s in plan] \
            == [f"{prefix}-{i:04d}" for i in range(8)]
        assert {s.kind for s in plan} == {kind}
        assert all(s.seed == 7 and s.timeout == 60.0 and s.max_retries == 1
                   and s.retry_backoff == 0.5 for s in plan)
        # Contiguous, ordered, complete: the slices concatenate back to
        # the items and each index_base is the slice's offset.
        assert [x for s in plan for x in s.payload["items"]] == items
        offset = 0
        for spec in plan:
            assert spec.payload["index_base"] == offset
            assert spec.payload["shared"] == "x"
            assert set(spec.payload) == {"index_base", "items", "shared"}
            offset += len(spec.payload["items"])

    def test_shard_count_and_inline_jobs(self):
        items = list(range(10))
        assert len(plan_slice_jobs("race.scan", items, seed=1, jobs=0,
                                   timeout=1.0)) == 4
        assert len(plan_slice_jobs("race.scan", items, seed=1, jobs=2,
                                   shards=3, timeout=1.0)) == 3
        assert plan_slice_jobs("race.scan", [], seed=1, jobs=2,
                               timeout=1.0) == []

    @staticmethod
    def _echo(plan):
        return [JobResult(job_id=s.job_id, status="ok",
                          payload={"index_base": s.payload["index_base"],
                                   "got": s.payload["items"]})
                for s in plan]

    def test_merge_ignores_completion_order(self):
        plan = plan_slice_jobs("profile.workload", list(range(13)), seed=1,
                               jobs=1, timeout=1.0)
        results = self._echo(plan)
        merged = merge_slices(results, "profile")
        assert merge_slices(list(reversed(results)), "profile") == merged
        assert [x for p in merged for x in p["got"]] == list(range(13))

    def test_crashed_shard_raises_with_id_and_status(self):
        plan = plan_slice_jobs("fuzz.shard", list(range(6)), seed=1,
                               jobs=1, timeout=1.0)
        results = self._echo(plan)
        results[2] = JobResult(job_id=plan[2].job_id, status="crashed",
                               error="signal 9")
        with pytest.raises(RuntimeError) as exc:
            merge_slices(results, "fuzz")
        assert str(exc.value) == ("1 fuzz shard(s) failed terminally: "
                                  "fuzz-0002: crashed (signal 9)")


def test_shard_is_frozen():
    shard = Shard(index=0, start=0, stop=3)
    with pytest.raises(AttributeError):
        shard.start = 1
