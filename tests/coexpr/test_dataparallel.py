"""DataParallel — chunking and map-reduce over pipes (Figure 4)."""

import operator

import pytest

from repro.runtime.failure import FAIL
from repro.runtime.iterator import IconGenerator
from repro.coexpr.coexpression import CoExpression
from repro.coexpr.dataparallel import (
    DataParallel,
    apply_mapped,
    iter_source,
    map_reduce,
)


class TestApplyMapped:
    def test_plain_function_single_result(self):
        assert list(apply_mapped(lambda x: x + 1, 1)) == [2]

    def test_fail_means_no_result(self):
        assert list(apply_mapped(lambda x: FAIL, 1)) == []

    def test_generator_function_fans_out(self):
        def dup(x):
            yield x
            yield x

        assert list(apply_mapped(dup, 3)) == [3, 3]

    def test_icon_iterator_result_delegates(self):
        assert list(apply_mapped(lambda x: IconGenerator(lambda: [x, x * 2]), 2)) == [2, 4]


class TestIterSource:
    def test_iterable(self):
        assert list(iter_source([1, 2])) == [1, 2]

    def test_factory(self):
        assert list(iter_source(lambda: range(3))) == [0, 1, 2]

    def test_icon_iterator(self):
        assert list(iter_source(IconGenerator(lambda: "ab"))) == ["a", "b"]

    def test_coexpression(self):
        assert list(iter_source(CoExpression(lambda: iter([5])))) == [5]


class TestChunking:
    def test_chunk_sizes(self):
        dp = DataParallel(chunk_size=3)
        chunks = list(dp.chunk(range(8)))
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7]]

    def test_empty_source(self):
        assert list(DataParallel(chunk_size=3).chunk([])) == []

    def test_exact_multiple(self):
        chunks = list(DataParallel(chunk_size=2).chunk(range(4)))
        assert chunks == [[0, 1], [2, 3]]

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DataParallel(chunk_size=0)
        with pytest.raises(ValueError):
            DataParallel(max_pending=0)


class TestMapReduce:
    def test_per_chunk_results_in_order(self):
        dp = DataParallel(chunk_size=2)
        results = list(dp.map_reduce(lambda x: x, [1, 2, 3, 4, 5], operator.add, 0))
        assert results == [3, 7, 5]

    def test_reduce_totals(self):
        dp = DataParallel(chunk_size=10)
        total = dp.reduce(lambda x: x * 2, range(100), operator.add, 0)
        assert total == 2 * sum(range(100))

    def test_generator_map_function(self):
        def twice(x):
            yield x
            yield x * 10

        dp = DataParallel(chunk_size=2)
        totals = list(dp.map_reduce(twice, [1, 2], operator.add, 0))
        assert totals == [1 + 10 + 2 + 20]

    def test_string_monoid(self):
        dp = DataParallel(chunk_size=2)
        joined = dp.reduce(str, ["a", "b", "c"], operator.add, "")
        assert joined == "abc"

    def test_bounded_pending_window(self):
        dp = DataParallel(chunk_size=1, max_pending=2)
        results = list(dp.map_reduce(lambda x: x, range(6), operator.add, 0))
        assert results == list(range(6))

    def test_functional_shorthand(self):
        results = list(map_reduce(lambda x: x, [1, 2], operator.add, 0, chunk_size=1))
        assert results == [1, 2]


class TestMapFlat:
    def test_flattened_order_preserved(self):
        dp = DataParallel(chunk_size=4)
        assert list(dp.map_flat(lambda x: x + 1, range(10))) == [x + 1 for x in range(10)]

    def test_fan_out_inside_chunks(self):
        def dup(x):
            yield x
            yield -x

        dp = DataParallel(chunk_size=2)
        assert list(dp.map_flat(dup, [1, 2])) == [1, -1, 2, -2]

    def test_serial_reduction_equivalence(self):
        """The Section VII distinction: map_flat + serial sum equals
        map_reduce + combine."""
        dp = DataParallel(chunk_size=3)
        serial = sum(dp.map_flat(lambda x: x * x, range(20)))
        chunked = dp.reduce(lambda x: x * x, range(20), operator.add, 0)
        assert serial == chunked


class TestEarlyClose:
    @pytest.mark.parametrize("max_pending", [None, 1, 2])
    def test_close_mid_drain_cancels_every_task(self, pipe_scheduler, max_pending):
        # capacity=1 keeps each chunk task blocked on its full channel,
        # so a task left out of the cancel sweep is a live thread.
        dp = DataParallel(chunk_size=50, max_pending=max_pending, capacity=1)
        results = dp.map_flat(lambda x: x, range(1000))
        assert [next(results) for _ in range(3)] == [0, 1, 2]
        results.close()
        assert pipe_scheduler.leaked(join_timeout=2.0) == []


class TestErrorPropagation:
    def test_mapper_error_reaches_caller(self):
        def explode(x):
            if x == 3:
                raise RuntimeError("mapper failed")
            return x

        dp = DataParallel(chunk_size=2)
        with pytest.raises(RuntimeError, match="mapper failed"):
            list(dp.map_flat(explode, range(5)))


class TestParallelStructure:
    def test_one_pipe_per_chunk(self):
        import threading

        seen_threads = set()

        def tag(x):
            seen_threads.add(threading.get_ident())
            return x

        dp = DataParallel(chunk_size=5)
        list(dp.map_flat(tag, range(20)))
        assert len(seen_threads) >= 2  # several worker threads participated
