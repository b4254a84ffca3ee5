import multiprocessing
import os
import threading
import time

import pytest

from flowsieve.errors import DataError
from flowsieve.workers import forked_map
from test_clustering import _usable_cpus


def _slow_first(item):
    # the first items finish last, so completion order is not item order
    time.sleep(0.05 * (4 - item))
    return item * item, os.getpid()


class TestForkedMap:
    def test_results_come_back_in_item_order_from_workers(self, monkeypatch):
        _usable_cpus(monkeypatch, 3)
        with forked_map(_slow_first, range(5)) as results:
            done = results()
        assert [square for square, _ in done] == [0, 1, 4, 9, 16]
        pids = {pid for _, pid in done}
        assert os.getpid() not in pids
        assert 1 < len(pids) <= 3
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus, small", [(None, False), (1, False), (3, True)])
    def test_in_process_items_run_only_when_their_results_are_asked_for(self, monkeypatch, cpus, small):
        _usable_cpus(monkeypatch, cpus)
        calls = []

        def func(item):
            calls.append(item)
            return item, os.getpid()

        with forked_map(func, [3, 1, 2], small=small) as results:
            assert calls == []
            assert results() == [(3, os.getpid()), (1, os.getpid()), (2, os.getpid())]
        assert calls == [3, 1, 2]

    def test_a_process_with_another_thread_runs_items_in_process(self, monkeypatch):
        _usable_cpus(monkeypatch, 3)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            with forked_map(lambda item: os.getpid(), range(3)) as results:
                pids = results()
        finally:
            release.set()
            other.join(timeout=60)
        assert not other.is_alive()
        assert pids == [os.getpid()] * 3

    def test_a_worker_may_fork_but_a_process_holding_a_pool_may_not(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)

        def nested(item):
            with forked_map(lambda inner: os.getpid(), range(2)) as results:
                return os.getpid(), results()

        with forked_map(nested, range(2)) as results:
            # the open pool's manager thread keeps this process from forking
            with forked_map(nested, range(2)) as in_process:
                here = in_process()
            done = results()
        parent = os.getpid()
        assert here == [(parent, [parent, parent])] * 2
        for worker, inner in done:
            assert worker != parent
            assert len(inner) == 2 and worker not in inner and parent not in inner
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_the_first_failure_in_item_order_is_raised(self, monkeypatch, cpus):
        _usable_cpus(monkeypatch, cpus)

        def func(item):
            if item == 1:
                time.sleep(0.2)  # fails after item 2 has failed
                raise DataError("item 1 failed")
            if item == 2:
                raise ValueError("item 2 failed")
            return item

        with pytest.raises(DataError, match="^item 1 failed$"):
            with forked_map(func, range(4)) as results:
                results()
        assert multiprocessing.active_children() == []

    def test_an_error_in_the_body_leaves_no_worker_behind(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        with pytest.raises(DataError, match="body failed"):
            with forked_map(time.sleep, [0.1] * 6):
                raise DataError("body failed")
        assert multiprocessing.active_children() == []

    def test_no_items_is_no_pool(self, monkeypatch):
        _usable_cpus(monkeypatch, 3)
        with forked_map(os.getpid, []) as results:
            assert results() == []

    def test_an_error_stops_running_items_and_their_nested_workers(self, monkeypatch, tmp_path):
        _usable_cpus(monkeypatch, 2)

        def sleep_in_nested_pool(item):
            def sleep(inner):
                (tmp_path / f"{item}-{inner}").write_text(str(os.getpid()))
                time.sleep(60)

            with forked_map(sleep, range(2)) as results:
                return results()

        start = time.monotonic()
        with pytest.raises(DataError, match="body failed"):
            with forked_map(sleep_in_nested_pool, range(2)):
                while len(list(tmp_path.iterdir())) < 4:  # every nested item is running
                    assert time.monotonic() - start < 30
                    time.sleep(0.01)
                raise DataError("body failed")
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []
        for path in tmp_path.iterdir():  # the workers reaped their own workers
            with pytest.raises(ProcessLookupError):
                os.kill(int(path.read_text()), 0)
