"""Fixtures shared by the test modules."""

from types import SimpleNamespace

import pytest

from orbicert import sampling


@pytest.fixture
def stand_in_pool(monkeypatch):
    """sampling.Pool replaced by a stand-in that maps in this process, on a
    machine of four CPUs; no process is started.

    Returns a record: sizes holds the size of every pool started, tasks the
    items of each imap task in dispatch order, one list per imap call.
    """
    record = SimpleNamespace(sizes=[], tasks=[])

    class StandInPool:
        def __init__(self, processes):
            record.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, worker, items, chunksize):
            items = list(items)
            tasks = [items[k : k + chunksize] for k in range(0, len(items), chunksize)]
            record.tasks.append(tasks)
            return (worker(a) for task in tasks for a in task)

    monkeypatch.setattr(sampling, "Pool", StandInPool)
    monkeypatch.setattr(sampling.os, "cpu_count", lambda: 4)
    return record
