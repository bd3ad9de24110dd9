"""Tests for repro.resilience.jobs — the one pooled-job runner.

Jobs are module-level functions so pool workers can unpickle them.  State
that must survive across processes (fail or stall exactly once) lives in
``O_EXCL`` marker files on the shared filesystem.
"""

import os
import time

import pytest

import repro.resilience.jobs as jobs_module
from repro.faults import WorkerKilled
from repro.resilience import RetryPolicy, run_jobs

#: Retry without wall-clock waits.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_s=0.0)


def square_unless_multiple_of_three(n: int) -> int:
    if n % 3 == 0:
        raise ValueError(f"bad task {n}")
    return n * n


class TwoArgError(Exception):
    """An exception that cannot be rebuilt by unpickling (two-arg init)."""

    def __init__(self, code, detail):
        super().__init__(f"{code}: {detail}")


def raise_two_arg_error(n: int) -> int:
    raise TwoArgError(n, "not picklable")


def kill_worker(n: int) -> int:
    raise WorkerKilled(f"preempted at {n}")


def _first_time(marker: str) -> bool:
    """True for the one caller, in any process, that creates ``marker``."""
    try:
        handle = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(handle, str(os.getpid()).encode())
    os.close(handle)
    return True


def stall_once(task: tuple) -> int:
    """Sleep far past any test timeout on the first call for value 0."""
    value, marker = task
    if value == 0 and _first_time(marker):
        time.sleep(30)
    return value


def exit_once(task: tuple) -> int:
    """Hard-exit the worker process on the first call for value 1."""
    value, marker = task
    if value == 1 and _first_time(marker):
        os._exit(1)
    return value


_INITIALISED: list = []


def record_init(tag: str) -> None:
    _INITIALISED.append((tag, os.getpid()))


def as_tuples(outcomes) -> list:
    return [(o.task, o.value, o.error, o.attempts) for o in outcomes]


def pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


class TestOutcomes:
    def test_pooled_and_inline_outcomes_match_in_order(self):
        tasks = list(range(8))
        inline = list(
            run_jobs(square_unless_multiple_of_three, tasks, retry=FAST_RETRY, num_workers=0)
        )
        pooled = list(
            run_jobs(square_unless_multiple_of_three, tasks, retry=FAST_RETRY, num_workers=2)
        )
        assert as_tuples(pooled) == as_tuples(inline)
        # Successes come back first, in task order; exhausted tasks follow
        # from the last wave, also in task order.
        assert [o.task for o in inline] == [1, 2, 4, 5, 7, 0, 3, 6]
        assert [o.error is None for o in inline] == [True] * 5 + [False] * 3
        assert inline[0].value == 1 and inline[0].attempts == 1
        assert inline[-1].error == repr(ValueError("bad task 6"))

    def test_error_repr_is_taken_where_the_job_ran(self):
        # The exception itself never crosses the process boundary, so one
        # that cannot be rebuilt by unpickling still reports identically.
        inline = list(run_jobs(raise_two_arg_error, [5], retry=FAST_RETRY, num_workers=0))
        pooled = list(run_jobs(raise_two_arg_error, [5], retry=FAST_RETRY, num_workers=1))
        assert as_tuples(pooled) == as_tuples(inline)
        assert inline[0].error == repr(TwoArgError(5, "not picklable"))

    def test_empty_task_list_yields_nothing(self):
        assert list(run_jobs(square_unless_multiple_of_three, [], retry=FAST_RETRY)) == []


class TestPoolFallback:
    def test_pool_creation_failure_falls_back_inline(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("no processes here")

        expected = list(
            run_jobs(square_unless_multiple_of_three, range(6), retry=FAST_RETRY, num_workers=0)
        )
        monkeypatch.setattr(jobs_module, "ProcessPoolExecutor", refuse)
        _INITIALISED.clear()
        fallback = list(
            run_jobs(
                square_unless_multiple_of_three,
                range(6),
                retry=FAST_RETRY,
                num_workers=2,
                initializer=record_init,
                initargs=("fallback",),
            )
        )
        assert as_tuples(fallback) == as_tuples(expected)
        # The initializer ran exactly once, in this process.
        assert _INITIALISED == [("fallback", os.getpid())]

    def test_broken_pool_finishes_the_rest_inline(self, tmp_path):
        marker = str(tmp_path / "exit.marker")
        tasks = [(value, marker) for value in range(4)]
        broken = []
        outcomes = list(
            run_jobs(
                exit_once,
                tasks,
                retry=FAST_RETRY,
                num_workers=2,
                on_broken=lambda: broken.append(True),
            )
        )
        assert os.path.exists(marker), "the worker exit never fired"
        assert broken == [True]
        assert [(o.task[0], o.value, o.error is None) for o in outcomes] == [
            (value, value, True) for value in range(4)
        ]

    def test_timeout_kills_the_stuck_worker_and_retries(self, tmp_path, counter_value):
        marker = str(tmp_path / "stall.marker")
        tasks = [(value, marker) for value in range(4)]
        broken = []
        started = time.perf_counter()
        outcomes = list(
            run_jobs(
                stall_once,
                tasks,
                retry=FAST_RETRY,
                num_workers=2,
                timeout_s=0.5,
                unit="shard",
                on_broken=lambda: broken.append(True),
            )
        )
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"runner waited {elapsed:.1f}s for a stuck worker"
        with open(marker) as handle:
            stuck_pid = int(handle.read())
        assert not pid_alive(stuck_pid), "the stuck worker outlived the call"
        assert broken == [True]
        assert counter_value("faults.shard_timeouts") == 1
        by_value = {o.task[0]: o for o in outcomes}
        assert all(o.error is None and o.value == value for value, o in by_value.items())
        assert by_value[0].attempts == 2
        assert counter_value("faults.retries") == 1


class TestRetryWaves:
    @pytest.mark.parametrize("num_workers", [0, 2])
    def test_exhaustion_after_exactly_max_attempts(self, num_workers, counter_value):
        delays = []
        policy = RetryPolicy(max_attempts=3, backoff_s=0.1, backoff_factor=2.0)
        outcomes = list(
            run_jobs(
                square_unless_multiple_of_three,
                [2, 3],
                retry=policy,
                num_workers=num_workers,
                sleep=delays.append,
            )
        )
        assert [(o.task, o.error, o.attempts) for o in outcomes] == [
            (2, None, 1),
            (3, repr(ValueError("bad task 3")), 3),
        ]
        assert counter_value("faults.errors") == 3
        assert counter_value("faults.retries") == 2
        assert counter_value("faults.exhausted") == 1
        assert delays == pytest.approx([0.1, 0.2])

    def test_exhausted_task_ran_exactly_max_attempts_times(self):
        calls = []

        def always_fails(task):
            calls.append(task)
            raise RuntimeError("down")

        outcomes = list(run_jobs(always_fails, ["a"], retry=FAST_RETRY, num_workers=0))
        assert calls == ["a"] * FAST_RETRY.max_attempts
        assert outcomes[0].attempts == FAST_RETRY.max_attempts

    @pytest.mark.parametrize("num_workers", [0, 1])
    def test_worker_killed_unwinds_and_is_never_retried(self, num_workers, counter_value):
        with pytest.raises(WorkerKilled, match="preempted at 0"):
            list(run_jobs(kill_worker, [0, 1], retry=FAST_RETRY, num_workers=num_workers))
        assert counter_value("faults.errors") == 0
        assert counter_value("faults.retries") == 0
        assert counter_value("faults.exhausted") == 0
