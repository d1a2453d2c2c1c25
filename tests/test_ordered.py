"""``dataset.ordered``, the one pipeline behind every thread pool of the package:
its order, its errors, its look-ahead bound, its threads and what it keeps."""

import threading
import time
import weakref

import pytest

from hellfit.dataset import ordered


class Failed(Exception):
    pass


def fail(message):
    raise Failed(message)


def sleepy(value, seconds):
    time.sleep(seconds)
    return value


def outcome(pipeline):
    """The results taken before the pipeline stopped, and its error or None."""
    results = []
    try:
        for result in pipeline:
            results.append(result)
    except Failed as exc:
        return results, str(exc)
    return results, None


def test_results_come_in_order_when_calls_finish_out_of_order():
    finished = []

    def call(value, seconds):
        time.sleep(seconds)
        finished.append(value)
        return value

    batches = [
        [lambda b=b, c=c: call((b, c), 0.03 / (1 + 3 * b + c)) for c in range(3)] for b in range(4)
    ]
    expected = [(b, c) for b in range(4) for c in range(3)]
    assert list(ordered(batches, 2, 4)) == expected
    assert sorted(finished) == expected and finished != expected


def test_an_empty_run_and_empty_batches_yield_nothing_more():
    assert list(ordered([], 1, 2)) == []
    assert list(ordered([[], [lambda: 1], []], 1, 2)) == [1]


@pytest.mark.parametrize("ahead", [0, 1, 3])
def test_an_error_making_batch_2_comes_after_batch_1s_results(ahead):
    def batches():
        yield [lambda: sleepy(1, 0.02), lambda: 2]
        fail("making batch 2")

    assert outcome(ordered(batches(), ahead, 2)) == ([1, 2], "making batch 2")


@pytest.mark.parametrize("ahead", [0, 1, 3])
def test_a_call_error_of_batch_1_beats_an_error_making_batch_2(ahead):
    def batches():
        yield [lambda: 1, lambda: sleepy(None, 0.02) or fail("call 2 of batch 1"), lambda: 3]
        fail("making batch 2")

    assert outcome(ordered(batches(), ahead, 2)) == ([1], "call 2 of batch 1")


def test_a_later_call_error_comes_after_every_earlier_result():
    batches = [[lambda: sleepy(1, 0.02)], [lambda: fail("batch 2")], [lambda: 3]]
    assert outcome(ordered(batches, 2, 3)) == ([1], "batch 2")


@pytest.mark.parametrize("ahead", [0, 1, 2, 5])
def test_at_most_ahead_batches_are_pending_when_a_batch_is_made(ahead):
    taken, pending = [], []  # pending: batches made and not yet taken, as each batch is made

    def batches():
        for b in range(8):
            pending.append(b - len(taken))
            yield [lambda b=b: sleepy(b, 0.001)]

    for result in ordered(batches(), ahead, 2):
        taken.append(result)
    assert taken == list(range(8))
    assert pending == [min(b, ahead) for b in range(8)]


def batch_error():
    yield [lambda: 1]
    fail("making batch 2")


@pytest.mark.parametrize(
    "batches, expected",
    [
        ([[lambda: 1, lambda: 2], [lambda: 3]], ([1, 2, 3], None)),
        ([[lambda: 1], [lambda: fail("call")], [lambda: sleepy(3, 0.05)]], ([1], "call")),
        (batch_error(), ([1], "making batch 2")),
    ],
    ids=["success", "call-error", "batch-error"],
)
def test_the_pool_leaves_no_thread_behind(batches, expected):
    before = threading.active_count()
    assert outcome(ordered(batches, 1, 3)) == expected
    assert threading.active_count() == before


def test_a_consumer_that_stops_early_leaves_no_thread_behind():
    before = threading.active_count()
    for result in ordered([[lambda: 1], [lambda: sleepy(2, 0.05)], [lambda: 3]], 2, 2):
        break
    assert result == 1 and threading.active_count() == before


class Box:
    pass


@pytest.mark.parametrize("ahead", [0, 2])
def test_a_yielded_result_is_not_kept(ahead):
    """Once the next result is out, nothing holds the one before; one worker
    has let go of each call before it starts the next."""
    refs = []
    for box in ordered(([Box, Box] for _ in range(4)), ahead, 1):
        refs.append(weakref.ref(box))
        del box
        assert [ref() for ref in refs[:-1]] == [None] * (len(refs) - 1)
    assert len(refs) == 8
