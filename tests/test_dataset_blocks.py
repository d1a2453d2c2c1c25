"""The block parser of ``load_dataset``: its number kernel against ``float()``,
and the loader's differential tests again with blocks of a few bytes."""

import os
import struct
import sys
import threading
import time
import tracemalloc
import weakref
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import test_dataset_oracle as oracle
from hellfit import dataset


def kernel(cells):
    """A block scan and its ``float()`` fallback on ``cells``, one a line."""
    scan = dataset._scan("".join(cell + "\n" for cell in cells).encode())
    try:
        dataset._float_cells(scan.buf, scan.starts, scan.ends, scan.values, scan.bad)
    except dataset._BadCell:
        return None
    return scan.values


def reference(cells):
    try:
        values = np.array([float(cell) for cell in cells])
    except ValueError:
        return None
    return values if np.isfinite(values).all() else None


x87 = pytest.mark.skipif(not dataset._EXTENDED, reason="long double is not x87 extended here")
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def long_mantissas(draw):
    """16 to 20 digits with a point anywhere and an exponent up to +-30."""
    digits = str(draw(st.integers(10**15, 10**20 - 1)))
    point = draw(st.integers(0, len(digits)))
    text = digits[:point] + "." + digits[point:]
    if draw(st.booleans()):
        text += draw(st.sampled_from("eE")) + str(draw(st.integers(-30, 30)))
    return text


@st.composite
def midpoints(draw):
    """A value halfway between two doubles, or a neighbour one unit in the
    last decimal digit away, written with as few digits as it takes."""
    odd = draw(st.integers(2**53, 2**54 - 1)) | 1  # 54 significant bits: a midpoint
    exact = Decimal(odd) * Decimal(2) ** draw(st.integers(-8, 12))
    _, digits, exponent = exact.normalize().as_tuple()
    mantissa = int("".join(map(str, digits))) + draw(st.sampled_from([-1, 0, 0, 1]))
    return f"{mantissa}e{exponent}"


def with_exponent(power):
    return st.integers(1, 10**19 - 1).map(lambda m: f"{m}e{power}")


cell = st.one_of(
    finite.map(repr),
    finite.map(lambda v: "%.17g" % v),
    long_mantissas(),
    midpoints(),
    st.sampled_from([-27, 27, -28, 28]).flatmap(with_exponent),
    st.sampled_from(["-0.0", "5.", ".5", "1E5", "+1", "1e-27", "9007199254740993", "1e+16"]),
)


@given(st.lists(cell, min_size=1, max_size=20))
@example(["9007199254740993", "9007199254740995", "4503599627370496.5", "-0.0", "0"])
@example(["1e-27", "1e27", "1e-28", "1e28", "123456789012345678.9e-27"])
@example(["5.", ".5", "1E5", "+1", "-1.5e+003", "0.30000000000000004"])
@example(["0.00012345678901234567", "-0.0012345678901234567", "9999999999999999999"])
@example(["18446744073709551615", "18446744073709551617e-5", "0000000000000000000001.5"])
@example(["1", "2e5"])  # an e in the next cell
@example(["1234567890123456789012345e1"])  # a 25-byte mantissa
@example(["-1.321048632913018883e-01", "6.404226504432923186e-100"])  # np.savetxt's %.18e
@settings(max_examples=300, deadline=None)
def kernel_matches_float(cells):
    assert kernel(cells).tobytes() == reference(cells).tobytes()


@x87
def test_kernel_matches_float():
    kernel_matches_float()


@x87
def test_powers_of_ten_are_exact():
    assert [int(power) for power in dataset._POW10] == [10**q for q in range(28)]


def test_kernel_matches_float_without_long_double(monkeypatch):
    def unusable(*args):
        raise AssertionError("the long double kernel ran without x87 extended precision")

    monkeypatch.setattr(dataset, "_EXTENDED", False)
    monkeypatch.setattr(dataset, "_decimal_values", unusable)
    kernel_matches_float()


@pytest.mark.parametrize(
    "cells",
    [["1_0"], ["1", " 2"], ["1e400"], ["nan"], ["1e"], ["--1"], ["1.2.3"], ["1e+-5"],
     ["", "1"], [".", "1"], ["e5"], ["1e1000"], ["1\x002"], ["\x1f1"],
     ["7", "e"], ["1e5e2"], ["1e:"]],
)
def test_kernel_defers_what_float_rejects_or_reads_otherwise(cells):
    expected = reference(cells)
    got = kernel(cells)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.tobytes() == expected.tobytes()


@x87
def test_midpoints_reach_the_float_route(monkeypatch):
    # 2**53 + 1 is halfway between two doubles; the kernel must not decide it
    calls = []
    real = float
    monkeypatch.setattr(dataset, "float", lambda text: calls.append(text) or real(text), raising=False)
    got = kernel(["9007199254740993", "9007199254740992"])
    assert calls == ["9007199254740993"]
    assert got.tobytes() == struct.pack("<2d", 9007199254740992.0, 9007199254740992.0)


@x87
def test_savetxt_cells_stay_in_the_kernel(monkeypatch):
    # np.savetxt's default %.18e: 25 bytes with a minus sign, 21 of them before the e
    cells = ["%.18e" % value for value in (0.1321048632913018883, 0.3, 1.5, 6.25)]
    cells += ["-" + cell for cell in cells]
    calls = []
    real = float
    monkeypatch.setattr(dataset, "float", lambda text: calls.append(text) or real(text), raising=False)
    got = kernel(cells)
    assert calls == []
    assert got.tobytes() == reference(cells).tobytes()


@x87
def test_a_block_scan_peaks_below_five_times_its_bytes(tmp_path):
    """The kernel frees each temporary at its last use: one 1 MiB block of
    ``save_dataset`` output peaks at 4.0 times its bytes (7.8 when every
    temporary lived until the kernel returned)."""
    path = tmp_path / "data.csv"
    values = dataset.RngStream(0).generator().standard_normal((60000, 3))
    dataset.save_dataset(dataset.Dataset(values), path)
    block = next(dataset._file_blocks(path))
    tracemalloc.start()
    try:
        dataset._scan(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(block) > 2**20 - 64
    assert peak < 5 * len(block)


# ---------------------------------------------------------------- block edges


@pytest.fixture
def csv_path(tmp_path):
    return tmp_path / "data.csv"


@pytest.fixture
def tiny_blocks(monkeypatch):
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 5)


def test_loader_matches_reference_in_tiny_blocks(csv_path, tiny_blocks):
    oracle.test_loader_matches_reference(csv_path)


def cases(test):
    (mark,) = [mark for mark in test.pytestmark if mark.name == "parametrize"]
    return mark.args[1]


@pytest.mark.parametrize("text, cell", cases(oracle.test_splitlines_breaks_are_line_breaks))
def test_splitlines_breaks_in_tiny_blocks(csv_path, tiny_blocks, text, cell):
    oracle.test_splitlines_breaks_are_line_breaks(csv_path, text, cell)


@pytest.mark.parametrize(
    "text", cases(oracle.test_well_formed_input_skips_the_line_parse)
    + ["id,x\n" + "123456789012345678901234567890.5,1\n" * 3, "a,b\n1,2\n\x1f\n3,4",
       "abcd\xe9,x\n1,2\n"],  # \xe9 is two bytes in UTF-8, split by the first 5-byte read
)
def test_well_formed_input_in_tiny_blocks(csv_path, tiny_blocks, monkeypatch, text):
    oracle.test_well_formed_input_skips_the_line_parse(csv_path, text, monkeypatch)


def test_underscore_digits_in_tiny_blocks(csv_path, tiny_blocks):
    oracle.test_underscore_digits_fall_back(csv_path)


@pytest.mark.parametrize("text", cases(oracle.test_bad_plain_input_is_read_once))
def test_bad_plain_input_in_tiny_blocks(csv_path, tiny_blocks, monkeypatch, text):
    oracle.test_bad_plain_input_is_read_once(csv_path, text, monkeypatch)


@pytest.mark.parametrize(
    "text",
    cases(oracle.test_a_later_block_that_is_not_plain_is_read_once),
    ids=["crlf-last", "nbsp-last"],
)
def test_a_later_block_that_is_not_plain_in_tiny_blocks(csv_path, tiny_blocks, monkeypatch, text):
    oracle.test_a_later_block_that_is_not_plain_is_read_once(csv_path, text, monkeypatch)


@pytest.mark.parametrize(
    "late, error, words",
    [(b"\xff", UnicodeDecodeError, "can't decode byte 0xff"),
     (b"\xc3\xa9", dataset.ParseError, "non-numeric cell (1,2)")],
)
def test_a_bad_cell_waits_for_the_later_blocks(csv_path, tiny_blocks, late, error, words):
    """A later block that does not decode beats an earlier bad cell, with read_text's error."""
    csv_path.write_bytes(b"1,x\n" + b"1,2\n" * 3 + b"3," + late + b"\n")
    got = oracle.outcome(dataset.load_dataset, csv_path)
    assert got == oracle.outcome(oracle.ref_load_dataset, csv_path)
    assert got[1] is error and words in got[2]


@pytest.mark.parametrize(
    "text",
    ["x,y,z\n" + oracle.ROWS, oracle.ROWS.replace("\n", "\r\n")],
    ids=["plain", "normalized"],
)
def test_loaded_matrix_is_the_join_of_the_blocks(csv_path, monkeypatch, text):
    """The Dataset keeps the block parser's joined array: no second copy of the values."""
    monkeypatch.setattr(dataset, "_BLOCK_BYTES", 32)  # several rows a block, several blocks
    joins = []
    parse = dataset._parse_blocks
    monkeypatch.setattr(dataset, "_parse_blocks", lambda blocks: joins.append(parse(blocks)) or joins[-1])
    csv_path.write_bytes(text.encode())
    values = dataset.load_dataset(csv_path).values
    assert values.flags.f_contiguous
    assert np.shares_memory(values, joins[-1])
    assert values.tolist() == [[i, i + 1, i / 4] for i in range(40)]


@pytest.mark.parametrize(
    "text",
    ["1,2\n3,4\n" * 4, "x,y\n" + "1,2\n3,4\n" * 4, "1,2\n\n3,4\n" * 4],
    ids=["rows", "header", "blank-lines"],
)
def test_no_parsed_block_shares_memory_with_its_scan(csv_path, tiny_blocks, monkeypatch, text):
    """Each block's values are copied out of its scan as the block is parsed.

    A scan's arrays are made on a pool thread, in that thread's malloc arena;
    a block that kept a view of them would pin the arena until the join.
    """
    shared, block_rows = [], dataset._block_rows

    def checked_rows(scan, header, columns, numbers):
        before = len(columns)
        header = block_rows(scan, header, columns, numbers)
        shared.extend(np.shares_memory(block, scan.values) for block in columns[before:])
        return header

    monkeypatch.setattr(dataset, "_block_rows", checked_rows)
    csv_path.write_text(text)
    assert dataset.load_dataset(csv_path).values.tolist() == [[1, 2], [3, 4]] * 4
    assert len(shared) > 1 and not any(shared)  # several blocks, none a view of its scan


# ---------------------------------------------------------------- the scan pool


def one_block_a_row(count):
    """``count`` distinct 5-byte rows: with 5-byte reads, row i is block i."""
    return [f"{10 + i},{i % 10}\n" for i in range(count)]


def slow_even_scans(monkeypatch, rows):
    """Scans that sleep on the even blocks of ``rows`` (numbered from 1), so
    later blocks finish first; returns the block numbers in the order their
    scans finished."""
    number = {row.encode(): i for i, row in enumerate(rows, 1)}
    finished, scan = [], dataset._scan

    def slow(block):
        if number[bytes(block)] % 2 == 0:
            time.sleep(0.02)
        result = scan(block)
        finished.append(number[bytes(block)])
        return result

    monkeypatch.setattr(dataset, "_scan", slow)
    return finished


def test_blocks_finishing_out_of_order_are_taken_in_file_order(csv_path, tiny_blocks, monkeypatch):
    rows = one_block_a_row(12)
    finished = slow_even_scans(monkeypatch, rows)
    csv_path.write_text("".join(rows))
    got = oracle.outcome(dataset.load_dataset, csv_path)
    assert got == oracle.outcome(oracle.ref_load_dataset, csv_path) and got[0] == "ok"
    assert sorted(finished) == list(range(1, 13))
    if dataset.usable_cpus() > 1:
        assert finished != sorted(finished)


@pytest.mark.parametrize("later", [3, 5])
def test_the_first_bad_cell_in_file_order_wins_out_of_order(csv_path, tiny_blocks, monkeypatch, later):
    rows = one_block_a_row(12)
    rows[1], rows[later - 1] = "11,x\n", "x4,4\n"  # blocks 2 and later: cells (2,2) and (later,1)
    slow_even_scans(monkeypatch, rows)
    csv_path.write_text("".join(rows))
    got = oracle.outcome(dataset.load_dataset, csv_path)
    assert got == oracle.outcome(oracle.ref_load_dataset, csv_path)
    assert got[1] is dataset.ParseError and got[2].endswith("non-numeric cell (2,2)")


@pytest.mark.parametrize("late", [3, 8])  # within the pool's reach of block 2, and beyond it
def test_a_later_block_that_does_not_decode_beats_a_bad_cell_out_of_order(
    csv_path, tiny_blocks, monkeypatch, late
):
    rows = one_block_a_row(12)
    rows[1] = "11,x\n"
    slow_even_scans(monkeypatch, rows)
    csv_path.write_bytes("".join(rows).encode().replace(rows[late - 1].encode(), b"13,\xff\n"))
    got = oracle.outcome(dataset.load_dataset, csv_path)
    assert got == oracle.outcome(oracle.ref_load_dataset, csv_path)
    assert got[1] is UnicodeDecodeError


def test_blocks_after_a_bad_cell_are_read_but_not_scanned(csv_path, tiny_blocks, monkeypatch):
    rows, scanned, scan = one_block_a_row(30), [], dataset._scan
    rows[1] = "11,x\n"
    monkeypatch.setattr(dataset, "_scan", lambda block: scanned.append(block) or scan(block))
    csv_path.write_bytes("".join(rows).encode().replace(rows[-1].encode(), b"39,\xff\n"))
    got = oracle.outcome(dataset.load_dataset, csv_path)
    assert got == oracle.outcome(oracle.ref_load_dataset, csv_path) and got[1] is UnicodeDecodeError
    assert len(scanned) <= 2 + dataset.usable_cpus() + 1  # to the bad block's reach, and its rescan


@pytest.mark.parametrize("cpus", [1, None, 8], ids=["one-cpu", "all-cpus", "eight-cpus"])
def test_at_most_workers_plus_one_blocks_in_flight(csv_path, tiny_blocks, monkeypatch, cpus):
    """Counting the block being taken, no more than workers + 1 are scanned or being scanned.

    Eight CPUs are more workers than most hosts have cores, and the threads
    switch every 10 us, so the reader and the scans interleave finely.
    """
    if cpus:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    workers = dataset.usable_cpus()
    assert workers == (cpus or len(os.sched_getaffinity(0)))
    rows = one_block_a_row(30)
    scanned, taken, in_flight = [], [], []
    scan, block_rows = dataset._scan, dataset._block_rows

    def counted_scan(block):
        scanned.append(block)
        return scan(block)

    def counted_rows(*args):
        in_flight.append(len(scanned) - len(taken))
        taken.append(args)
        return block_rows(*args)

    monkeypatch.setattr(dataset, "_scan", counted_scan)
    monkeypatch.setattr(dataset, "_block_rows", counted_rows)
    csv_path.write_text("".join(rows))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        got = oracle.outcome(dataset.load_dataset, csv_path)
    finally:
        sys.setswitchinterval(interval)
    assert got == oracle.outcome(oracle.ref_load_dataset, csv_path) and got[0] == "ok"
    assert len(taken) == len(scanned) == 30
    assert max(in_flight) <= workers + 1


class Block(bytearray):
    """A block that a weak reference can follow."""


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_at_most_workers_plus_one_blocks_alive(monkeypatch, cpus):
    """Counting the block being taken: each is let go once taken."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    rows, refs, alive, block_rows = one_block_a_row(17), [], [], dataset._block_rows

    def file_blocks(path):
        for row in rows:
            block = Block(row.encode())
            refs.append(weakref.ref(block))
            yield block

    def counted_rows(*args):
        alive.append(sum(ref() is not None for ref in refs))
        return block_rows(*args)

    monkeypatch.setattr(dataset, "_file_blocks", file_blocks)
    monkeypatch.setattr(dataset, "_block_rows", counted_rows)
    got = dataset.load_dataset("never-opened.csv")
    assert got.values.tolist() == [[10.0 + i, i % 10] for i in range(17)]
    assert len(alive) == 17 and max(alive) <= cpus + 1


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_every_block_is_scanned_on_the_pool(csv_path, tiny_blocks, monkeypatch, blocks):
    """A sole block as well: every load scans through ``ordered``."""
    csv_path.write_text("".join(one_block_a_row(blocks)))
    expected = oracle.outcome(oracle.ref_load_dataset, csv_path)
    threads, scan = [], dataset._scan
    monkeypatch.setattr(
        dataset, "_scan", lambda block: threads.append(threading.current_thread()) or scan(block)
    )
    got = oracle.outcome(dataset.load_dataset, csv_path)
    assert got == expected and got[0] == "ok"
    assert len(threads) == blocks and threading.main_thread() not in threads


@pytest.mark.parametrize(
    "data", [b"1,2\n3,4\n" * 8, b"1,2\n3,x\n" * 8, b"1,2\n" * 8 + b"\xff\n", b"1,2\n"],
    ids=["good", "parse-error", "decode-error", "one-block"],
)
def test_the_pool_leaves_no_thread_behind(csv_path, tiny_blocks, data):
    before = threading.active_count()
    csv_path.write_bytes(data)
    oracle.outcome(dataset.load_dataset, csv_path)
    assert threading.active_count() == before
