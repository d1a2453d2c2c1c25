"""k-dimensional real samples: ``Dataset``, CSV ingestion and writing, seeded
``RngStream``s, and ``ordered``, the one helper that runs work on thread pools.
Laws to draw samples from live in ``hellfit.models``."""

from __future__ import annotations

import locale
import os
import sys
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from numbers import Integral
from pathlib import Path
from typing import NamedTuple

import numpy as np


class ParseError(ValueError):
    """Raised when a CSV file cannot be read as a numeric matrix."""


class UsageError(ValueError):
    """Raised for an argument outside a function's domain, or one it never reads.

    ``hellfit`` turns it into a usage error (exit 2) with the message as given.
    """


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream identified by (seed, stream_id).

    Distinct stream ids give statistically independent sequences; identical
    pairs reproduce the same sequence bit for bit.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            value = getattr(self, name)
            if not isinstance(value, Integral) or value < 0:
                raise UsageError(f"{name} must be an integer >= 0, not {value!r}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id])


@dataclass(frozen=True)
class Dataset:
    """An n x k matrix of finite reals with per-axis half-open support (a, b].

    ``values`` is column-major (Fortran order), so every column
    ``values[:, axis]`` is a contiguous view: the partition builds, ``assign``
    and the KS baseline read one coordinate at a time.  Column-major input is
    used as given; row-major input is copied once.
    """

    values: np.ndarray
    bounds: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        values = np.asfortranarray(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be a 2-d matrix")
        n, k = values.shape
        if n < 1 or k < 1:
            raise ValueError("dataset needs at least one row and one column")
        if not np.all(np.isfinite(values)):
            raise ValueError("dataset contains non-finite values")
        bounds = self.bounds or tuple((-np.inf, np.inf) for _ in range(k))
        if len(bounds) != k:
            raise ValueError(f"expected {k} bound pairs, got {len(bounds)}")
        for i, (lo, hi) in enumerate(bounds):
            if not lo < hi:
                raise ValueError(f"axis {i}: bounds must satisfy lo < hi")
            col = values[:, i]  # finite: only a finite bound can exclude a value
            if (np.isfinite(lo) and np.any(col <= lo)) or (np.isfinite(hi) and np.any(col > hi)):
                raise ValueError(f"axis {i}: values outside support ({lo}, {hi}]")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "bounds", tuple(bounds))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def k(self) -> int:
        return self.values.shape[1]


def load_dataset(path, bounds=None) -> Dataset:
    """Parse a comma-separated file of reals into a Dataset.

    Lines that hold only whitespace are skipped, but counted in line
    numbers.  The first other line is a header if none of its cells is
    numeric.  A ragged row, a cell ``float()`` rejects or reads as
    non-finite, or no data row raises ParseError; the first error in file
    order wins, and within one row a bad cell wins over a wrong width.  Row
    and column indices in error messages are 1-based.

    Numbers are read by one vectorized decimal parser over blocks of about
    ``_BLOCK_BYTES`` bytes, each cut at a line end, whose columns are joined
    once into a column-major array; it gives exactly the values ``float()``
    gives.  Every file is read from disk once, block by block, and never
    held whole, whether it is good or bad; the blocks, a sole one too, are
    scanned on a pool (``_scans``), but the values and the first error are
    those of a one-thread parse.  Each block's values are copied into
    memory of the calling thread as the block is parsed, and its scan let
    go: an array made on a pool thread lives in that thread's malloc arena,
    above the scan's freed temporaries, and one kept until the join would
    keep the arena from shrinking or being reused.  A block that is not
    plain (ASCII, no line break but ``\\n``) is decoded where it is read,
    with ``locale.getpreferredencoding(False)``, the encoding
    ``Path.read_text`` uses, and split with ``splitlines``.

    A cell ``[+-]?digits[.digits]([eE][+-]?d{1,3})?`` whose mantissa (the
    bytes before the e) has at most ``_CELL`` bytes and whose digits form an
    integer M < 10**19 is M times 10**q, where q is the exponent net of the
    fraction digits.  Each cell's first e is found by one search of the
    block's bytes, so the bound does not count the exponent: ``np.savetxt``'s
    default ``%.18e`` cells, 25 bytes when negative, are read here.  For
    |q| <= 27, M and 10**|q| are exact in the x87 extended long double
    (64-bit significand), so M * 10**q or M / 10**-q rounds once, and
    rounding that again to a double is correct unless it lies exactly
    halfway between two doubles.  Halfway results,
    every other cell, and every cell on a platform whose long double is not
    the 16-byte x87 extended format are converted one at a time with
    ``float()``.
    """
    try:
        values = _parse_blocks(_file_blocks(path))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from None
    return Dataset(values, tuple(bounds) if bounds else ())


def _is_header(line):
    def numeric(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    return not any(numeric(cell) for cell in line.split(","))


_BLOCK_BYTES = 1 << 20
_NOT_PLAIN = (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e")  # line breaks but \n


class _BadCell(Exception):
    """A cell ``float()`` rejects or reads as non-finite; args: what is wrong, the cell's index."""


def _file_blocks(path):
    """A file's lines in blocks, each line ending in ``\\n``; a last line without one gets one.

    A block is cut after a ``\\n``, a byte no UTF-8 sequence holds and the
    end of any ``\\r\\n``, so its lines are lines of the file's text.  A plain
    block (ASCII, no line break but ``\\n``) is yielded as it is.  Any other
    is decoded with ``locale.getpreferredencoding(False)``, as
    ``Path.read_text`` decodes, split with ``splitlines``, its
    whitespace-only lines emptied, so they read as blank lines of a plain
    block, and encoded as UTF-8.  A block that does not decode raises the
    UnicodeDecodeError of ``Path.read_text``, which gives its offset in the
    file.
    """
    tail = b""
    with open(path, "rb") as fh:
        while chunk := fh.read(_BLOCK_BYTES) or tail and b"\n":  # then the last line's \n
            block = tail + chunk
            cut = block.rfind(b"\n") + 1
            tail = block[cut:]
            if not cut:
                continue
            if block.isascii() and not any(mark in block for mark in _NOT_PLAIN):
                yield memoryview(block)[:cut]
                continue
            try:
                text = block[:cut].decode(locale.getpreferredencoding(False))
            except UnicodeDecodeError:
                Path(path).read_text()  # raises the same error, at its offset in the file
                raise
            lines = text.splitlines()
            yield "".join((line if line.strip() else "") + "\n" for line in lines).encode()


def _parse_blocks(blocks):
    """The data rows of ``blocks`` as a column-major float matrix.

    Each block holds whole lines, each ending in ``\\n``; a blank line holds
    nothing but space, tab and ``\\x1f``.  ``_scans`` scans the blocks on a
    pool and the rest runs here, in file order: a block is parsed as it is,
    and only if that fails, again without its blank lines, to raise the
    first error.  A parsed block's values are a ``(k, rows)`` copy made
    here, and its scan is dropped before the next one is awaited, so no
    array from a pool thread's malloc arena outlives its block's parse.
    ParseError is raised once every block is read: a later
    block that does not decode raises its UnicodeDecodeError instead, as
    ``Path.read_text`` would before any parse.
    """
    columns = []  # (k, rows) per block, so the transpose of their join is column-major
    line, header, error = 1, True, None  # line: the number of the block's first line
    for scan in _scans(blocks):
        if error is None:  # after an error, the scans already under way are only let through
            try:
                header = _block_rows(scan, header, columns, range(line, line + scan.lasts.size))
            except ParseError:  # perhaps only a blank line: parse again without them
                buf, ends, lasts = scan.buf, scan.ends, scan.lasts
                starts = np.concatenate(([0], ends[lasts[:-1]] + 1))
                solid = (buf != 32) & (buf != 9) & (buf != 31) & (buf != 10)  # not blank or \n
                kept = np.logical_or.reduceat(solid, starts)  # the lines that are not blank
                buf = buf[np.repeat(kept, np.diff(starts, append=buf.size))]
                numbers = line + np.flatnonzero(kept)
                try:
                    header = _block_rows(_scan(buf), header, columns, numbers)
                except ParseError as exc:
                    error = exc  # raised once every block is read
                    for _ in blocks:  # the rest of the file, read but not scanned
                        pass
            line += scan.lasts.size
        del scan  # a pool thread's arrays: freed before the next block is awaited
    if error is not None:
        raise error
    if not columns:
        raise ParseError("empty input")
    joined = np.empty((columns[0].shape[0], sum(block.shape[1] for block in columns)))
    return np.concatenate(columns, axis=1, out=joined).T  # C-ordered join: the Dataset keeps it


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set, or every CPU where there is none."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ordered(batches, ahead, workers):
    """The results of the calls in ``batches``, in batch and call order, each call run on a pool.

    ``batches`` yields lists of zero-argument calls.  It is read on the
    calling thread, one batch at a time, while at most ``ahead`` earlier
    batches are pending; once more are, the oldest is taken.  Every call
    runs on one ``ThreadPoolExecutor(workers)``.  A call's error is raised
    where its result would be yielded, and an error raised while making a
    batch once every earlier result is yielded, so the values and the error
    are those of a serial loop.  No result is kept once it is yielded, and
    the pool is joined on every exit.
    """
    from concurrent.futures import ThreadPoolExecutor

    pending, batches = deque(), iter(batches)  # pending: a deque of futures per batch

    def take(keep):  # the results of the oldest batches, until ``keep`` are pending
        while len(pending) > keep:
            futures = pending.popleft()
            while futures:
                yield futures.popleft().result()

    with ThreadPoolExecutor(workers) as pool:
        while True:
            try:
                pending.append(deque(map(pool.submit, next(batches))))
            except StopIteration:
                break
            except Exception:  # raised after every earlier result, and any earlier error
                yield from take(0)
                raise
            yield from take(ahead)
        yield from take(0)


def _scans(blocks):
    """``_scan`` of each block, in order, through ``ordered`` on one thread
    per usable CPU, with as many blocks ahead."""
    cpus = usable_cpus()
    return ordered(([partial(_scan, block)] for block in blocks), cpus, cpus)


class _Scan(NamedTuple):
    """A block's bytes and cells, with the kernel's reading of each cell."""

    buf: np.ndarray  # the block's bytes
    starts: np.ndarray  # each cell's first byte in buf
    ends: np.ndarray  # each cell's end in buf, a comma or \n
    lasts: np.ndarray  # the index in those of each line's last cell
    values: np.ndarray  # the kernel's value of each cell
    bad: np.ndarray  # the cells the kernel leaves to float(): their values mean nothing


def _scan(block):
    """The order-free part of a block's parse: its cells, and the kernel over all of them.

    Each cell's value and mask bit depend on its own bytes alone, so those
    of any run of cells are what a scan of that run alone would give.
    """
    buf = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero((buf == 44) | (buf == 10))
    lasts = np.flatnonzero(buf[ends] == 10)
    starts = np.empty_like(ends)
    starts[:1], starts[1:] = 0, ends[:-1] + 1
    if _EXTENDED and ends.size:
        values, bad = _decimal_values(buf, starts, ends)
    else:
        values, bad = np.empty(ends.size), np.ones(ends.size, bool)
    return _Scan(buf, starts, ends, lasts, values, bad)


def _block_rows(scan, header, columns, numbers):
    """Append the data rows of a scanned block to ``columns``; return whether the header is still to come.

    ``numbers`` are the line numbers of the block's lines.  Raises
    ParseError at the first failing line, and at a blank first line while
    the header is still to come.
    """
    buf, starts, ends, lasts, values, bad = scan
    if header and lasts.size:
        first = lasts[0] + 1  # the cells of the first line
        text = buf[: ends[first - 1]].tobytes().decode()
        if not text.strip(" \t\x1f"):
            raise ParseError(f"blank line {numbers[0]}")
        header = False
        if _is_header(text):
            starts, ends, values, bad = starts[first:], ends[first:], values[first:], bad[first:]
            lasts, numbers = lasts[1:] - first, numbers[1:]
    if not lasts.size:
        return header
    widths = np.diff(lasts, prepend=-1)
    width = columns[0].shape[0] if columns else int(widths[0])
    ragged = np.flatnonzero(widths != width)
    cells = lasts[ragged[0]] + 1 if ragged.size else ends.size
    try:  # the cells up to the first ragged row: a bad cell in that row comes first
        _float_cells(buf, starts, ends, values, bad[:cells])
    except _BadCell as exc:
        words, cell = exc.args
        row = np.searchsorted(lasts, cell)
        raise ParseError(f"{words} cell ({numbers[row]},{cell - lasts[row] + widths[row]})")
    if ragged.size:
        raise ParseError(f"ragged row {numbers[ragged[0]]}")
    columns.append(values.reshape(lasts.size, width).T.copy())  # calling-thread memory
    return header


_CELL = 24  # mantissa bytes (those before the e) the kernel reads; longer ones go to float()
_POW10 = np.array([10**q for q in range(28)], dtype=np.longdouble)  # exact: 5**27 < 2**64
_POW10_INT = np.array([10**q for q in range(9)], dtype=np.uint64)  # digits of one chunk
_POW10_FLOAT = 10.0 ** np.arange(17)
# x87 extended precision: a 64-bit significand in the low 8 of 16 bytes per long double
_EXTENDED = (
    np.finfo(np.longdouble).nmant == 63
    and np.dtype(np.longdouble).itemsize == 16
    and sys.byteorder == "little"
)


def _float_cells(buf, starts, ends, values, bad):
    """Set ``values`` of the cells in ``bad`` to ``float()`` of them; raises _BadCell at the first bad one.

    Cell i is ``buf[starts[i] : ends[i]]``.
    """
    for i in np.flatnonzero(bad):
        try:
            value = float(buf[starts[i] : ends[i]].tobytes().decode())
        except ValueError:
            raise _BadCell("non-numeric", i) from None
        if not np.isfinite(value):
            raise _BadCell("non-finite", i)
        values[i] = value


def _decimal_values(buf, starts, ends):
    """The cells in the vectorized grammar as doubles, and a mask of the others.

    Needs the x87 extended long double; the values of masked cells mean nothing.
    Each temporary is freed at its last use, so a block's scan holds a few
    per-cell arrays at a time, not all of them.
    """
    n = ends.size
    # the exponent, [eE][+-]?d{1,3}, after the first e of each cell: one search of the bytes
    lower = np.bitwise_or(buf[: ends[-1]], 32)  # compared in place: one temporary, not two
    at = np.flatnonzero(np.equal(lower, 101, out=lower.view(bool)))
    del lower
    cells = np.searchsorted(ends, at)
    first = np.diff(cells, prepend=-1) != 0  # the first e of each cell
    at, cells = at[first], cells[first]
    sign = np.take(buf, at + 1, mode="clip")
    signed = (sign == 43) | (sign == 45)
    count = ends[cells] - at - 1 - signed
    ok = (count >= 1) & (count <= 3)
    value = np.zeros(cells.size, np.int64)
    for j in range(3):
        digit = np.take(buf, at + 1 + signed + j, mode="clip") - np.uint8(48)
        ok &= (count <= j) | (digit <= 9)
        value = np.where(j < count, value * 10 + digit, value)
    power = np.zeros(n, np.int64)
    power[cells] = np.where(sign == 45, -value, value)
    stop = ends - starts  # the mantissa's length: the bytes of the cell before its e
    stop[cells] = at - starts[cells]
    bad = stop > _CELL
    bad[cells] |= ~ok
    del at, cells, first, sign, signed, count, ok, value, digit
    stop = np.minimum(stop, _CELL).astype(np.uint8)  # uint8 for the row loop, which ends at _CELL

    # the mantissa, [+-]?digits[.digits]: M in three uint32 chunks of 8 rows
    width = max(int(stop.max()), 1)
    chars = np.empty((width, n), np.uint8)  # chars[r, i]: byte r of cell i
    for r in range(width):
        np.take(buf, starts + r, out=chars[r], mode="clip")
    negative = chars[0] == 45
    signed = negative | (chars[0] == 43)
    chunks = np.zeros((3, n), np.uint32)
    counts = np.zeros((3, n), np.uint8)  # digits per chunk
    points = np.zeros(n, np.uint8)
    fraction = np.zeros(n, np.uint8)  # digits after the point
    seen = np.zeros(n, bool)  # the point
    for r in range(width):
        ch = chars[r]
        inside = stop > r
        digit = ch - np.uint8(48)
        is_digit = (digit < 10) & inside
        is_point = (ch == 46) & inside
        ok = is_digit | is_point
        bad |= inside ^ (ok | signed if r == 0 else ok)
        points += is_point
        fraction += is_digit & seen
        seen |= is_point
        counts[r // 8] += is_digit
        chunks[r // 8] *= 1 + 9 * is_digit.view(np.uint8)
        chunks[r // 8] += digit * is_digit
    del chars, ch, inside, digit, is_digit, is_point, ok, seen, signed, stop
    # M < 10**19 < 2**64 (leading zeros aside, at most 19 digits); checked
    # in floats, whose relative error is far below the margin to 2**64
    size = chunks[0] * _POW10_FLOAT[counts[1] + counts[2]] + chunks[1] * _POW10_FLOAT[counts[2]]
    size += chunks[2]
    power -= fraction
    bad |= (points > 1) | (counts.sum(axis=0) == 0) | (size >= 1e19) | (np.abs(power) > 27)
    mantissa = chunks[0].astype(np.uint64)
    for chunk, count in zip(chunks[1:], counts[1:]):
        mantissa *= _POW10_INT[count]
        mantissa += chunk
    del chunks, counts, size, chunk, count, points, fraction

    # M and 10**|q| are exact in the x87 format (64-bit significand), so the
    # product or quotient rounds once; rounding it to a double is correct
    # unless its low 11 bits are exactly 0b10000000000 (halfway between two
    # doubles), where it may be the rounding of a value that is not.
    scale = _POW10[np.abs(power) * ~bad]
    wide = mantissa.astype(np.longdouble) / scale
    np.multiply(mantissa, scale, out=wide, where=power > 0)
    del mantissa, scale, power
    bad |= (wide.view(np.uint64)[::2] & 0x7FF) == 0x400
    values = wide.astype(np.float64)
    np.negative(values, out=values, where=negative)
    return values, bad


_SAVE_ROWS = 1 << 16


def save_dataset(dataset: Dataset, path) -> None:
    """Write values back as CSV, losslessly (shortest round-trip floats).

    Rows are written ``_SAVE_ROWS`` at a time, so the text is never held whole.
    """
    line = "%r," * (dataset.k - 1) + "%r\n"  # %r is repr
    with open(path, "w") as fh:
        for at in range(0, dataset.n, _SAVE_ROWS):
            chunk = dataset.values[at : at + _SAVE_ROWS]
            fh.write(line * len(chunk) % tuple(chunk.ravel().tolist()))  # row after row
