"""Ingestion, generation and description of k-dimensional real samples."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class ParseError(ValueError):
    """Raised when a CSV file cannot be read as a numeric matrix."""


@dataclass(frozen=True)
class RngStream:
    """Deterministic random stream identified by (seed, stream_id).

    Distinct stream ids give statistically independent sequences; identical
    pairs reproduce the same sequence bit for bit.
    """

    seed: int
    stream_id: int = 0

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

    A single non-numeric first line is treated as a header.  Row and column
    indices in error messages are 1-based.

    The data rows are parsed by one vectorized ``np.loadtxt`` call over the
    lines ``str.splitlines`` gives.  When that call fails, warns or yields a
    non-finite value, the line-by-line parse alone decides the values or the
    error, so results and messages are those of the line-by-line parse.
    """
    text = Path(path).read_text()
    lines = text.splitlines()
    values = _parse_vectorized(text, lines)
    if values is None:
        values = _parse_by_line(path, lines)
    return Dataset(values, tuple(bounds) if bounds else ())


def _is_header(line):
    def numeric(cell):
        try:
            float(cell)
        except ValueError:
            return False
        return True

    return not any(numeric(cell) for cell in line.split(","))


def _parse_vectorized(text, lines):
    """The data rows of ``text`` as a finite float matrix, or None to defer to the line parse."""
    first = next((i for i, line in enumerate(lines) if line.strip() != ""), None)
    if first is None:
        return None
    if _is_header(lines[first]):
        first += 1
    # the line parse skips blank and whitespace-only lines; numpy would fail on them
    rows = [line for line in lines[first:] if line.strip() != ""]
    # numpy strips \x1f around a number and float() does not (\x1c-\x1e,
    # which numpy strips too, already end a line here)
    if "\x1f" in text and any("\x1f" in row for row in rows):
        return None
    # Lines, not a file: numpy would not break lines where str.splitlines does
    # (\x0b, \x0c, \x1c-\x1e, \x85, \u2028, \u2029).
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(rows, delimiter=",", comments=None, ndmin=2, dtype=float)
    except (ValueError, Warning):
        return None
    return values if np.isfinite(values).all() else None


def _parse_by_line(path, lines):
    """Parse with one ``float()`` per cell; raises ParseError at the first bad cell."""
    rows = [(idx + 1, line) for idx, line in enumerate(lines) if line.strip() != ""]
    if not rows:
        raise ParseError(f"{path}: empty input")

    def parse_row(lineno, line):
        cells = line.split(",")
        out = []
        for col, cell in enumerate(cells, start=1):
            try:
                value = float(cell)
            except ValueError:
                raise ParseError(f"{path}: non-numeric cell ({lineno},{col})") from None
            if not np.isfinite(value):
                raise ParseError(f"{path}: non-finite cell ({lineno},{col})")
            out.append(value)
        return out

    start = 1 if _is_header(rows[0][1]) else 0
    if start == len(rows):
        raise ParseError(f"{path}: empty input")

    parsed = []
    width = None
    for lineno, line in rows[start:]:
        row = parse_row(lineno, line)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(f"{path}: ragged row {lineno}")
        parsed.append(row)
    return np.array(parsed, dtype=float)


def save_dataset(dataset: Dataset, path) -> None:
    """Write values back as CSV, losslessly (shortest round-trip floats)."""
    reprs = map(repr, dataset.values.ravel().tolist())  # row after row
    text = "\n".join(map(",".join, zip(*[reprs] * dataset.k)))  # k cells a line
    with open(path, "w") as fh:
        fh.write(text + "\n")


def ar_covariance(k: int, rho: float) -> np.ndarray:
    """Symmetric positive-definite matrix with entries rho**|i-j|."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if not abs(rho) < 1:
        raise ValueError("|rho| must be < 1")
    idx = np.arange(k)
    return rho ** np.abs(idx[:, None] - idx[None, :])


def sample_mvn(n: int, mean, cov, rng: RngStream) -> Dataset:
    """Draw n i.i.d. multivariate normal rows via lower-triangular Cholesky."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    if n < 1:
        raise ValueError("n must be >= 1")
    lower = np.linalg.cholesky(cov)  # raises LinAlgError if not SPD
    z = rng.generator().standard_normal((n, mean.size))
    columns = lower @ z.T  # (k, n): the transpose is the column-major sample
    columns += mean[:, None]
    return Dataset(columns.T)
