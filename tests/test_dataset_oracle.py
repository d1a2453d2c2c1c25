"""Differential test: the vectorized CSV loader and writer against references.

The references below are the line-by-line loader (one ``float()`` per cell)
and the row-by-row writer that the vectorized versions replaced, kept
verbatim.  The loader must give the same array bit for bit, or raise the same
exception type with the same message; the writer must give the same bytes.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hellfit import dataset
from hellfit.dataset import Dataset, ParseError, load_dataset, save_dataset

pytestmark = [
    pytest.mark.filterwarnings("error::UserWarning"),
    pytest.mark.filterwarnings("error::RuntimeWarning"),
]


# ---------------------------------------------------------------- reference


def ref_load_dataset(path, bounds=None, delimiter: str = ",") -> Dataset:
    """Parse a CSV file of reals into a Dataset.

    A single non-numeric first line is treated as a header.  Row and column
    indices in error messages are 1-based.
    """
    lines = Path(path).read_text().splitlines()
    rows = [(idx + 1, line) for idx, line in enumerate(lines) if line.strip() != ""]
    if not rows:
        raise ParseError(f"{path}: empty input")

    def parse_row(lineno, line):
        cells = line.split(delimiter)
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

    def is_header(line):
        def numeric(cell):
            try:
                float(cell)
            except ValueError:
                return False
            return True

        return not any(numeric(cell) for cell in line.split(delimiter))

    start = 1 if is_header(rows[0][1]) else 0
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
    return Dataset(np.array(parsed, dtype=float), tuple(bounds) if bounds else ())


def ref_save_dataset(dataset: Dataset, path) -> None:
    """Write values back as CSV, losslessly (shortest round-trip floats)."""
    with open(path, "w") as fh:
        for row in dataset.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------- generators

# str.splitlines breaks at these; numpy's own line reader does not
SPLITLINES_ONLY = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
BREAKS = ["\n", "\r\n", "\r"]
DELIMITERS = [",", ";", "\t", " "]

finite = st.floats(allow_nan=False, allow_infinity=False)
long_digits = st.tuples(
    st.text("0123456789", min_size=1, max_size=30),
    st.text("0123456789", max_size=30),
).map(lambda parts: f"{parts[0]}.{parts[1]}")
number = st.one_of(
    finite.map(repr),
    finite.map(lambda v: "%.17g" % v),
    finite.map(lambda v: "%.3e" % v),
    long_digits,
    st.integers(-(10**20), 10**20).map(str),
)
odd_cell = st.sampled_from(
    ["", "#", "#1", "1#", '"1"', "'1'", "1_0", "1_000.5", "_1", "inf", "-inf",
     "nan", "NaN", "1e400", "-1e400", "infinity", "x", "a b", "1,5", "0x10",
     "1.0d0", "1e", "--1", "+-1", "\x00", "1\x002", "\xa0", "\x1f"]
)
sign = st.sampled_from(["+", "-"])
# every character str.isspace() or float() might strip, and every control character
SPACES = [c for c in map(chr, range(0x3001)) if c.isspace() or ord(c) < 32]
odd_pad = st.one_of(
    st.sampled_from(["\x1f", "\xa0"]), st.text(st.sampled_from(SPACES), max_size=2)
)
rarely = st.sampled_from([False, False, False, True])


@st.composite
def cells(draw, delimiter, odd_cells, odd_pads):
    text = draw(st.one_of(number, number, number, odd_cell) if odd_cells else number)
    if text[:1] not in "+-" and draw(st.booleans()):
        text = draw(sign) + text
    plain_pads = [p for p in ["", "", " ", "\t", "\xa0"] if p != delimiter]
    pad = st.sampled_from(plain_pads)
    if odd_pads:
        pad = st.one_of(pad, odd_pad)
    return draw(pad) + text + draw(pad)


@st.composite
def csv_texts(draw):
    """CSV text and its delimiter.  Each kind of oddity is switched on in a
    quarter of the examples, so many examples are well formed and reach the
    vectorized parse."""
    delimiter = draw(st.sampled_from(DELIMITERS))
    odd_cells, odd_pads, space_lines, ragged, inserted_break = (
        draw(rarely) for _ in range(5)
    )
    width = draw(st.integers(1, 4))
    row = st.lists(cells(delimiter, odd_cells, odd_pads), min_size=width, max_size=width)
    lines = []
    if draw(st.booleans()):
        lines.append(delimiter.join(draw(st.lists(
            st.sampled_from(["a", "b", "x1", "col", "", " y "]),
            min_size=1, max_size=4,
        ))))
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "row", "blank", "ragged"]))
        if kind == "blank":
            blanks = ["", " ", "\t", "  \t"] if space_lines else [""]
            lines.append(draw(st.sampled_from(blanks)))
        elif kind == "ragged" and ragged:
            n = draw(st.integers(1, 5))
            lines.append(delimiter.join(draw(st.lists(
                cells(delimiter, odd_cells, odd_pads), min_size=n, max_size=n
            ))))
        else:
            lines.append(delimiter.join(draw(row)))
    breaks = st.sampled_from(BREAKS + BREAKS + BREAKS + SPLITLINES_ONLY)
    text = "".join(line + draw(breaks) for line in lines)
    if draw(st.booleans()) and text:
        text = text[:-1]  # no trailing newline (or a lone \r of \r\n left)
    if inserted_break and text:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SPLITLINES_ONLY)) + text[at:]
    return text, delimiter


def outcome(loader, path, delimiter):
    try:
        values = loader(path, delimiter=delimiter).values
    except Exception as exc:  # compare any failure by type and message
        return ("raise", type(exc), str(exc))
    return ("ok", values.shape, values.tobytes())


# ---------------------------------------------------------------- loader


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "data.csv"


@given(csv_texts())
@example(("a,b\r\n\r\n1,2\r\n-0.0,4", ","))
@example(("1\n2\n3", ","))
@example(("a\n", ","))
@example(("x\n0.0\x1f\n", ","))  # numpy strips \x1f, float() does not
@settings(max_examples=600, deadline=None)
def test_loader_matches_reference(csv_path, case):
    text, delimiter = case
    csv_path.write_text(text)
    assert outcome(load_dataset, csv_path, delimiter) == outcome(
        ref_load_dataset, csv_path, delimiter
    )


@pytest.mark.parametrize(
    "text, cell",
    [
        ("a,b\x0cc,d\n1,2\n", "(2,1)"),
        ("x\x0ca,b\n1,2\n", "(2,1)"),
        ("1,\x0c2\n3,4\n", "(1,2)"),
        ("1,\u20282\n3,4\n", "(1,2)"),
    ],
)
def test_splitlines_breaks_are_line_breaks(csv_path, text, cell):
    # numpy reading the file itself would accept all four
    csv_path.write_text(text)
    with pytest.raises(ParseError) as new:
        load_dataset(csv_path)
    with pytest.raises(ParseError) as ref:
        ref_load_dataset(csv_path)
    assert str(new.value) == str(ref.value) == f"{csv_path}: non-numeric cell {cell}"


@pytest.mark.parametrize(
    "text",
    [
        "a,b\r\n1,2\r\n\r\n3,4\r\n",
        "1,2\r3,4",
        "\n\n0.1,-0.0\n1e-300,5e-324\n",
        "7\n",
        # whitespace-only lines
        "1,2\n  \n3,4\n",
        "  \na,b\n\t\n1,2\n",
        "1,2\n\u3000\n3,4\n \t \n",
    ],
)
def test_well_formed_input_skips_the_line_parse(csv_path, text, monkeypatch):
    def fail(*args):
        raise AssertionError("line-by-line parse ran")

    csv_path.write_text(text)
    expected = ref_load_dataset(csv_path).values
    monkeypatch.setattr(dataset, "_parse_by_line", fail)
    got = load_dataset(csv_path).values
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_underscore_digits_fall_back(csv_path):
    # float() accepts "1_0"; numpy does not, so the line parse decides
    csv_path.write_text("1_0,2\n3,4\n")
    assert load_dataset(csv_path).values.tolist() == [[10.0, 2.0], [3.0, 4.0]]


# ---------------------------------------------------------------- writer


def written_bytes(writer, values, path):
    writer(Dataset(np.asarray(values, dtype=float)), path)
    return path.read_bytes()


def test_writer_pinned_values(tmp_path):
    values = [
        [-0.0, 5e-324, 1e16],
        [1e-5, 1.7976931348623157e308, -1.7976931348623157e308],
    ]
    new = written_bytes(save_dataset, values, tmp_path / "new.csv")
    assert new == written_bytes(ref_save_dataset, values, tmp_path / "ref.csv")
    assert new == (
        b"-0.0,5e-324,1e+16\n"
        b"1e-05,1.7976931348623157e+308,-1.7976931348623157e+308\n"
    )


@given(
    st.integers(1, 4).flatmap(
        lambda k: st.lists(st.lists(finite, min_size=k, max_size=k), min_size=1, max_size=8)
    )
)
@settings(max_examples=100, deadline=None)
def test_writer_matches_reference(tmp_path_factory, values):
    base = tmp_path_factory.getbasetemp()
    new = written_bytes(save_dataset, values, base / "writer-new.csv")
    assert new == written_bytes(ref_save_dataset, values, base / "writer-ref.csv")
    assert load_dataset(base / "writer-new.csv").values.tobytes() == np.asarray(
        values, dtype=float
    ).tobytes()
