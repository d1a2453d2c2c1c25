"""Differential test: the vectorized CSV loader and writer against references.

The references below are the line-by-line loader (one ``float()`` per cell)
and the row-by-row writer that the vectorized versions replaced, kept
verbatim but for the loader's delimiter, now always a comma.  The loader must give the same array bit for bit, or raise the same
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


def ref_load_dataset(path, bounds=None) -> Dataset:
    """Parse a comma-separated file of reals into a Dataset.

    A single non-numeric first line is treated as a header.  Row and column
    indices in error messages are 1-based.
    """
    lines = Path(path).read_text().splitlines()
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

    def is_header(line):
        def numeric(cell):
            try:
                float(cell)
            except ValueError:
                return False
            return True

        return not any(numeric(cell) for cell in line.split(","))

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
def cells(draw, odd_cells, odd_pads):
    text = draw(st.one_of(number, number, number, odd_cell) if odd_cells else number)
    if text[:1] not in "+-" and draw(st.booleans()):
        text = draw(sign) + text
    pad = st.sampled_from(["", "", " ", "\t", "\xa0"])
    if odd_pads:
        pad = st.one_of(pad, odd_pad)
    return draw(pad) + text + draw(pad)


@st.composite
def csv_texts(draw):
    """CSV text.  Each kind of oddity is switched on in a quarter of the
    examples, so many examples are well formed and reach the vectorized
    parse."""
    odd_cells, odd_pads, space_lines, ragged, inserted_break = (
        draw(rarely) for _ in range(5)
    )
    width = draw(st.integers(1, 4))
    row = st.lists(cells(odd_cells, odd_pads), min_size=width, max_size=width)
    lines = []
    if draw(st.booleans()):
        lines.append(",".join(draw(st.lists(
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
            lines.append(",".join(draw(st.lists(
                cells(odd_cells, odd_pads), min_size=n, max_size=n
            ))))
        else:
            lines.append(",".join(draw(row)))
    breaks = st.sampled_from(BREAKS + BREAKS + BREAKS + SPLITLINES_ONLY)
    text = "".join(line + draw(breaks) for line in lines)
    if draw(st.booleans()) and text:
        text = text[:-1]  # no trailing newline (or a lone \r of \r\n left)
    if inserted_break and text:
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(SPLITLINES_ONLY)) + text[at:]
    return text


def outcome(loader, path):
    try:
        values = loader(path).values
    except Exception as exc:  # compare any failure by type and message
        return ("raise", type(exc), str(exc))
    return ("ok", values.shape, values.tobytes())


# ---------------------------------------------------------------- loader


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("oracle") / "data.csv"


@given(csv_texts())
@example("a,b\r\n\r\n1,2\r\n-0.0,4")
@example("1\n2\n3")
@example("a\n")
@example("x\n0.0\x1f\n")  # numpy strips \x1f, float() does not
@example("1,2\n3,x,5\n")  # a bad cell beats the wrong width of its own row
@example("1,2\n3\n4,x\n")  # the first error in file order wins
@example("1,2\n\n \n3,x\n")  # blank lines are counted in line numbers
@example("1,2\n3,1e400\n")
@example("\n \na,b\n\n")  # a header and blank lines only: empty input
@example("\n1,2\n")  # a leading blank line is not a header
@example("1,2\n3\n4e1,5\n")  # an e after a ragged row
@settings(max_examples=600, deadline=None)
def test_loader_matches_reference(csv_path, text):
    csv_path.write_text(text)
    assert outcome(load_dataset, csv_path) == outcome(ref_load_dataset, csv_path)


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
        # \x1f outside the data rows: in the header, or on a whitespace-only line
        "a\x1f,b\n1,2\n",
        "\x1f\n1,2\n \x1f \n3,4\n",
    ],
)
def test_well_formed_input_skips_the_line_parse(csv_path, text, monkeypatch):
    csv_path.write_text(text)
    expected = ref_load_dataset(csv_path).values
    reads = count_text_reads(monkeypatch)
    got = load_dataset(csv_path).values
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert reads == [], "a file was read twice"


def is_plain(text):
    """ASCII with no line break but \\n: the loader parses such a block as it is read."""
    return text.isascii() and not any(mark in text for mark in "\r\x0b\x0c\x1c\x1d\x1e")


ROWS = "".join(f"{i},{i + 1},{i / 4}\n" for i in range(40))


@pytest.mark.parametrize(
    "text", [ROWS + "5,6,7\r\n", ROWS + "5,6,\xa07\n"], ids=["crlf-last", "nbsp-last"]
)
def test_a_later_block_that_is_not_plain_is_read_once(csv_path, text, monkeypatch):
    """Blocks parsed before one that is not plain are kept: every line is parsed once."""
    assert is_plain(ROWS) and not is_plain(text)
    csv_path.write_text(text)
    expected = ref_load_dataset(csv_path).values
    reads, blocks = count_text_reads(monkeypatch), []
    parse = dataset._parse_blocks
    monkeypatch.setattr(
        dataset, "_parse_blocks", lambda given: parse(blocks.append(bytes(b)) or b for b in given)
    )
    got = load_dataset(csv_path).values
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    assert reads == []
    assert b"".join(blocks) == "".join(line + "\n" for line in text.splitlines()).encode()


def count_text_reads(monkeypatch):
    """A list that gets one entry per ``Path.read_text`` call from now on."""
    reads, read_text = [], Path.read_text

    def counted(self, *args, **kwargs):
        reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counted)
    return reads


@pytest.mark.parametrize("text", ["1,2\n3,x\n", "1,2\n3\n", "a,b\n", ""])
def test_bad_plain_input_is_read_once(csv_path, text, monkeypatch):
    csv_path.write_text(text)
    expected = outcome(ref_load_dataset, csv_path)
    reads = count_text_reads(monkeypatch)
    assert outcome(load_dataset, csv_path) == expected
    assert expected[0] == "raise" and reads == []


def test_underscore_digits_fall_back(csv_path):
    # float() accepts "1_0"; the vectorized grammar does not, so float() decides
    csv_path.write_text("1_0,2\n3,4\n")
    assert load_dataset(csv_path).values.tolist() == [[10.0, 2.0], [3.0, 4.0]]


# ---------------------------------------------------------------- writer


def written_bytes(writer, values, path):
    writer(Dataset(np.asarray(values, dtype=float)), path)
    return path.read_bytes()


PINNED_CSV = [
    (
        [[-0.0, 5e-324, 1e16], [1e-5, 1.7976931348623157e308, -1.7976931348623157e308]],
        b"-0.0,5e-324,1e+16\n1e-05,1.7976931348623157e+308,-1.7976931348623157e+308\n",
    ),
    ([[-0.0], [2.5], [-1e-300]], b"-0.0\n2.5\n-1e-300\n"),  # one column
    ([[-0.0]], b"-0.0\n"),
]


def test_writer_pinned_values(tmp_path):
    for values, text in PINNED_CSV:
        new = written_bytes(save_dataset, values, tmp_path / "new.csv")
        assert new == written_bytes(ref_save_dataset, values, tmp_path / "ref.csv")
        assert new == text


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


def test_writer_in_chunks_matches_reference(tmp_path, monkeypatch):
    """Rows are written a chunk at a time; a chunk boundary changes no byte."""
    monkeypatch.setattr(dataset, "_SAVE_ROWS", 3)
    values = np.random.default_rng(5).standard_normal((10, 3)).tolist()
    for rows in (1, 2, 3, 4, 6, 7, 10):
        new = written_bytes(save_dataset, values[:rows], tmp_path / "new.csv")
        assert new == written_bytes(ref_save_dataset, values[:rows], tmp_path / "ref.csv")
