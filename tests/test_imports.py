"""No module of the package reaches into another module's underscore-prefixed names.

Each module's private helpers (``partition._split_level``, say) are its own
contract; another module that needs one should get a public function instead.

Array layout has one owner as well: ``Dataset`` stores its values column-major,
so only ``dataset.py`` converts layouts, and no other module copies a column
to make it contiguous.

So do the zero-bin conventions of an f-divergence: only ``divergence.py`` reads
a generator's ``at_zero`` (f(0)) or ``slope_at_infinity``; other modules get
f(0) from ``evaluate``.

And every public function or class is either read somewhere in the package or
exported in ``hellfit.__all__``: a name that only tests call is dead code.

Numbers are parsed from text in ``dataset.py`` alone, by its block parser: no
module calls numpy's text readers, whose conversions differ from ``float()``.

No module imports scipy, at load time or inside a function: the runtime
depends on numpy alone, and scipy is a test dependency, the reference of the
differential tests.
The CLI builds no report itself: ``validate`` and ``pairwise`` call one library
function each, so ``cli.py`` names none of the distributions, checks or scans
those reports are made of.
Nor is ``concurrent.futures`` loaded with the CLI, the partitions or the
Monte Carlo module: only the CSV loader, ``fit``'s KS baseline, the pairwise
scan and the theorem-4 check run thread pools, and they import it when they run.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import hellfit

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "hellfit"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def private_imports(source: str) -> list[str]:
    """Private names that ``source`` imports from, or reads off, a hellfit module."""
    nodes = list(ast.walk(ast.parse(source)))
    modules, found = set(), []  # modules: local names bound to hellfit modules
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hellfit":
                    modules |= {alias.asname} if alias.asname else {alias.name, "hellfit"}
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "hellfit":
                for alias in node.names:
                    if _private(alias.name):
                        found.append(f"{module}.{alias.name}")
                    elif module == "hellfit" or (node.level and not module):
                        modules.add(alias.asname or alias.name)
    for node in nodes:
        if isinstance(node, ast.Attribute) and _private(node.attr):
            if _dotted(node.value) in modules:
                found.append(f"{_dotted(node.value)}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_another_modules_private_names(path):
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from hellfit.partition import _split_level", ["hellfit.partition._split_level"]),
        ("from .partition import _path", ["partition._path"]),
        ("from hellfit import partition\npartition._split_level(1)", ["partition._split_level"]),
        ("from hellfit import partition as p\np._select(x, ks)", ["p._select"]),
        ("import hellfit.partition\nhellfit.partition._path(0, ())", ["hellfit.partition._path"]),
        ("from hellfit.partition import leaf_edges, tree_to_json", []),
        ("from __future__ import annotations\nfrom hellfit import __version__", []),
        ("import numpy as np\nnp._NoValue\nself._cache", []),
    ],
)
def test_checker_flags_private_names(source, expected):
    assert private_imports(source) == expected


LAYOUT_FUNCTIONS = {"ascontiguousarray", "asfortranarray"}


def layout_calls(source: str) -> list[str]:
    """Calls in ``source`` that choose an array layout: the two numpy converters or ``order=``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = node.func.attr if isinstance(node.func, ast.Attribute) else _dotted(node.func)
            if name in LAYOUT_FUNCTIONS or any(kw.arg == "order" for kw in node.keywords):
                found.append(f"{name}:{node.lineno}")
    return found


@pytest.mark.parametrize(
    "path",
    sorted(path for path in PACKAGE.glob("*.py") if path.name != "dataset.py"),
    ids=lambda path: path.name,
)
def test_only_the_dataset_chooses_array_layout(path):
    assert layout_calls(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("np.ascontiguousarray(values[:, 0])", ["ascontiguousarray:1"]),
        ("from numpy import asfortranarray\nasfortranarray(x)", ["asfortranarray:2"]),
        ("column = values[:, 0].copy(order='C')", ["copy:1"]),
        ("x = np.array(rows, dtype=float, order='F')", ["array:1"]),
        ("values[:, 0].copy()\nnp.asarray(x, dtype=float)\nx.order(1)", []),
    ],
)
def test_checker_flags_layout_calls(source, expected):
    assert layout_calls(source) == expected


BOUNDARY_ATTRIBUTES = {"at_zero", "slope_at_infinity"}


def boundary_reads(source: str) -> list[str]:
    """Reads in ``source`` of a generator's f(0) or lim f(t)/t attribute."""
    return [
        f"{node.attr}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in BOUNDARY_ATTRIBUTES
    ]


@pytest.mark.parametrize(
    "path",
    sorted(path for path in PACKAGE.glob("*.py") if path.name != "divergence.py"),
    ids=lambda path: path.name,
)
def test_only_the_divergence_module_applies_zero_bin_conventions(path):
    assert boundary_reads(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("terms = np.where(m_hat == 0, true_m * f.at_zero, terms)", ["at_zero:1"]),
        ("if math.isinf(f.at_zero):\n    pass", ["at_zero:1"]),
        ("x = 1\nterm = b * gen.slope_at_infinity", ["slope_at_infinity:2"]),
        ("getattr(f, 'at_zero')\nf.evaluate(0.0)\nat_zero = 2.0", []),
    ],
)
def test_checker_flags_boundary_reads(source, expected):
    assert boundary_reads(source) == expected


REPORT_PARTS = {
    "MultivariateNormal",
    "UniformCube",
    "bias_bound_check",
    "one_sample_risk_moving",
    "one_sample_risk_fixed",
    "pairwise_partitions",
    "pairwise_marginal_scan",
}


def report_parts(source: str) -> list[str]:
    """Names in ``source``, read or imported, of what a validate or pairwise report is built from."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name.rsplit(".", 1)[-1]
        else:
            continue
        if name in REPORT_PARTS:
            found.append(f"{name}:{node.lineno}")
    return found


def test_cli_builds_no_validate_or_pairwise_report():
    assert report_parts((PACKAGE / "cli.py").read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from hellfit.criterion import pairwise_marginal_scan", ["pairwise_marginal_scan:1"]),
        ("from hellfit import mc_validate\nmc_validate.UniformCube(1)", ["UniformCube:2"]),
        ("from hellfit.mc_validate import bias_bound_check as check", ["bias_bound_check:1"]),
        ("x = 1\nMultivariateNormal = None", ["MultivariateNormal:2"]),
        ("mc_validate.validate_payload(4)\npairwise_payload(a, b, 4, 0.05)", []),
    ],
)
def test_checker_flags_report_parts(source, expected):
    assert report_parts(source) == expected


def unused_public_names(sources: dict[str, str], exported) -> list[str]:
    """Public top-level functions and classes of ``sources`` (module name to
    text) that no module reads, by name or as an attribute, and that are not in
    ``exported``."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        defined += [
            f"{module}.{node.name}"
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not _private(node.name)
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [name for name in defined if name.split(".")[1] not in read | set(exported)]


def test_every_public_name_is_used_or_exported():
    sources = {
        path.stem: path.read_text()
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    assert unused_public_names(sources, hellfit.__all__) == []


@pytest.mark.parametrize(
    "sources, exported, expected",
    [
        ({"a": "def f(): pass\ndef g(): f()"}, [], ["a.g"]),
        ({"a": "def f(): pass\nclass C: pass", "b": "import a\na.f(a.C)"}, [], []),
        ({"a": "def f(): pass\ndef _g(): pass\nclass C:\n    def h(self): pass"}, ["f", "C"], []),
        ({"a": "def f(): pass", "b": "from a import f"}, [], ["a.f"]),
        ({"a": "def f():\n    def g(): pass\n    return g"}, [], ["a.f"]),
    ],
)
def test_checker_flags_unused_public_names(sources, exported, expected):
    assert unused_public_names(sources, exported) == expected


TEXT_READERS = {"loadtxt", "genfromtxt", "fromstring"}


def text_reader_calls(source: str) -> list[str]:
    """Calls in ``source`` of numpy's text-to-number readers, by any name."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := node.func.attr if isinstance(node.func, ast.Attribute) else _dotted(node.func))
        in TEXT_READERS
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_calls_numpy_text_readers(path):
    assert text_reader_calls(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("np.loadtxt(rows, delimiter=',')", ["loadtxt:1"]),
        ("import numpy\nnumpy.genfromtxt(path)", ["genfromtxt:2"]),
        ("from numpy import fromstring\nfromstring(text, sep=',')", ["fromstring:2"]),
        ("np.frombuffer(block, np.uint8)\nloadtxt = None\nx.loadtxt", []),
    ],
)
def test_checker_flags_text_reader_calls(source, expected):
    assert text_reader_calls(source) == expected


def scipy_imports(source: str) -> list[str]:
    """Imports of scipy anywhere in ``source``, inside functions too, in ``ast.walk`` order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        found.extend(f"{name}:{node.lineno}" for name in names if name.split(".")[0] == "scipy")
    return found


# every import counts, not only those that run when the module loads
@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_module_imports_scipy_when_it_loads(path):
    assert scipy_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("from scipy.stats import norm", ["scipy.stats:1"]),
        ("import numpy as np, scipy.special as sc", ["scipy.special:1"]),
        ("import scipy", ["scipy:1"]),
        ("try:\n    import scipy.stats\nexcept ImportError:\n    pass", ["scipy.stats:2"]),
        ("class C:\n    from scipy import special", ["scipy:2"]),
        ("def f():\n    from scipy.stats import norm\n    return norm", ["scipy.stats:2"]),
        ("class C:\n    def g(self):\n        import scipy.stats", ["scipy.stats:3"]),
        ("import scipyx\nfrom .scipy import x\nfrom numpy import scipy", []),
    ],
)
def test_checker_flags_eager_scipy_imports(source, expected):
    assert scipy_imports(source) == expected


@pytest.mark.parametrize("module", ["hellfit.cli", "hellfit.partition", "hellfit.mc_validate"])
def test_importing_loads_no_thread_pool(module):
    """``concurrent.futures`` costs milliseconds to import; only CSV loads, fit's KS, the
    pairwise scan and the theorem-4 check use it."""
    code = f"import sys, {module}; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"
