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

Distributions have one home, ``models.py``, which imports no hellfit module but
``dataset`` and ``partition`` (not the checks, the criterion or the CLI); and
``dataset.py`` draws from no law itself: it calls no Cholesky factorization
and no standard normal generator.

No module imports scipy, at load time or inside a function: the runtime
depends on numpy alone, and scipy is a test dependency, the reference of the
differential tests.
The CLI builds no report itself: ``validate`` and ``pairwise`` call one library
function each, so ``cli.py`` names none of the distributions, checks or scans
those reports are made of.
Nor is ``concurrent.futures`` loaded with the CLI, the partitions or the
Monte Carlo module: only the CSV loader, ``fit``'s KS baseline, the pairwise
scan and the theorem-4 check run thread pools, and they import it when they run.

Every usage rule has one home: the library raises ``UsageError`` and ``run``
maps it to exit 2.  So ``cli.py`` raises no ``argparse.ArgumentError``, holds
no per-theorem or per-table list of the flags it never reads, and raises
``UsageError`` only in ``_run_fit``, whose depth rule is the CLI's own.
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


def named_calls(source: str, names) -> list[str]:
    """Calls in ``source`` of a function or method with one of ``names``, by any path."""
    return [
        f"{name}:{node.lineno}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and (name := node.func.attr if isinstance(node.func, ast.Attribute) else _dotted(node.func))
        in names
    ]


def text_reader_calls(source: str) -> list[str]:
    """Calls in ``source`` of numpy's text-to-number readers, by any name."""
    return named_calls(source, TEXT_READERS)


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


def hellfit_imports(source: str) -> list[str]:
    """Modules of hellfit, the package itself included, that ``source`` imports anywhere,
    in ``ast.walk`` order; a relative import keeps its leading dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if alias.name.split(".")[0] == "hellfit"]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level or module.split(".")[0] == "hellfit":
                found.append("." * node.level + module)
    return found


def test_models_import_only_the_dataset_and_partition():
    imports = hellfit_imports((PACKAGE / "models.py").read_text())
    assert set(imports) <= {"hellfit.dataset", "hellfit.partition"}, imports


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import numpy as np\nfrom hellfit.dataset import Dataset", ["hellfit.dataset"]),
        ("import hellfit.mc_validate, math", ["hellfit.mc_validate"]),
        ("from hellfit import criterion", ["hellfit"]),
        ("from .cli import run\nfrom . import partition", [".cli", "."]),
        ("def f():\n    from hellfit.mc_validate import validate_payload", ["hellfit.mc_validate"]),
        ("import hellfitx\nfrom numpy import hellfit\nhellfit.cli", []),
    ],
)
def test_checker_flags_hellfit_imports(source, expected):
    assert hellfit_imports(source) == expected


SAMPLER_CALLS = {"cholesky", "standard_normal"}


def test_the_dataset_module_draws_from_no_law():
    assert named_calls((PACKAGE / "dataset.py").read_text(), SAMPLER_CALLS) == []


@pytest.mark.parametrize(
    "module", ["hellfit.cli", "hellfit.partition", "hellfit.mc_validate", "hellfit.models"]
)
def test_importing_loads_no_thread_pool(module):
    """``concurrent.futures`` costs milliseconds to import; only CSV loads, fit's KS, the
    pairwise scan and the theorem-4 check use it."""
    code = f"import sys, {module}; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout == "False\n"


def usage_error_raises(source: str) -> list[str]:
    """``function:line`` of every ``raise UsageError`` in ``source``, named by the
    innermost enclosing function (``<module>`` outside any)."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if (_dotted(exc) or "").rsplit(".", 1)[-1] == "UsageError":
                found.append(f"{function}:{node.lineno}")
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "<module>")
    return found


def test_the_cli_raises_usage_errors_only_for_fits_depth_rule():
    raises = usage_error_raises((PACKAGE / "cli.py").read_text())
    assert {site.split(":")[0] for site in raises} == {"_run_fit"}, raises


@pytest.mark.parametrize(
    "source, expected",
    [
        ("def f():\n    raise UsageError('x')", ["f:2"]),
        ("raise dataset.UsageError", ["<module>:1"]),
        ("def f():\n    def g():\n        raise UsageError()\n    raise UsageError()",
         ["f:4", "g:3"]),
        ("def f():\n    raise ValueError('UsageError')\nUsageError('not raised')", []),
    ],
)
def test_checker_flags_usage_error_raises(source, expected):
    assert sorted(usage_error_raises(source)) == sorted(expected)


# what the library names the arguments a theorem or table never reads
UNREAD_ARGUMENTS = {"n", "n1", "n2", "n1_values", "config", "epsilon"}


def duplicated_usage_rules(source: str) -> list[str]:
    """Uses of ``argparse.ArgumentError``, and lists of unread arguments: a tuple,
    list or set literal of nothing but argument names, or text saying "not read by"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
        if name == "ArgumentError":
            found.append(f"ArgumentError:{node.lineno}")
        elif isinstance(node, (ast.Tuple, ast.List, ast.Set)) and node.elts and all(
            isinstance(elt, ast.Constant) and elt.value in UNREAD_ARGUMENTS for elt in node.elts
        ):
            found.append(f"unread-list:{node.lineno}")
        elif isinstance(node, ast.Constant) and "not read by" in str(node.value):
            found.append(f"not-read-by:{node.lineno}")
    return found


def test_the_cli_holds_no_second_copy_of_a_library_usage_rule():
    assert duplicated_usage_rules((PACKAGE / "cli.py").read_text()) == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("raise argparse.ArgumentError(None, 'bad')", ["ArgumentError:1"]),
        ("from argparse import ArgumentError\nexcept_ = ArgumentError", ["ArgumentError:2"]),
        ("unread = ('n1', 'epsilon')", ["unread-list:1"]),
        ("x = 1\nnames = ['n1', 'n2', 'config']", ["unread-list:2"]),
        ("message = f'argument --{name}: not read by {mode}'", ["not-read-by:1"]),
        ("raise argparse.ArgumentTypeError('x')\nformats = ('json', 'pretty')\n"
         "parser.add_argument('--n1', type=int)\nnames = ('n1', 'json')", []),
    ],
)
def test_checker_flags_duplicated_usage_rules(source, expected):
    assert duplicated_usage_rules(source) == expected
