"""Every quantile under ``src/repro`` is :func:`repro.metrics.stats.percentile`.

numpy's and the ``statistics`` module's quantile functions use other
definitions (numpy's default interpolates linearly between samples), so
one call to them would put a second definition beside the nearest rank
that the control loops and the reports share.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

BANNED = {
    "numpy": frozenset({"percentile", "quantile", "median", "nanpercentile",
                        "nanquantile", "nanmedian"}),
    "statistics": frozenset({"median", "median_low", "median_high",
                             "median_grouped", "quantiles"}),
}


def quantile_calls(source: str):
    """``(line, "module.function")`` for each banned quantile call."""
    tree = ast.parse(source)
    modules = {}    # local name -> banned module it is bound to
    functions = {}  # local name -> "module.function" imported by name
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in BANNED:
                    modules[alias.asname or root] = root
        elif isinstance(node, ast.ImportFrom) and node.module:
            root = node.module.split(".")[0]
            for alias in node.names:
                if root in BANNED and alias.name in BANNED[root]:
                    functions[alias.asname or alias.name] = f"{root}.{alias.name}"
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in functions:
            found.append((node.lineno, functions[func.id]))
        elif isinstance(func, ast.Attribute):
            base = func.value
            while isinstance(base, ast.Attribute):
                base = base.value
            module = modules.get(base.id) if isinstance(base, ast.Name) else None
            if module and func.attr in BANNED[module]:
                found.append((node.lineno, f"{module}.{func.attr}"))
    return found


def test_src_calls_no_other_quantile_function():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}: {name}"
        for path in sorted(SRC.rglob("*.py"))
        for line, name in quantile_calls(path.read_text())
    ]
    assert offenders == []


def test_src_defines_percentile_only_in_metrics():
    definers = sorted(
        str(path.relative_to(SRC))
        for path in SRC.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(word in node.name for word in ("percentile", "quantile",
                                               "median"))
    )
    # The sample percentile and the histogram's bucket-resolution one.
    assert definers == ["metrics/histogram.py", "metrics/stats.py"]


@pytest.mark.parametrize("source, expected", [
    ("import numpy as np\nnp.percentile(x, 95)", "numpy.percentile"),
    ("import numpy\nnumpy.nanquantile(x, 0.5)", "numpy.nanquantile"),
    ("import numpy as np\nnp.ma.median(x)", "numpy.median"),
    ("from numpy import median as med\nmed(x)", "numpy.median"),
    ("import statistics\nstatistics.median_low(x)", "statistics.median_low"),
    ("from statistics import quantiles\nquantiles(x, n=4)",
     "statistics.quantiles"),
])
def test_detector_flags_each_form(source, expected):
    assert [name for _, name in quantile_calls(source)] == [expected]


@pytest.mark.parametrize("source", [
    "import numpy as np\nnp.mean(x)",
    "from repro.metrics.stats import percentile\npercentile(x, 95)",
    "histogram.percentile(95)",
    "import statistics\nstatistics.mean(x)",
])
def test_detector_passes_other_calls(source):
    assert quantile_calls(source) == []
