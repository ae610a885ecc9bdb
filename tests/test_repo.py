"""Checks that tie the package to the files around it: the README's library
session, and the attribute names perfbench's tracer wraps."""

import contextlib
import importlib
import importlib.util
import io
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_library_session_converges():
    text = (ROOT / "README.md").read_text()
    block = re.search(r"A minimal library session.*?```python\n(.*?)```", text, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().strip() == "Regime.CONVERGED"


def test_perfbench_trace_sites_resolve():
    # read spans.py only; the tracer is never started
    spec = importlib.util.spec_from_file_location("perfbench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    sites = [site for _, group, _ in spans.SITES for site in group]
    assert sites
    for module, attribute in sites:
        target = getattr(importlib.import_module(f"attnsim.{module}"), attribute, None)
        assert callable(target), f"perfbench traces attnsim.{module}.{attribute}, which is missing"
