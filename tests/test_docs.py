"""The documented entry points must work exactly as written."""

import pathlib
import re

import numpy as np


def test_readme_quickstart_snippet_runs():
    """Execute the README's quickstart block verbatim."""
    readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
    match = re.search(r"```python\n(.*?)```", readme, re.DOTALL)
    assert match, "README must contain a python quickstart block"
    ns: dict = {}
    exec(match.group(1), ns)  # noqa: S102 — executing our own README
    assert "result" in ns
    assert ns["result"].eigenvalues.shape == (256,)


def test_cost_model_attribution_snippet_runs():
    """Execute the span recipe of docs/cost_model.md §"Attributing costs"."""
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "cost_model.md").read_text()
    match = re.search(r"## Attributing costs\n.*?```python\n(.*?)```", doc, re.DOTALL)
    assert match, "the section must contain a python block"
    ns: dict = {}
    exec(match.group(1), ns)  # noqa: S102 — executing our own docs
    spans = ns["spans"]
    assert [row.path for row in spans.rows][:2] == ["reduction", "reduction/allreduce"]
    assert spans.verify_exact() == []
    rows = ns["rows"]
    assert rows["reduction"].flops == 16.0 and rows["reduction/allreduce"].words > 0


def test_package_docstring_snippet_runs():
    import repro

    match = re.search(r"Quickstart::\n\n(.*?)\n\nPackage map", repro.__doc__, re.DOTALL)
    assert match
    code = "\n".join(line[4:] for line in match.group(1).splitlines())
    ns: dict = {}
    exec(code, ns)  # noqa: S102
    assert ns["result"].cost.W > 0


def test_version_consistency():
    import repro

    pyproject = (pathlib.Path(__file__).parent.parent / "pyproject.toml").read_text()
    assert f'version = "{repro.__version__}"' in pyproject


def test_design_md_names_real_modules():
    """Every module path DESIGN.md's inventory cites must exist."""
    root = pathlib.Path(__file__).parent.parent
    design = (root / "DESIGN.md").read_text()
    for mod in re.findall(r"`((?:bsp|dist|linalg|blocks|eig|model|report|util)/\w+\.py)`", design):
        assert (root / "src" / "repro" / mod).exists(), f"DESIGN.md cites missing {mod}"


def test_serving_resilience_snippet_runs(tmp_path, monkeypatch):
    """Execute the docs/serving.md §"Service-level resilience" block in
    ``tmp_path``, where its journal lands."""
    doc = (pathlib.Path(__file__).parent.parent / "docs" / "serving.md").read_text()
    match = re.search(r"## Service-level resilience\n.*?```python\n(.*?)```", doc, re.DOTALL)
    assert match, "the section must contain a python block"
    monkeypatch.chdir(tmp_path)
    ns: dict = {}
    exec(match.group(1), ns)  # noqa: S102 — executing our own docs
    report = ns["report"]
    assert report.jobs == 12 and ns["service"].scheduling == "edf"
    assert set(report.summary()["resilience"]["dispositions"]) == {"ok", "degraded", "error"}
    assert (tmp_path / "serve_journal.jsonl").exists()
