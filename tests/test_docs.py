"""Docs guard: every dotted ``repro.…`` path the prose names exists.

DESIGN.md once listed ``repro.scheduler``, ``repro.server`` and others
that were never created; a name in the docs must resolve as a module,
or as an attribute of the module before its last dot.
"""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS = [REPO_ROOT / "DESIGN.md", REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]
DOTTED = re.compile(r"\brepro(?:\.[A-Za-z_]\w*)+")


def _resolves(name: str) -> bool:
    try:
        if importlib.util.find_spec(name) is not None:
            return True
    except ModuleNotFoundError:
        pass
    module, _, attribute = name.rpartition(".")
    try:
        return hasattr(importlib.import_module(module), attribute)
    except ModuleNotFoundError:
        return False


@pytest.mark.parametrize("path", DOCS, ids=lambda p: p.name)
def test_named_modules_exist(path):
    missing = sorted(n for n in set(DOTTED.findall(path.read_text())) if not _resolves(n))
    assert not missing, f"{path.name} names modules that do not exist: {missing}"


def test_guard_rejects_a_missing_module():
    assert _resolves("repro.exec.kernels")
    assert _resolves("repro.exec.kernels.factorize")
    assert not _resolves("repro.exec.backend.current_backend")
    assert not _resolves("repro.scheduler.mlfq")
    assert not _resolves("repro.exec.kernels.no_such_function")


def assert_field_table_matches(doc: str, config_class) -> None:
    """``docs/<doc>``'s "## `<Class>` fields" table lists exactly the
    dataclass's fields with their defaults: a removed or new field fails
    here until the doc says who sets it."""
    import dataclasses

    text = (REPO_ROOT / "docs" / doc).read_text()
    section = text.split(f"## `{config_class.__name__}` fields")[1].split("\n## ")[0]
    documented = dict(re.findall(r"^\| `(\w+)` \| `([^`]+)` \|", section, re.M))
    actual = {f.name: repr(f.default) for f in dataclasses.fields(config_class)}
    assert documented == actual


def test_optimizer_knob_table_matches_the_dataclass():
    from repro.optimizer.context import OptimizerConfig

    assert_field_table_matches("OPTIMIZER.md", OptimizerConfig)


def test_fault_tolerance_field_table_matches_the_dataclass():
    from repro.cluster import FaultToleranceConfig

    assert_field_table_matches("FAULT_TOLERANCE.md", FaultToleranceConfig)


def test_fuzz_config_table_matches_the_runner():
    """docs/FUZZING.md's Axes and Rows tables are the runner's ``AXES``
    and ``CONFIGS``: a new row, value or axis fails here until the doc
    describes it."""
    import dataclasses

    from repro.fuzz.runner import AXES, CONFIGS, EXCLUDED_PAIRS

    text = (REPO_ROOT / "docs" / "FUZZING.md").read_text()
    axes = text.split("### Axes")[1].split("\n### ")[0]
    documented_axes: dict[str, list[str]] = {}
    for axis, value in re.findall(r"^\| `(\w+)` \| `(\w+)` \|", axes, re.M):
        documented_axes.setdefault(axis, []).append(value)
    assert documented_axes == {axis: list(values) for axis, values in AXES.items()}

    rows = text.split("### Rows")[1].split("\n### ")[0]
    header, *body = re.findall(r"^\| `?(\w+)`? \|((?: \w+ \|)+)$", rows, re.M)
    assert [header[0], *header[1].replace("|", " ").split()] == ["config", *AXES]
    documented_rows = {name: tuple(cells.replace("|", " ").split()) for name, cells in body}
    assert documented_rows == {
        name: dataclasses.astuple(config) for name, config in CONFIGS.items()
    }
    assert f"The other {len(EXCLUDED_PAIRS)} are `EXCLUDED_PAIRS`" in text


def test_fuzzing_doc_scenario_table_is_the_scenario_table():
    """docs/FUZZING.md's scenario table is ``SCENARIOS``, field by field."""
    import dataclasses

    from repro.fuzz.concurrent import SCENARIOS

    def cell(value) -> str:
        if value is None:
            return "none"
        if isinstance(value, bool):
            return {True: "on", False: "off"}[value]
        return f"{value:g}" if isinstance(value, float) else str(value)

    text = (REPO_ROOT / "docs" / "FUZZING.md").read_text()
    rows = re.findall(r"^\| `(\w+)` \| (\d.*) \|$", text.split("| scenario |")[1], re.M)
    documented = {name: cells.split(" | ")[:10] for name, cells in rows}
    expected = {}
    for name, scenario in SCENARIOS.items():
        cells = [cell(v) for v in dataclasses.astuple(scenario)]
        cells[8] = "yes" if scenario.one_way_partitions else "no"
        expected[name] = cells
    assert documented == expected
