"""Style guard for the vectorized kernel layer.

The hot operator files route primitive-typed pages through
``repro.exec.kernels``; row-at-a-time loops over a whole page are only
allowed as sanctioned fallbacks (object-typed keys, inherently scalar
semantics) and must carry a ``# row-path:`` comment explaining why, on
the loop line or within the two preceding lines.

The storage layer is covered too: the ORC-like encoder/decoder and the
connector page sinks are batch paths, and a per-value loop over a
stripe's values (or a ``page.rows()`` walk in a sink) needs the same
sanction.

This keeps future edits from quietly reintroducing per-row hot loops —
the regression the vectorization PRs exist to prevent.

A second check keeps the kernels plain numpy: the vocabulary of the
deleted ``KernelBackend`` seam (``current_backend``, ``to_device``,
``to_host``, ``# host-only`` tags) appears nowhere under ``src/repro``,
so it cannot drift back through a copied snippet.

A third check keeps execution at one process-global switch:
``REPRO_KERNELS`` in ``exec/kernels.py`` is the only ``REPRO_*``
environment variable read under ``src/`` and the only module-level
mode global under ``src/repro/exec``.

A fourth keeps the cluster layer's option count honest: a field of
``ClusterConfig``, ``FaultToleranceConfig``, ``ChaosPlan`` or
``CostModel`` that no
file under ``src/``, ``tests/``, ``benchmarks/`` or ``examples/`` ever
sets is not an option, it is a constant with extra plumbing — and so
is a keyword parameter of ``SimCluster.submit`` / ``run_query`` or
``LocalEngine.__init__`` that nobody passes.

A fifth keeps dead public names out: a class, function or method
defined under ``src/repro`` whose name appears nowhere else in
``src/``, ``tests/``, ``benchmarks/``, ``examples/``, ``docs/`` or the
top-level ``*.md`` files fails.

A sixth keeps answers and simulated counts independent of
``PYTHONHASHSEED``: builtin ``hash(`` appears under ``src/repro`` only
in ``connectors/hashing.py``, whose ``value_hash`` / ``stable_hash``
everything else calls.

A seventh keeps one evaluator in the engine: the tree-walking
interpreter is the fuzz oracle's, so no engine module (everything under
``src/repro`` outside ``fuzz/``) refers to it in code, and only
``fuzz/`` and ``chaos/`` import ``repro.fuzz`` at all. It reads the
syntax tree, so prose about "the Python interpreter" stays legal.
"""

import ast
import collections
import functools
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

HOT_FILES = [
    "src/repro/exec/operators/aggregation.py",
    "src/repro/exec/operators/joins.py",
    "src/repro/exec/operators/sorting.py",
    "src/repro/exec/operators/misc.py",
    "src/repro/exec/operators/core.py",
    "src/repro/cluster/shuffle.py",
    # Fault-tolerance PR: the durable spool sits on the delivery path.
    "src/repro/cluster/spool.py",
    # Pipeline-fusion PR: the compiler, the fused operator, and the
    # page processor they route through.
    "src/repro/exec/pipeline.py",
    "src/repro/exec/page_processor.py",
    # Storage layer (columnar scan PR): encode/decode and page sinks.
    "src/repro/connectors/hive/format.py",
    "src/repro/connectors/hive/connector.py",
    "src/repro/connectors/raptor.py",
]

# Loops (or comprehensions) iterating once per row of a page, per value
# of a stripe buffer, or per row tuple of a page.
ROW_LOOP_PATTERNS = [
    re.compile(r"for\s+\w+\s+in\s+range\([^)]*row_count[^)]*\)"),
    re.compile(r"for\s+[\w,\s]+\s+in\s+\w*\.rows\(\)"),
    # Buffer walks (values.items() is a per-column dict walk, not per-row).
    re.compile(r"for\s+[\w,\s]+\s+in\s+(?:values|non_null)\b(?!\.)"),
]
SANCTION = re.compile(r"#\s*row-path")


def _matches_row_loop(line: str) -> bool:
    return any(pattern.search(line) for pattern in ROW_LOOP_PATTERNS)


def _violations(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    bad = []
    for i, line in enumerate(lines):
        if not _matches_row_loop(line):
            continue
        window = lines[max(0, i - 2) : i + 1]
        if any(SANCTION.search(w) for w in window):
            continue
        bad.append(f"{path.relative_to(REPO_ROOT)}:{i + 1}: {line.strip()}")
    return bad


@pytest.mark.parametrize("relpath", HOT_FILES)
def test_no_unsanctioned_row_loops(relpath):
    violations = _violations(REPO_ROOT / relpath)
    assert not violations, (
        "per-row loop in a vectorized hot path without a '# row-path:' "
        "sanction comment:\n" + "\n".join(violations)
    )


def test_lint_catches_untagged_loop(tmp_path):
    sample = tmp_path / "sample.py"
    sample.write_text("for row in range(page.row_count):\n    pass\n")
    # _violations uses paths relative to REPO_ROOT only for messages.
    lines = sample.read_text().splitlines()
    assert _matches_row_loop(lines[0])
    assert not SANCTION.search(lines[0])


def test_lint_catches_rows_walk():
    assert _matches_row_loop("for row in page.rows():")
    assert _matches_row_loop("non_null = [v for v in values if v is not None]")
    assert not _matches_row_loop("for stripe in self.file.stripes:")


# --------------------------------------------------------------------------
# Plain numpy: the deleted backend seam's vocabulary stays deleted.
# --------------------------------------------------------------------------

SEAM_VOCABULARY = re.compile(r"current_backend|to_device|to_host|host-only")


def _seam_lines(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if SEAM_VOCABULARY.search(line)]


def test_no_backend_seam_vocabulary_under_src():
    offenders = {
        str(path.relative_to(REPO_ROOT)): found
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
        if (found := _seam_lines(path.read_text()))
    }
    assert not offenders, f"the kernels call numpy by its name: {offenders}"
    assert _seam_lines("xp = current_backend().xp\nkeep = np.flatnonzero(m)  # host-only\n")


# --------------------------------------------------------------------------
# One execution switch: a new process-global mode must fail here.
# --------------------------------------------------------------------------

SRC = REPO_ROOT / "src"
ENV_READ = re.compile(r"\b(?:environ|getenv)\b[^#\n]*REPRO_\w+")
MODE_GLOBAL = re.compile(r"^(?:global\s+)?(_mode|_active)\b", re.M)


def _env_reads(text: str) -> list[str]:
    return [line.strip() for line in text.splitlines() if ENV_READ.search(line)]


def test_repro_kernels_is_the_only_environment_switch():
    reads = {
        str(path.relative_to(SRC)): found
        for path in sorted(SRC.rglob("*.py"))
        if (found := _env_reads(path.read_text()))
    }
    assert list(reads) == ["repro/exec/kernels.py"], reads
    (line,) = reads["repro/exec/kernels.py"]
    assert "REPRO_KERNELS" in line


def test_kernels_holds_the_only_mode_global_under_exec():
    holders = [
        str(path.relative_to(SRC))
        for path in sorted((SRC / "repro" / "exec").rglob("*.py"))
        if MODE_GLOBAL.search(path.read_text())
    ]
    assert holders == ["repro/exec/kernels.py"]


def test_switch_lint_catches_new_switches():
    assert _env_reads('mode = os.environ.get("REPRO_NEW_SWITCH", "auto")')
    assert _env_reads('name = os.getenv("REPRO_OTHER_SWITCH")')
    assert not _env_reads("# set REPRO_KERNELS=row to force the row path")
    assert MODE_GLOBAL.search("import os\n_active = None\n")
    assert not MODE_GLOBAL.search("    _mode = 3\nself._mode = 4\n")


@pytest.mark.parametrize(
    "value, expected",
    [
        (None, "vector True"),
        ("", "vector True"),
        ("row", "row False"),
        ("ROW ", "row False"),
        (" Vector", "vector True"),
        ("vectro", None),
    ],
)
def test_repro_kernels_value_is_validated_at_import(value, expected):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_KERNELS"}
    env["PYTHONPATH"] = str(SRC)
    if value is not None:
        env["REPRO_KERNELS"] = value
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "from repro.exec import kernels; print(kernels.get_mode(), kernels.enabled())",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    if expected is not None:
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == expected
    else:
        assert result.returncode != 0
        assert "ValueError" in result.stderr
        assert "'vector'" in result.stderr and "'row'" in result.stderr


# --------------------------------------------------------------------------
# Option census: a config field nobody sets is a constant.
# --------------------------------------------------------------------------

CENSUS_ROOTS = ("src", "tests", "benchmarks", "examples")


def _census_sources() -> list[tuple[str, str]]:
    return [
        (str(path.relative_to(REPO_ROOT)), path.read_text())
        for root in CENSUS_ROOTS
        for path in sorted((REPO_ROOT / root).rglob("*.py"))
    ]


def _unset(names, sources) -> list[str]:
    """The ``names`` that nothing assigns — as a keyword argument or an
    attribute — other than their own declaration (``name: type =
    default``, which the pattern does not match). A same-named keyword
    elsewhere counts as a setter: the check can miss a dead option, it
    cannot flag a live one."""
    return [
        name
        for name in names
        if not any(re.search(rf"\b{name}\s*=(?!=)", text) for _, text in sources)
    ]


def _unset_fields(config_class, sources) -> list[str]:
    import dataclasses

    return _unset([f.name for f in dataclasses.fields(config_class)], sources)


@functools.lru_cache(maxsize=None)
def _calls_in(text: str) -> tuple:
    """Every call in ``text``: (callee name, whether the callee is a
    bare name rather than an attribute, positional argument count,
    keyword names), the count None when a ``*`` argument makes it
    unknown and the names None when a ``**`` argument does."""
    calls = []
    for node in ast.walk(ast.parse(text)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        direct = isinstance(func, ast.Name)
        name = func.id if direct else getattr(func, "attr", None)
        positional = len(node.args)
        if any(isinstance(arg, ast.Starred) for arg in node.args):
            positional = None
        keywords = frozenset(k.arg for k in node.keywords)
        calls.append((name, direct, positional, None if None in keywords else keywords))
    return tuple(calls)


@functools.lru_cache(maxsize=None)
def _module_callables(text: str) -> tuple:
    """``(name, base class names)`` of each class and function ``text``
    defines at module level."""
    found = []
    for node in ast.parse(text).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            found.append((node.name, ()))
        elif isinstance(node, ast.ClassDef):
            bases = tuple(getattr(base, "id", getattr(base, "attr", None)) for base in node.bases)
            found.append((node.name, bases))
    return tuple(found)


def _reached(name: str, bases: dict) -> set:
    """``name`` and the classes it derives from: the callees a keyword
    passed to ``name(...)`` can reach."""
    reached, todo = set(), [name]
    while todo:
        current = todo.pop()
        if current not in reached:
            reached.add(current)
            todo.extend(bases.get(current, ()))
    return reached


def _unset_keywords(function, sources) -> list[str]:
    """Parameters of ``function`` that have a default and that no call
    passes: no call names the keyword, and no call of the function's
    name (the class's, for ``__init__``) passes an argument in its
    position or a ``**`` mapping. An assignment such as ``self.name =
    name`` passes nothing. A call that names a module-level class or
    function directly (``Other(name=...)``) passes its keywords to that
    callee and the classes it derives from alone; any other call (a
    method, an alias, a variable holding a class) counts as passing a
    same-named keyword to every callee: the check can miss a dead option
    there, it cannot flag a live one."""
    import inspect

    callee = function.__name__
    if callee == "__init__":
        callee = function.__qualname__.split(".")[-2]
    parameters = list(inspect.signature(function).parameters.values())
    offset = 1 if parameters and parameters[0].name == "self" else 0
    calls = [call for _, text in sources for call in _calls_in(text)]
    bases = dict(found for _, text in sources for found in _module_callables(text))
    named = set().union(
        *(
            keywords or ()
            for name, direct, _, keywords in calls
            if not (direct and name in bases) or callee in _reached(name, bases)
        )
    )
    own = [
        (positional, keywords) for name, _, positional, keywords in calls if name == callee
    ]

    def passed(index, parameter) -> bool:
        if parameter.name in named or any(keywords is None for _, keywords in own):
            return True
        return parameter.kind is not parameter.KEYWORD_ONLY and any(
            positional is None or positional > index - offset for positional, _ in own
        )

    return [
        p.name
        for index, p in enumerate(parameters)
        if p.default is not p.empty
        and p.kind is not p.VAR_KEYWORD
        and not passed(index, p)
    ]


def test_every_cluster_config_field_is_set_by_someone():
    from repro.chaos.campaign import ChaosPlan
    from repro.cluster import ClusterConfig, FaultToleranceConfig
    from repro.cluster.cost import CostModel
    from repro.optimizer.context import OptimizerConfig

    sources = _census_sources()
    for config_class in (
        ClusterConfig,
        FaultToleranceConfig,
        ChaosPlan,
        CostModel,
        OptimizerConfig,
    ):
        unset = _unset_fields(config_class, sources)
        assert not unset, (
            f"{config_class.__name__}.{unset} is set by no file under "
            f"{'/, '.join(CENSUS_ROOTS)}/: make it a module constant beside its one use"
        )


def test_chaos_plan_constants_stay_constants():
    """Seven ChaosPlan fields no file ever set became module constants of
    repro.chaos.campaign. The census above cannot hold three of them out
    (``slow_factor`` and the two heartbeat settings are keywords of other
    classes, which it counts as setters), so they are named here."""
    import dataclasses

    from repro.chaos import campaign

    fields = {f.name for f in dataclasses.fields(campaign.ChaosPlan)}
    for constant in (
        "SUBMIT_WINDOW_MS",
        "CRASH_WINDOW_MS",
        "MIN_SURVIVORS",
        "SLOW_FACTOR",
        "PARTITION_WINDOW_MS",
        "HEARTBEAT_INTERVAL_MS",
        "HEARTBEAT_TIMEOUT_MS",
    ):
        assert hasattr(campaign, constant)
        assert constant.lower() not in fields, f"ChaosPlan.{constant.lower()} is back"


def test_every_submit_and_engine_keyword_is_passed_by_someone():
    from repro.client import LocalEngine
    from repro.cluster import SimCluster
    from repro.cluster.query import QueryExecution
    from repro.cluster.task import SimTask
    from repro.connectors.hive import HiveConnector
    from repro.connectors.memory import MemoryConnector
    from repro.connectors.raptor import RaptorConnector
    from repro.connectors.shardedsql import ShardedSqlConnector
    from repro.connectors.stream import StreamConnector
    from repro.connectors.tpch import TpchConnector
    from repro.frontend import StatementFrontEnd
    from repro.workload import generators

    sources = _census_sources()
    for function in (
        SimCluster.submit,
        SimCluster.run_query,
        LocalEngine.__init__,
        StatementFrontEnd.__init__,
        QueryExecution.__init__,
        SimTask.__init__,
        HiveConnector.__init__,
        MemoryConnector.__init__,
        RaptorConnector.__init__,
        ShardedSqlConnector.__init__,
        StreamConnector.__init__,
        TpchConnector.__init__,
        *(
            workload.__init__
            for workload in vars(generators).values()
            if isinstance(workload, type)
            and workload.__module__ == generators.__name__
        ),
    ):
        unset = _unset_keywords(function, sources)
        assert not unset, (
            f"{function.__qualname__}({unset}=) is passed by no file under "
            f"{'/, '.join(CENSUS_ROOTS)}/: delete the parameter"
        )


def test_census_lint_catches_an_unset_field():
    import dataclasses

    @dataclasses.dataclass
    class Config:
        worker_count: int = 4
        nobody_sets_this_knob: float = 0.5

    sources = [("a.py", "Config(worker_count=8)\nif c.nobody_sets_this_knob == 1: pass\n")]
    assert _unset_fields(Config, sources) == ["nobody_sets_this_knob"]
    sources.append(("b.py", "cluster.config.nobody_sets_this_knob = 0.9\n"))
    assert _unset_fields(Config, sources) == []


def test_census_lint_catches_an_unpassed_keyword():
    def submit(self, sql, phased=False, nobody_passes_this=None, **kwargs):
        pass

    sources = [
        ("a.py", "cluster.submit(sql, phased=True)\nif nobody_passes_this: pass\n"),
        # A constructor that stores the keyword under its own name is
        # not a caller.
        (
            "c.py",
            "class C:\n"
            "    def __init__(self, nobody_passes_this=None):\n"
            "        self.nobody_passes_this = nobody_passes_this\n",
        ),
    ]
    assert _unset_keywords(submit, sources) == ["nobody_passes_this"]
    # The same keyword passed to another class named directly is that
    # class's: it passes nothing to ``submit``.
    other = ("d.py", "class Other:\n    pass\nOther(nobody_passes_this=1)\n")
    assert _unset_keywords(submit, [*sources, other]) == ["nobody_passes_this"]
    # A subclass named directly reaches the class it derives from.
    class Base:
        def __init__(self, nobody_passes_this=None):
            pass

    derived = ("f.py", "class Derived(Base):\n    pass\nDerived(nobody_passes_this=1)\n")
    assert _unset_keywords(Base.__init__, [other]) == ["nobody_passes_this"]
    assert _unset_keywords(Base.__init__, [other, derived]) == []
    # A callee the census cannot resolve keeps the name-only rule.
    for call in ("factory(nobody_passes_this=1)\n", "mod.Other(nobody_passes_this=1)\n"):
        assert _unset_keywords(submit, [*sources, other, ("e.py", call)]) == []
    by_position = ("b.py", "cluster.submit(sql, False, 3)\n")
    assert _unset_keywords(submit, [*sources, by_position]) == []
    sources.append(("b.py", "cluster.submit(sql, nobody_passes_this=3)\n"))
    assert _unset_keywords(submit, sources) == []


# --------------------------------------------------------------------------
# Unreferenced names: a public definition nothing else mentions is dead.
# --------------------------------------------------------------------------

REFERENCE_TREES = (*CENSUS_ROOTS, "docs")
WORD = re.compile(r"[A-Za-z_]\w*")
#: Operator / connector protocol methods the engine calls by contract
#: and nothing names. Empty today: each has a second implementation or
#: a caller that spells it out.
CALLED_BY_CONTRACT: frozenset = frozenset()


def _public_definitions(source: str) -> list[str]:
    return [
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]


def _unreferenced(defining: dict, others: list, allowed=frozenset()) -> list[str]:
    """``path: name`` of every public class, function or method defined
    in ``defining`` (path -> source) whose name occurs exactly once in
    all the text given — its own definition. A same-named definition or
    a mention in prose counts as a reference: the check can miss a dead
    name, it cannot flag a live one."""
    counts = collections.Counter(
        word for text in (*defining.values(), *others) for word in WORD.findall(text)
    )
    return [
        f"{path}: {name}"
        for path, source in defining.items()
        for name in _public_definitions(source)
        if counts[name] == 1 and name not in allowed
    ]


def test_every_public_name_under_src_is_referenced_somewhere():
    defining = {
        str(path.relative_to(REPO_ROOT)): path.read_text()
        for path in sorted((SRC / "repro").rglob("*.py"))
    }
    others = [
        path.read_text()
        for tree in REFERENCE_TREES
        for path in sorted((REPO_ROOT / tree).rglob("*"))
        if path.suffix in (".py", ".md") and str(path.relative_to(REPO_ROOT)) not in defining
    ]
    # ISSUE.md is the per-PR task text: it names what it asks to delete.
    others += [p.read_text() for p in sorted(REPO_ROOT.glob("*.md")) if p.name != "ISSUE.md"]
    dead = _unreferenced(defining, others, CALLED_BY_CONTRACT)
    assert not dead, (
        "defined under src/repro and named nowhere else in "
        f"{'/, '.join(REFERENCE_TREES)}/ or *.md — delete it: {dead}"
    )


def test_unreferenced_lint_catches_a_dead_method():
    sample = {"pool.py": "class Pool:\n    def spare_bytes(self, q): return self._used[q]\n"}
    assert _unreferenced(sample, ["Pool()"]) == ["pool.py: spare_bytes"]
    assert _unreferenced(sample, ["Pool().spare_bytes(q)"]) == []
    assert _unreferenced(sample, ["Pool()"], allowed={"spare_bytes"}) == []


# --------------------------------------------------------------------------
# Hash-seed independence: builtin hash() of a string differs per process.
# --------------------------------------------------------------------------

BUILTIN_HASH = re.compile(r"(?<![\w.])hash\(")
HASHING_HOME = "repro/connectors/hashing.py"


def _salted_hash_lines(text: str) -> list[str]:
    """Lines whose code (not their comment) calls builtin ``hash(``."""
    return [
        line.strip()
        for line in text.splitlines()
        if BUILTIN_HASH.search(line.split("#", 1)[0])
    ]


def test_builtin_hash_is_confined_to_the_hashing_module():
    offenders = {
        str(path.relative_to(SRC)): found
        for path in sorted((SRC / "repro").rglob("*.py"))
        if str(path.relative_to(SRC)) != HASHING_HOME
        and (found := _salted_hash_lines(path.read_text()))
    }
    assert not offenders, (
        f"builtin hash() is salted per process for str/bytes: call "
        f"connectors.hashing.value_hash / stable_hash: {offenders}"
    )


def test_hash_lint_catches_a_salted_hash():
    assert _salted_hash_lines("h = hash(value) & MASK\n") == ["h = hash(value) & MASK"]
    assert _salted_hash_lines("jitter = mix(hash((key, attempt)))\n")
    assert not _salted_hash_lines("h = stable_hash(v) + self.hash(v) + value_hash(v)\n")
    assert not _salted_hash_lines("x = 1  # python hash() per distinct value\n")
    assert not _salted_hash_lines("def __hash__(self):\n")


def test_value_hash_is_one_hash_per_number():
    # A Bloom filter built from Python ints must answer for the equal
    # NumPy scalar (and float): otherwise stripes are skipped wrongly.
    import numpy as np

    from repro.connectors.hashing import stable_hash, value_hash

    assert value_hash(5) == value_hash(5.0) == value_hash(np.int64(5)) == hash(5)
    assert value_hash(2.5) == value_hash(np.float64(2.5)) == value_hash(np.float32(2.5))
    assert value_hash("5") == stable_hash("5")


HASH_SEED_PROBE = """
from repro.chaos.__main__ import main
from repro.client import LocalEngine
from repro.connectors.memory import MemoryConnector
from repro.types import VARCHAR

connector = MemoryConnector()
connector.create_table_with_data(
    "memory", "default", "t", [("s", VARCHAR)], [("a",), ("b",), ("a",), (None,)]
)
engine = LocalEngine()
engine.register_catalog("memory", connector)
print(engine.execute("SELECT checksum(s), approx_distinct(s) FROM t").rows)
main(["--partitions", "1", "--one-way"])  # three campaigns, ~65 retried transfers

# The cluster EXPLAIN text of every corpus statement, as a digest.
import hashlib

from tests.cluster_corpus import build_cluster, build_connectors, statements

cluster = build_cluster(build_connectors())
for key, catalog, sql in statements():
    explained = cluster._front_end(catalog).explain_sql(sql)
    print(key, "plan", hashlib.sha256(explained.encode()).hexdigest()[:16])
"""


def test_answers_and_chaos_counts_do_not_depend_on_the_hash_seed():
    def start(hash_seed: str) -> subprocess.Popen:
        env = dict(
            os.environ,
            PYTHONPATH=os.pathsep.join([str(SRC), str(REPO_ROOT)]),
            PYTHONHASHSEED=hash_seed,
        )
        return subprocess.Popen(
            [sys.executable, "-c", HASH_SEED_PROBE],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )

    outputs = []
    for process in [start("1"), start("2")]:
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stderr
        # The closing summary line carries wall-clock seconds.
        outputs.append([l for l in stdout.splitlines() if "campaign(s)" not in l])
    assert outputs[0] == outputs[1]
    answer, *campaigns = outputs[0][:4]
    assert answer == "[(34623264967007, 2)]"
    assert len(campaigns) == 3 and all(line.startswith("PASS ") for line in campaigns)
    plans = outputs[0][4:]
    assert len(plans) == 59 and all(" plan " in line for line in plans)


# --------------------------------------------------------------------------
# One evaluator: the interpreter belongs to the oracle, not the engine.
# --------------------------------------------------------------------------

INTERPRETER_MODULES = {"repro.exec.interpreter", "repro.fuzz.interpreter"}
FUZZ_IMPORTERS = ("repro/fuzz/", "repro/chaos/")


def _interpreter_references(source: str, may_import_fuzz: bool) -> list[str]:
    """Code references to the interpreter in ``source``: an import of an
    interpreter module (or, unless ``may_import_fuzz``, of anything in
    ``repro.fuzz``), or an attribute read off a name ``interpreter``.
    Strings and comments are not code."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "interpreter"
        ):
            found.append(f"line {node.lineno}: interpreter.{node.attr}")
            continue
        else:
            continue
        for module in modules:
            fuzz = module == "repro.fuzz" or module.startswith("repro.fuzz.")
            if module in INTERPRETER_MODULES or (fuzz and not may_import_fuzz):
                found.append(f"line {node.lineno}: import {module}")
    return found


def _engine_interpreter_references(src: Path) -> dict[str, list[str]]:
    out = {}
    for path in sorted((src / "repro").rglob("*.py")):
        relative = str(path.relative_to(src))
        if relative.startswith("repro/fuzz/"):
            continue
        found = _interpreter_references(path.read_text(), relative.startswith(FUZZ_IMPORTERS))
        if found:
            out[relative] = found
    return out


def test_no_engine_module_refers_to_the_interpreter():
    offenders = _engine_interpreter_references(SRC)
    assert not offenders, (
        "the engine evaluates through repro.exec.compiler only; the "
        f"tree-walking interpreter is the fuzz oracle's: {offenders}"
    )


def test_interpreter_lint_reads_code_not_prose():
    assert _interpreter_references("from repro.exec import interpreter\n", False)
    assert _interpreter_references("from repro.fuzz.interpreter import cast_value\n", True)
    assert _interpreter_references("import repro.fuzz.oracle\n", False)
    assert not _interpreter_references("from repro.fuzz.oracle import run_oracle\n", True)
    assert _interpreter_references("def f(e):\n    return interpreter.evaluate(e, {})\n", False)
    prose = (
        '"""A Python interpreter cannot reproduce the absolute speed of\n'
        'pipelined execution; the paper calls its interpreter "much too slow".\n"""\n'
        "x = 1  # interpreter.evaluate is the oracle's\n"
    )
    assert _interpreter_references(prose, False) == []
