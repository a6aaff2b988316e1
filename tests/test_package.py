"""The package surface: its public names, its records, its version, the
README example."""
import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tmkit

from conftest import tmkit_env

ROOT = Path(__file__).parents[1]

#: ``tmkit.__all__``, in order, grouped by home module.
PUBLIC_NAMES = [
    "__version__",
    # model
    "ACTION_KINDS", "TRANSPORT_KINDS", "LEGAL_FLOW_PAIRS", "Thimac", "Action",
    "Storage", "Flow", "Trigger", "Diagnostic", "StaticModel", "ModelBuilder",
    "ModelError", "structurally_equal",
    # rules
    "SimplifyError", "validate", "simplify",
    # dynamics
    "Event", "ChronEdge", "ChronologyGraph", "Document", "DynamicsError",
    "FormatError", "SimulationError", "define_event", "check_coverage",
    "build_chronology", "structurally_equal_documents",
    # walk
    "Scenario", "Trace", "Violation", "ConformanceResult",
    "ScenarioExhaustedError", "NoEnabledSuccessorError", "ScenarioError",
    "simulate", "conformance", "parse_scenario", "trace_to_json",
    "trace_from_json",
    # dsl
    "ParseError", "SourceSpan", "parse",
    # writer
    "format_document", "to_dot",
    # logic
    "Literal", "Origin", "Implication", "Argument", "ProofPath", "LogicError",
    "MAX_VARIABLES", "close_contrapositive", "derive", "format_proof",
    "truth_table_validate", "parse_argument", "format_argument", "encode_as_tm",
    # convert
    "ConvertError", "MODEL_SCHEMA", "to_json", "from_json",
    # flowchart
    "FlowNode", "FlowEdge", "FlowchartDoc", "FLOWCHART_SCHEMA", "load_flowchart",
    "import_flowchart",
    # report
    "chronology_to_dot", "generate_report",
    # errors
    "TmkitError",
]

#: The home module of each exported value that names none itself.
DATA_HOMES = {
    "__version__": "tmkit",
    "ACTION_KINDS": "tmkit.model",
    "TRANSPORT_KINDS": "tmkit.model",
    "LEGAL_FLOW_PAIRS": "tmkit.model",
    "MAX_VARIABLES": "tmkit.logic",
    "FLOWCHART_SCHEMA": "tmkit.flowchart",
    "MODEL_SCHEMA": "tmkit.convert",
}


def test_all_lists_the_public_names_once_in_order():
    assert tmkit.__all__ == PUBLIC_NAMES
    assert len(set(PUBLIC_NAMES)) == len(PUBLIC_NAMES) == 72


def test_each_public_name_is_its_home_modules_object():
    for name in PUBLIC_NAMES:
        value = getattr(tmkit, name)
        home = DATA_HOMES.get(name) or value.__module__
        assert home.split(".")[0] == "tmkit", name
        assert getattr(importlib.import_module(home), name) is value, name


def test_a_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from tmkit import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)
    assert all(namespace[name] is getattr(tmkit, name) for name in PUBLIC_NAMES)


def test_a_bare_import_binds_the_submodules():
    probe = "import tmkit; print(tmkit.model.__name__, tmkit.convert.__name__, tmkit.errors.__name__)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=tmkit_env(), check=True,
    )
    assert result.stdout == "tmkit.model tmkit.convert tmkit.errors\n"


def test_a_bare_import_loads_a_layer_on_first_use():
    probe = (
        "import sys, tmkit\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('tmkit'))\n"
        "print(*loaded()); tmkit.derive; print(*loaded())"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=tmkit_env(), check=True,
    )
    assert result.stdout == "tmkit\ntmkit tmkit.errors tmkit.logic\n"


def test_dir_lists_every_public_name():
    assert set(PUBLIC_NAMES) <= set(dir(tmkit))


def test_an_unknown_name_is_the_usual_attribute_error():
    with pytest.raises(AttributeError) as raised:
        tmkit.no_such_name
    assert str(raised.value) == "module 'tmkit' has no attribute 'no_such_name'"


#: The modules that define tmkit's types (``__main__`` runs the CLI).
MODULES = (
    "model", "rules", "dynamics", "walk", "dsl", "writer", "logic", "convert",
    "flowchart", "report", "cli", "errors",
)

#: One of each record type; every one is a named tuple.
RECORDS = [
    tmkit.Thimac("a", "a"),
    tmkit.Action("a/x", "create", "a", "start"),
    tmkit.Storage("a/s", "a", "s"),
    tmkit.Flow("f", "a/x", "a/s"),
    tmkit.Trigger("t", "a/x", "a/y", "ok"),
    tmkit.model.Diagnostic("error", "R1", "f", "message"),
    tmkit.Event("E1", "first", frozenset({"a/x"})),
    tmkit.ChronEdge("E1", "E2", "yes"),
    tmkit.Scenario("s"),
    tmkit.Trace((("E1", 0),), "s"),
    tmkit.Violation(0, "message"),
    tmkit.ConformanceResult(True),
    tmkit.SourceSpan(1, 2, 3),
    tmkit.FlowNode("n", "lane", "start"),
    tmkit.FlowEdge("n", "m"),
    tmkit.FlowchartDoc("chart", ("lane",), (), ()),
    tmkit.Literal("a"),
    tmkit.Origin(1),
    tmkit.Implication(tmkit.Literal("a"), tmkit.Literal("b"), tmkit.Origin(1)),
]


def frozen_values():
    """One of each immutable class that caches indexes, with its fields
    and the values it was built from, defaults left out."""
    model = tmkit.StaticModel("m", (tmkit.Thimac("a", "a"),))
    chronology = tmkit.ChronologyGraph((tmkit.Event("E1", "one", frozenset({"a/x"})),), ())
    return [
        (model, {"name": "m", "thimacs": model.thimacs, "actions": (),
                 "storages": (), "flows": (), "triggers": ()}),
        (chronology, {"events": chronology.events, "edges": (), "loop_bounds": {}}),
        (tmkit.Document(model), {"model": model, "events": (), "chronology": None}),
    ]


def test_the_cached_index_classes_are_frozen_values():
    for value, fields in frozen_values():
        kind = type(value)
        assert kind._fields == tuple(fields)
        assert {f: getattr(value, f) for f in kind._fields} == fields
        listed = ", ".join(f"{f}={v!r}" for f, v in fields.items())
        assert repr(value) == f"{kind.__name__}({listed})"
        twin = kind(**fields)
        assert twin == value and not twin != value
        assert value != tuple(fields.values()) and value != object()
        for name in kind._fields:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(value, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(value, name)
        first = kind._fields[0]
        changed = value._replace(**{first: twin})
        assert getattr(changed, first) is twin and getattr(value, first) is not twin
        assert changed._replace(**{first: getattr(value, first)}) == value
        assert changed != value
        with pytest.raises(TypeError):
            value._replace(no_such_field=1)


def test_equal_frozen_values_hash_alike_unless_a_field_is_unhashable():
    model, chronology, doc = (value for value, _ in frozen_values())
    assert hash(model) == hash(tmkit.StaticModel("m", model.thimacs))
    assert hash(doc) == hash(tmkit.Document(tmkit.StaticModel("m", model.thimacs)))
    with pytest.raises(TypeError):  # ``loop_bounds`` is a dict
        hash(chronology)


def test_each_instance_gets_its_own_empty_loop_bounds():
    one, two = tmkit.ChronologyGraph((), ()), tmkit.ChronologyGraph((), ())
    assert one.loop_bounds == {} and one.loop_bounds is not two.loop_bounds


def test_an_index_is_built_once_per_value_and_not_copied_by_replace():
    model = tmkit.StaticModel("m", (tmkit.Thimac("a", "a"),))
    index = model.thimacs_by_id
    assert model.thimacs_by_id is index
    renamed = model._replace(name="n")
    assert renamed.thimacs_by_id == index and renamed.thimacs_by_id is not index


#: Counts the code that importing the model layers compiles from strings
#: (named tuples' ``__new__``, ``typing``'s forward references), with
#: ``click`` already loaded, as the CLI has it; then the record classes.
COMPILE_PROBE = """\
import sys
import click

compiled = 0

def hook(event, args):
    global compiled
    if event == "compile" and args[1] == "<string>":
        compiled += 1

sys.addaudithook(hook)
import tmkit.cli, tmkit.model, tmkit.rules, tmkit.dynamics, tmkit.walk, tmkit.dsl
records = {
    value
    for name in ("model", "dynamics", "walk", "dsl")
    for value in vars(sys.modules["tmkit." + name]).values()
    if isinstance(value, type) and issubclass(value, tuple) and hasattr(value, "_fields")
}
print(compiled, len(records), "dataclasses" in sys.modules)
"""


def test_importing_the_model_layers_compiles_at_most_one_new_per_record():
    result = subprocess.run(
        [sys.executable, "-c", COMPILE_PROBE],
        capture_output=True, text=True, env=tmkit_env(), check=True,
    )
    compiled, records, dataclasses_loaded = result.stdout.split()
    assert int(records) == 13
    assert int(compiled) <= int(records)
    assert dataclasses_loaded == "False"


def test_each_record_is_a_named_tuple_that_reprs_under_its_own_name():
    assert len({type(record) for record in RECORDS}) == len(RECORDS) == 19
    for record in RECORDS:
        kind = type(record)
        assert isinstance(record, tuple) and kind._fields, kind
        assert tuple(record) == tuple(getattr(record, f) for f in kind._fields)
        fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in kind._fields)
        assert repr(record) == f"{kind.__name__}({fields})"
    assert repr(RECORDS[1]) == (
        "Action(id='a/x', kind='create', owner='a', label='start', anchor=None)"
    )


def tuple_new_calls(node: ast.AST, where: tuple = (None, None)):
    """``(class, function)`` around each ``tuple.__new__`` call under ``node``."""
    for child in ast.iter_child_nodes(node):
        inside = where
        if isinstance(child, ast.ClassDef):
            inside = (child.name, None)
        elif isinstance(child, ast.FunctionDef):
            inside = (where[0], child.name)
        elif isinstance(child, ast.Call) and ast.unparse(child.func) == "tuple.__new__":
            yield where
        yield from tuple_new_calls(child, inside)


def test_only_the_checked_records_own_new_skips_their_check():
    # ``tuple.__new__`` on ``Action`` or ``Implication`` skips the check in
    # their ``__new__``, so only that ``__new__`` may call it.
    calls = [
        where
        for path in sorted((ROOT / "src" / "tmkit").glob("*.py"))
        for where in tuple_new_calls(ast.parse(path.read_text()))
    ]
    assert sorted(calls) == [("Action", "__new__"), ("Implication", "__new__")]


def test_the_version_is_stated_once():
    tomllib = pytest.importorskip("tomllib")
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert "version" not in config["project"]
    assert config["project"]["dynamic"] == ["version"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "tmkit.__version__"
    }


def test_the_readme_python_example_runs_as_written():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    result = subprocess.run(
        [sys.executable, "-c", blocks[0]],
        capture_output=True, text=True, cwd=ROOT, env=tmkit_env(),
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
