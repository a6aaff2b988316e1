"""Thimac modeling toolkit.

Static models of things-that-are-machines, the events and chronologies
that animate them, implicational arguments rendered in the same shapes,
and interchange with flowcharts, JSON, and Graphviz.

``_EXPORTS`` lists the public names once, module by module, and
``__all__`` is built from it.  Importing the package loads no module of
its own: the first use of a public name, or of a module name such as
``tmkit.model``, imports that module and binds the name here (PEP 562).
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each module's public names, in ``__all__`` order.
_EXPORTS: dict[str, tuple[str, ...]] = {
    "model": (
        "ACTION_KINDS",
        "TRANSPORT_KINDS",
        "LEGAL_FLOW_PAIRS",
        "Thimac",
        "Action",
        "Storage",
        "Flow",
        "Trigger",
        "Diagnostic",
        "StaticModel",
        "ModelBuilder",
        "ModelError",
        "structurally_equal",
    ),
    "rules": ("SimplifyError", "validate", "simplify"),
    "dynamics": (
        "Event",
        "ChronEdge",
        "ChronologyGraph",
        "Document",
        "DynamicsError",
        "FormatError",
        "define_event",
        "check_coverage",
        "build_chronology",
        "structurally_equal_documents",
    ),
    "walk": (
        "Scenario",
        "Trace",
        "Violation",
        "ConformanceResult",
        "SimulationError",
        "ScenarioExhaustedError",
        "NoEnabledSuccessorError",
        "ScenarioError",
        "simulate",
        "conformance",
        "parse_scenario",
        "trace_to_json",
        "trace_from_json",
    ),
    "dsl": ("ParseError", "SourceSpan", "parse"),
    "writer": ("format_document", "to_dot"),
    "logic": (
        "Literal",
        "Origin",
        "Implication",
        "Argument",
        "ProofPath",
        "LogicError",
        "MAX_VARIABLES",
        "close_contrapositive",
        "derive",
        "format_proof",
        "truth_table_validate",
        "parse_argument",
        "format_argument",
        "encode_as_tm",
    ),
    "convert": ("ConvertError", "MODEL_SCHEMA", "to_json", "from_json"),
    "flowchart": (
        "FlowNode",
        "FlowEdge",
        "FlowchartDoc",
        "FLOWCHART_SCHEMA",
        "load_flowchart",
        "import_flowchart",
    ),
    "report": ("chronology_to_dot", "generate_report"),
    "errors": ("TmkitError",),
}

__all__ = ["__version__"]
#: Each public name's home module.
_HOME: dict[str, str] = {}
for _module, _names in _EXPORTS.items():
    __all__ += _names
    _HOME.update(dict.fromkeys(_names, _module))
del _module, _names


def __getattr__(name: str) -> object:
    if name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
