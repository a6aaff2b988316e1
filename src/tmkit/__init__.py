"""Thimac modeling toolkit.

Static models of things-that-are-machines, the events and chronologies
that animate them, implicational arguments rendered in the same shapes,
and interchange with flowcharts, JSON, and Graphviz.

``_EXPORTS`` lists the public names once, module by module; importing
the package binds each of them here and lists it in ``__all__``.
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
        "SimplifyError",
        "validate",
        "simplify",
        "structurally_equal",
    ),
    "dynamics": (
        "Event",
        "ChronEdge",
        "ChronologyGraph",
        "Scenario",
        "Trace",
        "Violation",
        "ConformanceResult",
        "Document",
        "DynamicsError",
        "SimulationError",
        "ScenarioExhaustedError",
        "NoEnabledSuccessorError",
        "ScenarioError",
        "define_event",
        "check_coverage",
        "build_chronology",
        "simulate",
        "conformance",
        "parse_scenario",
        "trace_to_json",
        "trace_from_json",
        "structurally_equal_documents",
    ),
    "dsl": ("ParseError", "FormatError", "SourceSpan", "parse", "format_document"),
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
    "convert": (
        "ConvertError",
        "FlowNode",
        "FlowEdge",
        "FlowchartDoc",
        "FLOWCHART_SCHEMA",
        "MODEL_SCHEMA",
        "load_flowchart",
        "import_flowchart",
        "to_dot",
        "chronology_to_dot",
        "to_json",
        "from_json",
        "generate_report",
    ),
    "errors": ("TmkitError",),
}

__all__ = ["__version__"]
for _module, _names in _EXPORTS.items():
    _source = import_module(f".{_module}", __name__)
    globals().update({name: getattr(_source, name) for name in _names})
    __all__ += _names
del import_module, _module, _names, _source
