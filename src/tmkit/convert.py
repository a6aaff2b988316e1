"""Model JSON: the canonical writer and reader, and the schema checker.

JSON serialization is canonical: fixed key order, every key always
present, ``null`` rather than omission.  ``_SECTIONS`` states the format
of the five model sections once, and ``_EVENT`` and ``_CHRON_EDGE`` that
of events and chronology edges; ``MODEL_SCHEMA``, ``to_json`` and
``from_json`` are all built from these tables.  ``to_json`` fills
``%``-templates made from them, writing the bytes ``json.dumps(indent=2)``
would.  A document is checked against its schema a column at a time
(``_conforms``), and only one it refuses is walked value by value
(``_violation``), which words the message: the walk stays the one source
of each message, its path, and which fault is reported first.  Loading is
deliberately more permissive than the builder -- dangling references and
self-loops come back as models that ``validate`` can complain about, not
as exceptions.

The swimlane chart reader, in ``flowchart``, checks charts with the same
schema checker.  The model's DOT is in ``writer``, and the report and the
chronology's DOT in ``report``, so a command that reads or writes model
JSON loads none of them.
"""
from __future__ import annotations

import re
from itertools import chain, repeat
from operator import itemgetter, le, lt
from typing import Optional, Union

from .dynamics import Document, build_chronology, define_event
from .errors import TmkitError, _list, _template, decode_json
from .model import (
    ACTION_KINDS,
    Action,
    Flow,
    StaticModel,
    Storage,
    Thimac,
    Trigger,
    check_depth,
)


class ConvertError(TmkitError):
    pass


# ---------------------------------------------------------------------------
# schemas

_STRING = {"type": "string"}
_NULLABLE = {"type": ["string", "null"]}


def _object(properties: dict, *optional: str) -> dict:
    """The schema of an object with ``properties``, each required unless
    named in ``optional``, and no other keys."""
    return {
        "type": "object",
        "required": [name for name in properties if name not in optional],
        "additionalProperties": False,
        "properties": properties,
    }


def _array(items: dict, **extra: object) -> dict:
    return {"type": "array", **extra, "items": items}


#: The Python types of the JSON values each schema type admits.  JSON
#: values come as exact types, so the checks test ``type(v) in``, and a
#: bool, whose type is ``bool``, is no integer.
_PYTHON_TYPES = {
    "object": {dict},
    "array": {list},
    "string": {str},
    "null": {type(None)},
    "integer": {int, float},  # a float only with no fraction
}


def _violation(value: object, schema: dict, path: str = "$") -> Optional[str]:
    """The first way ``value`` breaks ``schema``, as ``"path: message"``,
    or None.  Keywords are read depth first in the schema's own order, and
    only those the two schemas use (the model's here, the chart's in
    ``flowchart``); paths and messages keep the
    wording of the Python JSON Schema validator this replaced.  A
    ``pattern`` must match the whole string, as JSON Schema's ``$`` does,
    so a trailing newline is no match."""
    for keyword, rule in schema.items():
        if keyword == "type":
            names = rule if isinstance(rule, list) else [rule]
            kind = type(value)
            if not any(kind in _PYTHON_TYPES[name] for name in names) or (
                kind is float and not value.is_integer()
            ):
                listed = ", ".join(map(repr, names))
                return f"{path}: {value!r} is not of type {listed}"
        elif keyword == "enum":
            if value not in rule:
                return f"{path}: {value!r} is not one of {rule!r}"
        elif keyword == "pattern":
            if isinstance(value, str) and not re.fullmatch(rule, value):
                return f"{path}: {value!r} does not match {rule!r}"
        elif keyword == "minimum":
            if type(value) in (int, float) and value < rule:
                return f"{path}: {value!r} is less than the minimum of {rule!r}"
        elif isinstance(value, list):
            if keyword == "minItems" and len(value) < rule:
                short = "should be non-empty" if rule == 1 else "is too short"
                return f"{path}: {value!r} {short}"
            if keyword == "items":
                for index, item in enumerate(value):
                    found = _violation(item, rule, f"{path}[{index}]")
                    if found:
                        return found
        elif isinstance(value, dict):
            if keyword == "required":
                for name in rule:
                    if name not in value:
                        return f"{path}: {name!r} is a required property"
            elif keyword == "additionalProperties" and rule is False:
                known = schema.get("properties", {})
                extras = sorted(k for k in value if k not in known)
                if extras:
                    verb = "was" if len(extras) == 1 else "were"
                    listed = ", ".join(map(repr, extras))
                    return (
                        f"{path}: Additional properties are not allowed "
                        f"({listed} {verb} unexpected)"
                    )
            elif keyword == "properties":
                for name, subschema in rule.items():
                    if name in value:
                        found = _violation(value[name], subschema, f"{path}.{name}")
                        if found:
                            return found
    return None


def _conforms(values: list, schema: dict) -> bool:
    """Whether every JSON value in ``values`` satisfies ``schema``: the
    verdict ``_violation`` gives each one, reached a column at a time.
    Each keyword is tested over the whole column with C-level builtins,
    and ``properties`` and ``items`` recurse on the column of every
    value's member, so the Python work is per schema node, not per
    value."""
    types = {*map(type, values)}

    def only(kind: type) -> list:  # the values of type ``kind``
        if kind not in types:
            return []
        return values if len(types) == 1 else [v for v in values if type(v) is kind]

    if "type" in schema:
        names = schema["type"] if isinstance(schema["type"], list) else [schema["type"]]
        if not types <= set().union(*(_PYTHON_TYPES[name] for name in names)):
            return False
        if "integer" in names and not all(map(float.is_integer, only(float))):
            return False
    if "enum" in schema and not all(map(schema["enum"].__contains__, values)):
        return False
    if "pattern" in schema:
        if not all(map(re.compile(schema["pattern"]).fullmatch, only(str))):
            return False
    if "minimum" in schema:
        numbers = chain(only(int), only(float))
        if any(map(lt, numbers, repeat(schema["minimum"]))):
            return False
    lists = only(list)
    if lists and min(map(len, lists)) < schema.get("minItems", 0):
        return False
    if lists and "items" in schema:
        if not _conforms(list(chain.from_iterable(lists)), schema["items"]):
            return False
    objects = only(dict)
    if not objects:
        return True
    required = schema.get("required", [])
    if not all(map(le, repeat(set(required)), map(dict.keys, objects))):
        return False
    properties = schema.get("properties", {})
    if schema.get("additionalProperties") is False:
        if not all(map(le, map(dict.keys, objects), repeat(properties.keys()))):
            return False
    for name, subschema in properties.items():
        if name in required:
            column = list(map(itemgetter(name), objects))
        else:
            column = [o[name] for o in objects if name in o]
        if not _conforms(column, subschema):
            return False
    return True


def _check_schema(data: object, schema: dict, what: str) -> None:
    """Refuse ``data`` unless it satisfies ``schema``.  ``_conforms``
    decides; only a refusal runs the walk, which words the message."""
    if _conforms([data], schema):
        return
    found = _violation(data, schema)
    if found is None:  # a fault of tmkit's, not of the input
        raise AssertionError(f"{what}: _conforms refused what _violation accepts")
    raise ConvertError(f"{what}: {found}")


# ---------------------------------------------------------------------------
# JSON

#: The model sections of a document, in document order: each one's record
#: type and ``{json key: schema}``, whose keys name the record's fields in
#: order (``from`` is ``src``, ``to`` is ``dst``); the section names are
#: ``StaticModel``'s fields.  This table is the one statement of their
#: format: ``MODEL_SCHEMA``, ``to_json`` and ``from_json`` all read it.
_SECTIONS: dict[str, tuple[type, dict[str, dict]]] = {
    "thimacs": (
        Thimac,
        {"id": _STRING, "name": _STRING, "parent": _NULLABLE, "note": _NULLABLE},
    ),
    "actions": (
        Action,
        {
            "id": _STRING,
            "kind": {"enum": list(ACTION_KINDS)},
            "owner": _STRING,
            "label": _NULLABLE,
            "anchor": _NULLABLE,
        },
    ),
    "storages": (Storage, {"id": _STRING, "owner": _STRING, "name": _STRING}),
    "flows": (Flow, {"id": _STRING, "from": _STRING, "to": _STRING}),
    "triggers": (
        Trigger,
        {"id": _STRING, "from": _STRING, "to": _STRING, "condition": _NULLABLE},
    ),
}

#: Events and chronology edges as ``{json key: schema}``, in the order of
#: ``Event``'s fields and of ``ChronEdge``'s plus the edge's loop bound.
_EVENT = {"id": _STRING, "label": _STRING, "region": _array(_STRING, minItems=1)}
_CHRON_EDGE = {
    "from": _STRING,
    "to": _STRING,
    "guard": _NULLABLE,
    "max": {"type": ["integer", "null"], "minimum": 1},
}

MODEL_SCHEMA = _object(
    {
        "name": _STRING,
        **{
            section: _array(_object(properties))
            for section, (_, properties) in _SECTIONS.items()
        },
        "events": _array(_object(_EVENT)),
        "chronology": dict(
            _object({"edges": _array(_object(_CHRON_EDGE))}),
            type=["object", "null"],
        ),
    }
)


#: Each section's row template, the document's template and its
#: chronology's, and those of an event and a chronology edge.  A record is
#: a named tuple of its fields in key order, so it fills its row as it is.
_ROWS = {section: _template(keys, 2) for section, (_, keys) in _SECTIONS.items()}
_DOCUMENT = _template(MODEL_SCHEMA["properties"], 0)
_CHRONOLOGY = _template(MODEL_SCHEMA["properties"]["chronology"]["properties"], 1)
_EVENT_ROW = _template(_EVENT, 2)
_CHRON_EDGE_ROW = _template(_CHRON_EDGE, 3)


def to_json(doc: Union[Document, StaticModel]) -> str:
    """Canonical JSON: fixed key order, all keys present, sorted regions.

    The bytes are those ``json.dumps(payload, indent=2) + "\\n"`` writes,
    filled into templates built from the format tables; strings go
    through the encoder ``json.dumps`` uses, ``None`` is ``null``."""
    # here, so that commands that write no JSON never load it
    from json.encoder import encode_basestring_ascii as encode

    if isinstance(doc, StaticModel):
        doc = Document(doc)
    model = doc.model
    sections = []
    for section, template in _ROWS.items():
        rows = [
            template % tuple([encode(v) if v is not None else "null" for v in r])
            for r in getattr(model, section)
        ]
        sections.append(_list(rows, 1))
    events = [
        _EVENT_ROW % (
            encode(e.id),
            encode(e.label),
            _list([encode(member) for member in sorted(e.region)], 3),
        )
        for e in doc.events
    ]
    chronology = "null"
    if doc.chronology is not None:
        bound = doc.chronology.loop_bounds.get
        edges = []
        for e in doc.chronology.edges:
            limit = bound((e.src, e.dst))
            edges.append(_CHRON_EDGE_ROW % (
                encode(e.src),
                encode(e.dst),
                "null" if e.guard is None else encode(e.guard),
                "null" if limit is None else "%d" % limit,
            ))
        chronology = _CHRONOLOGY % _list(edges, 2)
    return _DOCUMENT % (encode(model.name), *sections, _list(events, 1), chronology) + "\n"


def from_json(text: str) -> Document:
    """Load a document from canonical JSON.

    The model part is taken as-is -- dangling references, self-loops and
    the like are for ``validate`` to report -- but duplicate ids and
    nesting deeper than ``MAX_DEPTH`` are refused outright, and events
    and chronology must make sense.
    """
    data = decode_json(text, "document", ConvertError)
    _check_schema(data, MODEL_SCHEMA, "document")

    ids: set[str] = set()
    sections = {}
    for section, (record, properties) in _SECTIONS.items():
        row = itemgetter(*properties)
        records = []
        for entry in data[section]:
            item = record(*row(entry))
            if item.id in ids:
                raise ConvertError(f"duplicate id {item.id!r}")
            ids.add(item.id)
            records.append(item)
        sections[section] = tuple(records)
    model = StaticModel(data["name"], **sections)
    check_depth(model)

    events = {}
    for event_id, label, region in map(itemgetter(*_EVENT), data["events"]):
        if event_id in events:
            raise ConvertError(f"duplicate event id {event_id!r}")
        events[event_id] = define_event(model, event_id, label, region)

    chronology = None
    if data["chronology"] is not None:
        edges = []
        bounds = {}
        entries = data["chronology"]["edges"]
        for src, dst, guard, bound in map(itemgetter(*_CHRON_EDGE), entries):
            edges.append((src, dst, guard))
            if bound is not None:
                bounds[(src, dst)] = int(bound)
        chronology = build_chronology(events.values(), edges, bounds)

    return Document(model, tuple(events.values()), chronology)
