"""Shared exception base class, the one JSON reader the loaders use, and
the layout helpers the JSON writers fill."""
import sys
from typing import Iterable


class TmkitError(Exception):
    """Base class for every error raised by this package."""


def decode_json(text: str, what: str, error: type[TmkitError]) -> object:
    """``text`` as JSON, or an ``error`` that says why ``what`` is not."""
    import json  # here, so that commands that read no JSON never load it

    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{what} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # the text is JSON; int() refuses the number
        limit = sys.get_int_max_str_digits()
        raise error(
            f"{what} holds an integer too long to read (over {limit} digits)"
        ) from exc


def _template(keys: Iterable[str], depth: int) -> str:
    """The ``%``-template ``json.dumps(indent=2)`` writes for an object
    with ``keys``, its braces at nesting ``depth``: a ``%s`` per value."""
    pad = "  " * depth
    body = f",\n{pad}  ".join(f'"{key}": %s' for key in keys)
    return f"{{\n{pad}  {body}\n{pad}}}"


def _list(items: list[str], depth: int) -> str:
    """A JSON list of items already written, its brackets at nesting
    ``depth`` and its items one deeper."""
    if not items:
        return "[]"
    pad = "  " * depth
    return f"[\n{pad}  " + f",\n{pad}  ".join(items) + f"\n{pad}]"
