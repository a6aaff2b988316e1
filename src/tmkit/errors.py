"""Shared exception base class, and the one JSON reader the loaders use."""
import sys


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
