"""Desk-scale any-to-any voice conversion with cross-attention alignment."""

import math
import typing

__version__ = "0.1.0"


class Error(Exception):
    """The root of every exception the package raises on purpose.  The
    command line reports one as a single ``error:`` line and exit code 1."""


def check_field_types(config, error):
    """Raise ``error`` for the first field of the dataclass ``config`` whose
    value does not fit its annotation: a bool fits only a bool field, an int
    also fits a float field, a float must be finite, and any other value must
    be of the annotated type.  Each config dataclass calls this first in its
    ``__post_init__``, so config files and checkpoints meet the same types."""
    for name, expected in typing.get_type_hints(type(config)).items():
        value = getattr(config, name)
        if isinstance(value, bool) or expected is bool:
            fits = type(value) is expected
        elif expected is float:
            fits = isinstance(value, (int, float))
            if isinstance(value, float) and not math.isfinite(value):
                raise error(f"{name} = {value} (expected a finite float)")
        else:
            fits = isinstance(value, expected)
        if not fits:
            raise error(f"{name} = {value} (expected {expected.__name__})")
