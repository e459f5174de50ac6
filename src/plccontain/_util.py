"""Small shared helpers."""

from __future__ import annotations

import re
from functools import lru_cache

_CHUNK = re.compile(r"(\d+)")


class PlcError(Exception):
    """An error the command line reports as one ``error:`` line: bad
    input, an invalid model, or a limit reached."""


@lru_cache(maxsize=65536)
def natural_key(s: str):
    """Sort key treating digit runs numerically: Tr4 < Tr12."""
    return tuple(int(part) if part.isdigit() else part
                 for part in _CHUNK.split(s))
