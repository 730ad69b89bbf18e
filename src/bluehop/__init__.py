"""bluehop: deterministic multi-hop range extension for short-range radios."""

import os

__version__ = "0.1.0"


def scenario_path(name: str) -> str:
    """Filesystem path of a bundled gallery scenario, e.g. ``figure4.json``."""
    return os.path.join(os.path.dirname(__file__), "scenarios", name)
