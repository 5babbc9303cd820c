"""Rule modules. Importing this package populates the registry."""

from repro.lint import contracts  # noqa: F401  (registers contract rules)
from repro.lint.rules import (  # noqa: F401
    concurrency,
    determinism,
    exceptions,
    hotpath,
    hygiene,
    protocol,
    tracing,
)
from repro.lint.rules.base import Rule  # noqa: F401

__all__ = ["Rule"]
