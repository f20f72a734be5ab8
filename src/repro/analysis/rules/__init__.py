"""Built-in rule families. Importing this package registers every rule.

Third-party/experiment rules can register the same way: subclass
:class:`repro.analysis.registry.Rule` and decorate with
:func:`repro.analysis.registry.register` before constructing the engine.
"""

from repro.analysis.rules import (
    api_consistency,
    concurrency,
    decode_safety,
    determinism,
    durability,
    exception_flow,
    numpy_hygiene,
    obs_coverage,
    repo_hygiene,
    resource_lifecycle,
)

__all__ = [
    "api_consistency",
    "concurrency",
    "decode_safety",
    "determinism",
    "durability",
    "exception_flow",
    "numpy_hygiene",
    "obs_coverage",
    "repo_hygiene",
    "resource_lifecycle",
]
