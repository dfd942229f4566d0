"""First-class redesign comparisons: declarative specs, generic engine.

See :mod:`repro.compare.spec` for the :class:`Redesign`/:class:`Claim`
vocabulary, :mod:`repro.compare.engine` for execution and artifacts, and
:mod:`repro.compare.builtin` for the registered paper comparisons
(``sockets``, ``fstat-vs-fstatx``, ``open-vs-openany``).  The CLI front
end is ``python -m repro compare <name>``.
"""

from repro.compare.spec import (
    Check,
    Claim,
    Redesign,
    Side,
    UnknownCheckKindError,
    UnknownRedesignError,
    check_kinds,
    get_redesign,
    redesign_names,
    register_redesign,
    unregister_redesign,
)
from repro.compare.engine import (
    COMPARE_SCHEMA,
    CompareResult,
    compare_to_dict,
    run_compare,
    strip_volatile_compare,
)
from repro.compare import builtin as _builtin  # registers the built-ins

__all__ = [
    "Check",
    "Claim",
    "Redesign",
    "Side",
    "UnknownCheckKindError",
    "UnknownRedesignError",
    "check_kinds",
    "get_redesign",
    "redesign_names",
    "register_redesign",
    "unregister_redesign",
    "COMPARE_SCHEMA",
    "CompareResult",
    "compare_to_dict",
    "run_compare",
    "strip_volatile_compare",
]
