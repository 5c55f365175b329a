"""sccheck: a checker for structural assume/guarantee contracts.

Contracts constrain extra-functional quantities of typed components;
composition is admitted only through user-declared, type-checked
composition operators whose glue equations are first-class, so operators
with the same type signature but different term signatures stay
distinguishable. The tool parses a small specification language,
type-checks construction and composition against a quantity hierarchy,
computes composed contracts, and decides compatibility, consistency, and
refinement with exact rational arithmetic.
"""

__version__ = "0.1.0"

from .algebra import (
    ComposedContract,
    check_compatibility,
    check_consistency,
    check_refinement,
    compose_contracts,
    compose_finite,
    interpret_composed_finite,
    verify_min_characterization,
)
from .engine import (
    EngineOptions,
    Interval,
    Status,
    Verdict,
    check_implication,
    enumerate_models,
    fm_eliminate,
    interval_eval,
    normalize,
    sample_falsify,
)
from .formatter import format_expr, format_spec
from .loader import Obligation, Universe, elaborate
from .model import (
    ComponentType,
    CompositionOperator,
    Contract,
    FiniteGrid,
    Interpretation,
    interpret_finite,
    refines_finite,
    saturate,
)
from .parser import SpecDocument, parse_spec
from .typesystem import (
    QuantityTable,
    build_hierarchy,
    check_component_type,
    check_operator_glue,
    dimension_of,
    resolve_operator,
)

__all__ = [
    "__version__",
    "ComposedContract",
    "ComponentType",
    "CompositionOperator",
    "Contract",
    "EngineOptions",
    "FiniteGrid",
    "Interpretation",
    "Interval",
    "Obligation",
    "QuantityTable",
    "SpecDocument",
    "Status",
    "Universe",
    "Verdict",
    "build_hierarchy",
    "check_compatibility",
    "check_component_type",
    "check_consistency",
    "check_implication",
    "check_operator_glue",
    "check_refinement",
    "compose_contracts",
    "compose_finite",
    "dimension_of",
    "elaborate",
    "enumerate_models",
    "fm_eliminate",
    "format_expr",
    "format_spec",
    "interpret_composed_finite",
    "interpret_finite",
    "interval_eval",
    "normalize",
    "parse_spec",
    "refines_finite",
    "resolve_operator",
    "sample_falsify",
    "saturate",
    "verify_min_characterization",
]
