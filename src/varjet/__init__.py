"""Symbolic variational calculus on finite-dimensional jet bundles.

Declare a bundle by naming coordinates, write densities and morphisms over
its jet spaces, and compute total derivatives, holonomic prolongations,
formal exterior differentials, fiberwise jets and Euler-Lagrange morphisms,
with every symbolic identity checkable against a finite-difference oracle.
"""

from .bundle import (
    BundleSpec,
    CoordinateError,
    FiberwiseCoord,
    FiberwiseJetSpaceSpec,
    JetCoord,
    OrderError,
    enumerate_fiberwise_coordinates,
    enumerate_jet_coordinates,
    jet_atom,
)
from .expr import Expr, FuncAtom, Sym, cos, diff, evaluate, exp, function, ln, sin, substitute, sym
from .fiberwise import (
    BaseMorphism,
    SectionFamily,
    associated_jet_map,
    check_functional_commutation,
    check_operator_order,
    fiberwise_jet,
    fiberwise_prolongation,
    section_jet_reindex,
)
from .forms import Form, exterior_derivative, interior_product, wedge
from .jetcalc import (
    Morphism,
    VerticalField,
    check_naturality,
    exterior_from_jet,
    flow_prolongation,
    formal_exterior_differential,
    formal_exterior_differential_direct,
    holonomic_prolongation,
    plug_vertical,
    total_derivative,
)
from .multiindex import MultiIndex, RangeMismatchError
from .parser import ParseContext, ParseError, parse_expression, parse_form_value
from .variational import EulerLagrangeResult, Lagrangian, ProjectabilityError, euler_lagrange, momentum, vertical_differential

__version__ = "0.1.0"


def __getattr__(name: str):
    # The oracle names load on first use, so that the symbolic commands
    # never import numpy (PEP 562).  Nothing is cached here: each access
    # reads ``varjet.oracle``, so a name rebound there shows here too.
    if name in (
        "GridSection",
        "StencilError",
        "bump",
        "check_action_variation",
        "check_total_derivative",
        "eval_jet",
        "sample_section",
    ):
        from . import oracle

        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BaseMorphism",
    "BundleSpec",
    "CoordinateError",
    "EulerLagrangeResult",
    "Expr",
    "FiberwiseCoord",
    "FiberwiseJetSpaceSpec",
    "Form",
    "FuncAtom",
    "GridSection",
    "JetCoord",
    "Lagrangian",
    "Morphism",
    "MultiIndex",
    "OrderError",
    "ParseContext",
    "ParseError",
    "ProjectabilityError",
    "RangeMismatchError",
    "SectionFamily",
    "StencilError",
    "Sym",
    "VerticalField",
    "associated_jet_map",
    "bump",
    "check_action_variation",
    "check_functional_commutation",
    "check_naturality",
    "check_operator_order",
    "check_total_derivative",
    "cos",
    "diff",
    "enumerate_fiberwise_coordinates",
    "enumerate_jet_coordinates",
    "euler_lagrange",
    "eval_jet",
    "evaluate",
    "exp",
    "exterior_derivative",
    "exterior_from_jet",
    "fiberwise_jet",
    "fiberwise_prolongation",
    "flow_prolongation",
    "formal_exterior_differential",
    "formal_exterior_differential_direct",
    "function",
    "holonomic_prolongation",
    "interior_product",
    "jet_atom",
    "ln",
    "momentum",
    "parse_expression",
    "parse_form_value",
    "plug_vertical",
    "sample_section",
    "section_jet_reindex",
    "sin",
    "substitute",
    "sym",
    "total_derivative",
    "vertical_differential",
    "wedge",
]
