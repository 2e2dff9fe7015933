"""kirbyfront: a rewriting engine for Legendrian Kirby diagrams.

Diagrams are Morse event words (left cusp / right cusp / crossing at a
strand slot); moves are precondition-checked local rewrites with exact
inverse pairs; invariants are computed from component traces over exact
integer arithmetic.
"""

from .diagram import (
    COEFF_MINUS,
    COEFF_NONE,
    COEFF_PLUS,
    ComponentAttr,
    DiagramError,
    Event,
    FrontDiagram,
    ParseError,
    ValidationError,
    check_spin_symmetry,
    default_attrs,
    mirror,
    mirror_events,
    parse_front,
    serialize_front,
    trace_components,
    validate_diagram,
)
from .invariants import (
    ClassicalInvariants,
    HandleCensus,
    LinkingData,
    classical_invariants,
    handle_census,
    homology_presentation,
    linking_matrix,
)
from .moves import (
    MoveError,
    MoveSite,
    birth_cancel_pair,
    cancel_trivial_bypass,
    clasp,
    crossing_change,
    equivalent_up_to_normalization,
    exchange,
    handleslide,
    normalize,
    reidemeister,
    site_at,
    stabilize,
    uplus,
    witness_subcritical,
)
from .scripts import MoveScript, MoveStep, parse_script, run_script

__version__ = "0.1.0"
