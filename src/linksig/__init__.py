"""linksig: multivariable link signatures on the torus.

Computes signature/nullity maps of colored links from generalized Seifert
matrices, extends them to one-coordinate faces through the slope invariant,
computes Hosokawa polynomials and elementary-ideal stratifications, and
produces concordance-obstruction reports.
"""

from . import catalog
from .clink import (
    ColoredLinkData,
    SlopeData,
    link_from_dict,
    link_to_dict,
    load_link,
    load_slope,
    mirror,
    nu_exponents,
    save_link,
    save_slope,
    seifert_framed_linking_matrix,
    slope_from_dict,
    slope_to_dict,
)
from .errors import (
    AmbiguousSlope,
    BasePoint,
    CoordinateOne,
    EigensolverFailure,
    InvalidInput,
    LinksigError,
    MissingSeifertData,
    Mu1NotApplicable,
    Mu1Only,
    NonSquare,
    NotDivisible,
    NotHermitian,
    NotReal,
    UnknownKey,
)
from .hermitian import (
    InertiaResult,
    NonUnique,
    NoSolution,
    Solution,
    exact_symmetric_inertia,
    inertia,
    solve,
)
from .invariants import (
    SlopeValue,
    hosokawa,
    hosokawa_normalized,
    hosokawa_two_component,
    signature_at_full_one,
    slope,
)
from .laurent import (
    LaurentPoly,
    conj_involution,
    eq_up_to_units,
    exact_div,
    format_poly,
    gcd,
    parse_poly,
    substitute_diagonal,
    to_half_step,
    unit_normalize,
)
from .sampler import (
    ConcordanceReport,
    SampleRecord,
    Sweep,
    concordance_report,
    constancy_check,
    grid,
    records_to_csv,
    records_to_json,
    records_to_ppm,
    sweep,
    tbang_points,
)
from .strata import (
    PresentationMatrix,
    Strata,
    classify,
    first_ideal_gcd,
    load_presentation,
    save_presentation,
)
from .torus import TorusPoint, unit_root

__version__ = "0.1.0"
