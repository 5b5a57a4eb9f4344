"""Exact reconstruction of rational functions from point evaluations."""

__version__ = "0.13.0"

from .errors import RatreconError
from .fields import (
    QQ,
    FpElement,
    PrimeField,
    RationalField,
    derive_rng,
    enumerate_countable,
    field_from_string,
    random_element,
)
from .poly import Poly1, PolyN, gcd_poly1, gcd_polyn
from .matrix import (
    det_exact,
    resultant,
    sylvester_and_resultant,
    vandermonde_product,
)
from .ratfun import (
    RatFun1,
    RatFunN,
    degree_and_ord,
    format_ratfun1,
    format_ratfunn,
    normalize_ratfun1,
    normalize_ratfunn,
)
from .hankel import (
    RationalityCertificate,
    SeriesPrefix,
    certify_rationality,
    hankel_matrix,
    pade_reconstruct,
    series_of_ratfun,
)
from .interp import (
    DegreeProfile,
    SampleSet1,
    alpha_beta,
    delta_det,
    delta_sign,
    fit_ratfun,
    interp_point,
    interp_sign,
)
from .reconstruct import (
    ReconConfig,
    ReconReport,
    SliceOracle,
    choose_anchors,
    classify_slices,
    reconstruct,
    slice_oracle,
    verify_agreement,
)
from .counterexample import (
    CounterexampleTable,
    f_counter,
    nonrationality_report,
    slice_poly,
)
from .expr import eval_expr, parse, pretty, to_ratfun

__all__ = [name for name in dir() if not name.startswith("_")]
