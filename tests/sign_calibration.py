"""Re-derivation of the interpolation sign (`interp.interp_sign`) against
known functions.  Only the test suite runs it, so it lives here and not in
the library."""

from dataclasses import dataclass
from typing import Callable

from ratrecon.errors import RatreconError
from ratrecon.fields import QQ, Field, derive_rng, random_element
from ratrecon.interp import DegreeProfile, SampleSet1, alpha_beta, interp_sign
from ratrecon.poly import Poly1, gcd_poly1
from ratrecon.ratfun import normalize_ratfun1


class CalibrationFailure(RatreconError):
    """Observed sign ratio was not +-1; indicates an implementation bug."""


@dataclass
class SignCalibration:
    grid: dict          # (n, m) -> observed sign
    closed_form: Callable[[int, int], int]

    def sign(self, n: int, m: int) -> int:
        return self.closed_form(n, m)


def calibrate_sign(field: Field = None, grid_max: int = 4, seed: int = 1) -> SignCalibration:
    """Recompute the sign table empirically against randomly generated known
    functions and verify it matches the frozen closed form."""
    field = field or QQ
    grid = {}
    for n in range(grid_max + 1):
        for m in range(grid_max + 1):
            rng = derive_rng(seed, "calibrate", n, m)
            grid[(n, m)] = _observe_sign(field, n, m, rng)
            if grid[(n, m)] != interp_sign(n, m):
                raise CalibrationFailure(
                    f"observed sign {grid[(n, m)]} at (n={n}, m={m}) differs "
                    f"from frozen closed form {interp_sign(n, m)}")
    return SignCalibration(grid, interp_sign)


def _observe_sign(field: Field, n: int, m: int, rng) -> int:
    for _ in range(100):
        p = _random_poly_of_degree(field, n, rng)
        q = _random_poly_of_degree(field, m, rng)
        if int(gcd_poly1(p, q).degree) > 0:
            continue
        f = normalize_ratfun1(p, q)
        prof = DegreeProfile.of(f)
        if (prof.n, prof.m) != (n, m):
            continue
        pts = []
        while len(pts) < prof.l + 1:
            c = random_element(field, rng, 50)
            if c not in pts and f.defined_at(c):
                pts.append(c)
        a = None
        while a is None:
            c = random_element(field, rng, 50)
            if f.defined_at(c):
                a = c
        want = f.eval(a)
        if want == field.zero:
            continue
        samples = SampleSet1([(c, f.eval(c)) for c in pts])
        alpha, beta = alpha_beta(samples, prof, a)
        if beta == field.zero or alpha == field.zero:
            continue
        ratio = want * beta / alpha
        if ratio == field.one:
            return 1
        if ratio == -field.one:
            return -1
        raise CalibrationFailure(f"ratio {ratio!r} not a sign at (n={n}, m={m})")
    raise CalibrationFailure(f"no usable instance at (n={n}, m={m})")


def _random_poly_of_degree(field: Field, deg: int, rng) -> Poly1:
    while True:
        p = Poly1(field, [random_element(field, rng, 9) for _ in range(deg + 1)])
        if not p.is_zero() and int(p.degree) == deg:
            return p
