"""Profile functions of surfaces of revolution in standard position.

A surface of revolution in standard position is the locus x^2 + y^2 = F(z),
|z| < q, with F strictly positive on the open interval (-q, q).  This module
holds the three profile representations (exact quadratic, general polynomial,
sampled data), their evaluation and differentiation, the text mini-language
parser, and the slab infimum phi(delta) = inf sqrt(F) over |z| <= q - delta.

Extrema of F over an interval are exact: F is evaluated at the interval ends
and at every critical point inside it.  For quadratic and polynomial kinds
those are the roots of F'; for the sampled kind, whose interpolant is a
piecewise cubic, they are the roots of its piecewise-quadratic derivative.
Construction checks positivity the same way over the whole open domain:
F must be positive at every critical point inside it and not negative at
its two ends, so a profile that dips to or below zero anywhere inside the
domain is rejected, while the sphere, whose F reaches 0 at z = +-q, is
accepted.

All profiles are immutable after construction and safe to share across
threads or processes.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.polynomial import polynomial as P

from .errors import InvalidDomain, NonPositiveProfile, OutOfDomain, ParseError

__all__ = [
    "QuadricParams",
    "Profile",
    "make_quadric_profile",
    "make_polynomial_profile",
    "make_sampled_profile",
    "parse_profile",
    "infimum_radius",
    "preset_lines",
]

@dataclass(frozen=True)
class QuadricParams:
    """Coefficients (a, b, c) of a quadric generator F(z) = a z^2 + b z + c."""

    a: float
    b: float
    c: float


_ARRAY_FIELDS = ("coeffs", "sample_z", "sample_f")


@dataclass(frozen=True, eq=False)
class Profile:
    """A profile function F on (-q, q).

    kind is one of "quadratic", "polynomial", "sampled".  Quadratic and
    polynomial kinds carry ascending coefficients in ``coeffs``; the sampled
    kind carries the data table and a monotone piecewise-cubic interpolant.

    The arrays are private read-only copies.  Profiles compare equal and
    hash alike when kind, q and the bytes of the arrays agree.
    """

    kind: str
    q: float
    coeffs: np.ndarray | None = field(default=None, repr=False)
    sample_z: np.ndarray | None = field(default=None, repr=False)
    sample_f: np.ndarray | None = field(default=None, repr=False)
    _interp: object = field(default=None, repr=False)

    def __post_init__(self):
        for name in _ARRAY_FIELDS:
            value = getattr(self, name)
            if value is not None:
                arr = np.array(value, dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    def _key(self):
        arrays = (getattr(self, name) for name in _ARRAY_FIELDS)
        return (self.kind, self.q) + tuple(
            None if arr is None else arr.tobytes() for arr in arrays
        )

    def __eq__(self, other):
        if not isinstance(other, Profile):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __reduce__(self):
        # rebuild through __init__ so an unpickled copy is read-only too
        return (type(self), tuple(getattr(self, f.name) for f in fields(self)))

    def _in_domain(self, z):
        arr = np.asarray(z, dtype=float)
        # written so that a nan z fails it too
        if not np.all(np.abs(arr) < self.q):
            raise OutOfDomain(f"evaluation needs |z| < q = {self.q!r}")
        return arr

    def eval(self, z):
        """Value F(z).  Accepts scalars or arrays of z with |z| < q.

        Raises OutOfDomain outside the open interval and NonPositiveProfile
        if the value comes out <= 0 (re-checked on every call).
        """
        arr = self._in_domain(z)
        if self.kind == "sampled":
            val = self._interp(arr)
        else:
            val = P.polyval(arr, self.coeffs)
        if np.any(val <= 0.0):
            raise NonPositiveProfile("profile value <= 0 inside |z| < q")
        if arr.ndim == 0:
            return float(val)
        return val

    def derivative(self, z):
        """Derivative F'(z), exact for every kind.

        Quadratic and polynomial kinds evaluate the differentiated
        coefficients; the sampled kind evaluates the first derivative of its
        piecewise-cubic interpolant, up to the edge of the open domain.
        """
        arr = self._in_domain(z)
        if self.kind == "sampled":
            der = self._interp(arr, 1)
        else:
            der = P.polyval(arr, P.polyder(self.coeffs))
        if arr.ndim == 0:
            return float(der)
        return der


def _check_q(q):
    if not (np.isfinite(q) and q > 0.0):
        raise InvalidDomain(f"q must be a positive finite real, got {q!r}")


def _value_range(profile, lim):
    """(min F, max F) over |z| <= lim, from the ends and the critical points.

    Complex derivative roots contribute their real parts and flat pieces of
    a sampled profile report nan; such extra candidates are harmless, since
    only values of F at points of the interval are compared.  Raises
    NonPositiveProfile, through eval, if any candidate value is <= 0.
    """
    vals = profile.eval(np.concatenate(([-lim, lim], _critical_points(profile, lim))))
    return float(vals.min()), float(vals.max())


def _critical_points(profile, lim):
    """Candidate critical points of F in |z| < lim: real parts of the
    derivative's roots, nan for flat pieces of a sampled profile dropped."""
    if profile.kind == "sampled":
        crit = profile._interp.derivative().roots(extrapolate=False)
    else:
        crit = _poly_roots(P.polyder(profile.coeffs), lim)
    return crit[np.abs(crit) < lim]


def _poly_roots(coeffs, lim):
    """Real parts of the roots of an ascending polynomial, for |z| <= lim."""
    # Leading terms below one rounding unit of the largest term on |z| <= lim
    # only add roots far outside the interval, and a tiny leading coefficient
    # would overflow the companion matrix: drop them.
    c = P.polytrim(coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.abs(c) * lim ** np.arange(c.size)
    c = c[: np.flatnonzero(size >= 2.0 ** -52 * np.nanmax(size))[-1] + 1]
    return P.polyroots(c).real


def _gap_roots(profile, m, beta):
    """Candidate roots in |z| < q of the section gap F(z) - ((z - beta)/m)^2.

    The gap times min(m^2, 1), where no term overflows, is a polynomial or,
    for the sampled kind, a piecewise cubic.  Complex roots add their real
    parts: the caller keeps the candidates where the gap changes sign.
    """
    fw, qw = (m * m, 1.0) if m <= 1.0 else (1.0, (1.0 / m) ** 2)
    if profile.kind == "sampled":
        from scipy.interpolate import PPoly  # sampled profiles only: a slow import

        pp = profile._interp
        off = pp.x[:-1] - beta
        c = fw * pp.c
        c[-3] -= qw
        c[-2] -= 2.0 * qw * off
        c[-1] -= qw * off * off
        roots = PPoly.construct_fast(c, pp.x, extrapolate=False).roots()
    else:
        quad = qw * np.array([beta * beta, -2.0 * beta, 1.0])
        roots = _poly_roots(P.polysub(fw * profile.coeffs, quad), profile.q)
    return roots[np.abs(roots) < profile.q]


def _check_positive(profile):
    """Raise NonPositiveProfile unless F > 0 on all of (-q, q).

    A continuous F that is negative at some point of (-q, q) is negative at
    an end or has a minimum <= 0 inside, which is a critical point.  So F
    is checked at the critical points inside the open domain, where a value
    <= 0 fails, and at the two ends, where only a value < 0 fails: the open
    domain leaves out the ends, and the sphere's F(z) = 1 - z^2 reaches 0
    there.
    """
    q = profile.q
    profile.eval(_critical_points(profile, q))
    if profile.kind == "sampled":
        ends = profile._interp([-q, q])
    else:
        ends = P.polyval(np.array([-q, q]), profile.coeffs)
    if np.any(ends < 0.0):
        raise NonPositiveProfile(f"profile value < 0 at an end of |z| < q = {q!r}")


def make_quadric_profile(params, q):
    """Profile F(z) = a z^2 + b z + c on (-q, q), checked positive."""
    _check_q(q)
    coeffs = np.array([params.c, params.b, params.a], dtype=float)
    prof = Profile(kind="quadratic", q=float(q), coeffs=coeffs)
    _check_positive(prof)
    return prof


def make_polynomial_profile(coeffs, q):
    """Profile with ascending coefficients c0..cn, evaluated by Horner."""
    _check_q(q)
    arr = np.asarray(coeffs, dtype=float)
    if arr.ndim != 1 or arr.size == 0 or not np.all(np.isfinite(arr)):
        raise InvalidDomain("polynomial coefficients must be a non-empty finite 1-d sequence")
    prof = Profile(kind="polynomial", q=float(q), coeffs=arr)
    _check_positive(prof)
    return prof


def make_sampled_profile(z, f, q=None):
    """Profile interpolating a (z, F) table.

    Abscissae must be strictly increasing and ordinates strictly positive.
    When q is omitted it is inferred as min(-z[0], z[-1]), the largest
    half-width the table can serve; an explicit q must not exceed that.
    Evaluation uses shape-preserving piecewise-cubic interpolation with
    finite-difference endpoint slopes; the derivative is the interpolant's
    own, exact to rounding.
    """
    zs = np.asarray(z, dtype=float)
    fs = np.asarray(f, dtype=float)
    if zs.ndim != 1 or zs.shape != fs.shape or zs.size < 4:
        raise InvalidDomain("need matching 1-d arrays with at least 4 samples")
    if not (np.all(np.isfinite(zs)) and np.all(np.isfinite(fs))):
        raise InvalidDomain("samples must be finite")
    if np.any(np.diff(zs) <= 0.0):
        raise InvalidDomain("sample abscissae must be strictly increasing")
    if np.any(fs <= 0.0):
        raise NonPositiveProfile("sample ordinates must be strictly positive")
    if not (zs[0] < 0.0 < zs[-1]):
        raise InvalidDomain("samples must straddle z = 0")
    span = min(-zs[0], zs[-1])
    if q is None:
        q = span
    else:
        _check_q(q)
        if q > span:
            raise InvalidDomain(f"samples span only (-{span!r}, {span!r}), cannot serve q = {q!r}")
    from scipy.interpolate import PchipInterpolator  # a slow import, needed here only

    interp = PchipInterpolator(zs, fs, extrapolate=False)
    prof = Profile(kind="sampled", q=float(q), sample_z=zs, sample_f=fs, _interp=interp)
    _check_positive(prof)
    return prof


def infimum_radius(profile, delta):
    """phi(delta): the infimum of sqrt(F) over the slab |z| <= q - delta.

    Exact: the minimum of F is taken over the slab ends and the critical
    points of F inside the slab.
    """
    if not (0.0 < delta < profile.q):
        raise InvalidDomain(f"need 0 < delta < q, got delta = {delta!r}")
    return math.sqrt(_value_range(profile, profile.q - delta)[0])


# --- profile spec mini-language ---------------------------------------------
#
#   quadric:a,b,c,q        exact quadratic generator
#   poly:c0,c1,...,cn;q    ascending polynomial coefficients
#   samples:<path>         CSV file with header z,F
#   sphere                 = quadric:-1,0,1,1
#   cylinder:r,q           = quadric:0,0,r^2,q
#   hyperboloid:r,q        = quadric:1,0,r^2,q
#   paraboloid:c,q         = quadric:0,1,c,q   (requires c > q)

_PRESET_TABLE = (
    ("sphere", "quadric:-1,0,1,1"),
    ("cylinder:r,q", "quadric:0,0,r^2,q"),
    ("hyperboloid:r,q", "quadric:1,0,r^2,q"),
    ("paraboloid:c,q", "quadric:0,1,c,q  (requires c > q)"),
)


def preset_lines():
    """Text lines describing the built-in presets, one per preset."""
    width = max(len(name) for name, _ in _PRESET_TABLE)
    return [f"{name:<{width}}  {expansion}" for name, expansion in _PRESET_TABLE]


def parse_profile(text):
    """Parse a profile spec string into a Profile.

    Raises ParseError with the offending position on malformed input.
    """
    if not isinstance(text, str):
        raise ParseError("profile spec must be a string")
    s = text.strip()
    if not s:
        raise ParseError("empty profile spec", 0)
    head, sep, rest = s.partition(":")
    head = head.strip()
    body_at = len(head) + 1 if sep else len(s)

    if head == "sphere":
        if sep:
            raise ParseError("preset 'sphere' takes no arguments", body_at)
        return make_quadric_profile(QuadricParams(-1.0, 0.0, 1.0), 1.0)

    if head == "quadric":
        a, b, c, q = _parse_floats(rest, body_at, expect=4)
        return make_quadric_profile(QuadricParams(a, b, c), q)

    if head == "poly":
        coeff_text, semi, q_text = rest.partition(";")
        if not semi:
            raise ParseError("poly spec needs ';q' after the coefficients", body_at + len(rest))
        coeffs = _parse_floats(coeff_text, body_at)
        (q,) = _parse_floats(q_text, body_at + len(coeff_text) + 1, expect=1)
        return make_polynomial_profile(coeffs, q)

    if head == "samples":
        path = rest.strip()
        if not path:
            raise ParseError("samples spec needs a file path", body_at)
        return _read_sample_csv(path)

    if head == "cylinder":
        r, q = _parse_floats(rest, body_at, expect=2)
        return make_quadric_profile(QuadricParams(0.0, 0.0, r * r), q)

    if head == "hyperboloid":
        r, q = _parse_floats(rest, body_at, expect=2)
        return make_quadric_profile(QuadricParams(1.0, 0.0, r * r), q)

    if head == "paraboloid":
        c, q = _parse_floats(rest, body_at, expect=2)
        if not c > q:
            raise NonPositiveProfile(f"paraboloid preset requires c > q, got c = {c!r}, q = {q!r}")
        return make_quadric_profile(QuadricParams(0.0, 1.0, c), q)

    raise ParseError(f"unknown profile kind {head!r}", 0)


def _parse_floats(text, offset, expect=None):
    tokens = text.split(",")
    values = []
    pos = offset
    for tok in tokens:
        stripped = tok.strip()
        if not stripped:
            raise ParseError("missing number", pos)
        try:
            values.append(float(stripped))
        except ValueError:
            raise ParseError(f"bad number {stripped!r}", pos + tok.index(stripped[0])) from None
        pos += len(tok) + 1
    if expect is not None and len(values) != expect:
        raise ParseError(f"expected {expect} comma-separated numbers, got {len(values)}", offset)
    return values


def _read_sample_csv(path):
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise ParseError(f"cannot read sample file: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty sample file") from None
        if [col.strip() for col in header] != ["z", "F"]:
            raise ParseError(f"{path}: sample CSV must start with header 'z,F'")
        zs, fs = [], []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise ParseError(f"{path}:{lineno}: expected two columns")
            try:
                zs.append(float(row[0]))
                fs.append(float(row[1]))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad number") from None
    return make_sampled_profile(np.array(zs), np.array(fs))
