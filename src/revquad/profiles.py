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

The roots of a polynomial (a derivative, or a section gap) are the
eigenvalues of its companion matrix, laid out as P.polycompanion lays it
out and sorted as P.polyroots sorts them (Edelman & Murakami 1995, Math.
Comp. 64).  The gaps of many planes are solved as one stack: the
polynomials of each degree take one eigvals call, and each keeps the bits
P.polyroots gives it alone (_poly_roots).

The sampled kind interpolates its table by the monotone piecewise-cubic
Hermite rule of Fritsch & Carlson (1980, SIAM J. Numer. Anal. 17(2)) in the
form scipy's PchipInterpolator gives it: node slopes are the weighted
harmonic mean of the neighbouring secant slopes, zero where those change
sign or vanish, and one-sided three-point estimates at the two ends,
clamped to zero against the end secant's sign and to three times it where
the secants change sign.  The interpolant is held as the coefficients
(c0, c1, c2, c3) of c0 s^3 + c1 s^2 + c2 s + c3, s = z - x_i, one column
per piece, and everything here is numpy: the slopes, the coefficients, the
evaluation (ascending powers of s, accumulated in scipy's order), the
derivative and the real roots of the derivative and of the section gap
(closed forms below degree 3, eigenvalues of the companion matrix at degree
3, each root polished by one Newton step, as scipy's PPoly.roots does).
Evaluation and derivative repeat scipy's arithmetic step for step, so they
give its bits; roots may differ from scipy's in the last place, because
LAPACK balances the companion matrix before its QR iteration, which only
moves where the extent's bisection starts, not where it ends.  So no
sampled profile imports scipy.

A Python float z takes its own branch of Profile.eval, in Python floats
on lists of the profile's arrays, built on first use: P.polyval's Horner
steps, or _piece_value on the piece that bisect_right finds where
np.searchsorted would.  Python's float arithmetic is the same IEEE double
arithmetic as numpy's, so the value has the bits of a one-element array's
and raises the same errors, at a fraction of the cost of an array call;
the extent bisection reads one such value per midpoint.

All profiles are immutable after construction and safe to share across
threads or processes.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property

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
    kind carries the data table, and its monotone piecewise-cubic
    interpolant is built from it (see the module docstring).

    The arrays are private read-only copies.  Profiles compare equal and
    hash alike when kind, q and the bytes of the arrays agree.
    """

    kind: str
    q: float
    coeffs: np.ndarray | None = field(default=None, repr=False)
    sample_z: np.ndarray | None = field(default=None, repr=False)
    sample_f: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        for name in _ARRAY_FIELDS:
            value = getattr(self, name)
            if value is not None:
                arr = np.array(value, dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)
        if self.kind == "sampled":
            # (4, pieces) coefficients of the interpolant, read-only too
            pchip = _pchip_coefficients(self.sample_z, self.sample_f)
            pchip.setflags(write=False)
            object.__setattr__(self, "_pchip", pchip)

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

    @cached_property
    def _float_pieces(self):
        """The arrays the float branch of eval reads, as lists: the
        ascending coefficients, or the breakpoints and each piece's
        coefficients.  Built on first use, and not part of the key or the
        pickle."""
        if self.kind == "sampled":
            return self.sample_z.tolist(), self._pchip.T.tolist()
        return self.coeffs.tolist()

    def eval(self, z):
        """Value F(z).  Accepts scalars or arrays of z with |z| < q.

        Raises OutOfDomain outside the open interval and NonPositiveProfile
        if the value comes out <= 0 (re-checked on every call).  A Python
        float z is evaluated in Python floats, with the array path's
        operations in its order (see the module docstring), so it gets the
        bits and the errors a one-element array gets.
        """
        if type(z) is float:
            return self._eval_float(z)
        arr = self._in_domain(z)
        if self.kind == "sampled":
            val = _pp_eval(self.sample_z, self._pchip, arr)
        else:
            val = P.polyval(arr, self.coeffs)
        if np.any(val <= 0.0):
            raise NonPositiveProfile("profile value <= 0 inside |z| < q")
        if arr.ndim == 0:
            return float(val)
        return val

    def _eval_float(self, z):
        if not abs(z) < self.q:
            raise OutOfDomain(f"evaluation needs |z| < q = {self.q!r}")
        if self.kind == "sampled":
            x, pieces = self._float_pieces
            # np.searchsorted(x[1:-1], z, side="right"), as _pp_eval finds it
            i = bisect_right(x, z, 1, len(x) - 1) - 1
            val = _piece_value(pieces[i], z - x[i])
        else:
            # P.polyval's Horner steps
            c = self._float_pieces
            val = c[-1] + z * 0
            for a in reversed(c[:-1]):
                val = a + val * z
        if val <= 0.0:
            raise NonPositiveProfile("profile value <= 0 inside |z| < q")
        return val

    def derivative(self, z):
        """Derivative F'(z), exact for every kind.

        Quadratic and polynomial kinds evaluate the differentiated
        coefficients; the sampled kind evaluates the first derivative of its
        piecewise-cubic interpolant, up to the edge of the open domain.
        """
        arr = self._in_domain(z)
        if self.kind == "sampled":
            der = _pp_eval(self.sample_z, self._pchip, arr, 1)
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
        # the derivative's coefficients, as PPoly.derivative scales them
        crit = _pp_roots(profile.sample_z, profile._pchip[:-1] * _DERIVATIVE_SCALE)
    else:
        with np.errstate(over="ignore"):  # _poly_roots rejects an overflow
            der = P.polyder(profile.coeffs)
        (crit,) = _poly_roots([der.tolist()], lim)
    return crit[np.abs(crit) < lim]


def _poly_roots(rows, lim):
    """Real parts of the roots of each row, a list of ascending polynomial
    coefficients, for |z| <= lim.  Raises InvalidDomain for a row with a
    coefficient that has overflowed, or roots that would.

    Each row takes in turn P.polytrim's trim, the finite check, the size
    trim and the subnormal-lead check below, in Python floats, whose
    arithmetic is numpy's.  The rows left with degree 2 or more are
    grouped by degree; each group's companion matrices are built as
    P.polycompanion builds them and solved by one eigvals call, and each
    row's eigenvalues are sorted and their real parts taken, as
    P.polyroots(c).real does.  So a row's roots have the bits
    P.polyroots(c).real gives it alone, in a stack of any size.
    """
    out = [None] * len(rows)
    groups = {}
    with np.errstate(over="ignore"):
        powers = (lim ** np.arange(max(map(len, rows), default=0))).tolist()
    for k, row in enumerate(rows):
        # P.polytrim drops trailing terms that are not > 0 in size (nan
        # too), and of an all-trimmed row keeps its first term times 0
        c = list(row)
        while c and not abs(c[-1]) > 0.0:
            c.pop()
        c = c or [row[0] * 0.0]
        if not all(map(math.isfinite, c)):
            raise InvalidDomain("polynomial coefficients overflow")
        # Leading terms below one rounding unit of the largest term on
        # |z| <= lim only add roots far outside the interval, and a tiny
        # leading coefficient would overflow the companion matrix: drop
        # them.  The sizes that overflow are inf, or nan for a zero term.
        size = [abs(x) * p for x, p in zip(c, powers)]
        cut = 2.0 ** -52 * max(s for s in size if s == s)
        while not size[-1] >= cut:
            size.pop()
        c = c[: len(size)]
        # a kept leading coefficient can still be subnormal: the companion
        # matrix's last column, c[:-1] / c[-1], must stay finite
        if len(c) > 2 and not all(math.isfinite(x / c[-1]) for x in c[:-1]):
            raise InvalidDomain("polynomial roots overflow")
        if len(c) > 2:
            groups.setdefault(len(c), []).append((k, c))
        else:
            out[k] = np.array([-c[0] / c[1]] if len(c) == 2 else [])
    for n, members in groups.items():
        deg = n - 1
        c = np.array([c for _, c in members])
        comp = np.zeros((len(members), deg, deg))
        comp.reshape(len(members), -1)[:, deg :: deg + 1] = 1.0
        comp[:, :, -1] -= c[:, :-1] / c[:, -1:]
        for (k, _), r in zip(members, np.linalg.eigvals(comp)):
            # alone, a matrix with only real eigenvalues gets them as reals
            out[k] = np.sort(r.real) if (r.imag == 0.0).all() else np.sort(r).real
    return out


def _gap_roots_many(profile, ms, betas):
    """Per plane (m, beta), the candidate roots in |z| < q of its section
    gap F(z) - ((z - beta)/m)^2.  Raises InvalidDomain, through _poly_roots,
    when a plane's gap polynomial overflows.

    The gap times min(m^2, 1), where no term overflows, is a polynomial or,
    for the sampled kind, a piecewise cubic.  The polynomials, each formed
    with P.polysub's arithmetic, are solved together by _poly_roots, the
    piecewise cubics one by one by _pp_roots.  Complex roots add their real
    parts: the caller keeps the candidates where the gap changes sign.
    """
    q = profile.q
    scales = [(m * m, 1.0) if m <= 1.0 else (1.0, (1.0 / m) ** 2) for m in ms]
    if profile.kind == "sampled":
        x = profile.sample_z
        out = []
        for (fw, qw), beta in zip(scales, betas):
            off = x[:-1] - beta
            c = fw * profile._pchip
            c[-3] -= qw
            c[-2] -= 2.0 * qw * off
            c[-1] -= qw * off * off
            out.append(_pp_roots(x, c))
    else:
        coeffs = profile.coeffs.tolist()
        rows = []
        for (fw, qw), beta in zip(scales, betas):
            # P.polysub's arithmetic, in Python floats; a nan or an
            # overflow is _poly_roots's to reject
            fw, qw, beta = float(fw), float(qw), float(beta)
            rows.append(_polysub(_trimseq([fw * x for x in coeffs]),
                                 _trimseq([qw * (beta * beta), qw * (-2.0 * beta), qw])))
        out = _poly_roots(rows, q)
    return [r[np.abs(r) < q] for r in out]


def _trimseq(c):
    """c without its trailing zeros, but at least its first term (pu.trimseq)."""
    n = len(c)
    while n > 1 and c[n - 1] == 0.0:
        n -= 1
    return c[:n]


def _polysub(a, b):
    """a - b, term by term, for trimmed a and b (P.polysub, before its own
    trim of trailing zeros, which P.polytrim repeats)."""
    if len(a) > len(b):
        return [x - y for x, y in zip(a, b)] + a[len(b):]
    return [x - y for x, y in zip(a, b)] + [-y for y in b[len(a):]]


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
        ends = _pp_eval(profile.sample_z, profile._pchip, np.array([-q, q]))
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
    finite-difference endpoint slopes (see the module docstring); the
    derivative is the interpolant's own, exact to rounding.
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
    prof = Profile(kind="sampled", q=float(q), sample_z=zs, sample_f=fs)
    _check_positive(prof)
    return prof


# --- piecewise cubics of sampled profiles -------------------------------------
#
# A piecewise polynomial is its breakpoints x and a (k, pieces) array c of
# descending coefficients: piece i is sum_j c[j, i] s^(k-1-j), s = z - x[i],
# on [x[i], x[i+1]].  The arithmetic follows scipy's PchipInterpolator and
# PPoly operation for operation (see the module docstring).

# PPoly.derivative's factors for the rows of a cubic's derivative
_DERIVATIVE_SCALE = np.array([[3.0], [2.0], [1.0]])


def _pchip_coefficients(x, y):
    """(4, len(x) - 1) coefficients of the PCHIP interpolant of (x, y)."""
    h = np.diff(x)
    m = np.diff(y) / h
    sign = np.sign(m)
    flat = (sign[1:] != sign[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    d = np.zeros_like(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    d[0] = _pchip_end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _pchip_end_slope(h[-1], h[-2], m[-1], m[-2])
    t = (d[:-1] + d[1:] - 2.0 * m) / h
    return np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])


def _pchip_end_slope(h0, h1, m0, m1):
    """One-sided three-point slope at an end, zero when its sign differs
    from the end secant's, and at most three times that secant when the
    first two secants change sign."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


def _pp_eval(x, c, z, nu=0):
    """The piecewise cubic (x, c), or its derivative for nu = 1, at z in
    [x[0], x[-1]]; the last piece is closed on the right."""
    i = np.searchsorted(x[1:-1], z, side="right")
    return _piece_value(c.take(i, axis=1), z - x.take(i), nu)


def _piece_value(c, s, nu=0):
    """sum_j c[j] s^(k-1-j) or its derivative for nu = 1, columns of c
    against entries of s, in ascending powers of s: each term c * s^p
    times its prefactor p (derivative), added to the running sum, and
    s^p kept as a running product."""
    k = len(c)
    res = 0.0 + c[k - 1 - nu]
    power = s
    for p in range(nu + 1, k):
        term = c[k - 1 - p] * power
        if nu:
            term = term * float(p)
        res = res + term
        if p < k - 1:
            power = power * s
    return res


def _pp_roots(x, c):
    """Real roots of the piecewise polynomial (x, c), k = len(c) <= 4, in
    the order and with the duplicates PPoly.roots(extrapolate=False) gives.

    Per piece, in turn: its left breakpoint when the value changes sign
    strictly across it; then the roots of the piece at its own degree (its
    leading zero coefficients dropped): a linear root, the two real roots
    of a quadratic by the cancellation-free formulas, or the real
    eigenvalues of a cubic's companion matrix by ascending real part; an
    all-zero piece gives its left breakpoint and nan.  Each real root takes
    one Newton step when the derivative is non-zero and the step is
    smaller than the root, and is kept when it lands in [x[i], x[i+1]];
    a root equal to the root before it is dropped.
    """
    k, pieces = c.shape
    h = np.diff(x)
    with np.errstate(all="ignore"):
        # candidates per piece: the breakpoint, then up to three roots
        cand = np.full((pieces, 4), math.nan)
        valid = np.zeros((pieces, 4), dtype=bool)
        forced = np.zeros((pieces, 4), dtype=bool)
        va = _piece_value(c[:, :-1], h[:-1])
        vb = _piece_value(c[:, 1:], np.zeros(pieces - 1))
        valid[1:, 0] = ((va < 0.0) & (vb > 0.0)) | ((va > 0.0) & (vb < 0.0))
        cand[1:, 0] = x[1:-1]
        nonzero = c != 0.0
        degree = np.where(nonzero.any(axis=0), k - 1 - np.argmax(nonzero, axis=0), -1)
        zero = degree < 0
        cand[zero, 1] = x[:-1][zero]
        valid[zero, 1:3] = forced[zero, 1:3] = True
        roots = np.full((pieces, 3), math.nan)
        real = np.zeros((pieces, 3), dtype=bool)
        lin = degree == 1
        if lin.any():
            a0, a1 = c[k - 2, lin], c[k - 1, lin]
            roots[lin, 0] = -a1 / a0
            real[lin, 0] = True
        quad = degree == 2
        if quad.any():
            roots[quad, :2], real[quad, :2] = _quadratic_roots(*c[k - 3 :, quad])
        # a cubic whose constant term outweighs its other terms on the
        # piece has no root there: it takes no eigenvalue solve
        reach = (np.abs(c[-2]) + (np.abs(c[-3]) + np.abs(c[0]) * h) * h) * h
        cubic = (degree == 3) & ~(np.abs(c[-1]) > 2.0 * reach)
        if cubic.any():
            roots[cubic], real[cubic] = _cubic_roots(c[:, cubic])
        # one Newton step on each real root, then back to z
        piece, col = np.nonzero(real)
        r = roots[piece, col]
        cp = c[:, piece]
        f = _piece_value(cp, r)
        df = _piece_value(cp, r, 1)
        step = f / df
        take = (df != 0.0) & (np.abs(step) < np.abs(r))
        r = np.where(take, r - step, r) + x[piece]
        inside = (x[piece] <= r) & (r <= x[piece + 1])
        cand[piece[inside], col[inside] + 1] = r[inside]
        valid[piece[inside], col[inside] + 1] = True
    vals, forced = cand[valid], forced[valid]
    prev = np.concatenate(([math.nan], vals[:-1]))
    return vals[forced | (vals != prev)]


def _quadratic_roots(a0, a1, a2):
    """(roots, real) of a0 s^2 + a1 s + a2 per column, a0 != 0: the
    cancellation-free pair when the discriminant is not negative."""
    d = a1 * a1 - 4.0 * a0 * a2
    real = ~(d < 0.0)
    d = np.sqrt(np.where(real, d, 0.0))
    big = np.where(a1 < 0.0, -a1 + d, -a1 - d)
    r0 = np.where(a1 < 0.0, (2.0 * a2) / big, big / (2.0 * a0))
    r1 = np.where(a1 < 0.0, big / (2.0 * a0), (2.0 * a2) / big)
    double = d == 0.0
    r0 = np.where(double, -a1 / (2.0 * a0), r0)
    r1 = np.where(double, r0, r1)
    both = np.stack([r0, r1], axis=1)
    return both, np.stack([real, real], axis=1)


def _cubic_roots(c):
    """(roots, real) of the cubics in the columns of the (4, n) c, c[0] != 0:
    eigenvalues of the companion matrix (ones below the diagonal, the last
    column -c[3 - j] / c[0] in row j), by ascending real part."""
    n = c.shape[1]
    comp = np.zeros((n, 3, 3))
    comp[:, 1, 0] = comp[:, 2, 1] = 1.0
    comp[:, :, 2] = (-c[:0:-1] / c[0]).T
    ok = np.isfinite(comp).all(axis=(1, 2))
    eig = np.full((n, 3), math.nan, dtype=complex)
    if ok.any():
        eig[ok] = np.linalg.eigvals(comp[ok])
    eig = np.take_along_axis(eig, np.argsort(eig.real, axis=1, kind="stable"), axis=1)
    return eig.real, ok[:, None] & (eig.imag == 0.0)


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
