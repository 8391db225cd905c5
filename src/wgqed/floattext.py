"""The text ``repr`` gives each value of a float array, built by numpy.

``float_text(values)`` returns one row of ``WIDTH`` bytes per value:
``repr(float(v))`` in ASCII, padded with NUL bytes.  ``repr`` writes the
shortest decimal digit string that reads back as the same float, the
nearest such string to the value when there are several, and lays it
out in fixed notation for 1e-4 <= |v| < 1e16 and as ``d.ddde±XX``
otherwise (Python's ``float_repr_style`` "short").  The kernel finds the
same digits without a Python call per value:

- **Scale.** With k = 16 − floor(log10 |v|), E = |v|·10ᵏ lies in
  [10¹⁶, 10¹⁷).  E is taken as p + F: p = fl(|v|·H) by Dekker's exact
  product with 10ᵏ = H + L (a table of double-double powers of ten built
  on first use), and F its error plus |v|·L.  p ≥ 2⁵³ is an integer, so
  N = p + rint(F) is E's nearest integer and f = F − rint(F) its
  remainder, both to within 2⁻⁴⁶ (relative error 2⁻¹⁰³ of E < 2⁵⁷).
- **Digits.** A decimal D·10⁻ᵏ reads back as v when |D − E| is below
  the half-ulp of v scaled the same way, h = ulp(v)/2·10ᵏ, which lies in
  (0.55, 11.2) (at equality, when v's last bit is 0).  N has 17 digits and always does.  The nearest multiple
  of 10 and of 100 to E are tried on N's last two digits; a multiple of
  100 within h is the only one, so its own trailing zeros give every
  further digit that may go.
- **Fallback.** A value whose distance lies within ``_TOL`` of h, whose
  two nearest candidates lie within ``_TOL`` of a tie, or that the table
  or the bound does not cover gets ``float.__repr__``: ±0, NaN, ±inf,
  |v| outside [1e-270, 1e290) (subnormals among them) and powers of two,
  whose lower half-gap is half the upper.  ``_TOL`` is 2⁻³⁰, far above
  the 2⁻⁴⁴ by which the distances and h can be off.
- **Layout.** Each value's digits, its sign, point and exponent go into
  one 32-byte source row, and a table of byte positions per layout (sign,
  digit count, point position or exponent width) gathers its text.
"""

import functools

import numpy as np

WIDTH = 24          # len(repr(-2.2250738585072014e-308)), the longest
_TOL = 2.0 ** -30
_K_LO, _K_HI = -276, 300      # 10**k with a normal double-double
_MANTISSA = np.int64(2 ** 52 - 1)
_EXPONENT = np.int64(0x7FF0000000000000)
# byte positions within a value's source row: digits 2-17 of D, D's
# first digit, "-", ".", "0", the exponent's sign and three digits, "e",
# then NUL padding
_SOURCE = 32
_LEAD, _MINUS, _POINT, _ZERO, _XSIGN, _E, _NUL = 16, 17, 18, 19, 20, 24, 25
_FIXED = 20         # layouts with the point at decpt = -3 ... 16
_CLASSES = 2 * 17 * (_FIXED + 2)   # sign x digit count x layout
_GATHER = 2048


def _words(texts):
    """The 4-character strings ``texts`` as uint32 words of their bytes."""
    return np.frombuffer("".join(texts).encode(), np.uint32)


@functools.cache
def _tables():
    """Powers of ten, byte-position templates, and the words of digits,
    of a leading digit with "-.0", of exponents and of "e".

    ``pow10[:, k - _K_LO]`` is (H, L, Hh, Hl): 10**k = H + L + O(2⁻¹⁰⁶ H)
    and H = Hh + Hl split for Dekker's product.  Template row ``c`` lists
    the source bytes of the text of layout class ``c``; the rows past
    ``_CLASSES`` copy the first n bytes of a source row, for the values
    that fall back to ``float.__repr__``.
    """
    hi, lo = [], []
    for k in range(_K_LO, _K_HI + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den                   # correctly rounded
        hn, hd = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * hd - hn * den) / (den * hd))
    hi = np.array(hi)
    big = hi * 134217729.0              # 2**27 + 1
    high = big - (big - hi)
    pow10 = np.stack([hi, np.array(lo), high, hi - high])

    template = np.full((_CLASSES + WIDTH + 1, WIDTH), _NUL, np.intp)
    for negative in range(2):
        for count in range(1, 18):
            digits = [_LEAD] + list(range(count - 1))
            for layout in range(_FIXED + 2):
                decpt = layout - 3
                if layout == _FIXED or layout == _FIXED + 1:
                    text = digits[:1] + [_POINT] * (count > 1) + \
                        digits[1:] + [_E, _XSIGN] + \
                        list(range(_XSIGN + 1 + (layout == _FIXED),
                                   _XSIGN + 4))
                elif decpt <= 0:
                    text = [_ZERO, _POINT] + [_ZERO] * -decpt + digits
                elif decpt < count:
                    text = digits[:decpt] + [_POINT] + digits[decpt:]
                else:
                    text = digits + [_ZERO] * (decpt - count) + \
                        [_POINT, _ZERO]
                text = [_MINUS] * negative + text
                row = (negative * 17 + count - 1) * (_FIXED + 2) + layout
                template[row, :len(text)] = text
    for n in range(1, WIDTH + 1):
        template[_CLASSES + n, :n] = range(n)

    digits4 = _words(f"{i:04d}" for i in range(10000))
    lead = _words(f"{i}-.0" for i in range(10))
    exponent = _words(f"{e:+04d}" for e in range(-400, 400))
    return pow10, template, digits4, lead, exponent, _words(["e\0\0\0"])


def _product(a, k, pow10):
    """p = fl(a·H) and F ≈ a·10**k − p for each a and its k."""
    H, L, Hh, Hl = pow10.take(k - _K_LO, axis=1)
    big = a * 134217729.0
    ah = big - (big - a)
    al = a - ah
    p = a * H
    return p, (((ah * Hh - p) + ah * Hl + al * Hh) + al * Hl) + a * L, H


def _scaled(x, pow10):
    """(N, f, h, k, sure): E = |x|·10**k = N + f with N the integer of 17
    digits nearest E, h the half-ulp of x scaled by 10**k, and ``sure``
    False where x falls back to ``float.__repr__``."""
    bits = x.view(np.int64)
    a = np.abs(x)
    sure = (a >= 1e-270) & (a < 1e290) & ((bits & _MANTISSA) != 0)
    a[~sure] = 1.5
    k = 16 - np.floor(np.log10(a)).astype(np.int64)
    p, F, H = _product(a, k, pow10)
    off = np.flatnonzero((p < 1e16) | (p >= 1e17))  # log10 rounded
    if off.size:
        k[off] += np.where(p[off] < 1e16, 1, -1)
        p[off], F[off], H[off] = _product(a[off], k[off], pow10)
    R = np.rint(F)
    N = p.astype(np.int64) + R.astype(np.int64)
    sure &= (N >= 10 ** 16) & (N < 10 ** 17)
    return N, F - R, (bits & _EXPONENT).view(np.float64) * 2.0 ** -53 * H, \
        k, sure


def _shortest(x, pow10):
    """(D, zeros, decpt, sure): repr's digits of |x| are those of the
    17-digit D without its ``zeros`` trailing zeros, with the point
    ``decpt`` digits from their start."""
    N, f, h, k, sure = _scaled(x, pow10)
    # the nearest multiples of 10 and of 100 to E = N + f
    r2 = N % 100
    r1 = r2 % 10
    g1, g2 = r1 + f, r2 + f
    up1, up2 = 10.0 - g1, 100.0 - g2
    d1 = np.minimum(np.abs(g1), up1)
    d2 = np.minimum(np.abs(g2), up2)
    ten, hundred = d1 < h, d2 < h
    # no distance at h, and no tie between the two candidates of the
    # length taken: |f| = 1/2 for 17 digits, g1 = 5 for 16
    sure &= (np.abs(d1 - h) >= _TOL) & (np.abs(d2 - h) >= _TOL) & \
        (np.abs(np.where(ten, g1 - 5.0, np.abs(f) - 0.5)) >= _TOL)
    D = np.where(hundred, N - r2 + 100 * (up2 < g2),
                 np.where(ten, N - r1 + 10 * (up1 < g1), N))
    zeros = ten.astype(np.int64)
    more = np.flatnonzero(hundred)
    if more.size:
        q, z = D[more] // 100, 2
        for step in (8, 4, 2, 1):
            m = q % 10 ** step == 0
            q = np.where(m, q // 10 ** step, q)
            z = z + step * m
        zeros[more] = z
        top = more[D[more] == 10 ** 17]     # rounded up to one digit
        D[top], zeros[top], k[top] = 10 ** 16, 16, k[top] - 1
    return D, zeros, 17 - k, sure


def _source(x, tables):
    """Each value's source row (uint8, ``_SOURCE`` bytes) and the class of
    its text: the layout of its repr, or the length of ``float.__repr__``
    copied into the row."""
    pow10, _, digits4, lead, exponent, e = tables
    D, zeros, decpt, sure = _shortest(x, pow10)
    source = np.zeros((len(x), _SOURCE // 4), np.uint32)
    for word in (3, 2, 1, 0):
        D, r = np.divmod(D, 10000)
        source[:, word] = digits4[r]
    source[:, 4] = lead[D]
    source[:, 5] = exponent[decpt + 399]
    source[:, 6] = e
    layout = np.where((decpt >= -3) & (decpt <= 16), decpt + 3,
                      _FIXED + (np.abs(decpt - 1) >= 100))
    cls = ((x.view(np.int64) < 0) * 17 + 16 - zeros) * (_FIXED + 2) + layout

    rows = source.view(np.uint8)
    back = np.flatnonzero(~sure)
    for lo in range(0, len(back), _GATHER):     # a bounded run of strings
        part = back[lo:lo + _GATHER]
        text = list(map(float.__repr__, x[part].tolist()))
        rows[part, :WIDTH] = np.array(text, f"S{WIDTH}").view(
            np.uint8).reshape(-1, WIDTH)
        cls[part] = _CLASSES + np.fromiter(map(len, text), np.int64,
                                           len(text))
    return rows.ravel(), cls


def float_text(values):
    """``repr(float(v))`` of each value, one NUL-padded row of ``WIDTH``
    bytes per value (a uint8 array of shape (len(values), WIDTH))."""
    x = np.asarray(values, np.float64).ravel()
    tables = _tables()
    template = tables[1]
    source, cls = _source(x, tables)
    text = np.empty((len(x), WIDTH), np.uint8)
    # the byte positions take 8 bytes each: gather a bounded run at a time
    for lo in range(0, len(x), _GATHER):
        index = template.take(cls[lo:lo + _GATHER], axis=0)
        index += np.arange(lo * _SOURCE, lo * _SOURCE + len(index) * _SOURCE,
                           _SOURCE)[:, None]
        source.take(index, out=text[lo:lo + _GATHER])
    return text
