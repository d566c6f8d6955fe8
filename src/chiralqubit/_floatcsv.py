"""CSV text of float tables, each value byte for byte as repr writes it: the shortest string
that reads back to the same double, the nearest one of that length.

The digits come from fixed-width arithmetic on whole arrays, as in Grisu (Loitsch, PLDI 2010)
and Ryu (Adams, PLDI 2018).  For x = |value| and E = floor(log10 x), y = x * 10**(16 - E) in
[1e16, 1e17) is (x * 2**p) * 5**p, p = 16 - E, with 5**p a double-double and Dekker's exact
two-product, split as y = H + f (int64 H, 0 <= f < 1).  Rounding y to 15 and 16 digits compares
f with half - H mod 10**j; a candidate reads back to x when it lies closer to y than half an ulp
of x, scaled alike.  That interval is symmetric unless x is a power of two, so repr's digits are
R15 (trailing zeros stripped) if it reads back, else R16 if it does, else R17.

For 0 <= p <= 20 all of this is exact, and a decision that lands on its threshold (a tie, or a
candidate on the interval's edge) is not certified.  For other p the errors stay below 2**-46,
and a decision needs a clearance of MARGIN.  repr writes each value not certified: zeros,
subnormals, powers of two and the undecided.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

MARGIN = 2.0**-40
P_MIN, P_MAX = -293, 326  # p over the normal doubles, E corrected by one either way
FALLBACK = 24  # layout class of a value repr writes
# a value's 32 source bytes: "000" and 17 digits (digit k at 3 + k), "0" and 3 exponent digits
# (21-23), "-.e,\n+" (24-29) and 0 bytes
MINUS, DOT, EXP, COMMA, NEWLINE, PLUS, NUL = range(24, 31)


def _layout(negative, cls, nd, last) -> list[int]:
    """Source offsets of a value's text and separator: cls is E + 4 in fixed notation (-4 <= E
    <= 15), 20 + 2 * (E > 0) + (|E| >= 100) in exponent notation, or FALLBACK."""
    digits = list(range(3, 3 + nd))
    out = [MINUS] * (negative and cls != FALLBACK)
    if 4 <= cls < 20:
        out += digits[:cls - 3] + [0] * (cls - 3 - nd) + [DOT] + (digits[cls - 3:] or [0])
    elif cls < 4:
        out += [0, DOT] + [0] * (3 - cls) + digits
    elif cls < FALLBACK:
        out += digits[:1] + [DOT] * (nd > 1) + digits[1:] + [EXP, PLUS if cls >= 22 else MINUS]
        out += [21, 22, 23][1 - cls % 2:]
    return out + [NEWLINE if last else COMMA]


@functools.cache
def _tables():
    """4-digit ASCII groups and their trailing zeros, 5**p as double-doubles, the layouts."""
    k = np.arange(10_000)[:, None]
    groups = (k // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8).view(np.uint32)[:, 0]
    zeros = (k % np.array([10, 100, 1000, 10_000]) == 0).sum(axis=1)
    hi, lo = [], []
    for p in range(P_MIN, P_MAX):
        num, den = 5 ** max(p, 0), 5 ** max(-p, 0)
        h_num, h_den = (num / den).as_integer_ratio()
        hi.append(num / den)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    keys = itertools.product((0, 1), range(FALLBACK + 1), range(1, 18), (0, 1))
    rows = [_layout(*key) for key in keys]
    width = max(map(len, rows))
    layouts = np.array([row + [NUL] * (width - len(row)) for row in rows], np.intp)
    return groups, zeros, np.array(hi), np.array(lo), layouts, np.array([len(r) for r in rows])


def _scaled(x, ex, E, five_hi, five_lo):
    """y = x * 10**(16 - E) as int64 H plus fraction f, and half an ulp of x scaled alike."""
    p = 16 - E
    p_hi, p_lo = five_hi.take(p - P_MIN), five_lo.take(p - P_MIN)
    a = np.ldexp(x, p)
    h = a * p_hi
    ta, tb = 134217729.0 * a, 134217729.0 * p_hi  # Veltkamp's split into 26-bit halves
    a1, b1 = ta - (ta - a), tb - (tb - p_hi)
    a2, b2 = a - a1, p_hi - b1
    s = ((a1 * b1 - h) + a1 * b2 + a2 * b1) + a2 * b2 + a * p_lo  # y - h
    k = np.floor(s)
    return h.astype(np.int64) + k.astype(np.int64), s - k, np.ldexp(p_hi, ex - 54 + p)


def _shortest(x, ex, five_hi, five_lo):
    """For positive normal x, not a power of two: c in [1e16, 1e17] and E, repr's digits being
    the leading digits of c and x ~ c * 10**(E - 16); and where that is not certified."""
    E = np.floor(np.log10(x)).astype(np.int32)
    H, f, hu = _scaled(x, ex, E, five_hi, five_lo)
    off = (H >= 10**17).astype(np.int32) - (H < 10**16)  # log10 near a power of ten
    fix = np.flatnonzero(off)
    if fix.size:
        E[fix] += off[fix]
        H[fix], f[fix], hu[fix] = _scaled(x[fix], ex[fix], E[fix], five_hi, five_lo)
    margin = np.where((E >= -4) & (E <= 16), 0.0, MARGIN)
    r2 = (H % 100).astype(float)
    offset, found = (f > 0.5).astype(float), np.zeros(x.shape, bool)  # R17 - H
    undecided = np.zeros(x.shape, bool)
    for rem, half in ((r2, 50.0), (r2 - 10.0 * np.floor(r2 * 0.1), 5.0)):  # R15, then R16
        candidate = np.where(f > half - rem, 2.0 * half, 0.0) - rem  # R * 10**j - H
        distance = np.abs(candidate - f)
        tie = np.abs(f - half + rem) <= margin
        undecided |= ~found & (tie | (np.abs(distance - hu) <= margin))
        reads_back = ~found & (distance < hu)
        offset = np.where(reads_back, candidate, offset)
        found |= reads_back
    undecided |= ~found & (np.abs(f - 0.5) <= margin)
    c = H + offset.astype(np.int64)
    return np.where(c == 10**17, 10**16, c), E + (c == 10**17), undecided


def csv_block(table: np.ndarray) -> str:
    """The rows of a 2-D float64 table of finite values as CSV lines, each value as repr writes
    it.  The tables are built on the first call."""
    groups, zeros, five_hi, five_lo, layouts, lengths = _tables()
    values = table.ravel()
    x = np.abs(values)
    mantissa, ex = np.frexp(x)
    certain = (x >= np.finfo(float).tiny) & (mantissa != 0.5)
    c, E, undecided = _shortest(np.where(certain, x, 1.5), ex, five_hi, five_lo)
    certain &= ~undecided
    head, tail = np.divmod(c, 10**8)
    parts = (head // 10**8, *np.divmod(head % 10**8, 10**4), *np.divmod(tail, 10**4), np.abs(E))
    source = np.empty((len(values), 8), np.uint32)
    for col, part in enumerate(parts):
        groups.take(part, out=source[:, col], mode="clip")
    source[:, 6:] = np.frombuffer(b"-.e,\n+\0\0", np.uint32)
    trailing = zeros.take(parts[4])
    for k, part in ((4, parts[3]), (8, parts[2]), (12, parts[1])):
        trailing += (trailing == k) * zeros.take(part)
    cls = np.where((E >= -4) & (E <= 15), E + 4, 20 + 2 * (E > 0) + (np.abs(E) >= 100))
    cls[~certain] = FALLBACK
    last = np.arange(len(values)) % table.shape[1] == table.shape[1] - 1
    key = ((np.signbit(values) * (FALLBACK + 1) + cls) * 17 + 16 - trailing) * 2 + last
    index = layouts.take(key, axis=0)
    index += np.arange(0, 32 * len(values), 32)[:, None]
    out = source.view(np.uint8).ravel().take(index)
    text = out[out != 0].tobytes().decode("ascii")
    pieces, start = [], 0
    fallback = np.flatnonzero(~certain)
    for i, end in zip(fallback.tolist(), (np.cumsum(lengths.take(key)) - 1)[fallback].tolist()):
        pieces += [text[start:end], repr(float(values[i]))]  # before the value's separator
        start = end
    return "".join(pieces) + text[start:]
