"""CSV text of float tables, each value byte for byte as repr writes it: the shortest string
that reads back to the same double, the nearest one of that length.

The digits come from fixed-width arithmetic on whole arrays, as in Grisu (Loitsch, PLDI 2010)
and Ryu (Adams, PLDI 2018).  For x = |value| and E = floor(log10 x), y = x * 10**(16 - E) in
[1e16, 1e17) is (x * 2**p) * 5**p, p = 16 - E, with 5**p a double-double and Dekker's exact
two-product, split as y = H + f (int64 H, 0 <= f < 1).  Rounding y to 15 and 16 digits compares
g = f + H mod 10**j with half of 10**j; a candidate reads back to x when it lies closer to y than
half an ulp of x, scaled alike.  That interval is symmetric unless x is a power of two, so repr's
digits are R15 (trailing zeros stripped) if it reads back, else R16 if it does, else R17.  For
0 <= p <= 20 all of this is exact, and a decision that lands on its threshold (a tie, or a
candidate on the interval's edge) is not certified.  For other p the errors stay below 2**-45,
and a decision needs a clearance of MARGIN.  repr writes each value not certified: zeros,
subnormals, powers of two and the undecided.

The text is built in whole 64-bit words (Lamport, CACM 18(8), 1975): each value is a record of
four uint64 words, sign and "0.000" right-aligned in bytes 0-6 and 17 ASCII digits in 7-23.  Rows
by (E, digit count) of masks keep the digits before the dot, take those after it from the record
shifted by one byte, clear the rest and add the prefix, the dot, and the exponent and separator
right after the text.  Dropping the NUL bytes leaves the CSV.  repr fills the records it writes.
"""

import functools
import itertools

import numpy as np

MARGIN = 2.0**-40
P_MIN, P_MAX = -293, 326  # p over the normal doubles, E corrected by one either way
E_MIN, FALLBACK = -308, 617  # rows E - E_MIN for E over the normal doubles, one for repr


def _divmod(a, b):
    """divmod through floor_divide, the integer division numpy runs with libdivide."""
    q = a // b
    return q, a - q * b


@functools.cache
def _tables():
    """4-digit ASCII groups, the digit count up to each one's last nonzero digit, 5**p as
    double-doubles with Veltkamp's halves of the high part, and by (E row, digit count) the digit
    masks and, by sign and last column, the prefix, dot and tail words."""
    k = np.arange(10_000)
    groups = (k[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48).astype(np.uint8)
    places = 4 - (k[:, None] % np.array([10, 100, 1000, 10_000]) == 0).sum(axis=1)
    last = (np.where(k > 0, places + 4 * np.arange(4)[:, None], 0) + 1).astype(np.uint8)
    fives = [(5 ** max(p, 0), 5 ** max(-p, 0)) for p in range(P_MIN, P_MAX)]
    hi = np.array([num / den for num, den in fives])
    ratios = map(float.as_integer_ratio, hi.tolist())
    lo = np.array([(num * b - a * den) / (den * b) for (num, den), (a, b) in zip(fives, ratios)])
    split = 134217729.0 * hi  # Veltkamp's split into 26-bit halves
    hi1 = split - (split - hi)
    tail, cls = np.zeros((2, FALLBACK + 1, 1, 1), np.uint64), np.full(FALLBACK + 1, 21)
    for row, e in enumerate(range(E_MIN, E_MIN + FALLBACK)):
        exponent = "" if -4 <= e <= 15 else f"e{e:+03d}"  # then ",", or "\n" in the last column
        tail[:, row, 0, 0] = [int.from_bytes((exponent + end).encode(), "little") for end in ",\n"]
        cls[row] = 20 if exponent else e + 4
    texts = []  # by layout class (E + 4 if -4 <= E <= 15, 20 exponent, 21 repr) and digit count
    for c, nd in itertools.product(range(22), range(1, 18)):
        lead, dot, n = ("M0." + "0" * (3 - c), 0, nd) if c < 4 else ("M", c - 3, max(nd, c - 2))
        if c >= 20:
            lead, dot, n = ("M", int(nd > 1), nd) if c == 20 else ("", 0, 0)
        # M the sign, D a digit in place, S the digit one byte before
        texts.append(lead.rjust(7) + ("D" * dot + "." + "S" * (n - dot) if dot else "D" * n))
    codes = np.array([list(t.ljust(32).encode()) for t in texts], np.uint8).reshape(22, 17, 32)
    keep, keep_shifted, minus = (((codes == ord(c)) * np.uint8(255)).view(np.uint64)[cls]
                                 for c in "DSM")
    literal = np.where(np.isin(codes, np.frombuffer(b"DSM ", np.uint8)), 0, codes)
    # bits from each word's start to the tail's: << puts the tail in, >> carries it into the next
    # word; numpy's shifts by 64 bits or more, negative ones cast to uint64 too, give 0
    shift = 8 * np.array([len(text) for text in texts]).reshape(22, 17, 1) - 64 * np.arange(4)
    fill = (literal.view(np.uint64)[cls] | tail << shift.astype(np.uint64)[cls]
            | tail >> (-shift).astype(np.uint64)[cls])
    fill = np.array([fill, fill | minus & np.uint64(0x2D2D2D2D2D2D2D2D)])  # "-" by sign
    return (groups.view(np.uint32)[:, 0], last, np.array([hi, lo, hi1, hi - hi1]),
            keep.reshape(-1, 4), keep_shifted.reshape(-1, 4), fill.reshape(-1, 4))


def _scaled(x, ex, E, five):
    """y = x * 10**(16 - E) as int64 H plus fraction f, and half an ulp of x scaled alike."""
    p_hi, p_lo, b1, b2 = five.take((16 - E).astype(np.intp) - P_MIN, axis=1)
    a = np.ldexp(x, 16 - E)
    h = a * p_hi
    ta = 134217729.0 * a
    a1 = ta - (ta - a)
    a2 = a - a1
    s = ((a1 * b1 - h) + a1 * b2 + a2 * b1) + a2 * b2 + a * p_lo  # y - h
    k = np.floor(s)
    return h.astype(np.int64) + k.astype(np.int64), s - k, np.ldexp(p_hi, ex - 38 - E)


def _shortest(x, ex, five):
    """For positive normal x, not a power of two: c in [1e16, 1e17] and E, repr's digits being
    the leading digits of c and x ~ c * 10**(E - 16); and where that is not certified."""
    E = np.floor(np.log10(x)).astype(np.int32)
    H, f, hu = _scaled(x, ex, E, five)
    off = (H >= 10**17).astype(np.int32) - (H < 10**16)  # log10 near a power of ten
    fix = np.flatnonzero(off)
    if fix.size:
        E[fix] += off[fix]
        H[fix], f[fix], hu[fix] = _scaled(x[fix], ex[fix], E[fix], five)
    margin = np.where((E >= -4) & (E <= 16), 0.0, MARGIN)
    r2 = _divmod(H, 100)[1].astype(float)
    offset = (f > 0.5).astype(float)  # R17 - H
    found, undecided = np.zeros((2,) + x.shape, bool)
    for rem, half in ((r2, 50.0), (r2 - 10.0 * np.floor(r2 * 0.1), 5.0)):  # R15, then R16
        g = f + rem  # y mod 10**j
        d = np.abs(g - half)
        distance = half - d  # |R * 10**j - y|
        undecided |= ~found & ((d <= margin) | (np.abs(distance - hu) <= margin))
        reads_back = ~found & (distance < hu)
        offset += reads_back * ((g > half) * (2.0 * half) - rem - offset)
        found |= reads_back
    undecided |= ~found & (np.abs(f - 0.5) <= margin)
    c = H + offset.astype(np.int64)
    return np.where(c == 10**17, 10**16, c), E + (c == 10**17), undecided


def csv_block(table: np.ndarray) -> str:
    """The rows of a 2-D float64 table of finite values as CSV lines, each value as repr writes
    it.  The tables are built on the first call."""
    groups, last, five, keep, keep_shifted, fill = _tables()
    values = table.ravel()
    x = np.abs(values)
    mantissa, ex = np.frexp(x)
    certain = (x >= np.finfo(float).tiny) & (mantissa != 0.5)
    c, E, undecided = _shortest(np.where(certain, x, 1.5), ex, five)
    row = np.where(certain & ~undecided, E - E_MIN, FALLBACK).astype(np.intp)
    top, low = _divmod(c, 10**8)
    first, top = _divmod(top.astype(np.int32), 10**8)
    parts = (*_divmod(top, 10_000), *_divmod(low.astype(np.int32), 10_000))  # digits 1-16
    nd = np.maximum.reduce([places.take(part) for places, part in zip(last, parts)])
    record = np.empty((len(values), 4), np.uint64)
    record[:, 0] = (first + 48).astype(np.uint64) << 56
    record[:, 3] = 0
    for col, part in enumerate(parts):
        groups.take(part, out=record.view(np.uint32)[:, col + 2], mode="clip")
    shifted = record.ravel() << 8
    shifted[1:] |= record.ravel()[:-1] >> 56
    layout = row * 17 + nd - 1  # (E row, digit count)
    record &= keep.take(layout, axis=0)
    record |= shifted.reshape(record.shape) & keep_shifted.take(layout, axis=0)
    ends = np.arange(table.shape[1]) == table.shape[1] - 1  # the last column's
    sign_end = np.signbit(values) * 2 + np.tile(ends, len(table))
    record |= fill.take(layout + sign_end * (17 * FALLBACK + 17), axis=0)
    fallback = np.flatnonzero(row == FALLBACK)
    text = "".join((repr(value) + ",\n"[end]).rjust(32, "\0") for value, end in
                   zip(values[fallback].tolist(), ends[fallback % table.shape[1]].tolist()))
    record[fallback] = np.frombuffer(text.encode("ascii"), np.uint64).reshape(-1, 4)
    raw = record.view(np.uint8).ravel()
    return raw[raw != 0].tobytes().decode("ascii")
