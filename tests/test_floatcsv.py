"""The trajectory CSV writer gives the bytes of a per-value repr join for every finite double."""

import decimal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chiralqubit import _floatcsv
from chiralqubit._floatcsv import csv_block

FINITE = st.floats(allow_nan=False, allow_infinity=False)


def per_value(table: np.ndarray) -> str:
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist())


def assert_same_bytes(values, columns: int = 1) -> None:
    values = np.asarray(values, dtype=float).ravel()
    table = values[:len(values) - len(values) % columns].reshape(-1, columns)
    got, want = csv_block(table), per_value(table)
    if got != want:  # name the first value that differs, not a megabyte diff
        wrong = next((a, b) for a, b in zip(got.split("\n"), want.split("\n")) if a != b)
        pytest.fail(f"block writer {wrong[0]!r} != repr {wrong[1]!r}")


def shortest(values):
    """_shortest on positive normal values that are not powers of two: (c, E, undecided)."""
    x = np.asarray(values, dtype=float)
    return _floatcsv._shortest(x, np.frexp(x)[1], _floatcsv._tables()[2])


@settings(max_examples=400, deadline=None)
@given(st.lists(FINITE, min_size=1, max_size=24), st.integers(1, 4))
@example([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308], 1)
@example([1e-05, 9.999999999999999e-05, 0.0001, 1e16, 9999999999999998.0, 1e-300], 3)
def test_any_finite_floats(values, columns):
    # subnormals, +-0, +-1e308 and every exponent: the whole double range
    assert_same_bytes(values, min(columns, len(values)))


def test_seeded_sweep_of_a_million_values():
    rng = np.random.default_rng(2018)
    n = 1_000_000
    mantissa = rng.uniform(1.0, 10.0, n) * rng.choice([-1.0, 1.0], n)
    assert_same_bytes(mantissa * 10.0 ** rng.integers(-20, 21, n), 5)


def _ties(digits: int, rng) -> np.ndarray:
    """Doubles K / 2**(p + digits - 16), K odd and p = 16 - E: y = x * 10**p = K * 5**p *
    2**(16 - digits) is an exact tie when rounded to `digits` digits."""
    out = []
    for p in range(0, 21):
        low = (2 * 10**16) // (5**p << (17 - digits)) + 1
        high = min((2 * 10**17) // (5**p << (17 - digits)), 2**53)
        if low < high:
            odd = rng.integers(low, high, 200) | 1
            out.append(np.ldexp(odd.astype(float), -(p + digits - 16)))
    return np.concatenate(out)


def _families():
    rng = np.random.default_rng(53)
    tens = np.array([float(f"1e{e}") for e in range(-323, 309)])
    small = np.arange(1, 1000, dtype=float)
    big_ints = rng.integers(10**16, 10**17, 2000).astype(float)
    return {
        "powers of two": np.ldexp(1.0, np.arange(-1074, 1024)),
        "k * 10**j": np.concatenate([[float(f"{k}e{j}") for k in range(1, 1000, 7)]
                                     for j in range(-30, 30)]),
        "10**E and neighbours": np.concatenate([tens, np.nextafter(tens, 0.0),
                                                np.nextafter(tens, np.inf)]),
        "2**53 +- k": 2.0**53 + np.arange(-64, 65),
        "window edges": np.concatenate([[x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)]
                                        for x in (1e-4, 1e-5, 1e15, 1e16, 1e17)]),
        "integers over 2**j and 10**j": np.concatenate([small / 2.0**j for j in range(1, 40)]
                                                       + [small / 10.0**j for j in range(1, 30)]),
        "17-digit integers * 10**j": np.concatenate([big_ints * 10.0**j for j in range(-21, -1)]),
        "15-digit ties": _ties(15, rng),
        "16-digit ties": _ties(16, rng),
        "17-digit ties": _ties(17, rng),
    }


@pytest.mark.parametrize("family", list(_families()))
def test_adversarial_family(family):
    values = _families()[family]
    assert_same_bytes(np.concatenate([values, -values]), 3)


def test_ties_and_interval_edges_are_not_certified():
    # 8.0000152587890625 is y = 80000152587890625: both 16-digit neighbours read back and are
    # equally near.  1 + 2**-17 is y = 1.00000762939453125e16, a tie at 17 digits.  1e23 lies
    # halfway between 9.999999999999999e22 and the next double, on the edge of its interval.
    values = [8.0000152587890625, 1.0 + 2.0**-17, 9.999999999999999e22, 0.1]
    _, _, undecided = shortest(values)
    assert undecided.tolist() == [True, True, True, False]
    assert_same_bytes(values + [-v for v in values], 2)


def test_exponent_and_carry_digits():
    # 1e-7 lies below 10**-7: its R15 carries to 10**15, one digit at E + 1
    c, E, undecided = shortest([1e-7, 0.30000000000000004, 123.0, 9.999999999999999e-05])
    assert c.tolist() == [10**16, 30000000000000004, 12300000000000000, 99999999999999990]
    assert E.tolist() == [-7, -1, 2, -5] and not undecided.any()
    table = np.array([[1e-7, -1.5e-300, 1e16, 2.5e100]])
    assert csv_block(table) == "1e-07,-1.5e-300,1e+16,2.5e+100\n"


def test_fallback_inside_a_block(monkeypatch):
    # zeros, subnormals and powers of two always fall back; a clearance of 1 leaves every
    # decision outside the exact window 1e-4 <= x < 1e17 undecided, so 1e-05 falls back too
    written = []
    monkeypatch.setattr(_floatcsv, "repr", lambda x: written.append(x) or repr(x), raising=False)
    monkeypatch.setattr(_floatcsv, "MARGIN", 1.0)
    table = np.array([[0.1, -0.0, 2.5], [1e-05, 0.25, 5e-324], [3.0, 0.0, -7.25e-3]])
    assert csv_block(table) == "0.1,-0.0,2.5\n1e-05,0.25,5e-324\n3.0,0.0,-0.00725\n"
    assert written == [-0.0, 1e-05, 0.25, 5e-324, 0.0]


def _in_cell(E: int, nd: int) -> float:
    """A positive value whose repr has nd significant digits and decimal exponent E, and whose
    digits the writer certifies (not a power of two, not undecided).  The one exception is
    E = 15 with 17 digits: such a value ends in .5, an exact tie at 16 digits, so repr writes
    every one of them."""
    digits = ("31415926535897932" if E < 308 else "12345678912345678")[:nd]
    value = float(f"{digits[0]}.{digits[1:]}e{E}")
    for _ in range(100):
        written = decimal.Decimal(repr(value)).normalize()
        certified = np.frexp(value)[0] != 0.5 and not shortest([value])[2][0]
        if (len(written.as_tuple().digits), written.adjusted()) == (nd, E) and \
                (certified or (E, nd) == (15, 17)):
            return value
        value = float(np.nextafter(value, np.inf))
    raise AssertionError(f"no certified value with {nd} digits at E = {E}")


# every fixed-notation E, then exponent notation with two and with three exponent digits
NOTATION_E = list(range(-4, 16)) + [-5, -42, -99, 16, 42, 99, -100, -307, 100, 308]


def test_every_layout_cell_in_every_column():
    cells = np.array([_in_cell(E, nd) for E in NOTATION_E for nd in range(1, 18)])
    values = np.concatenate([cells, -cells])
    table = np.stack([values, np.roll(values, 1), np.roll(values, 2)], axis=1)
    assert_same_bytes(table, 3)


FALLBACKS = [0.0, -0.0, 5e-324, -2.5e-310, 0.5, -1024.0, 2.0**-1022]


@pytest.mark.parametrize("value", FALLBACKS)
@pytest.mark.parametrize("where", ["first", "middle", "last", "all three"])
def test_fallback_first_middle_and_last_in_a_block(value, where):
    table = np.array([[_in_cell(E, nd) for nd in (3, 16, 17)] for E in (-3, 0, 7, 20, -150)])
    spots = {"first": [(0, 0)], "middle": [(2, 1)], "last": [(4, 2)]}
    for spot in spots.get(where, [(0, 0), (2, 1), (4, 2)]):
        table[spot] = value
    assert_same_bytes(table, 3)


def test_no_writer_tables_at_import():
    # the tables are built on the first call, so importing the CLI costs nothing for them
    code = "import chiralqubit.cli, chiralqubit._floatcsv as f; print(f._tables.cache_info())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=Path(__file__).resolve().parents[1] / "src", check=True)
    assert "currsize=0" in proc.stdout
