"""Byte pins: whole outputs whose sha256 must not move when the arithmetic is rearranged.

The golden files compare floats to 1e-12 and cannot see a last-bit change; these pins can.
Each digest covers the exit code, stdout and the --out file of one run through cli.main.
Below them, the rewritten formulas are held bit for bit against their first forms.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqubit import cli, dynamics
from chiralqubit.cli import main
from chiralqubit.register import MAX_QUBITS

RF12_SCRIPT = "".join(f"RESET {q} {'+1' if q % 3 else '-1'}\n" for q in range(12)) + """\
GATE 7 H
GATE 8 H
RF 7 0.037 9.9
GATE 7 H
GATE 8 H
MEASURE 7
"""

RUNS = {
    # the benchmark's 12-qubit RF chain: biases 0.25 (q + 1), 396 steps of 0.025
    "chain-rf12": ("chain", "seed = 11\nshots = 1\nepsilon = 0.25\ndt = 0.025\n",
                   "32502e9fa597995477ea3ee721b244482f84ebc5f499b36a06774973736ccea7"),
    "rabi-e0-zero": ("rabi", "e0 = 0.0\ndelta = 0.3\nepsilon = 1.0\namp = 0.05\nomega = 2.1\n"
                             "t_max = 10.0\ndt = 0.005\n",
                     "868e3af76b848a6277dcd7a7b8eacc118abbeea51432065e0266dc353aca1af7"),
    "beat-e0-nonzero": ("beat", "e0 = 0.7\ndelta = 0.5\nepsilon = -0.2\nt_max = 20.0\ndt = 0.01\n",
                        "abb79cf775f1e230c73d97fec71fc52de0a770ca30d09759da44bd5f280e6420"),
    "damp-degenerate": ("damp", "e0 = 0.0\ndelta = 0.0\nepsilon = 0.0\ngamma = 0.1\n"
                                "t_max = 20.0\ndt = 0.01\n",
                        "f8891e9328699d422490ced85158e50191bd9d862c05339205ef7ecdfc03286b"),
}


@pytest.mark.parametrize("name", RUNS)
def test_output_bytes_pinned(tmp_path, capsys, name):
    subcommand, config_text, digest = RUNS[name]
    if subcommand == "chain":
        script = tmp_path / "rf12.gates"
        script.write_text(RF12_SCRIPT, encoding="utf-8")
        config_text += f"script_path = {script}\n"
    config = tmp_path / "run.cfg"
    config.write_text(config_text, encoding="utf-8")
    out = tmp_path / "run.out"
    code = main([subcommand, "--config", str(config), "--out", str(out)])
    stdout = capsys.readouterr().out
    assert hashlib.sha256(f"{code}\n{stdout}\n".encode() + out.read_bytes()).hexdigest() == digest


# --- bit-exact references for the two rewritten formulas ----------------------------------

def per_bit_probability_lines(probs, n):
    """The listing as first written: one generator over the bits of each kept index."""
    kept = np.flatnonzero(probs > 1e-12)
    return ["|" + ",".join("+1" if bit == "1" else "-1" for bit in format(index, f"0{n}b"))
            + f"> {cli._fmt(p)}" for index, p in zip(kept.tolist(), probs[kept].tolist())]


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_probability_lines_match_per_bit_labels(n):
    rng = np.random.default_rng(n)
    size = 2**n
    # values just above, at and just below the listing threshold, and well clear of it
    above = [np.nextafter(1e-12, 1.0), 2e-12, 1.0, *(0.5 + 0.5 * rng.random(5))]
    below = [1e-12, np.nextafter(1e-12, 0.0), 5e-324, 0.0]
    for kept in sorted({0, 1, 2, min(190, size), size}):
        probs = rng.choice(below, size=size)
        listed = rng.choice(size, size=kept, replace=False)
        probs[listed] = rng.choice(above, size=kept)
        lines = cli._probability_lines(probs, n)
        assert len(lines) == kept
        assert lines == per_bit_probability_lines(probs, n)


def assembled_propagator(e0, x, z, t):
    """dynamics._propagator as first written: complex entries, then the phase product always."""
    e0, x, z, t = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (e0, x, z, t)))
    omega = np.hypot(x, z)
    safe = np.where(omega == 0.0, 1.0, omega)
    cos, sin = np.cos(omega * t), np.sin(omega * t)
    u = np.empty(omega.shape + (2, 2), dtype=complex)
    u[..., 0, 0] = cos + 1j * sin * (z / safe)
    u[..., 1, 1] = cos - 1j * sin * (z / safe)
    u[..., 0, 1] = u[..., 1, 0] = -1j * sin * (x / safe)
    return np.exp(-1j * e0 * t)[..., None, None] * u


# shapes from a scalar to the (biases, steps) grid of a 12-qubit RF pulse
propagator_shapes = st.one_of(
    st.just(()),
    st.tuples(st.integers(1, 400)),
    st.tuples(st.integers(1, MAX_QUBITS), st.integers(1, 400)),
)


@settings(max_examples=150, deadline=None)
@given(shape=propagator_shapes, e0_zero=st.booleans(), scale=st.floats(1e-3, 3.0),
       t_is_array=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_propagator_matches_the_first_assembly(shape, e0_zero, scale, t_is_array, seed):
    rng = np.random.default_rng(seed)

    def draw():  # signed values with exact zeros, so omega = 0 and zero fields occur
        values = rng.normal(scale=scale, size=shape) * (rng.random(shape) < 0.8)
        return values[()] if shape == () else values

    e0 = 0.0 if e0_zero else draw()
    t = np.abs(draw()) if t_is_array else float(rng.uniform(1e-3, 2.0))
    x, z = draw(), draw()
    got, want = dynamics._propagator(e0, x, z, t), assembled_propagator(e0, x, z, t)
    assert got.shape == want.shape == shape + (2, 2)
    # every nonzero part bit for bit; a zero part may differ only in its sign
    got_parts, want_parts = got.view(float), want.view(float)
    nonzero = want_parts != 0.0
    assert np.array_equal(got_parts[nonzero].view(np.uint64), want_parts[nonzero].view(np.uint64))
    assert not got_parts[~nonzero].any()
