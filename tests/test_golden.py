"""Golden outputs: every configs/*.cfg run through the CLI.

Integer and text fields must match exactly.  Float fields must satisfy
|got - want| <= 1e-12 * max(1, |want|), so a refactor may move the last bits
of a float and nothing else.  The shot lines ("shot k measurements: ...")
are stored as one line with their count and sha256, which keeps the
10,000-shot bell_chain golden small; all other lines are stored verbatim.

The subcommand is the last "_"-separated part of the config name
(bell_chain.cfg runs `chain`).  Regenerate the goldens from the repository
root, only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import math
import os
import re
import sys
from pathlib import Path

import pytest

from chiralqubit.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
REL_TOL = 1e-12
_SEPARATORS = re.compile(r"([,\s=]+)")


def _run(config: Path, out: Path) -> list[str]:
    """Output lines of one config, shot lines folded into a digest line."""
    code = main([config.stem.split("_")[-1], "--config", str(config), "--out", str(out)])
    assert code == 0, f"{config.name} exited {code}"
    lines = out.read_text(encoding="utf-8").splitlines()
    shots = [line for line in lines if line.startswith("shot ")]
    if not shots:
        return lines
    first = lines.index(shots[0])
    digest = hashlib.sha256("\n".join(shots).encode()).hexdigest()
    rest = [line for line in lines if not line.startswith("shot ")]
    return rest[:first] + [f"shot lines: {len(shots)} sha256 {digest}"] + rest[first:]


def _same_token(got: str, want: str) -> bool:
    try:
        int(want)
        return got == want
    except ValueError:
        pass
    try:
        value = float(want)
    except ValueError:
        return got == want
    if not math.isfinite(value):
        return got == want
    try:
        return abs(float(got) - value) <= REL_TOL * max(1.0, abs(value))
    except ValueError:
        return False


def _same_line(got: str, want: str) -> bool:
    got_tokens, want_tokens = _SEPARATORS.split(got), _SEPARATORS.split(want)
    return len(got_tokens) == len(want_tokens) and all(
        _same_token(g, w) for g, w in zip(got_tokens, want_tokens)
    )


@pytest.mark.parametrize("config", CONFIGS, ids=lambda path: path.stem)
def test_config_matches_golden(config, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # script_path entries are relative to the repository root
    got = _run(config, tmp_path / "out")
    want = (GOLDEN / f"{config.stem}.out").read_text(encoding="utf-8").splitlines()
    assert len(got) == len(want), f"{config.name}: {len(got)} lines, golden has {len(want)}"
    for line_no, (g, w) in enumerate(zip(got, want), start=1):
        assert _same_line(g, w), f"{config.name} line {line_no}: {g!r} != golden {w!r}"


def test_token_comparison():
    assert _same_line("t,0.30000000000000004,1", "t,0.3,1")
    assert not _same_line("t,0.3000001,1", "t,0.3,1")
    assert not _same_line("quadrature,2,0.5", "quadrature,1,0.5")
    assert not _same_line("a,b", "a,b,c")


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    tmp_out = GOLDEN / ".regen.tmp"
    for config in CONFIGS:
        lines = _run(config, tmp_out)
        (GOLDEN / f"{config.stem}.out").write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"wrote tests/golden/{config.stem}.out ({len(lines)} lines)", file=sys.stderr)
    tmp_out.unlink()
