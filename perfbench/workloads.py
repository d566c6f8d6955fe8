"""Seeded scenario lists for the benchmark workloads.

A scenario is one CLI invocation: a subcommand, the config (and gate script)
it reads, and the exit code it must end with.  The seed draws the physics
parameters, the measurement seeds and the order of the list.  The number of
scenarios in each cost class is fixed and every class is drawn from a
parameter band whose cost does not depend on where in the band a point lies,
so a pass over the list costs about the same for every seed.

The classes are also sized so that the 90th-percentile latency falls in the
middle of one class of equal-cost scenarios (the "plateau"), never on the
step between two classes.  With H heavier scenarios above a plateau of P,
that takes about N = 10 H + 5 P - 4 scenarios in all.

Known-defect inputs are kept apart in ``KNOWN_DEFECTS``: the measured lists
hold only inputs on which the program behaves as documented, and the
defect inputs run beside them as named probes (see README.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BELL = "RESET 0 +1\nRESET 1 -1\nLINK 0 1 ON\nXCHG 0 1 1.5707963267948966\nLINK 0 1 OFF\nMEASURE 0\nMEASURE 1\n"


@dataclass
class Scenario:
    name: str
    sub: str
    params: dict
    expect_exit: int = 0
    script: str | None = None
    tags: dict = field(default_factory=dict)

    def config_text(self, script_path: str | None = None) -> str:
        lines = [f"{key} = {_token(value)}" for key, value in self.params.items()]
        if script_path is not None:
            lines.append(f"script_path = {script_path}")
        return "\n".join(lines) + "\n"


def _token(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


class _Draw:
    """Thin wrapper over a seeded generator returning plain Python numbers."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def log(self, lo: float, hi: float) -> float:
        return float(math.exp(self.rng.uniform(math.log(lo), math.log(hi))))

    def sign(self) -> int:
        return 1 if self.rng.random() < 0.5 else -1

    def choice(self, items):
        return items[int(self.rng.integers(len(items)))]

    def seed(self) -> int:
        return int(self.rng.integers(2**31))


def _finish(items: list[Scenario], d: _Draw, prefix: str) -> list[Scenario]:
    """Mark the first (cheapest) scenario of each subcommand for the warm-up, shuffle, name."""
    for sub in dict.fromkeys(sc.sub for sc in items):
        next(sc for sc in items if sc.sub == sub).tags["warmup"] = True
    d.rng.shuffle(items)
    for k, sc in enumerate(items):
        sc.name = f"{prefix}{k:03d}-{sc.name}"
    return items


def invariant_scan(seed: int) -> list[Scenario]:
    """`chern` over a (mu, delta, chi) phase diagram.

    With automatic k_max the texture is rescaled to gap = sqrt(mu), so the
    grid that converges depends on |mu| alone: |mu| in [0.3, 12] stops at
    128^2, [25, 55] at 256^2, [90, 220] at 512^2 and [450, 900] at 1024^2.
    """
    d = _Draw(seed)
    out: list[Scenario] = []

    def chern(tag: str, expect: int = 0, **params) -> None:
        out.append(Scenario(tag, "chern", params, expect))

    # plateau: the ten 256^2 points; heavier: the 11 runs at 512^2 and 1024^2
    for _ in range(121):
        mu = d.sign() * d.log(0.3, 12.0)
        chern("auto128", gap=d.log(1e-3, 10.0), mu=mu, chi=d.sign(), method="both")
    for lo, hi, count, tag in ((25.0, 55.0, 10, "auto256"), (90.0, 220.0, 4, "auto512"),
                               (450.0, 900.0, 1, "auto1024")):
        for _ in range(count):
            chern(tag, gap=d.log(1e-3, 10.0), mu=d.uniform(lo, hi), chi=d.sign(), method="both")
    # explicit k_max evaluates the parameters as given; these bands stop at 128^2 and 512^2
    for _ in range(8):
        chern("kmax128", gap=d.uniform(1.0, 1.5), mu=d.sign() * d.uniform(0.8, 1.2),
              chi=d.sign(), k_max=d.uniform(10.0, 12.0), method="both")
    for _ in range(2):
        chern("kmax512", gap=d.uniform(0.1, 0.11), mu=1.0, chi=d.sign(), k_max=10.0, method="both")
    for n_grid in (256, 512, 1024):
        for method in ("quadrature", "plaquette"):
            chern(f"{method}{n_grid}", gap=d.uniform(0.8, 1.25),
                  mu=d.sign() * d.uniform(0.8, 2.0), chi=d.sign(), n_grid=n_grid, method=method)
    for _ in range(2):
        chern("gapless-delta0", 2, gap=0.0, mu=d.log(0.3, 12.0), chi=d.sign())
        chern("gapless-mu0", 2, gap=d.log(1e-3, 10.0), mu=0.0, chi=d.sign())
    return _finish(out, d, "chern")


def _two_level(d: _Draw) -> dict:
    return {"e0": d.uniform(-1.0, 1.0), "delta": d.uniform(0.2, 1.5), "epsilon": d.uniform(-1.0, 1.0)}


def _beat(d: _Draw, samples: int) -> dict:
    dt = d.choice((0.01, 0.02))
    return {**_two_level(d), "t_max": samples * dt, "dt": dt}


def _damp(d: _Draw, samples: int, overdamped: bool) -> dict:
    dt = 0.01
    gamma = d.uniform(2.0, 8.0) if overdamped else d.uniform(0.02, 0.2)
    return {"e0": 0.0, "delta": d.uniform(0.2, 1.0), "epsilon": d.uniform(-0.5, 0.5),
            "gamma": gamma, "t_max": samples * dt, "dt": dt}


def _rabi(d: _Draw, samples: int, resonant: bool) -> dict:
    dt = 0.01
    delta, epsilon = d.uniform(0.0, 0.3), d.uniform(0.5, 1.5)
    omega = 2.0 * math.hypot(delta, epsilon) * (1.0 if resonant else d.uniform(1.2, 1.5))
    return {"e0": 0.0, "delta": delta, "epsilon": epsilon, "amp": d.uniform(0.02, 0.2),
            "omega": omega, "t_max": samples * dt, "dt": dt}


def _ghz(n: int) -> str:
    lines = ["GATE 0 H"]
    for q in range(n - 1):
        lines += [f"LINK {q} {q + 1} ON", f"CNOT {q} {q + 1}"]
    lines += [f"MEASURE {q}" for q in range(n)]
    return "\n".join(lines) + "\n"


def _exchange_chain(d: _Draw, n: int) -> str:
    lines = [f"RESET {q} {'+1' if q % 2 else '-1'}" for q in range(n)]
    for q in range(0, n - 1, 2):
        lines += [f"LINK {q} {q + 1} ON", f"XCHG {q} {q + 1} {d.uniform(0.0, math.pi)!r}",
                  f"LINK {q} {q + 1} OFF"]
    lines += [f"GATE {q} {d.choice(('X', 'Y', 'Z', 'H', 'I'))}" for q in range(n)]
    lines += [f"MEASURE {q}" for q in range(0, n, 3)]
    return "\n".join(lines) + "\n"


def _midcircuit(d: _Draw, n: int) -> str:
    """Measure and reset between entangling steps, so shots take different paths."""
    lines = ["GATE 0 H", "MEASURE 0", "LINK 0 1 ON", "CNOT 0 1", "LINK 0 1 OFF", "MEASURE 1",
             "RESET 0 -1", "GATE 0 H"]
    for q in range(1, n - 1):
        lines += [f"LINK {q} {q + 1} ON", f"XCHG {q} {q + 1} {d.uniform(0.2, math.pi - 0.2)!r}",
                  f"LINK {q} {q + 1} OFF"]
    lines += ["MEASURE 0", f"MEASURE {n - 1}"]
    return "\n".join(lines) + "\n"


def _rf_chain(d: _Draw, n: int) -> str:
    """RF pulse on a target; H before and after on it and a spectator makes the frame phase visible."""
    target = int(d.rng.integers(n))
    spectator = (target + 1) % n
    lines = [f"RESET {q} {'+1' if d.rng.random() < 0.5 else '-1'}" for q in range(n)]
    lines += [f"GATE {target} H", f"GATE {spectator} H",
              f"RF {target} {d.uniform(0.02, 0.05)!r} {d.uniform(9.6, 10.4)!r}",
              f"GATE {target} H", f"GATE {spectator} H", f"MEASURE {target}"]
    return "\n".join(lines) + "\n"


def evolve(seed: int) -> list[Scenario]:
    """The write side: trajectories, short chain runs with RF pulses, sizing."""
    d = _Draw(seed)
    out: list[Scenario] = []
    for _ in range(26):
        out.append(Scenario("beat1e3", "beat", _beat(d, 1000)))
    for k in range(18):
        out.append(Scenario("damp1e3", "damp", _damp(d, 1000, overdamped=k % 2 == 1)))
    for k in range(19):
        out.append(Scenario("rabi1e3", "rabi", _rabi(d, 1000, resonant=k % 2 == 0)))
    for k in range(4):
        params = _beat(d, 1000)
        beat = Scenario(f"pair{k}-beat", "beat", params)
        rabi = Scenario(f"pair{k}-rabi-amp0", "rabi",
                        {**params, "amp": 0.0, "omega": d.uniform(0.5, 3.0)})
        rabi.tags["same_bytes_as"] = beat
        out += [beat, rabi]
    # heavier than the plateau: the 1e4- and 1e5-sample trajectories
    for k in range(2):
        out.append(Scenario("beat1e4", "beat", _beat(d, 10_000)))
        out.append(Scenario("damp1e4", "damp", _damp(d, 10_000, overdamped=k == 1)))
        out.append(Scenario("rabi1e4", "rabi", _rabi(d, 10_000, resonant=k == 0)))
    out.append(Scenario("damp1e5", "damp", _damp(d, 100_000, overdamped=False)))

    def chain(kind: str, n: int, shots: int, script: str, **extra) -> None:
        params = {"seed": d.seed(), "shots": shots, **extra}
        out.append(Scenario(f"chain-{kind}{n}", "chain", params, script=script,
                            tags={"kind": kind}))

    for n in (8, 9, 10, 11, 12, 12, 12, 12):
        chain("ghz", n, 1, _ghz(n))
    for k, n in enumerate((8, 9, 10, 11, 12, 12, 10, 8)):
        if k % 2:
            chain("midcircuit", n, 2, _midcircuit(d, n))
        else:
            chain("exchange", n, 1, _exchange_chain(d, n))
    # plateau: 12-qubit RF pulses.  Bias eps_q = 0.25 (q + 1): dt * (eps_max + amp)
    # stays below the 0.1 step bound.
    for _ in range(10):
        chain("rf", 12, 1, _rf_chain(d, 12), epsilon=0.25, dt=0.025)

    for _ in range(10):
        out.append(Scenario("device", "device", {
            "h_gauss": d.log(0.1, 10.0), "gap_ev": d.uniform(2e-4, 1e-3),
            "mass_ratio": d.uniform(1.0, 10.0), "cell_volume_a3": d.uniform(50.0, 200.0),
            "lambda_l_a": d.uniform(1000.0, 5000.0), "film_thickness_a": d.uniform(50.0, 500.0),
        }))

    out += [
        Scenario("damp-step-too-large", "damp", {**_damp(d, 1000, False), "dt": 0.5}, 4),
        Scenario("rabi-step-too-large", "rabi", {**_rabi(d, 1000, True), "dt": 0.2}, 4),
        Scenario("chain-link-absent", "chain", {"seed": d.seed()}, 6,
                 script="RESET 0 +1\nCNOT 0 1\nMEASURE 1\n"),
        Scenario("chain-rf-link-on", "chain", {"seed": d.seed()}, 6,
                 script="LINK 0 1 ON\nRF 0 0.1 1.0\n"),
        Scenario("chain-unknown-gate", "chain", {"seed": d.seed()}, 5,
                 script="GATE 0 T\nMEASURE 0\n"),
        Scenario("chain-bad-arity", "chain", {"seed": d.seed()}, 5,
                 script="RESET 0\nMEASURE 0\n"),
    ]
    return _finish(out, d, "evolve")


def sample(seed: int) -> list[Scenario]:
    """The read side: many-shot readout of scripts with a measurement tail."""
    d = _Draw(seed)
    out: list[Scenario] = []

    def chain(tag: str, script: str, shots: int, kind: str, expect: int = 0) -> None:
        out.append(Scenario(tag, "chain", {"seed": d.seed(), "shots": shots}, expect,
                            script=script, tags={"kind": kind}))

    for k in range(82):
        kind = ("bell", "swap", "exchange", "hadamard")[k % 4]
        if kind == "bell":
            script = BELL
        elif kind == "swap":
            a, b = d.choice(("+1", "-1")), d.choice(("+1", "-1"))
            script = f"RESET 0 {a}\nRESET 1 {b}\nLINK 0 1 ON\nXCHG 0 1 {math.pi!r}\nMEASURE 0\nMEASURE 1\n"
        elif kind == "exchange":
            script = (f"RESET 0 +1\nLINK 0 1 ON\nXCHG 0 1 {d.uniform(0.1, math.pi - 0.1)!r}\n"
                      "LINK 0 1 OFF\nMEASURE 0\nMEASURE 1\n")
        else:
            script = f"GATE 0 H\nGATE 1 {d.choice(('H', 'X', 'Y'))}\nMEASURE 0\nMEASURE 1\n"
        chain(f"{kind}2", script, 100, kind)
    # plateau: four-qubit mid-circuit measurement; heavier: bell with 5000 shots and GHZ
    for _ in range(10):
        chain("midcircuit4", _midcircuit(d, 4), 100, "midcircuit")
    chain("bell5000", BELL, 5000, "bell")
    for n in (5, 6, 8, 12):
        chain(f"ghz{n}", _ghz(n), 100, "ghz")
    chain("link-absent", "RESET 0 +1\nCNOT 0 1\nMEASURE 1\n", 100, "error", 6)
    chain("unknown-op", "MEASURE 0\nREAD 1\n", 100, "error", 5)
    chain("bad-chirality", "RESET 0 0\nMEASURE 0\n", 100, "error", 5)
    return _finish(out, d, "sample")


GENERATORS = {"invariant-scan": invariant_scan, "evolve": evolve, "sample": sample}


@dataclass
class Defect:
    """An input that should end in a documented exit code but does not.

    ``expect_exit`` is the documented code the input should give; None means
    any documented failure code (1-6) without a traceback is right.
    """

    scenario: Scenario
    problem: str
    expect_exit: int | None = None


KNOWN_DEFECTS = {
    "invariant-scan": [
        Defect(Scenario("chern-both-n_grid-2048", "chern",
                        {"gap": 1.0, "mu": 1.0, "chi": 1, "method": "both", "n_grid": 2048}),
               "start grid above the 1024 cap reaches `raise None`: TypeError traceback"),
        Defect(Scenario("chern-method-disagreement", "chern",
                        {"gap": 0.001, "mu": 100.0, "chi": 1, "k_max": 80.0}),
               "uncaught MethodDisagreement traceback"),
        Defect(Scenario("chern-quadrature-silent-zero", "chern",
                        {"gap": 0.001, "mu": 100.0, "chi": 1, "k_max": 80.0,
                         "method": "quadrature", "n_grid": 128}),
               "reports N = 0 for chi = +1, mu > 0 (residual 3e-7) instead of N = 1 or exit 3"),
    ],
    "evolve": [
        Defect(Scenario("beat-dt-1e-300", "beat", {"t_max": 1e9, "dt": 1e-300}),
               "t_max / dt overflows to inf: OverflowError traceback", 1),
        Defect(Scenario("damp-dt-1e-300", "damp", {"t_max": 1e9, "dt": 1e-300}),
               "t_max / dt overflows to inf: OverflowError traceback", 1),
        Defect(Scenario("chain-xchg-same-qubit", "chain", {"seed": 1},
                        script="LINK 0 1 ON\nXCHG 0 0 1.0\n"),
               "exits 6 (link off) instead of 5 (script error)", 5),
    ],
    "sample": [
        Defect(Scenario("chain-cnot-same-qubit", "chain", {"seed": 1, "shots": 100},
                        script="LINK 0 1 ON\nCNOT 0 0\nMEASURE 0\n"),
               "exits 6 (link off) instead of 5 (script error)", 5),
    ],
}

# Inputs left out on purpose: they allocate ~1e12 (or ~1e301) output rows and
# would exhaust the machine's memory before any exit code could be checked.
KNOWN_UNMEASURED = [
    "beat/damp/rabi with t_max = 1e9, dt = 1e-3: tries to build 1e12 rows",
    "beat/damp/rabi with dt = 1e-300 and the default t_max = 20: tries to build 2e301 rows",
]
