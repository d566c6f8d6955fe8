"""Line-oriented gate-sequence scripts for qubit chains.

One instruction per line, `#` starts a comment:

    RESET q v          reset qubit q to chirality v (+1 or -1)
    GATE q name        named single-qubit gate (I, X, Y, Z, H)
    LINK i j ON|OFF    switch the weak link between adjacent qubits
    XCHG i j theta     exchange pulse of area theta across the (i, j) link
    CNOT c t           composed CNOT, control c active on |+1>
    RF q amp duration  RF pulse addressed to qubit q (needs all links off)
    MEASURE q          Born measurement of qubit q

The register size is inferred from the highest qubit index used (at least
one qubit).  Execution starts from the all-|-1> product state with every
link absent; the RF bias profile is a linear gradient eps_q =
field_step * (q + 1) along the chain.

Many-shot runs draw every Born draw up front, one row of a (shots,
MEASUREs) matrix per shot, and walk the outcome tree depth first: each
distinct outcome history is simulated once for all the shots that share it.
The cost of a run scales with its distinct histories, not with its shots; at
most min(shots, MEASUREs + 1) states wait on the walk's stack; and the
outcomes are byte-identical to replaying the whole script for every shot.
A run keeps each distinct history once, and one 8-byte history index per shot.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dynamics, register
from .register import CouplingLink, FieldProfile, RegisterState

MAX_SHOTS = 10**6  # shots one run may take; each keeps an 8-byte history index in the run


class ScriptError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class Instruction:
    line_no: int
    op: str
    args: tuple
    text: str


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScriptError(line_no, f"{what} must be an integer, got {token!r}") from None


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ScriptError(line_no, f"{what} must be a number, got {token!r}") from None
    if not np.isfinite(value):
        raise ScriptError(line_no, f"{what} must be finite, got {token!r}")
    return value


def _parse_chirality(token: str, line_no: int, what: str) -> int:
    if token in ("+1", "1"):
        return +1
    if token == "-1":
        return -1
    raise ScriptError(line_no, f"{what} must be +1 or -1, got {token!r}")


def _parse_gate(token: str, line_no: int, what: str) -> str:
    if token.upper() not in register.NAMED_GATES:
        known = ", ".join(sorted(register.NAMED_GATES))
        raise ScriptError(line_no, f"unknown {what} {token!r} (known: {known})")
    return token.upper()


def _parse_switch(token: str, line_no: int, what: str) -> bool:
    if token.upper() not in ("ON", "OFF"):
        raise ScriptError(line_no, f"{what} must be ON or OFF, got {token!r}")
    return token.upper() == "ON"


_QUBIT = (_parse_int, "qubit")
# op -> (argument names for the arity message, (parser, what) per argument)
_SYNTAX = {
    "RESET": ("q value", (_QUBIT, (_parse_chirality, "chirality value"))),
    "GATE": ("q name", (_QUBIT, (_parse_gate, "gate"))),
    "LINK": ("i j ON|OFF", (_QUBIT, _QUBIT, (_parse_switch, "link state"))),
    "XCHG": ("i j theta", (_QUBIT, _QUBIT, (_parse_float, "theta"))),
    "CNOT": ("control target", ((_parse_int, "control"), (_parse_int, "target"))),
    "RF": ("q amp duration", (_QUBIT, (_parse_float, "amp"), (_parse_float, "duration"))),
    "MEASURE": ("q", (_QUBIT,)),
}
OPS = tuple(_SYNTAX)
_NAME_CHECKS = (_parse_gate, _parse_switch)  # run before the index checks of their line
_ORDER = {op: sorted(range(len(parsers)), key=lambda i: parsers[i][0] not in _NAME_CHECKS)
          for op, (_, parsers) in _SYNTAX.items()}  # op -> its arguments in parse order


def parse_script(text: str) -> list[Instruction]:
    """Parse script text into instructions; raises ScriptError with line number."""
    instructions = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        op = tokens[0].upper()
        if op not in _SYNTAX:
            raise ScriptError(line_no, f"unknown instruction {tokens[0]!r}")
        names, parsers = _SYNTAX[op]
        if len(tokens) - 1 != len(parsers):
            raise ScriptError(line_no, f"{op} takes: {names}")
        args = [None] * len(parsers)
        for i in _ORDER[op]:
            parse, what = parsers[i]
            args[i] = parse(tokens[i + 1], line_no, what)
        instructions.append(Instruction(line_no, op, tuple(args), line))
    return instructions


def _qubit_indices(instr: Instruction) -> tuple[int, ...]:
    parsers = _SYNTAX[instr.op][1]  # every integer argument is a qubit index
    return tuple(q for q, (parse, _) in zip(instr.args, parsers) if parse is _parse_int)


def infer_register_size(instructions: list[Instruction]) -> int:
    """Smallest register covering every referenced qubit (at least 1)."""
    top = 0
    for instr in instructions:
        for q in _qubit_indices(instr):
            if q < 0:
                raise ScriptError(instr.line_no, f"negative qubit index {q}")
            top = max(top, q)
    n = top + 1
    if n > register.MAX_QUBITS:
        raise ScriptError(
            instructions[0].line_no if instructions else 0,
            f"script needs {n} qubits, register cap is {register.MAX_QUBITS}",
        )
    return n


@dataclass
class ScriptRun:
    histories: list[tuple[tuple[int, int], ...]]  # distinct (qubit, outcome) histories, sorted
    shot_history: np.ndarray  # per shot: the index of its history
    final_state: RegisterState

    def outcome_frequencies(self) -> dict[tuple[tuple[int, int], ...], float]:
        counts = np.bincount(self.shot_history)
        return dict(zip(self.histories, (counts / len(self.shot_history)).tolist()))


def run_script(
    instructions: list[Instruction],
    seed,
    shots: int = 1,
    field_step: float = 1.0,
    rf_dt: float = 0.01,
) -> ScriptRun:
    """Execute a parsed script; identical seeds give identical outcomes.

    Shot s reads row s of one (shots, MEASUREs) matrix of generator draws:
    the same doubles as drawing shot after shot.  Every instruction but
    MEASURE is a deterministic function of the state and the (classical)
    link settings, so a shot is fixed by its outcome history.  The outcome
    tree is walked depth first: each node runs to its next MEASURE once for
    all the shots sharing its history, and only branches some shot takes are
    walked, -1 before +1.  Every history passes the same MEASUREs, so the
    leaves give the distinct histories in sorted order.  Outcomes and the final
    state (the last shot's) are bit-identical to replaying the script per shot.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be in [1, {MAX_SHOTS}], got {shots}")
    n = infer_register_size(instructions)
    measures = sum(instr.op == "MEASURE" for instr in instructions)
    draws = np.random.default_rng(seed).random((shots, measures))
    profile = FieldProfile(tuple(field_step * (q + 1) for q in range(n)))

    histories: list = []
    shot_history = np.empty(shots, dtype=np.int64)
    # (state, links, next instruction, outcome history, shots sharing it)
    pending = [(RegisterState.all_minus(n), {}, 0, (), np.arange(shots))]
    while pending:
        state, links, at, history, shared = pending.pop()
        state, links, at = _advance(instructions, at, state, links, profile, rf_dt)
        if at == len(instructions):
            shot_history[shared] = len(histories)
            histories.append(history)
            if shared[-1] == shots - 1:
                final_state = state
            continue
        q = instructions[at].args[0]
        plus = draws[shared, len(history)] < state.probability_plus(q)
        for value, taken in ((+1, plus), (-1, ~plus)):  # -1 is pushed last, popped first
            if taken.any():
                child = register._project(state, q, value)
                pending.append((child, links, at + 1, history + ((q, value),), shared[taken]))
    return ScriptRun(histories, shot_history, final_state)


def _advance(instructions, at, state, links, profile, rf_dt):
    """Run instructions from index `at` up to the next MEASURE or the end."""
    while at < len(instructions) and instructions[at].op != "MEASURE":
        instr = instructions[at]
        try:
            state, links = _execute(instr, state, links, profile, rf_dt)
        except (ScriptError, register.LinkOff, dynamics.StepTooLarge):
            raise
        except (register.IndexOutOfRange, ValueError) as exc:
            raise ScriptError(instr.line_no, str(exc)) from exc
        at += 1
    return state, links, at


def _link(links, i: int, j: int) -> CouplingLink:
    """The link last switched between i and j, else an off one; CouplingLink checks the pair."""
    return links.get((min(i, j), max(i, j))) or CouplingLink(i, j, on=False)


def _execute(instr, state, links, profile, rf_dt):
    op, args = instr.op, instr.args
    if op == "RESET":
        state = register.initialize_reset(state, args[0], args[1])
    elif op == "GATE":
        state = register.apply_single_gate(state, args[0], register.NAMED_GATES[args[1]])
    elif op == "LINK":
        i, j, on = args
        links = {**links, (min(i, j), max(i, j)): CouplingLink(i, j, on=on)}
    elif op == "XCHG":
        i, j, theta = args
        state = register.exchange_pulse(state, _link(links, i, j), theta)
    elif op == "CNOT":
        c, t = args
        state = register.cnot_composed(state, c, t, _link(links, c, t))
    elif op == "RF":
        q, amp, duration = args
        if any(link.on for link in links.values()):
            raise register.LinkOff("RF addressing requires all links off")
        state = register.selective_rf_pulse(state, profile, q, amp, duration, rf_dt)
    return state, links
