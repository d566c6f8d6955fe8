import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiralqubit import gatescript, register
from chiralqubit.dynamics import StepTooLarge
from chiralqubit.gatescript import (
    ScriptError,
    infer_register_size,
    parse_script,
    run_script,
)
from chiralqubit.register import CouplingLink, FieldProfile, LinkOff, RegisterState

SWAP_SCRIPT = """\
RESET 0 +1
RESET 1 -1
LINK 0 1 ON
XCHG 0 1 3.141592653589793
MEASURE 0
MEASURE 1
"""

BELL_SCRIPT = """\
# entangle, then read both qubits
RESET 0 +1
RESET 1 -1
LINK 0 1 ON
XCHG 0 1 1.5707963267948966
LINK 0 1 OFF
MEASURE 0
MEASURE 1
"""


class TestParsing:
    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nRESET 0 +1  # trailing note\n"
        instrs = parse_script(text)
        assert len(instrs) == 1
        assert instrs[0].op == "RESET"
        assert instrs[0].args == (0, +1)

    def test_unknown_instruction(self):
        with pytest.raises(ScriptError) as excinfo:
            parse_script("RESET 0 +1\nFROB 1\n")
        assert excinfo.value.line_no == 2

    def test_bad_arity(self):
        with pytest.raises(ScriptError):
            parse_script("RESET 0\n")

    def test_bad_number(self):
        with pytest.raises(ScriptError):
            parse_script("XCHG 0 1 twopi\n")

    def test_bad_chirality(self):
        with pytest.raises(ScriptError):
            parse_script("RESET 0 2\n")

    def test_unknown_gate(self):
        with pytest.raises(ScriptError):
            parse_script("GATE 0 FOO\n")

    def test_register_size_inference(self):
        instrs = parse_script("GATE 5 X\nMEASURE 2\n")
        assert infer_register_size(instrs) == 6
        assert infer_register_size([]) == 1

    def test_register_cap(self):
        with pytest.raises(ScriptError):
            infer_register_size(parse_script("GATE 12 X\n"))


ARITY = [
    ("RESET", 2, "q value"),
    ("GATE", 2, "q name"),
    ("LINK", 3, "i j ON|OFF"),
    ("XCHG", 3, "i j theta"),
    ("CNOT", 2, "control target"),
    ("RF", 3, "q amp duration"),
    ("MEASURE", 1, "q"),
]


class TestParseMessages:
    @pytest.mark.parametrize("op, nargs, usage", ARITY)
    def test_arity_message(self, op, nargs, usage):
        assert gatescript.OPS == tuple(op for op, _, _ in ARITY)
        for wrong in (nargs - 1, nargs + 1):
            text = "# header\n" + " ".join([op.lower()] + ["0"] * wrong) + "\n"
            with pytest.raises(ScriptError) as excinfo:
                parse_script(text)
            assert str(excinfo.value) == f"line 2: {op} takes: {usage}"
            assert excinfo.value.line_no == 2

    @pytest.mark.parametrize(
        "line, message",
        [
            ("FROB 1", "unknown instruction 'FROB'"),
            ("RESET x 2", "qubit must be an integer, got 'x'"),
            ("RESET 0 2", "chirality value must be +1 or -1, got '2'"),
            # the gate name and the link state are checked before the qubit indices
            ("GATE x foo", "unknown gate 'foo' (known: H, I, X, Y, Z)"),
            ("GATE x h", "qubit must be an integer, got 'x'"),
            ("LINK a b maybe", "link state must be ON or OFF, got 'maybe'"),
            ("LINK 0 b on", "qubit must be an integer, got 'b'"),
            ("XCHG 0 1 inf", "theta must be finite, got 'inf'"),
            ("XCHG 0 y twopi", "qubit must be an integer, got 'y'"),
            ("CNOT a b", "control must be an integer, got 'a'"),
            ("CNOT 0 b", "target must be an integer, got 'b'"),
            ("RF 0 fast 1", "amp must be a number, got 'fast'"),
            ("RF 0 0.1 nan", "duration must be finite, got 'nan'"),
            ("MEASURE 1.5", "qubit must be an integer, got '1.5'"),
        ],
    )
    def test_argument_messages(self, line, message):
        with pytest.raises(ScriptError) as excinfo:
            parse_script("MEASURE 0\n" + line + "\n")
        assert str(excinfo.value) == f"line 2: {message}"

    def test_arguments_parsed(self):
        text = "reset 0 -1\ngate 1 h\nlink 0 1 On\nxchg 1 0 0.5\ncnot 0 1\nrf 2 0.1 3\nmeasure 2\n"
        assert [(i.op, i.args) for i in parse_script(text)] == [
            ("RESET", (0, -1)),
            ("GATE", (1, "H")),
            ("LINK", (0, 1, True)),
            ("XCHG", (1, 0, 0.5)),
            ("CNOT", (0, 1)),
            ("RF", (2, 0.1, 3.0)),
            ("MEASURE", (2,)),
        ]


def shot_outcomes(run):
    """Per shot, its (qubit, outcome) list: the run's histories fanned out by its shot index."""
    return [list(run.histories[i]) for i in run.shot_history]


class TestExecution:
    def test_swap_script_outcomes(self):
        run = run_script(parse_script(SWAP_SCRIPT), seed=9)
        assert shot_outcomes(run) == [[(0, -1), (1, +1)]]

    def test_empty_script_reports_all_minus(self):
        run = run_script([], seed=0)
        assert run.final_state.n == 1
        assert run.final_state.probabilities()[0] == 1.0
        assert shot_outcomes(run) == [[]]

    def test_shots_above_cap_rejected_before_any_shot(self, monkeypatch):
        def no_measure(*args):
            raise AssertionError("a shot ran")

        monkeypatch.setattr(register, "measure", no_measure)
        with pytest.raises(ValueError, match=f"\\[1, {gatescript.MAX_SHOTS}\\]"):
            run_script(parse_script(BELL_SCRIPT), seed=0, shots=gatescript.MAX_SHOTS + 1)

    def test_bell_statistics(self):
        run = run_script(parse_script(BELL_SCRIPT), seed=2718, shots=10_000)
        freqs = run.outcome_frequencies()
        assert set(freqs) == {((0, -1), (1, +1)), ((0, +1), (1, -1))}
        for value in freqs.values():
            assert abs(value - 0.5) < 0.02

    def test_link_off_blocks_exchange(self):
        with pytest.raises(LinkOff):
            run_script(parse_script("XCHG 0 1 1.0\n"), seed=0)

    def test_link_off_blocks_cnot(self):
        text = "LINK 0 1 ON\nLINK 0 1 OFF\nCNOT 0 1\n"
        with pytest.raises(LinkOff):
            run_script(parse_script(text), seed=0)

    def test_rf_requires_links_off(self):
        text = "LINK 0 1 ON\nRF 0 0.05 1.0\n"
        with pytest.raises(LinkOff):
            run_script(parse_script(text), seed=0)

    def test_rf_pulse_flips_target(self):
        amp = 0.05
        duration = math.pi / amp
        text = f"RF 0 {amp} {duration}\nMEASURE 0\nMEASURE 1\n"
        run = run_script(parse_script(text), seed=3, field_step=1.0, rf_dt=0.005)
        assert shot_outcomes(run) == [[(0, +1), (1, -1)]]

    def test_cnot_sequence(self):
        text = "RESET 0 +1\nLINK 0 1 ON\nCNOT 0 1\nMEASURE 0\nMEASURE 1\n"
        run = run_script(parse_script(text), seed=0)
        assert shot_outcomes(run) == [[(0, +1), (1, +1)]]

    def test_nonadjacent_link_rejected(self):
        for text in ("LINK 0 2 ON\n", "LINK 0 1 ON\nXCHG 0 0 1.0\n", "LINK 0 1 ON\nCNOT 0 0\n"):
            with pytest.raises(ScriptError) as excinfo:
                run_script(parse_script(text), seed=0)
            assert excinfo.value.line_no == text.count("\n")

    def test_semantic_error_carries_line(self):
        # negative pulse area surfaces as a script error on the XCHG line
        text = "LINK 0 1 ON\nXCHG 0 1 -1.0\n"
        with pytest.raises(ScriptError) as excinfo:
            run_script(parse_script(text), seed=0)
        assert excinfo.value.line_no == 2

    def test_step_too_large_propagates(self):
        with pytest.raises(StepTooLarge):
            run_script(parse_script("RF 0 0.05 1.0\n"), seed=0, rf_dt=0.2)

    def test_seed_determinism(self):
        script = parse_script(BELL_SCRIPT)
        a = run_script(script, seed=99, shots=64)
        b = run_script(script, seed=99, shots=64)
        assert shot_outcomes(a) == shot_outcomes(b)
        assert np.array_equal(a.final_state.amps, b.final_state.amps)

    def test_gate_instruction(self):
        run = run_script(parse_script("GATE 0 X\nMEASURE 0\n"), seed=0)
        assert shot_outcomes(run) == [[(0, +1)]]


def _ghz(n: int) -> str:
    lines = ["GATE 0 H"]
    for q in range(n - 1):
        lines += [f"LINK {q} {q + 1} ON", f"CNOT {q} {q + 1}"]
    return "\n".join(lines + [f"MEASURE {q}" for q in range(n)]) + "\n"


MIDCIRCUIT_SCRIPT = """\
GATE 0 H
GATE 2 H
LINK 2 3 ON
MEASURE 0
LINK 0 1 ON
CNOT 0 1
LINK 0 1 OFF
MEASURE 1
RESET 0 -1
GATE 0 H
LINK 1 2 ON
XCHG 1 2 0.7
LINK 1 2 OFF
CNOT 2 3
MEASURE 2
RESET 2 +1
GATE 3 H
MEASURE 0
MEASURE 3
"""

RF_SCRIPT = """\
GATE 0 H
MEASURE 0
RF 1 0.2 3.9269908169872414
MEASURE 1
GATE 0 H
MEASURE 0
"""

ALL_H_12 = "".join(f"GATE {q} H\n" for q in range(12)) + "".join(f"MEASURE {q}\n" for q in range(12))

# name -> (script, shots, seeds); the RF and 12-qubit scripts replay slowly, so they run fewer shots
SHOT_CASES = {
    "bell": (BELL_SCRIPT, 2000, (1, 2, 3)),
    "ghz5": (_ghz(5), 200, (1, 2, 3)),
    "ghz8": (_ghz(8), 100, (1, 2, 3)),
    "midcircuit": (MIDCIRCUIT_SCRIPT, 200, (1, 2, 3)),
    "rf": (RF_SCRIPT, 8, (1, 2)),
    "all_h_12": (ALL_H_12, 20, (1, 2)),
}


def replay_every_shot(instructions, seed, shots, field_step=1.0, rf_dt=0.01):
    """Reference: rerun the whole script from |-1...-1> for every shot."""
    n = infer_register_size(instructions)
    rng = np.random.default_rng(seed)
    profile = FieldProfile(tuple(field_step * (q + 1) for q in range(n)))
    per_shot = []
    for _ in range(shots):
        state = RegisterState.all_minus(n)
        links = {}
        outcomes = []
        for instr in instructions:
            op, args = instr.op, instr.args
            if op == "RESET":
                state = register.initialize_reset(state, *args)
            elif op == "GATE":
                state = register.apply_single_gate(state, args[0], register.NAMED_GATES[args[1]])
            elif op == "LINK":
                i, j = sorted(args[:2])
                links[(i, j)] = CouplingLink(i, j, on=args[2])
            elif op == "XCHG":
                state = register.exchange_pulse(state, links[tuple(sorted(args[:2]))], args[2])
            elif op == "CNOT":
                c, t = args
                state = register.cnot_composed(state, c, t, links[tuple(sorted(args))])
            elif op == "RF":
                state = register.selective_rf_pulse(state, profile, *args, rf_dt)
            elif op == "MEASURE":
                outcome, state = register.measure(state, args[0], rng)
                outcomes.append((args[0], outcome))
        per_shot.append(outcomes)
    return per_shot, state


class TestShotCache:
    @staticmethod
    def check_against_replay(name, seeds=None):
        script, shots, case_seeds = SHOT_CASES[name]
        instructions = parse_script(script)
        for seed in seeds or case_seeds:
            outcomes, final = replay_every_shot(instructions, seed, shots)
            run = run_script(instructions, seed=seed, shots=shots)
            assert shot_outcomes(run) == outcomes
            assert np.array_equal(run.final_state.amps, final.amps)

    @pytest.mark.parametrize("name", SHOT_CASES)
    def test_matches_per_shot_replay(self, name):
        self.check_against_replay(name)

    @pytest.mark.parametrize("name", SHOT_CASES)
    def test_histories_sorted_and_each_used(self, name):
        script, shots, seeds = SHOT_CASES[name]
        run = run_script(parse_script(script), seed=seeds[0], shots=shots)
        assert run.shot_history.shape == (shots,)
        assert np.issubdtype(run.shot_history.dtype, np.integer)
        assert all(a < b for a, b in zip(run.histories, run.histories[1:]))
        counts = np.bincount(run.shot_history)
        assert len(counts) == len(run.histories) and (counts > 0).all()

    def test_run_holds_at_most_16_bytes_per_shot(self):
        instructions = parse_script(BELL_SCRIPT)
        tracemalloc.start()
        try:
            run = run_script(instructions, seed=1, shots=gatescript.MAX_SHOTS)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(run.histories) == 2 and len(run.shot_history) == gatescript.MAX_SHOTS
        assert held <= 16 * gatescript.MAX_SHOTS

    @staticmethod
    def count_advances(monkeypatch):
        calls = []
        advance = gatescript._advance

        def counted(*args):
            calls.append(args[1])
            return advance(*args)

        monkeypatch.setattr(gatescript, "_advance", counted)
        return calls

    def test_shots_share_one_simulation(self, monkeypatch):
        calls = self.count_advances(monkeypatch)
        run_script(parse_script(BELL_SCRIPT), seed=1, shots=5000)
        assert len(calls) == 5  # root, two one-outcome and two two-outcome histories

        calls.clear()
        run = run_script(parse_script(ALL_H_12), seed=5, shots=100)
        prefixes = {tuple(shot[:k]) for shot in shot_outcomes(run) for k in range(13)}
        assert len(calls) == len(prefixes)

    @pytest.mark.parametrize(
        "script",
        [
            "GATE 0 H\nMEASURE 0\nRF 0 0.05 1.0\n",
            "GATE 0 H\nGATE 1 H\nMEASURE 0\nGATE 1 X\nMEASURE 1\nRF 1 0.05 1.0\n",
        ],
    )
    def test_error_after_measure_matches_replay(self, script):
        instructions = parse_script(script)
        with pytest.raises(Exception) as expected:
            replay_every_shot(instructions, 3, 16, rf_dt=0.2)
        with pytest.raises(Exception) as got:
            run_script(instructions, seed=3, shots=16, rf_dt=0.2)
        assert type(got.value) is type(expected.value) is StepTooLarge
        assert str(got.value) == str(expected.value)

    def test_no_measure_gives_empty_outcomes(self):
        run = run_script(parse_script("GATE 0 H\nLINK 0 1 ON\nCNOT 0 1\n"), seed=0, shots=7)
        assert shot_outcomes(run) == [[]] * 7
        assert np.allclose(run.final_state.probabilities(), [0.5, 0, 0, 0.5])


@st.composite
def small_scripts(draw):
    """Scripts on at most 4 qubits; every XCHG/CNOT follows a LINK ON of its pair, RF all LINK OFFs."""
    n = draw(st.integers(1, 4))
    qubit = st.integers(0, n - 1)
    ops = ["RESET", "GATE", "MEASURE", "RF"] + (["XCHG", "CNOT", "LINK"] if n > 1 else [])
    on, lines = set(), []
    for op in draw(st.lists(st.sampled_from(ops), max_size=12)):
        if op == "RESET":
            lines.append(f"RESET {draw(qubit)} {draw(st.sampled_from(['+1', '-1']))}")
        elif op == "GATE":
            lines.append(f"GATE {draw(qubit)} {draw(st.sampled_from(sorted(register.NAMED_GATES)))}")
        elif op == "MEASURE":
            lines.append(f"MEASURE {draw(qubit)}")
        elif op == "RF":
            lines += [f"LINK {i} {i + 1} OFF" for i in sorted(on)]
            on.clear()
            amp = draw(st.sampled_from([0.0, 0.05, 0.1]))
            lines.append(f"RF {draw(qubit)} {amp} {draw(st.sampled_from([0.5, 1.0]))}")
        else:
            i = draw(st.integers(0, n - 2))
            if op == "LINK":
                lines.append(f"LINK {i} {i + 1} OFF")
                on.discard(i)
                continue
            lines.append(f"LINK {i} {i + 1} ON")
            on.add(i)
            if op == "XCHG":
                lines.append(f"XCHG {i} {i + 1} {draw(st.floats(0.0, 2 * math.pi))!r}")
            else:
                c, t = draw(st.permutations([i, i + 1]))
                lines.append(f"CNOT {c} {t}")
    return "\n".join(lines + [f"MEASURE {draw(qubit)}"]) + "\n"


@settings(max_examples=50, deadline=None)
@given(script=small_scripts(), seed=st.integers(0, 2**64 - 1), shots=st.integers(1, 64))
def test_random_scripts_match_per_shot_replay(script, seed, shots):
    instructions = parse_script(script)
    outcomes, final = replay_every_shot(instructions, seed, shots)
    run = run_script(instructions, seed=seed, shots=shots)
    assert shot_outcomes(run) == outcomes
    assert np.array_equal(run.final_state.amps, final.amps)
