"""The QASM reader's fast path against the recursive-descent parser.

:func:`repro.qasm.parser.parse_qasm` reads the writer's own canonical line
forms on a line-level fast path and sends anything else to the full parser.
The two must agree exactly: on random :func:`circuit_to_qasm` output the
fast path must build a ``Program`` equal to the full parser's (float
parameters bit for bit, line numbers included), and on mutated text the
public entry point must give the same ``Program`` or raise the same
exception type as the full parser alone.
"""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit.circuit import QuantumCircuit
from repro.circuit.gate import Gate
from repro.qasm.ast import GateCall
from repro.qasm.parser import _parse_canonical, _parse_program, parse_qasm
from repro.qasm.writer import circuit_to_qasm

FIXED_GATES = ("h", "x", "y", "z", "s", "sdg", "t", "tdg", "id", "sx")
#: name -> (parameter count, operand count)
PARAM_GATES = {"rx": (1, 1), "ry": (1, 1), "rz": (1, 1), "u1": (1, 1), "p": (1, 1),
               "u2": (2, 1), "u3": (3, 1), "crz": (1, 2), "cu1": (1, 2), "rzz": (1, 2)}
TWO_QUBIT_GATES = ("cx", "cz", "swap", "cy", "ch")

SPECIAL_FLOATS = (-0.5, 1e-300, 5e-324, -5e-324, 2.0, -0.0, 0.0, 1e22, 1.5e300,
                  -1.7976931348623157e308, 123456789.125, math.pi, -math.pi / 2)
FLOATS = st.one_of(
    st.sampled_from(SPECIAL_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-10.0, max_value=10.0),
)


@st.composite
def circuits(draw, barriers: bool = True):
    num_qubits = draw(st.integers(min_value=2, max_value=9))
    qubit = st.integers(min_value=0, max_value=num_qubits - 1)
    pair = st.lists(qubit, min_size=2, max_size=2, unique=True)
    kinds = ["fixed", "param", "two"] + (["barrier", "measure"] if barriers else [])
    circuit = QuantumCircuit(num_qubits, name="random")
    for _ in range(draw(st.integers(min_value=0, max_value=25))):
        kind = draw(st.sampled_from(kinds))
        if kind == "fixed":
            circuit.append(Gate(draw(st.sampled_from(FIXED_GATES)), (draw(qubit),)))
        elif kind == "param":
            name = draw(st.sampled_from(sorted(PARAM_GATES)))
            arity, width = PARAM_GATES[name]
            qubits = (draw(qubit),) if width == 1 else tuple(draw(pair))
            params = tuple(draw(FLOATS) for _ in range(arity))
            circuit.append(Gate(name, qubits, params))
        elif kind == "two":
            circuit.append(Gate(draw(st.sampled_from(TWO_QUBIT_GATES)), tuple(draw(pair))))
        elif kind == "barrier":
            width = draw(st.integers(min_value=1, max_value=num_qubits))
            circuit.barrier(*draw(st.permutations(range(num_qubits)))[:width])
        else:
            circuit.measure(draw(qubit))
    return circuit


def exact(program):
    """A program's statements with every float parameter as its bit pattern."""
    return [
        (statement, tuple(struct.pack("<d", p) for p in statement.params))
        if isinstance(statement, GateCall) else (statement, ())
        for statement in program.statements
    ]


def outcome(parse, text):
    try:
        program = parse(text)
    except Exception as exc:  # the exception *type* is what must agree
        return type(exc)
    return program, exact(program)


@settings(max_examples=200, deadline=None)
@given(circuits(barriers=False))
def test_fast_path_builds_the_full_parsers_program(circuit):
    text = circuit_to_qasm(circuit)
    fast = _parse_canonical(text)
    assert fast is not None, "the writer's own output must take the fast path"
    full = _parse_program(text)
    assert fast == full
    assert fast.version == full.version
    assert exact(fast) == exact(full)


@settings(max_examples=200, deadline=None)
@given(circuits())
def test_parse_qasm_matches_the_full_parser_with_barriers_and_measures(circuit):
    text = circuit_to_qasm(circuit)
    if "barrier" in text or "measure" in text:
        assert _parse_canonical(text) is None
    assert outcome(parse_qasm, text) == outcome(_parse_program, text)


def _line(lines, index):
    return 4 + index % max(1, len(lines) - 4)


MUTATIONS = {
    "double-space": lambda lines, i: lines.__setitem__(i, lines[i].replace(" ", "  ", 1)),
    "space-before-semicolon": lambda lines, i: lines.__setitem__(i, lines[i][:-1] + " ;"),
    "space-after-comma": lambda lines, i: lines.__setitem__(i, lines[i].replace(",", ", ")),
    "tab": lambda lines, i: lines.__setitem__(i, lines[i].replace(" ", "\t", 1)),
    "comment": lambda lines, i: lines.__setitem__(i, lines[i] + " // note"),
    "comment-line": lambda lines, i: lines.insert(i, "// a comment"),
    "blank-line": lambda lines, i: lines.insert(i, ""),
    "condition": lambda lines, i: lines.__setitem__(i, "if(c==1) " + lines[i]),
    "pi-param": lambda lines, i: lines.__setitem__(i, "rz(pi/2) " + lines[i].split(" ")[-1]),
    "nan-param": lambda lines, i: lines.__setitem__(i, "rz(nan) " + lines[i].split(" ")[-1]),
    "inf-param": lambda lines, i: lines.__setitem__(i, "rz(inf) " + lines[i].split(" ")[-1]),
    "plus-param": lambda lines, i: lines.__setitem__(i, "rz(+0.5) " + lines[i].split(" ")[-1]),
    "empty-params": lambda lines, i: lines.__setitem__(i, "rz() " + lines[i].split(" ")[-1]),
    "upper-name": lambda lines, i: lines.__setitem__(i, lines[i].upper().replace("Q[", "q[")),
    "keyword-name": lambda lines, i: lines.__setitem__(i, "reset " + lines[i].split(" ")[-1]),
    "pi-name": lambda lines, i: lines.__setitem__(i, "pi " + lines[i].split(" ")[-1]),
    "second-qreg": lambda lines, i: lines.insert(4, "qreg r[2];"),
    "other-register": lambda lines, i: lines.__setitem__(i, "x c[0];"),
    "keyword-register": lambda lines, i: lines.__setitem__(
        slice(None), [line.replace("q[", "pi[") for line in lines]),
    "version": lambda lines, i: lines.__setitem__(0, "OPENQASM 3.0;"),
    "gate-decl": lambda lines, i: lines.insert(4, "gate g a { x a; }"),
    "missing-semicolon": lambda lines, i: lines.__setitem__(i, lines[i][:-1]),
    "bad-character": lambda lines, i: lines.__setitem__(i, lines[i] + "$"),
    "unicode-digit": lambda lines, i: lines.__setitem__(i, "x q[١];"),
    "leading-zero-index": lambda lines, i: lines.__setitem__(i, "x q[01];"),
    "empty-index": lambda lines, i: lines.__setitem__(i, "x q[];"),
}


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@settings(max_examples=30, deadline=None)
@given(circuit=circuits(barriers=False), position=st.integers(min_value=0),
       crlf=st.booleans())
def test_mutated_text_parses_like_the_full_parser(mutation, circuit, position, crlf):
    circuit.append(Gate("rz", (0,), (0.25,)))  # at least one statement line
    lines = circuit_to_qasm(circuit).split("\n")[:-1]
    MUTATIONS[mutation](lines, _line(lines, position))
    text = ("\r\n" if crlf else "\n").join(lines) + "\n"
    assert outcome(parse_qasm, text) == outcome(_parse_program, text)

