"""Parser for the supported OpenQASM 2.0 subset.

A recursive-descent parser reads the whole language subset.  Text in the
exact line forms of :func:`repro.qasm.writer.circuit_to_qasm` -- what the
compile cache, the wire codecs and routed-circuit files carry -- is read by
a line-level fast path first; any line outside those forms sends the whole
source to the recursive-descent parser, and both build the same program.
"""

from __future__ import annotations

import math
import re
from typing import Mapping

from repro.qasm.ast import (
    BarrierStmt,
    GateCall,
    GateDecl,
    MeasureStmt,
    Program,
    QubitRef,
    RegisterDecl,
    SymbolicGateCall,
)
from repro.qasm.lexer import KEYWORDS, QasmSyntaxError, Token, TokenType, tokenize


class QasmParseError(QasmSyntaxError):
    """Raised when the token stream does not form a valid program."""


class _TokenStream:
    """A cursor over the token list with convenience expectation helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def expect(self, value: str) -> Token:
        token = self.advance()
        if token.value != value:
            raise QasmParseError(
                f"expected {value!r} on line {token.line}, found {token.value!r}"
            )
        return token

    def expect_type(self, token_type: TokenType) -> Token:
        token = self.advance()
        if token.type is not token_type:
            raise QasmParseError(
                f"expected {token_type.value} on line {token.line}, found {token.value!r}"
            )
        return token

    def at(self, value: str) -> bool:
        return self.peek().value == value

    def at_type(self, token_type: TokenType) -> bool:
        return self.peek().type is token_type

    def skip_statement(self) -> None:
        """Consume tokens up to and including the next ';' (error recovery / opaque)."""
        while not self.at(";") and not self.at_type(TokenType.EOF):
            self.advance()
        if self.at(";"):
            self.advance()


# ---------------------------------------------------------------------------
# Expression evaluation (gate parameters)
# ---------------------------------------------------------------------------


def evaluate_expression(text: str, env: Mapping[str, float] | None = None) -> float:
    """Evaluate a QASM parameter expression (numbers, pi, + - * / ^, names in env)."""
    tokens = tokenize(text)
    stream = _TokenStream(tokens)
    value = _parse_expr(stream, env or {})
    if not stream.at_type(TokenType.EOF):
        raise QasmParseError(f"trailing tokens in expression {text!r}")
    return value


def _parse_expr(stream: _TokenStream, env: Mapping[str, float]) -> float:
    value = _parse_term(stream, env)
    while stream.at("+") or stream.at("-"):
        op = stream.advance().value
        rhs = _parse_term(stream, env)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(stream: _TokenStream, env: Mapping[str, float]) -> float:
    value = _parse_factor(stream, env)
    while stream.at("*") or stream.at("/"):
        op = stream.advance().value
        rhs = _parse_factor(stream, env)
        value = value * rhs if op == "*" else value / rhs
    return value


def _parse_factor(stream: _TokenStream, env: Mapping[str, float]) -> float:
    if stream.at("-"):
        stream.advance()
        return -_parse_factor(stream, env)
    if stream.at("+"):
        stream.advance()
        return _parse_factor(stream, env)
    value = _parse_atom(stream, env)
    if stream.at("^"):
        stream.advance()
        exponent = _parse_factor(stream, env)
        value = value**exponent
    return value


def _parse_atom(stream: _TokenStream, env: Mapping[str, float]) -> float:
    token = stream.advance()
    if token.type in (TokenType.INTEGER, TokenType.REAL):
        return float(token.value)
    if token.value == "pi":
        return math.pi
    if token.value == "(":
        value = _parse_expr(stream, env)
        stream.expect(")")
        return value
    if token.type is TokenType.IDENTIFIER:
        if token.value in env:
            return float(env[token.value])
        if token.value == "sqrt" and stream.at("("):
            stream.advance()
            value = _parse_expr(stream, env)
            stream.expect(")")
            return math.sqrt(value)
        raise QasmParseError(f"unknown name {token.value!r} in expression (line {token.line})")
    raise QasmParseError(f"unexpected token {token.value!r} in expression (line {token.line})")


def _collect_expression_text(stream: _TokenStream, terminators: tuple[str, ...]) -> str:
    """Collect raw expression text up to (not including) one of the terminators."""
    parts: list[str] = []
    depth = 0
    while True:
        token = stream.peek()
        if token.type is TokenType.EOF:
            raise QasmParseError("unterminated expression at end of input")
        if depth == 0 and token.value in terminators:
            break
        if token.value == "(":
            depth += 1
        elif token.value == ")":
            if depth == 0:
                break
            depth -= 1
        parts.append(token.value)
        stream.advance()
    return " ".join(parts)


# ---------------------------------------------------------------------------
# Program parsing
# ---------------------------------------------------------------------------


#: The header :func:`repro.qasm.writer.circuit_to_qasm` emits, then its
#: register declarations (one ``qreg``, one ``creg``).
_CANONICAL_HEADER = ("OPENQASM 2.0;", 'include "qelib1.inc";')
_CANONICAL_QREG_RE = re.compile(r"qreg ([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\];")
_CANONICAL_CREG_RE = re.compile(r"creg ([A-Za-z_][A-Za-z0-9_]*)\[([0-9]+)\];")
#: A parameter the writer emits: an optionally negated float literal in the
#: lexer's own number grammar (``repr`` of a finite float).
_CANONICAL_PARAM_RE = re.compile(
    r"-?(?:[0-9]+\.[0-9]*(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?"
    r"|[0-9]+[eE][+-]?[0-9]+|[0-9]+)"
)
_CANONICAL_GATE_TEMPLATE = (
    r"([A-Za-z_][A-Za-z0-9_]*)(?:\(([^()]+)\))? ((?:{reg}\[[0-9]+\],)*{reg}\[[0-9]+\]);"
)


def _parse_canonical(source: str) -> Program | None:
    """Parse the writer's own line forms, or ``None`` if any line strays.

    Accepts exactly what :func:`repro.qasm.writer.circuit_to_qasm` emits for
    a circuit without barriers or measurements: the four-line header, then
    one ``name q[i],q[j];`` or ``name(f,...) q[i];`` statement per line, where
    every ``f`` is a plain float literal.  The result equals what the full
    parser builds, line numbers included.  Anything else -- comments, extra
    whitespace, keywords, expressions, a second register, ``\\r`` -- returns
    ``None`` so the caller parses the whole source the slow way.
    """
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    if len(lines) < 4 or tuple(lines[:2]) != _CANONICAL_HEADER:
        return None
    qreg = _CANONICAL_QREG_RE.fullmatch(lines[2])
    creg = _CANONICAL_CREG_RE.fullmatch(lines[3])
    if qreg is None or creg is None or {qreg[1], creg[1]} & KEYWORDS:
        return None
    register = qreg[1]
    program = Program(version="2.0")
    program.registers = [
        RegisterDecl(register, int(qreg[2]), True, 3),
        RegisterDecl(creg[1], int(creg[2]), False, 4),
    ]
    gate_re = re.compile(_CANONICAL_GATE_TEMPLATE.format(reg=re.escape(register)))
    param_match = _CANONICAL_PARAM_RE.fullmatch
    prefix = len(register) + 1
    refs: dict[str, QubitRef] = {}
    statements = program.statements
    for number, line in enumerate(lines[4:], start=5):
        match = gate_re.fullmatch(line)
        if match is None or match[1] in KEYWORDS:
            return None
        params: tuple[float, ...] = ()
        if match[2] is not None:
            texts = match[2].split(",")
            if not all(map(param_match, texts)):
                return None
            params = tuple(map(float, texts))
        qubits = []
        for operand in match[3].split(","):
            ref = refs.get(operand)
            if ref is None:
                ref = refs[operand] = QubitRef(register, int(operand[prefix:-1]))
            qubits.append(ref)
        statements.append(GateCall(match[1].lower(), params, tuple(qubits), number))
    return program


def parse_qasm(source: str) -> Program:
    """Parse OpenQASM 2.0 source text into a :class:`Program`.

    Text in the writer's own canonical form takes a line-level fast path
    (:func:`_parse_canonical`); any other source, from its first line on, goes
    through the recursive-descent parser.  Both build the same program.
    """
    program = _parse_canonical(source)
    return program if program is not None else _parse_program(source)


def _parse_program(source: str) -> Program:
    """The recursive-descent parser over the whole token stream."""
    stream = _TokenStream(tokenize(source))
    program = Program()

    if stream.at("OPENQASM"):
        stream.advance()
        version = stream.advance()
        program.version = version.value
        stream.expect(";")

    while not stream.at_type(TokenType.EOF):
        token = stream.peek()
        if token.value == "include":
            stream.advance()
            stream.expect_type(TokenType.STRING)
            stream.expect(";")
        elif token.value in ("qreg", "creg"):
            program.registers.append(_parse_register(stream))
        elif token.value == "gate":
            decl = _parse_gate_decl(stream)
            program.gate_decls[decl.name] = decl
        elif token.value == "opaque":
            stream.skip_statement()
        elif token.value == "barrier":
            program.statements.append(_parse_barrier(stream))
        elif token.value == "measure":
            program.statements.append(_parse_measure(stream))
        elif token.value == "reset":
            stream.advance()
            qubit = _parse_qubit_ref(stream)
            stream.expect(";")
            program.statements.append(GateCall("reset", (), (qubit,), token.line))
        elif token.value == "if":
            # Classically-controlled statement: parse and keep the quantum part.
            stream.advance()
            stream.expect("(")
            _collect_expression_text(stream, (")",))
            stream.expect(")")
            continue
        elif token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
            program.statements.append(_parse_gate_call(stream))
        else:
            raise QasmParseError(
                f"unexpected token {token.value!r} on line {token.line}"
            )
    return program


def _parse_register(stream: _TokenStream) -> RegisterDecl:
    keyword = stream.advance()
    name = stream.expect_type(TokenType.IDENTIFIER)
    stream.expect("[")
    size = stream.expect_type(TokenType.INTEGER)
    stream.expect("]")
    stream.expect(";")
    return RegisterDecl(name.value, int(size.value), keyword.value == "qreg", keyword.line)


def _parse_qubit_ref(stream: _TokenStream) -> QubitRef:
    name = stream.expect_type(TokenType.IDENTIFIER)
    if stream.at("["):
        stream.advance()
        index = stream.expect_type(TokenType.INTEGER)
        stream.expect("]")
        return QubitRef(name.value, int(index.value))
    return QubitRef(name.value, None)


def _parse_param_exprs(stream: _TokenStream) -> list[str]:
    """Parse a parenthesised, comma-separated list of raw expression strings."""
    exprs: list[str] = []
    if not stream.at("("):
        return exprs
    stream.advance()
    if stream.at(")"):
        stream.advance()
        return exprs
    while True:
        exprs.append(_collect_expression_text(stream, (",", ")")))
        if stream.at(","):
            stream.advance()
            continue
        stream.expect(")")
        break
    return exprs


def _parse_gate_call(stream: _TokenStream) -> GateCall:
    name = stream.advance()
    param_exprs = _parse_param_exprs(stream)
    params = tuple(evaluate_expression(e) for e in param_exprs)
    qubits: list[QubitRef] = []
    while True:
        qubits.append(_parse_qubit_ref(stream))
        if stream.at(","):
            stream.advance()
            continue
        break
    stream.expect(";")
    return GateCall(name.value.lower(), params, tuple(qubits), name.line)


def _parse_barrier(stream: _TokenStream) -> BarrierStmt:
    token = stream.expect("barrier")
    qubits: list[QubitRef] = []
    if not stream.at(";"):
        while True:
            qubits.append(_parse_qubit_ref(stream))
            if stream.at(","):
                stream.advance()
                continue
            break
    stream.expect(";")
    return BarrierStmt(tuple(qubits), token.line)


def _parse_measure(stream: _TokenStream) -> MeasureStmt:
    token = stream.expect("measure")
    qubit = _parse_qubit_ref(stream)
    stream.expect("->")
    target = _parse_qubit_ref(stream)
    stream.expect(";")
    return MeasureStmt(qubit, target, token.line)


def _parse_gate_decl(stream: _TokenStream) -> GateDecl:
    token = stream.expect("gate")
    name = stream.expect_type(TokenType.IDENTIFIER)
    param_names: list[str] = []
    if stream.at("("):
        stream.advance()
        while not stream.at(")"):
            param_names.append(stream.expect_type(TokenType.IDENTIFIER).value)
            if stream.at(","):
                stream.advance()
        stream.expect(")")
    qubit_args: list[str] = []
    while not stream.at("{"):
        qubit_args.append(stream.expect_type(TokenType.IDENTIFIER).value)
        if stream.at(","):
            stream.advance()
    stream.expect("{")
    body: list[SymbolicGateCall] = []
    while not stream.at("}"):
        if stream.at("barrier"):
            stream.skip_statement()
            continue
        call_name = stream.advance()
        param_exprs = tuple(_parse_param_exprs(stream))
        args: list[str] = []
        while not stream.at(";"):
            args.append(stream.expect_type(TokenType.IDENTIFIER).value)
            if stream.at(","):
                stream.advance()
        stream.expect(";")
        body.append(
            SymbolicGateCall(call_name.value.lower(), param_exprs, tuple(args), call_name.line)
        )
    stream.expect("}")
    return GateDecl(name.value.lower(), tuple(param_names), tuple(qubit_args), tuple(body), token.line)
