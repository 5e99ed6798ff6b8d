"""Guest x86 ISA: instruction set, assembler, byte coder, interpreter."""

from .assembler import Assembly, assemble, parse_line, parse_operand
from .insns import (
    BLOCK_TERMINATORS,
    CODER,
    CONDITIONAL_JUMPS,
    CONDITIONS,
    GPR,
    OPCODES,
    REGISTER_IDS,
)
from ..floatbits import bits_to_double, double_to_bits
from .semantics import CpuState, Syscall, X86Interpreter, \
    evaluate_condition

__all__ = [
    "Assembly", "assemble", "parse_line", "parse_operand",
    "BLOCK_TERMINATORS", "CODER", "CONDITIONAL_JUMPS", "CONDITIONS",
    "GPR", "OPCODES", "REGISTER_IDS",
    "CpuState", "Syscall", "X86Interpreter",
    "bits_to_double", "double_to_bits", "evaluate_condition",
]
