"""IEEE-754 binary64 values <-> their raw 64-bit patterns.

The one conversion every FP path shares: the Arm machine's
scalar-double ops, the runtime's softfloat helpers, the x86 reference
interpreter and the workloads' float immediates.
"""

from __future__ import annotations

import struct

_DOUBLE = struct.Struct("<d")
_QWORD = struct.Struct("<Q")
_U64 = (1 << 64) - 1


def bits_to_double(bits: int) -> float:
    return _DOUBLE.unpack(_QWORD.pack(bits & _U64))[0]


def double_to_bits(value: float) -> int:
    return _QWORD.unpack(_DOUBLE.pack(value))[0]
