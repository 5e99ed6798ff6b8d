"""Shared-library functions: guest bodies + native host costs.

Each function is defined once, as guest x86 assembly; the host-linked
"native" version executes the same algorithm (via the reference
interpreter — results match bit-for-bit) at precompiled-host cost.
The algorithms are cost-calibrated stand-ins (DESIGN.md): ``md5`` is a
multiplicative digest, not RFC 1321 — what matters for the paper's
Figures 13–14 is the *work shape*: rounds-per-word for digests,
square-and-multiply iterations for RSA, short Taylor kernels for libm,
hash-table probes for sqlite.

Native cost calibration notes (target: Figure 13/14 shapes):

* ``md5`` has no Arm hardware acceleration → small linked speedup
  (~1.4×); ``sha1``/``sha256`` map to the ARMv8 crypto extensions →
  large speedups (up to ~23× for sha256-8192).
* libm calls are short, so marshaling keeps Risotto below native
  (Figure 14); ``sqrt`` is a single instruction either way → ~1×.
* RSA sign is exponent-length-many modmul iterations; verify uses the
  short public exponent.
"""

from __future__ import annotations

from ..isa.floatbits import double_to_bits
from ..loader.hostlibs import HostFunction, HostLibrary
from ..loader.idl import Signature


# ----------------------------------------------------------------------
# libm — Taylor/Newton kernels over pseudo-FP registers
# ----------------------------------------------------------------------
def _series_asm(name: str, *, init_sum: float | None,
                seed_with_x: bool, ratio_consts: list[float],
                negate_x2: bool, odd_denominators: bool = False,
                scale_result: float | None = None,
                shift_result: float | None = None,
                power_step_is_x: bool = False) -> str:
    """Emit an unrolled power-series kernel.

    state: rax = sum (bits), rbx = term, rcx = (±)x².
    Two families: *factorial-ratio* series (sin/cos/exp-style, each
    term multiplied by x²/c) and *odd-denominator* series (atan/log
    -style, power accumulated separately and divided by 2k+1).
    """
    lines = [f"{name}:"]
    # rcx = the per-term power step: x (exp-style) or ±x².
    if power_step_is_x:
        lines += ["    mov rcx, rdi"]
    else:
        lines += [
            "    mov rcx, rdi",
            "    fmul rcx, rdi",
        ]
    if negate_x2:
        lines += [
            f"    mov rdx, {double_to_bits(-1.0)}",
            "    fmul rcx, rdx",
        ]
    if seed_with_x:
        lines += ["    mov rax, rdi", "    mov rbx, rdi"]
    else:
        lines += [
            f"    mov rax, {double_to_bits(init_sum)}",
            f"    mov rbx, {double_to_bits(1.0)}",
        ]
    for k, c in enumerate(ratio_consts, start=1):
        lines.append("    fmul rbx, rcx")
        if odd_denominators:
            lines += [
                "    mov rdx, rbx",
                f"    mov r8, {double_to_bits(c)}",
                "    fdiv rdx, r8",
                "    fadd rax, rdx",
            ]
        else:
            lines += [
                f"    mov rdx, {double_to_bits(c)}",
                "    fdiv rbx, rdx",
                "    fadd rax, rbx",
            ]
    if scale_result is not None:
        lines += [
            f"    mov rdx, {double_to_bits(scale_result)}",
            "    fmul rax, rdx",
        ]
    if shift_result is not None:
        lines += [
            f"    mov rdx, {double_to_bits(-1.0)}",
            "    fmul rax, rdx",
            f"    mov rdx, {double_to_bits(shift_result)}",
            "    fadd rax, rdx",
        ]
    lines.append("    ret")
    return "\n".join(lines)


_SIN_ASM = _series_asm(
    "sin", init_sum=None, seed_with_x=True, negate_x2=True,
    ratio_consts=[6.0, 20.0, 42.0, 72.0, 110.0, 156.0])

_COS_ASM = _series_asm(
    "cos", init_sum=1.0, seed_with_x=False, negate_x2=True,
    ratio_consts=[2.0, 12.0, 30.0, 56.0, 90.0, 132.0])

_EXP_ASM = _series_asm(
    "exp", init_sum=1.0, seed_with_x=False, negate_x2=False,
    power_step_is_x=True,
    ratio_consts=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])

_ATAN_ASM = _series_asm(
    "atan", init_sum=None, seed_with_x=True, negate_x2=True,
    ratio_consts=[3.0, 5.0, 7.0, 9.0, 11.0], odd_denominators=True)

_ASIN_ASM = _series_asm(
    "asin", init_sum=None, seed_with_x=True, negate_x2=False,
    ratio_consts=[6.0, 40.0 / 3.0, 336.0 / 15.0, 3456.0 / 105.0],
    odd_denominators=True)

_ACOS_ASM = _series_asm(
    "acos", init_sum=None, seed_with_x=True, negate_x2=False,
    ratio_consts=[6.0, 40.0 / 3.0, 336.0 / 15.0, 3456.0 / 105.0],
    odd_denominators=True, shift_result=1.5707963267948966)

# log via the atanh series on t = (x-1)/(x+1): same odd-denominator
# profile, scaled by 2.
_LOG_ASM = """
log:
    mov rax, {one}
    mov rbx, rdi
    mov rcx, rdi
    mov rdx, {minus_one}
    fmul rdx, rax          ; -1.0
    fadd rbx, rdx          ; x - 1
    fadd rcx, rax          ; x + 1
    fdiv rbx, rcx          ; t
    mov rdi, rbx
""".format(one=double_to_bits(1.0),
           minus_one=double_to_bits(-1.0)) + _series_asm(
    "log_body", init_sum=None, seed_with_x=True, negate_x2=False,
    ratio_consts=[3.0, 5.0, 7.0, 9.0], odd_denominators=True,
    scale_result=2.0).replace("log_body:", "") + "\n"

_TAN_ASM = (
    _SIN_ASM.replace("sin:", "tan:").replace("    ret", "") +
    "\n    mov r9, rax            ; sin(x)\n" +
    "\n".join("    " + line.strip() for line in
              _COS_ASM.replace("cos:", "").strip().splitlines()
              if line.strip() and line.strip() != "ret") +
    "\n    mov rdx, rax\n    mov rax, r9\n    fdiv rax, rdx\n    ret\n")

_SQRT_ASM = """
sqrt:
    fsqrt rax, rdi
    ret
"""


def _f64_sig(name: str) -> Signature:
    return Signature(name=name, ret="f64", params=("f64",))


#: native libm costs: short precompiled kernels, calibrated to a
#: ~20-25x native-over-QEMU gap (Figure 14's ceiling).
_LIBM_COSTS = {
    "sin": 95, "cos": 95, "tan": 200, "exp": 120, "log": 110,
    "asin": 65, "acos": 68, "atan": 70, "sqrt": 6,
}

_LIBM_ASM = {
    "sin": _SIN_ASM, "cos": _COS_ASM, "tan": _TAN_ASM,
    "exp": _EXP_ASM, "log": _LOG_ASM, "asin": _ASIN_ASM,
    "acos": _ACOS_ASM, "atan": _ATAN_ASM, "sqrt": _SQRT_ASM,
}


def build_libm() -> HostLibrary:
    library = HostLibrary("libm")
    for name, asm in _LIBM_ASM.items():
        cost = _LIBM_COSTS[name]
        library.add(HostFunction(
            signature=_f64_sig(name),
            guest_asm=asm,
            native_cost=lambda _x, c=cost: c,
        ))
    return library


# ----------------------------------------------------------------------
# libcrypto — digests and RSA
# ----------------------------------------------------------------------
def _digest_asm(name: str, rounds: int, multiplier: int) -> str:
    """A rounds-per-word multiplicative digest over [rdi, rdi+rsi)."""
    round_block = "\n".join(
        f"""    imul rax, {multiplier + 2 * r}
    add rax, rdx
    mov r8, rax
    shr r8, 13
    xor rax, r8"""
        for r in range(rounds)
    )
    return f"""{name}:
    mov rax, 5381
    mov rcx, rsi
    shr rcx, 3
    cmp rcx, 0
    je {name}_done
{name}_loop:
    mov rdx, [rdi]
{round_block}
    add rdi, 8
    dec rcx
    jne {name}_loop
{name}_done:
    ret
"""


def _digest_sig(name: str) -> Signature:
    return Signature(name=name, ret="i64", params=("ptr", "i64"))


#: (guest rounds per word, native cycles per word, native base cycles).
#: md5 has no hardware acceleration; sha1/sha256 use the ARMv8 crypto
#: extensions, hence their tiny native per-word costs.
_DIGEST_PROFILE = {
    "md5": (4, 50.0, 400),
    "sha1": (8, 13.0, 300),
    "sha256": (16, 8.0, 250),
}


def _rsa_asm(name: str, iterations: int) -> str:
    """Square-and-multiply style modexp work loop.

    rdi = message; result rax.  The modulus is a fixed 61-bit prime so
    `div` keeps values bounded; the iteration count carries the
    key-length cost (1024/2048 for sign, 17 for verify).
    """
    modulus = (1 << 61) - 1
    return f"""{name}:
    mov rbx, rdi
    or rbx, 3
    mov r9, rbx            ; accumulator
    mov r10, {iterations}
{name}_loop:
    imul r9, rbx
    mov rax, r9
    mov rcx, {modulus}
    div rcx
    mov r9, rdx            ; acc = acc*base mod p
    imul rbx, rbx
    mov rax, rbx
    div rcx
    mov rbx, rdx           ; base = base^2 mod p
    dec r10
    jne {name}_loop
    mov rax, r9
    ret
"""


def build_libcrypto() -> HostLibrary:
    library = HostLibrary("libcrypto")
    for name, (rounds, per_word, base) in _DIGEST_PROFILE.items():
        library.add(HostFunction(
            signature=_digest_sig(name),
            guest_asm=_digest_asm(name, rounds, multiplier=33),
            native_cost=lambda _ptr, length, pw=per_word, b=base:
                int(b + pw * (length // 8)),
        ))
    # RSA: iterations = key bits for sign, public exponent for verify.
    for name, iterations, native_per_iter in (
            ("rsa1024_sign", 1024, 5.0),
            ("rsa1024_verify", 17, 3.0),
            ("rsa2048_sign", 2048, 6.5),
            ("rsa2048_verify", 17, 4.0),
    ):
        library.add(HostFunction(
            signature=Signature(name=name, ret="i64", params=("i64",)),
            guest_asm=_rsa_asm(name, iterations),
            native_cost=lambda _m, n=iterations, c=native_per_iter:
                int(120 + c * n),
        ))
    return library


# ----------------------------------------------------------------------
# libsqlite — a hash-table storage engine
# ----------------------------------------------------------------------
#: Guest address of the database region (open-addressed table of
#: (key, value) slot pairs) — shared by guest and native paths.
SQLITE_DB_BASE = 0x0300_0000
SQLITE_SLOTS = 4096

_SQLITE_ASM = f"""
sqlite_exec:
    ; rdi = op (0 insert, 1 select, 2 update, 3 delete)
    ; rsi = key (nonzero), rdx = value
    ; B-tree-ish node traversal: scan the index pages first (this is
    ; what makes one call substantial, like a real SQL statement).
    mov r10, {SQLITE_DB_BASE}
    mov r11, 96
sqlite_scan:
    mov r12, [r10]
    add r10, 8
    dec r11
    jne sqlite_scan
    mov rax, rsi
    mov rcx, {SQLITE_SLOTS - 1}
    and rax, rcx           ; slot index
    shl rax, 4             ; 16 bytes per slot
    mov rcx, {SQLITE_DB_BASE}
    add rcx, rax           ; slot address
    mov r8, 0              ; probe count
sqlite_probe:
    mov r9, [rcx]          ; slot key
    cmp r9, rsi
    je sqlite_found
    cmp r9, 0
    je sqlite_empty
    add rcx, 16
    inc r8
    cmp r8, 8
    jne sqlite_probe
    mov rax, -1            ; table section full
    ret
sqlite_empty:
    cmp rdi, 0
    jne sqlite_missing
    mov [rcx], rsi         ; insert key
    mov [rcx + 8], rdx     ; insert value
    mov rax, 1
    ret
sqlite_found:
    cmp rdi, 1
    je sqlite_select
    cmp rdi, 2
    je sqlite_update
    cmp rdi, 3
    je sqlite_delete
    mov rax, 0             ; insert over existing: no-op
    ret
sqlite_select:
    mov rax, [rcx + 8]
    ret
sqlite_update:
    mov [rcx + 8], rdx
    mov rax, 1
    ret
sqlite_delete:
    mov r9, 0
    mov [rcx], r9
    mov [rcx + 8], r9
    mov rax, 1
    ret
sqlite_missing:
    mov rax, 0
    ret
"""


def build_libsqlite() -> HostLibrary:
    library = HostLibrary("libsqlite")
    library.add(HostFunction(
        signature=Signature(name="sqlite_exec", ret="i64",
                            params=("i64", "i64", "i64")),
        guest_asm=_SQLITE_ASM,
        native_cost=lambda op, key, value: 600,
    ))
    return library


def standard_libraries() -> HostLibrary:
    """libm + libcrypto + libsqlite merged, as the host system ships."""
    from ..loader.hostlibs import merge_libraries

    return merge_libraries(build_libm(), build_libcrypto(),
                           build_libsqlite())
