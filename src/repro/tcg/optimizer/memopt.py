"""Memory-access elimination (Figure 10) with fence side conditions.

A lightweight value-numbering pass assigns symbolic expressions to
temps so that two accesses to "[rbx + 8]" computed through different
scratch temps are recognized as same-address.  On top of that:

* **RAW forwarding** — a load that po-immediately follows a store to
  the same address (only pure ops and *safe* fences between) becomes a
  ``mov`` from the stored value.  Safe fences are ``Fww``-class masks
  only: forwarding across an ``Fmr``-class fence would be the FMR bug
  of Section 3.2, and ``Fsc``, which Figure 10 does license, shares
  its mask with the unsafe ``Fmm`` (below), so both are refused — and
  the Risotto frontend never emits such fences anyway (Section 4.1).
* **RAR reuse** — a load repeating an earlier load with no intervening
  store/atomic and only ``Frm``/``Fww``-safe fences becomes a ``mov``.
* **WAW removal** — a store overwritten by a same-address store with
  nothing reading memory in between is dropped (only across
  ``Frm``-class fences, per the checker-validated safe set).

A fence is safe when its mask is a subset of a licensed one: what the
checker licenses (:data:`repro.core.transforms.ELIM_SAFE_RAR` & co.) is
what this pass does.  Any call, atomic, or store to an unknown address
invalidates everything (may-alias).
"""

from __future__ import annotations

from dataclasses import dataclass

from ...core.transforms import ELIM_SAFE_RAR, ELIM_SAFE_RAW, \
    ELIM_SAFE_WAW
from ..ir import MO_ALL, Const, Op, TCGBlock, Temp, fence_to_mask


def _licensed_masks(kinds) -> tuple[int, ...]:
    """The masks of the checker-licensed fences ``kinds``, less the one
    exclusion: MO_ALL.

    Figure 10 licenses RAW elimination across *Fsc*, but an ``mb`` op
    only carries a TCG_MO mask, which cannot distinguish Fsc (safe,
    thanks to its direct SC ordering) from Fmm (unsafe — like Fmr, the
    eliminated read is a codomain of its ordering rules).  Eliminations
    across MO_ALL masks are therefore refused: safety is not monotone in
    fence strength, so "stronger fence" is not "safer fence" here.
    """
    return tuple(sorted({fence_to_mask(kind) for kind in kinds}
                        - {MO_ALL}))


_SAFE_RAR_MASKS = _licensed_masks(ELIM_SAFE_RAR)
_SAFE_RAW_MASKS = _licensed_masks(ELIM_SAFE_RAW)
_SAFE_WAW_MASKS = _licensed_masks(ELIM_SAFE_WAW)


Expr = tuple  # symbolic value: ("const", v) | ("global", name) | (op, ...)


@dataclass
class _State:
    values: dict[Temp, Expr]
    #: address expr -> value expr of the last store (for RAW/WAW)
    stored: dict[Expr, tuple]
    #: address expr -> temp holding the last loaded value (for RAR)
    loaded: dict[Temp | Expr, Temp]
    #: address expr -> index in new_ops of the last store (for WAW)
    store_site: dict[Expr, int]


_fresh_counter = 0


def _fresh(temp: Temp) -> Expr:
    """A unique opaque value — used when a temp is (re)defined with an
    unknown value.  Once bound in ``state.values`` it stays stable, so
    repeated uses of the same temp value-number equal."""
    global _fresh_counter
    _fresh_counter += 1
    return ("opaque", temp.name, _fresh_counter)


def memory_access_elimination(block: TCGBlock) -> int:
    state = _State(values={}, stored={}, loaded={}, store_site={})
    eliminated = 0
    new_ops: list[Op] = []
    #: barrier masks seen since the last store/load per address are
    #: tracked globally: a single accumulated mask since each event.
    mask_since_store: dict[Expr, int] = {}
    mask_since_load: dict[Expr, int] = {}

    def value_of(arg, op_index: int) -> Expr:
        if isinstance(arg, Const):
            return ("const", arg.value)
        if isinstance(arg, Temp):
            if arg.is_global:
                return state.values.setdefault(
                    arg, ("global", arg.name))
            return state.values.setdefault(arg, _fresh(arg))
        return ("other", repr(arg))

    def kill_global(name: str) -> None:
        """A global changed: drop exprs mentioning it."""
        def mentions(expr: Expr) -> bool:
            if expr[0] == "global" and expr[1] == name:
                return True
            return any(isinstance(part, tuple) and mentions(part)
                       for part in expr)

        state.values = {t: e for t, e in state.values.items()
                        if not mentions(e)}
        for table in (state.stored, state.loaded, state.store_site,
                      mask_since_store, mask_since_load):
            for key in [k for k in table if isinstance(k, tuple)
                        and mentions(k)]:
                del table[key]

    def kill_memory() -> None:
        state.stored.clear()
        state.loaded.clear()
        state.store_site.clear()
        mask_since_store.clear()
        mask_since_load.clear()

    for index, op in enumerate(block.ops):
        name = op.name

        if name in ("set_label", "brcond", "br"):
            state.values.clear()
            kill_memory()
            new_ops.append(op)
            continue
        if name == "call":
            # Helpers may read/write memory and guest globals.
            state.values.clear()
            kill_memory()
            new_ops.append(op)
            continue
        if name in ("cas", "atomic_add", "atomic_xchg"):
            kill_memory()
            for out in op.outputs():
                state.values[out] = _fresh(out)
                if out.is_global:
                    kill_global(out.name)
            new_ops.append(op)
            continue
        if name == "mb":
            mask = op.args[0].value
            for key in mask_since_store:
                mask_since_store[key] |= mask
            for key in mask_since_load:
                mask_since_load[key] |= mask
            new_ops.append(op)
            continue

        if name == "ld":
            dst, base, offset = op.args
            addr = ("addr", value_of(base, index), offset.value)
            # RAW forwarding from a prior store.  The stored register
            # may have been overwritten since; forward only when its
            # value expression is unchanged.
            if addr in state.stored:
                mask = mask_since_store.get(addr, 0)
                stored_arg, stored_expr = state.stored[addr]
                if any(mask | safe == safe
                       for safe in _SAFE_RAW_MASKS) and \
                        value_of(stored_arg, index) == stored_expr:
                    new_ops.append(Op("mov", (dst, stored_arg)))
                    state.values[dst] = stored_expr
                    state.loaded[addr] = (dst, stored_expr)
                    mask_since_load[addr] = 0
                    eliminated += 1
                    continue
            # RAR reuse of a prior load (same staleness check).
            if addr in state.loaded:
                mask = mask_since_load.get(addr, 0)
                prev, prev_expr = state.loaded[addr]
                if any(mask | safe == safe
                       for safe in _SAFE_RAR_MASKS) and \
                        value_of(prev, index) == prev_expr:
                    new_ops.append(Op("mov", (dst, prev)))
                    state.values[dst] = prev_expr
                    eliminated += 1
                    continue
            fresh = _fresh(dst)
            state.values[dst] = fresh
            state.loaded[addr] = (dst, fresh)
            mask_since_load[addr] = 0
            new_ops.append(op)
            continue

        if name == "st":
            src, base, offset = op.args
            addr = ("addr", value_of(base, index), offset.value)
            # WAW: drop the prior store if nothing observed it.
            site = state.store_site.get(addr)
            if site is not None and addr not in state.loaded:
                mask = mask_since_store.get(addr, 0)
                if any(mask | safe == safe
                       for safe in _SAFE_WAW_MASKS):
                    new_ops[site] = Op("discard", (Const(0),))
                    eliminated += 1
            # A store to this address invalidates other addresses that
            # might alias; conservatively keep only exact-same-address
            # facts for *loads* when the store address is precise.
            for table in (state.stored, state.loaded,
                          state.store_site, mask_since_store,
                          mask_since_load):
                for key in [k for k in list(table) if k != addr]:
                    if _may_alias(key, addr):
                        del table[key]
            state.stored[addr] = (src, value_of(src, index))
            state.store_site[addr] = len(new_ops)
            state.loaded.pop(addr, None)
            mask_since_store[addr] = 0
            new_ops.append(op)
            continue

        # Pure ops: update value numbers.
        if name == "movi":
            dst, const = op.args
            state.values[dst] = ("const", const.value)
            if dst.is_global:
                kill_global(dst.name)
                state.values[dst] = ("const", const.value)
            new_ops.append(op)
            continue
        if name == "mov":
            dst, src = op.args
            expr = value_of(src, index)
            if dst.is_global:
                kill_global(dst.name)
            state.values[dst] = expr
            new_ops.append(op)
            continue
        outputs = op.outputs()
        arg_exprs = tuple(value_of(a, index) for a in op.args)
        for out in outputs:
            if out.is_global:
                kill_global(out.name)
        if len(outputs) == 1:
            state.values[outputs[0]] = (name,) + arg_exprs[1:]
        new_ops.append(op)

    block.ops = [op for op in new_ops if op.name != "discard"]
    return eliminated


def _may_alias(key, addr) -> bool:
    """Two symbolic addresses may alias unless they share a base expr
    with different offsets."""
    if not (isinstance(key, tuple) and key and key[0] == "addr"):
        return False
    __, base_a, off_a = key
    __, base_b, off_b = addr
    if base_a == base_b:
        # Same symbolic base: word accesses overlap when the offsets
        # are closer than a word apart.
        return abs(off_a - off_b) < 8
    return True  # different bases: must assume aliasing
