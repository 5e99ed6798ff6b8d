"""Shared memory for the simulated host machine.

Word-granular (8-byte) data storage over a sparse dict, plus byte-exact
code images for instruction fetch.  A small cache-line ownership tracker
provides the *contention cost* signal used by the CAS benchmark
(Figure 15): atomics and stores to a line owned by another core pay a
transfer penalty, so throughput collapses under contention exactly as
on real hardware.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

from ..errors import MachineError

WORD = 8
LINE_SHIFT = 6  # 64-byte cache lines
_U64 = (1 << 64) - 1


@dataclass(frozen=True)
class Image:
    base: int
    data: bytes
    end: int


class Memory:
    """Sparse word-addressed memory with code images.

    Images are append-only, never overlap and are never altered:
    instruction fetch (:meth:`read_bytes`) reads image bytes only, and
    a data write to an address inside an image *shadows* it for
    :meth:`load_word` while fetch keeps seeing the image.  There is no
    self-modifying code in this machine, which is what lets the cores
    keep every instruction they have decoded (:meth:`code_table`)
    without any invalidation.
    """

    def __init__(self):
        self._words: dict[int, int] = {}
        #: Images sorted by base, and their bases for bisection (the
        #: DBT adds one image per translated block).
        self._images: list[Image] = []
        self._bases: list[int] = []
        #: Global exclusives monitor: core_id -> reserved word address.
        #: Any committed store to a reserved address clears the
        #: reservation, so a cross-core write landing between a core's
        #: LDXR and STXR makes the STXR fail (atomicity).
        self._exclusive: dict[int, int] = {}
        #: Cost model -> {pc: (handler, size)}; see :meth:`code_table`.
        self._code: dict[object, dict[int, tuple]] = {}
        #: pc -> (insn, size) handed over with an image, for the first
        #: execution at pc to bind instead of decoding the bytes.
        self.seeded: dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # Code images
    # ------------------------------------------------------------------
    def add_image(self, base: int, data: bytes,
                  insns: dict[int, tuple] | None = None) -> None:
        """Map ``data`` at ``base`` (an empty image maps nothing) and
        seed ``insns``, ``pc -> (insn, size)`` as decoded from it."""
        if not data:
            return
        end = base + len(data)
        pos = bisect_right(self._bases, base)
        # Existing images are disjoint and sorted, so only the two
        # neighbours can overlap the new one.
        for image in self._images[max(pos - 1, 0):pos + 1]:
            if base < image.end and image.base < end:
                raise MachineError(
                    f"image at 0x{base:x} overlaps image at "
                    f"0x{image.base:x}")
        self._images.insert(pos, Image(base, bytes(data), end))
        self._bases.insert(pos, base)
        if insns:
            self.seeded.update(insns)

    def _image_at(self, addr: int) -> Image | None:
        pos = bisect_right(self._bases, addr)
        if pos:
            image = self._images[pos - 1]
            if addr < image.end:
                return image
        return None

    def read_bytes(self, addr: int, count: int) -> bytes:
        """Fetch raw bytes (instruction fetch path)."""
        image = self._image_at(addr)
        if image is None:
            raise MachineError(
                f"instruction fetch from unmapped 0x{addr:x}")
        off = addr - image.base
        return image.data[off:off + count]

    def in_image(self, addr: int) -> bool:
        return self._image_at(addr) is not None

    def code_table(self, costs) -> dict[int, tuple]:
        """The instructions bound so far for cores running under
        ``costs``: ``pc -> (handler, size)``, filled by
        :meth:`ArmCore.step <repro.machine.cpu.ArmCore.step>` the first
        time a pc executes.  It lives here because all cores of a
        machine share it, and it is keyed by cost model because a
        handler has its cycle costs bound in.  Entries stay valid for
        as long as the memory does (see the class docstring)."""
        return self._code.setdefault(costs, {})

    # ------------------------------------------------------------------
    # Data
    # ------------------------------------------------------------------
    def load_word(self, addr: int) -> int:
        value = self._words.get(addr)
        if value is not None:
            return value
        # Initialized data inside an image (e.g. .data section).
        image = self._image_at(addr)
        if image is not None and addr + WORD <= image.end:
            off = addr - image.base
            return int.from_bytes(image.data[off:off + WORD], "little")
        return 0

    def store_word(self, addr: int, value: int) -> None:
        self._words[addr] = value & _U64
        if self._exclusive:
            stale = [cid for cid, watched in self._exclusive.items()
                     if watched == addr]
            for cid in stale:
                del self._exclusive[cid]

    # ------------------------------------------------------------------
    # Exclusives monitor
    # ------------------------------------------------------------------
    def register_exclusive(self, core_id: int, addr: int) -> None:
        """LDXR: reserve ``addr`` for ``core_id``."""
        self._exclusive[core_id] = addr

    def take_exclusive(self, core_id: int, addr: int) -> bool:
        """STXR: consume the reservation; True iff it was still valid."""
        return self._exclusive.pop(core_id, None) == addr

    def snapshot(self) -> dict[int, int]:
        """Copy of all explicitly-written words (for test assertions)."""
        return dict(self._words)


@dataclass
class CoherenceTracker:
    """Cache-line ownership with transfer costs.

    This is intentionally minimal — just enough state for contention to
    cost time: a line is exclusively owned by one core or shared by
    many; ownership moves on writes/atomics, sharing on reads.
    """

    # Cross-core ownership transfer is expensive (hundreds of cycles on
    # real silicon) — it is what makes contended CAS converge between
    # QEMU and Risotto in Figure 15.
    transfer_cost: int = 400
    share_cost: int = 60
    _owner: dict[int, int | None] = field(default_factory=dict)

    def on_read(self, core_id: int, addr: int) -> int:
        """Extra cycles a read pays; demotes foreign lines to shared."""
        line = addr >> LINE_SHIFT
        owner = self._owner.get(line)
        if owner is None or owner == core_id:
            return 0
        self._owner[line] = None  # shared
        return self.share_cost

    def on_write(self, core_id: int, addr: int) -> int:
        """Extra cycles a write/atomic pays; takes exclusive ownership."""
        line = addr >> LINE_SHIFT
        owner = self._owner.get(line, core_id)
        self._owner[line] = core_id
        if owner == core_id:
            return 0
        return self.transfer_cost

    def owner_of(self, addr: int) -> int | None:
        return self._owner.get(addr >> LINE_SHIFT)

    def reset(self) -> None:
        self._owner.clear()
