"""The one base of the producer ``*Stats`` counter blocks.

Hot paths (the dispatch trap, the enumerator's inner loop, the cache
lookup) count in plain dataclasses of ints incremented as attributes;
:class:`Counters` is the one place that folds, copies, subtracts and
zeroes them.  What they count reaches a reader through one path: the
run row (:class:`~repro.workloads.parallel.RunRow`), the sweep
aggregate, the bench export, the history store and the sentinel.
"""

from __future__ import annotations

from dataclasses import fields, replace
from functools import cache


@cache
def _defaults(cls) -> tuple[tuple[str, int], ...]:
    """``(name, default)`` of every field of ``cls``, read once per
    class: ``fields()`` rebuilds its tuple on every call, and the
    engine merges an ``OptStats`` per translated block."""
    return tuple((f.name, f.default) for f in fields(cls))


class Counters:
    """Base of the producer ``*Stats`` dataclasses (``OptStats``,
    ``XlatCacheStats``, ``EnumerationStats``, ``BehaviorCacheStats``):
    every field is an ``int`` with a default, bumped in place where the
    event happens.  The fold / copy / delta / zero idioms are written
    here once, over :func:`dataclasses.fields`, so a new counter is one
    field on its producer and nothing else."""

    def merge(self, other) -> None:
        """Field-wise ``self += other``."""
        for name, _ in _defaults(type(self)):
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self):
        """A copy detached from the live counters."""
        return replace(self)

    def since(self, before):
        """Field-wise ``self - before``: the share of a process-wide
        total accumulated after the ``before`` snapshot was taken."""
        cls = type(self)
        return cls(**{name: getattr(self, name) - getattr(before, name)
                      for name, _ in _defaults(cls)})

    def reset(self) -> None:
        """Zero every counter in place (module-wide instances keep
        their identity, so no ``global`` rebinding)."""
        for name, default in _defaults(type(self)):
            setattr(self, name, default)
