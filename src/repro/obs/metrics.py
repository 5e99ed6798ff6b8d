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


class Counters:
    """Base of the producer ``*Stats`` dataclasses (``OptStats``,
    ``XlatCacheStats``, ``EnumerationStats``, ``BehaviorCacheStats``):
    every field is an ``int`` with a default, bumped in place where the
    event happens.  The fold / copy / delta / zero idioms are written
    here once, over :func:`dataclasses.fields`, so a new counter is one
    field on its producer and nothing else."""

    def merge(self, other) -> None:
        """Field-wise ``self += other``."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def snapshot(self):
        """A copy detached from the live counters."""
        return replace(self)

    def since(self, before):
        """Field-wise ``self - before``: the share of a process-wide
        total accumulated after the ``before`` snapshot was taken."""
        return type(self)(**{
            f.name: getattr(self, f.name) - getattr(before, f.name)
            for f in fields(self)
        })

    def reset(self) -> None:
        """Zero every counter in place (module-wide instances keep
        their identity, so no ``global`` rebinding)."""
        for f in fields(self):
            setattr(self, f.name, f.default)
