"""DBT variant configurations — the four setups of Section 7.1.

* ``qemu``      — vanilla QEMU 6.1.0: the ``qemu`` scheme (Figure 2:
  leading ``Frr``/``Fmw`` fences), RMWs through helper calls.
* ``no-fences`` — QEMU with the ``no-fences`` scheme: no ordering
  enforcement (the incorrect performance oracle).
* ``tcg-ver``   — QEMU with Risotto's verified ``risotto`` scheme only
  (Figure 7a fences + fence merging); helper RMWs, no host linker.
* ``risotto``   — everything: the ``risotto`` scheme, fence merging,
  direct ``casal`` CAS translation, dynamic host library linker.

Each variant names the :class:`~repro.core.most.FenceScheme` its
frontend emits from; ``most-<scheme>`` variants do the same for every
registered scheme.

``native`` is not a DBT configuration: native runs execute the
Arm-compiled workload directly on the machine (see
:mod:`repro.workloads`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace

from ..core.most import NOFENCES_SCHEME, QEMU_SCHEME, RISOTTO_SCHEME, \
    SCHEMES, FenceScheme
from ..errors import ReproError
from ..tcg.frontend_x86 import CasPolicy, FrontendConfig
from ..tcg.optimizer import OptimizerConfig


@dataclass(frozen=True)
class DBTConfig:
    name: str
    frontend: FrontendConfig
    optimizer: OptimizerConfig = OptimizerConfig()
    use_host_linker: bool = False

    def with_overrides(self, **kw) -> "DBTConfig":
        return replace(self, **kw)


#: Default hotness threshold when tier-2 is enabled without an
#: explicit value (``--tier2-threshold 0`` / env ``1``&co pick their
#: own numbers; this is what plain "on" means).
DEFAULT_TIER2_THRESHOLD = 128

#: Env var holding the session-wide tier-2 threshold.  Unset, ``0``,
#: ``off``, ``none`` or ``disabled`` mean tier-2 stays off — the
#: tier-1 default every existing test and figure relies on.
TIER2_ENV = "REPRO_TIER2_THRESHOLD"


@dataclass(frozen=True)
class Tier2Config:
    """Second-tier (superblock) compilation knobs.

    Tier-2 is opt-in: engines only promote when a ``Tier2Config`` is
    present (CLI flag, API argument, or the ``REPRO_TIER2_THRESHOLD``
    environment variable).
    """

    #: Dispatch count at which a block is promoted to a trace head.
    threshold: int = DEFAULT_TIER2_THRESHOLD


def tier2_from_env() -> Tier2Config | None:
    """The environment's tier-2 config, or ``None`` (tier-2 off)."""
    raw = os.environ.get(TIER2_ENV, "").strip().lower()
    if raw in ("", "0", "off", "none", "disabled"):
        return None
    try:
        threshold = int(raw)
    except ValueError:
        raise ReproError(
            f"{TIER2_ENV}={raw!r}: expected an integer threshold or "
            f"0/off/none/disabled") from None
    if threshold <= 0:
        return None
    return Tier2Config(threshold=threshold)


QEMU = DBTConfig(
    name="qemu",
    frontend=FrontendConfig(
        cas_policy=CasPolicy.HELPER,
        scheme=QEMU_SCHEME,
    ),
)

NO_FENCES = DBTConfig(
    name="no-fences",
    frontend=FrontendConfig(
        cas_policy=CasPolicy.HELPER,
        scheme=NOFENCES_SCHEME,
    ),
)

TCG_VER = DBTConfig(
    name="tcg-ver",
    frontend=FrontendConfig(
        cas_policy=CasPolicy.HELPER,
        scheme=RISOTTO_SCHEME,
    ),
)

RISOTTO = DBTConfig(
    name="risotto",
    frontend=FrontendConfig(
        cas_policy=CasPolicy.NATIVE,
        scheme=RISOTTO_SCHEME,
    ),
    use_host_linker=True,
)

VARIANTS: dict[str, DBTConfig] = {
    c.name: c for c in (QEMU, NO_FENCES, TCG_VER, RISOTTO)
}


def scheme_variant(scheme: FenceScheme) -> DBTConfig:
    """A full-featured DBT variant emitting from a derived scheme.

    Derived variants take the ``risotto`` chassis (native CAS, host
    linker, default optimizer) and swap only the fence scheme, so
    sweeps compare mapping schemes and nothing else.
    """
    return DBTConfig(
        name=f"most-{scheme.name}",
        frontend=FrontendConfig(
            cas_policy=CasPolicy.NATIVE,
            scheme=scheme,
        ),
        use_host_linker=True,
    )


#: Table-derived (source, target, scheme) variants — one per entry in
#: :data:`repro.core.most.SCHEMES`, named ``most-<scheme>``.  Kept in
#: a separate registry so :data:`VARIANT_NAMES` stays the four paper
#: variants + native (figure column order is load-bearing), but
#: :func:`resolve_variant` accepts both.
SCHEME_VARIANTS: dict[str, DBTConfig] = {
    cfg.name: cfg
    for cfg in (scheme_variant(s) for s in SCHEMES.values())
}

#: The one non-DBT variant: run the Arm-compiled workload directly.
NATIVE = "native"

#: Every name a harness/CLI/fuzzer may put in a ``variant`` slot, in
#: the figures' column order (DBT variants first, native reference
#: last).  The single registry all variant string-matching goes
#: through.
VARIANT_NAMES: tuple[str, ...] = tuple(VARIANTS) + (NATIVE,)


def resolve_variant(name: str) -> DBTConfig | None:
    """The :class:`DBTConfig` for ``name``; ``None`` for ``native``.

    Raises :class:`~repro.errors.ReproError` naming the valid variants
    on anything else — the one place a bad variant string surfaces,
    whatever the entry point.
    """
    if name == NATIVE:
        return None
    if name in VARIANTS:
        return VARIANTS[name]
    if name in SCHEME_VARIANTS:
        return SCHEME_VARIANTS[name]
    raise ReproError(
        f"unknown variant {name!r}; expected one of "
        f"{VARIANT_NAMES} or a derived scheme variant "
        f"({', '.join(sorted(SCHEME_VARIANTS))})") from None
