"""Declarative fault plans.

A :class:`FaultPlan` is a seed plus an ordered tuple of
:class:`FaultRule`.  Every rule has one of two triggers:

* **A rate** (``prob``): the rule is tried on every verb that passes its
  filters (``verbs``, ``mn``, the ``[start_ns, end_ns)`` window,
  ``client``) with one draw of the injector's seeded RNG; the first rate
  rule that fires decides the verb's fate.  Only fabric kinds (``drop``,
  ``delay``, ``duplicate``, ``stale_cas``, ``brownout``) take a rate.
* **A schedule** (``at_verb=k``): the rule fires exactly once, at the
  first verb with global sequence number ``>= k`` that passes its
  filters.  Any fabric kind may be scheduled ("verb k lands d ns late"),
  and so is a client crash (``crash_cn``: the op generator of the client
  issuing that verb is abandoned mid-flight, its locks stay held for
  lease recovery to reclaim, and its executor is dead from then on).
  Environment kinds (``poke``, ``flip``, ``crash_mn``) are always
  scheduled and take no filters: they mutate memory-node bytes directly
  before the verb is decided - corruption and node loss rather than
  fabric behaviour - and ``mn`` names the node ``crash_mn`` kills.

Everything is frozen and value-like so plans can sit inside benchmark
``CellSpec``s and be compared/hashed.  Plans never hold RNG state; the
:class:`repro.fault.inject.FaultInjector` owns the single seeded stream,
which is what makes a plan's schedule a pure function of
``(seed, rules, verb stream)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Tuple

from ..dm.rdma import VERB_KIND
from ..errors import ConfigError

FABRIC_KINDS = ("drop", "delay", "duplicate", "stale_cas", "brownout")
ENV_KINDS = ("poke", "flip", "crash_mn")


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault.  Use the module-level constructors
    (:func:`drop`, :func:`delay`, ...) rather than building directly."""

    kind: str
    prob: float = 0.0                       # rate trigger: P(per verb)
    verbs: Optional[Tuple[str, ...]] = None  # None = all verb kinds
    mn: Optional[int] = None                # None = any MN; crash_mn target
    applied_prob: float = 0.0               # drop: P(side effect applied)
    delay_ns: int = 0                       # delay / brownout
    start_ns: int = 0                       # matching window (sim time)
    end_ns: Optional[int] = None
    at_verb: Optional[int] = None           # schedule trigger: verb seq
    addr: Optional[int] = None              # poke/flip target
    data: bytes = b""                       # poke payload
    xor: int = 0                            # flip mask (0 = random bit)
    length: int = 1                         # flip span in bytes
    client: Optional[str] = None            # client id prefix filter

    def validate(self) -> None:
        kind = self.kind
        if kind not in FABRIC_KINDS and kind not in ENV_KINDS \
                and kind != "crash_cn":
            raise ConfigError(f"unknown fault kind {kind!r}")
        if self.at_verb is None:
            if kind not in FABRIC_KINDS:
                raise ConfigError(f"{kind}: needs at_verb (a scheduled "
                                  "event, not a per-verb rate)")
        elif self.at_verb < 0:
            raise ConfigError(f"{kind}: at_verb must be >= 0")
        elif self.prob:
            raise ConfigError(f"{kind}: at_verb and prob are two "
                              "triggers; set one")
        if not (0.0 <= self.prob <= 1.0
                and 0.0 <= self.applied_prob <= 1.0):
            raise ConfigError(
                f"{kind}: prob and applied_prob must be in [0, 1]")
        if kind in ENV_KINDS and (
                self.verbs is not None or self.client is not None
                or self.start_ns or self.end_ns is not None
                or (kind != "crash_mn" and self.mn is not None)):
            raise ConfigError(f"{kind}: an environment rule takes no "
                              "filters")
        if kind == "crash_mn" and self.mn is None:
            raise ConfigError("crash_mn: needs mn")
        if kind == "poke" and (self.addr is None or not self.data):
            raise ConfigError("poke: needs addr and data")
        if kind == "flip" and self.addr is None:
            raise ConfigError("flip: needs addr")
        if self.verbs is not None:
            for verb in self.verbs:
                if verb not in VERB_KIND.values():
                    raise ConfigError(f"unknown verb kind {verb!r}")
        if self.delay_ns < 0 or self.start_ns < 0 or self.length < 1:
            raise ConfigError(f"{kind}: negative/zero-size field")
        if self.end_ns is not None and self.end_ns <= self.start_ns:
            raise ConfigError(f"{kind}: empty time window")


# -- rule constructors ------------------------------------------------------

def drop(prob: float, verbs: Optional[Tuple[str, ...]] = None, *,
         applied_prob: float = 0.0, mn: Optional[int] = None,
         start_ns: int = 0, end_ns: Optional[int] = None) -> FaultRule:
    """Lose a verb's completion.  ``applied_prob`` is the chance the MN
    applied the side effect before the loss (completion loss) versus the
    request itself being lost (no side effect)."""
    return FaultRule(kind="drop", prob=prob, verbs=verbs,
                     applied_prob=applied_prob, mn=mn,
                     start_ns=start_ns, end_ns=end_ns)


def delay(prob: float, delay_ns: int,
          verbs: Optional[Tuple[str, ...]] = None, *,
          mn: Optional[int] = None) -> FaultRule:
    """Deliver the completion late by ``delay_ns`` simulated ns."""
    return FaultRule(kind="delay", prob=prob, delay_ns=delay_ns,
                     verbs=verbs, mn=mn)


def duplicate(prob: float,
              verbs: Tuple[str, ...] = ("write",)) -> FaultRule:
    """Phantom retransmission: the verb applies twice, one completion."""
    return FaultRule(kind="duplicate", prob=prob, verbs=verbs)


def stale_cas(prob: float, *, mn: Optional[int] = None) -> FaultRule:
    """A CAS that actually swapped reports failure with the stale
    pre-swap snapshot (the classic lost-CAS-reply ambiguity)."""
    return FaultRule(kind="stale_cas", prob=prob, verbs=("cas",), mn=mn)


def brownout(mn: int, start_ns: int, end_ns: int, prob: float, *,
             delay_ns: int = 0) -> FaultRule:
    """A NIC brown-out window on one MN: during ``[start_ns, end_ns)``
    matching verbs are delayed (``delay_ns > 0``) or dropped unapplied."""
    return FaultRule(kind="brownout", prob=prob, mn=mn,
                     start_ns=start_ns, end_ns=end_ns, delay_ns=delay_ns)


def poke(addr: int, data: bytes, *, at_verb: int = 0) -> FaultRule:
    """Scheduled raw byte write at a global address (e.g. forge a lock
    word).  Models an abandoned lock / torn state without a client."""
    return FaultRule(kind="poke", addr=addr, data=bytes(data),
                     at_verb=at_verb)


def flip(addr: int, *, xor: int = 0, length: int = 1,
         at_verb: int = 0) -> FaultRule:
    """Scheduled bit flips: XOR ``xor`` (0 = one seeded-random bit) into
    ``length`` bytes at ``addr``."""
    return FaultRule(kind="flip", addr=addr, xor=xor, length=length,
                     at_verb=at_verb)


def crash_mn(mn: int, *, at_verb: int = 0) -> FaultRule:
    """Crash-and-blank: zero one MN's entire allocated region.  Data on
    that node is gone; clients must degrade, not corrupt.  After the
    crash every verb addressed to the node fails fast with
    :class:`repro.errors.MNUnavailable` (no retry storm)."""
    return FaultRule(kind="crash_mn", mn=mn, at_verb=at_verb)


def crash_cn(at_verb: int, *, client: Optional[str] = None,
             applied_prob: float = 0.0) -> FaultRule:
    """Kill a compute-node client mid-operation: the first verb at or
    after global sequence ``at_verb`` issued by a client whose id starts
    with ``client`` (``None`` = whoever issues that verb) never returns.
    The victim's generator is abandoned without cleanup - locks it holds
    stay held until lease recovery reclaims them - and its executor
    raises :class:`repro.errors.ClientCrash` on any further use.

    ``applied_prob`` is the chance the dying verb's side effect still
    landed at the MN (the request escaped the NIC before the crash) -
    the mid-publish window that makes half-writes reachable."""
    return FaultRule(kind="crash_cn", at_verb=at_verb, client=client,
                     applied_prob=applied_prob)


# -- the plan ---------------------------------------------------------------

@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered fault schedule.

    ``timeout_ns`` is the client-visible completion timeout charged (in
    simulated time) whenever a drop/NAK leaves a verb without a reply.
    """

    seed: int
    rules: Tuple[FaultRule, ...] = ()
    timeout_ns: int = 12_000

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))

    def validate(self) -> None:
        if self.timeout_ns < 0:
            raise ConfigError("FaultPlan.timeout_ns must be >= 0")
        for rule in self.rules:
            rule.validate()

    @classmethod
    def chaos(cls, seed: int, intensity: float = 1.0,
              crashes: bool = False, num_mns: int = 3) -> "FaultPlan":
        """The standard chaos mix used by ``--chaos`` and the property
        suite: fabric faults, under the *fail-safe CAS,
        at-least-once write* model the clients' retry protocols are
        designed to survive (see DESIGN.md "Fault model"):

        * reads: request or completion lost (no side effect either way),
        * writes: completion lost but the write applied,
        * CAS/FAA: request lost, nothing applied,
        * random completion delays, phantom write retransmissions,
        * one seeded brown-out window on a seeded MN.

        With ``crashes=True`` the mix additionally schedules one seeded
        ``crash_cn`` (a client dies mid-op; its dying verb lands with
        probability 0.5) and, on half the seeds, one seeded ``crash_mn``
        - survivable now that ``repro.recover`` reclaims abandoned
        leases and operations on a dead MN degrade via
        :class:`repro.errors.MNUnavailable`.  The default
        ``crashes=False`` mix is byte-identical to the pre-recovery
        plan.

        Memory-corruption rules (``flip``/``poke``) and ``stale_cas``
        are injectable but deliberately not part of this mix - silent
        corruption has no protocol-level recovery story - and are
        exercised by targeted tests instead.

        ``num_mns`` widens the seeded MN picks (brown-out window,
        ``crash_mn`` victim) to a rack-scale cluster; the default of 3
        keeps every existing plan byte-identical.
        """
        if intensity < 0:
            raise ConfigError("chaos intensity must be >= 0")
        if num_mns < 1:
            raise ConfigError("chaos num_mns must be >= 1")
        p = min(1.0, 0.01 * intensity)
        rng = random.Random(seed ^ 0xC4A05C4A05)
        window_start = rng.randrange(200_000, 2_000_000)
        rules = (
            drop(p, verbs=("read",)),
            drop(p, verbs=("write",), applied_prob=1.0),
            drop(p, verbs=("cas", "faa"), applied_prob=0.0),
            delay(min(1.0, 3 * p), delay_ns=20_000),
            duplicate(p, verbs=("write",)),
            brownout(rng.randrange(0, num_mns), window_start,
                     window_start + 250_000, min(1.0, 10 * p)),
        )
        if crashes:
            rules = rules + (
                crash_cn(rng.randrange(2_000, 40_000), applied_prob=0.5),)
            if rng.random() < 0.5:
                rules = rules + (
                    crash_mn(rng.randrange(0, num_mns),
                             at_verb=rng.randrange(50_000, 120_000)),)
        return cls(seed=seed, rules=rules)
