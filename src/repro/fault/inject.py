"""The runtime half of fault injection.

A :class:`FaultInjector` binds a :class:`FaultPlan` to a cluster's memory
nodes.  Executors consult :meth:`FaultInjector.gate` once per verb, when
the verb is posted; the injector checks the client and target MN are
alive and the address routable, then runs the plan's rules against its
single seeded RNG, and returns either ``None`` (the verb takes exactly
the path it takes with no plan attached) or a :class:`Decision` that the
executor turns into a lost request, a lost completion, a delay, a
phantom retransmission, a stale CAS reply or a dead client.

Every rule has one of two triggers.  A scheduled rule (``at_verb=k``)
fires once, at the first verb with sequence number ``>= k`` that passes
its filters; a rate rule (``prob``) is tried on every matching verb.
Scheduled environment rules (pokes, bit flips, MN crashes) have no
filters and fire before the verb is decided: they mutate memory bytes
directly - invisible to the allocator and the sanitizer, exactly like
real silent corruption.  Every fired fault lands in one history, the
schedule.

Determinism: the schedule is a pure function of ``(plan, verb stream)``.
The injector draws from its RNG only for rules that *match* a verb, so a
plan with no rules consumes no randomness and perturbs nothing - the
zero-overhead guarantee the equivalence tests pin down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Optional, Set, Tuple

from ..dm.memory import Memory, addr_mn, addr_offset, format_addr, make_addr
from ..dm.rdma import VERB_KIND, ReadOp, Verb, WriteOp
from ..errors import ConfigError
from .plan import ENV_KINDS, FaultPlan, FaultRule

TRACE_LIMIT = 64


class FaultEvent(NamedTuple):
    """One fired fault, as recorded in the schedule."""
    seq: int          # global verb sequence number when it fired
    now: int          # simulated ns
    client: str       # client id of the verb (or "env" for environment)
    kind: str         # rule kind ("drop", "delay", ..., "nak")
    verb: str         # verb kind the fault hit ("read", ..., "-")
    addr: int         # target global address (0 when not applicable)


@dataclass
class Decision:
    """What the executor should do to the current verb."""
    # "drop" | "delay" | "duplicate" | "stale_cas" | "crash_cn" from the
    # plan's rules ("crash_cn" again on every later verb of the victim);
    # the lost requests "mn_unavailable" | "nak" from the liveness and
    # address checks.
    kind: str
    applied: bool = False  # drop/crash_cn: did the side effect land?
    delay_ns: int = 0


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against a live cluster."""

    def __init__(self, plan: FaultPlan, memories: Mapping[int, Memory]):
        plan.validate()
        self.plan = plan
        self._memories = memories
        for rule in plan.rules:
            self._check_target(rule)
        self._rng = random.Random(plan.seed)
        self.verb_seq = 0
        self.counters: Dict[str, int] = {}
        self._schedule: List[FaultEvent] = []  # every fired fault
        # The two triggers: scheduled rules by at_verb, then plan order
        # (a stable sort); rate rules in plan order.
        self._scheduled: List[FaultRule] = sorted(
            (rule for rule in plan.rules if rule.at_verb is not None),
            key=lambda rule: rule.at_verb)
        self._rate: List[FaultRule] = [
            rule for rule in plan.rules if rule.at_verb is None]
        self.crashed_clients: Set[str] = set()
        self.dead_mns: Set[int] = set()

    def _check_target(self, rule: FaultRule) -> None:
        """An environment rule must hit memory this cluster has."""
        if rule.kind == "crash_mn":
            if rule.mn not in self._memories:
                raise ConfigError(f"crash_mn: no MN {rule.mn}")
        elif rule.kind in ENV_KINDS:
            size = len(rule.data) if rule.kind == "poke" else rule.length
            if not self._routable(rule.addr, size):
                raise ConfigError(f"{rule.kind}: {size} B at "
                                  f"{format_addr(rule.addr)} is outside "
                                  "every MN's capacity")

    # -- accounting ------------------------------------------------------
    def _record(self, now: int, client: str, kind: str, verb: str,
                addr: int) -> None:
        self.counters[kind] = self.counters.get(kind, 0) + 1
        self._schedule.append(
            FaultEvent(self.verb_seq, now, client, kind, verb, addr))

    def faults_total(self) -> int:
        return sum(self.counters.values())

    def schedule(self) -> Tuple[FaultEvent, ...]:
        """The full fired-fault schedule - the object the determinism
        tests compare bit-for-bit."""
        return tuple(self._schedule)

    def trace_tuple(self) -> Tuple[FaultEvent, ...]:
        """The most recent fired faults (bounded), for error context."""
        return tuple(self._schedule[-TRACE_LIMIT:])

    # -- address sanity (NAK semantics) ----------------------------------
    def _routable(self, addr: int, size: int) -> bool:
        memory = self._memories.get(addr_mn(addr))
        offset = addr_offset(addr)
        return memory is not None and 64 <= offset \
            and offset + size <= memory.capacity

    def address_ok(self, op: Verb) -> bool:
        """Whether the fabric can even route this verb.  Corruption can
        hand clients garbage pointers; a real NIC answers with a NAK, not
        a Python KeyError."""
        cls = op.__class__
        if cls is ReadOp:
            size = op.size
        elif cls is WriteOp:
            size = len(op.data)
        else:
            size = 8
        return self._routable(op.addr, size)

    # -- the per-verb hook ----------------------------------------------
    def gate(self, client: str, op: Verb, now: int) -> Optional[Decision]:
        """The one pre-verb fault gate: executors call it once per verb
        at post time, in issue order (member order for a doorbell).

        ``None`` - every verb of an empty plan, almost every verb under
        chaos - means the verb runs exactly as it would with no plan
        attached.  Otherwise the checks fire in this order: a crashed
        client stays crashed; a dead MN fails fast (before
        :meth:`address_ok`: a blanked region still passes the range
        check and would hand back all-zero "data" - silent wrong answers
        instead of a typed failure); an unroutable address is NAKed;
        then the plan's rules decide - the scheduled rules that are due,
        then the rate rules.  Only the last step consumes a verb
        sequence number."""
        if client in self.crashed_clients:
            return Decision("crash_cn")  # it never gets a verb out again
        if self.dead_mns and addr_mn(op.addr) in self.dead_mns:
            self._record(now, client, "mn_unavailable",
                         VERB_KIND[op.__class__], op.addr)
            return Decision("mn_unavailable")
        if not self.address_ok(op):
            self._record(now, client, "nak", VERB_KIND[op.__class__],
                         op.addr)
            return Decision("nak")
        seq = self.verb_seq
        decision = None
        scheduled = self._scheduled
        if scheduled and scheduled[0].at_verb <= seq:
            decision = self._fire_due(client, op, seq, now)
        if decision is None and self._rate:
            rng = self._rng
            for rule in self._rate:
                if self._matches(rule, client, op, now) \
                        and rng.random() < rule.prob:
                    decision = self._fire(rule, client, op, now)
                    break
        self.verb_seq = seq + 1
        return decision

    def _fire_due(self, client: str, op: Verb, seq: int,
                  now: int) -> Optional[Decision]:
        """Fire the due part of the scheduled list: every environment
        rule, then the first verb rule whose filters pass ``op``."""
        due = self._scheduled
        i = 0
        while i < len(due) and due[i].at_verb <= seq:
            if due[i].kind in ENV_KINDS:
                self._environment(due.pop(i), now)
            else:
                i += 1
        for j in range(i):  # due[:i] are the due verb rules
            rule = due[j]
            if self._matches(rule, client, op, now):
                del due[j]
                return self._fire(rule, client, op, now)
        return None

    @staticmethod
    def _matches(rule: FaultRule, client: str, op: Verb, now: int) -> bool:
        """Whether a verb rule's filters pass ``op``."""
        return (rule.verbs is None or VERB_KIND[op.__class__] in rule.verbs) \
            and (rule.mn is None or addr_mn(op.addr) == rule.mn) \
            and rule.start_ns <= now \
            and (rule.end_ns is None or now < rule.end_ns) \
            and (rule.client is None or client.startswith(rule.client))

    def _fire(self, rule: FaultRule, client: str, op: Verb,
              now: int) -> Decision:
        """The one verb decision path, whichever trigger fired it."""
        kind = rule.kind
        self._record(now, client, kind, VERB_KIND[op.__class__], op.addr)
        if kind == "delay" or (kind == "brownout" and rule.delay_ns > 0):
            return Decision("delay", delay_ns=rule.delay_ns)
        if kind == "duplicate" or kind == "stale_cas":
            return Decision(kind)
        # A lost completion - a drop, a brown-out acting as one, or a
        # dead CN - and whether the verb's side effect landed anyway.
        if kind == "crash_cn":
            self.crashed_clients.add(client)
        else:
            kind = "drop"
        applied_prob = rule.applied_prob
        if applied_prob >= 1.0:
            applied = True
        elif applied_prob <= 0.0:
            applied = False
        else:
            applied = self._rng.random() < applied_prob
        return Decision(kind, applied=applied)

    # -- scheduled environment faults ------------------------------------
    def _environment(self, rule: FaultRule, now: int) -> None:
        """Raw byte mutation, bypassing allocator/sanitizer bookkeeping -
        physical corruption or node loss, not a protocol access."""
        kind = rule.kind
        if kind == "crash_mn":
            memory = self._memories[rule.mn]
            end = min(memory._bump, len(memory._data))
            if end > 64:
                memory._data[64:end] = bytes(end - 64)
            self.dead_mns.add(rule.mn)
            self._record(now, "env", kind, "-", make_addr(rule.mn, 64))
            return
        memory = self._memories[addr_mn(rule.addr)]
        offset = addr_offset(rule.addr)
        if kind == "poke":
            memory._check_range(offset, len(rule.data))  # grows backing
            memory._data[offset:offset + len(rule.data)] = rule.data
        else:  # flip: XOR the mask (one seeded bit when 0) into the span
            memory._check_range(offset, rule.length)
            mask = rule.xor if rule.xor else (1 << self._rng.randrange(8))
            for i in range(offset, offset + rule.length):
                memory._data[i] ^= mask
        self._record(now, "env", kind, "-", rule.addr)
