"""The runtime half of fault injection.

A :class:`FaultInjector` binds a :class:`FaultPlan` to a cluster's memory
nodes.  Executors consult :meth:`FaultInjector.gate` once per verb, when
the verb is posted; the injector checks the client and target MN are
alive and the address routable, then walks the plan's rules in order
against its single seeded RNG, and returns either ``None`` (the verb
takes exactly the path it takes with no plan attached) or a
:class:`Decision` that the executor turns into a lost request, a lost
completion, a delay, a phantom retransmission, a stale CAS reply or a
dead client.  Scheduled environment rules (pokes, bit flips, MN crashes)
fire from the same call, keyed on the global verb sequence number, and
mutate memory bytes directly - invisible to the allocator and the
sanitizer, exactly like real silent corruption.

Determinism: the schedule is a pure function of ``(plan, verb stream)``.
The injector draws from its RNG only for rules that *match* a verb, so a
plan with no rules consumes no randomness and perturbs nothing - the
zero-overhead guarantee the equivalence tests pin down.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Set, Tuple

from ..dm.memory import Memory, addr_mn, addr_offset, make_addr
from ..dm.rdma import CasOp, FaaOp, ReadOp, Verb, WriteOp
from .plan import FaultPlan, FaultRule

_VERB_KIND = {ReadOp: "read", WriteOp: "write", CasOp: "cas", FaaOp: "faa"}

TRACE_LIMIT = 64


@dataclass(frozen=True)
class FaultEvent:
    """One fired fault, as recorded in the schedule and the trace."""
    seq: int          # global verb sequence number when it fired
    now: int          # simulated ns
    client: str       # client id of the verb (or "env" for crashes)
    kind: str         # rule kind ("drop", "delay", ..., "nak")
    verb: str         # verb kind the fault hit ("read", ..., "-")
    addr: int         # target global address (0 when not applicable)

    def compact(self) -> Tuple[int, int, str, str, str, int]:
        return (self.seq, self.now, self.client, self.kind,
                self.verb, self.addr)


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
        self._rng = random.Random(plan.seed)
        self.verb_seq = 0
        self.counters: Dict[str, int] = {}
        self._schedule: List[Tuple] = []   # every fired event, compact form
        self._trace: List[FaultEvent] = []  # bounded, most recent last
        self._stochastic: List[FaultRule] = []
        self._scheduled: List[Tuple[int, FaultRule]] = []
        self._crash_pending: List[FaultRule] = []
        for idx, rule in enumerate(plan.rules):
            if rule.kind == "crash_cn":
                # Crash rules wait for a *matching* client at or after
                # at_verb, so they live outside the strict _scheduled
                # prefix (a client filter must not block later rules).
                self._crash_pending.append((idx, rule))
            elif rule.at_verb is not None:
                self._scheduled.append((idx, rule))
            else:
                self._stochastic.append(rule)
        self._scheduled.sort(key=lambda pair: (pair[1].at_verb, pair[0]))
        self._fired = 0  # prefix of self._scheduled already executed
        self._crash_pending.sort(key=lambda pair: (pair[1].at_verb, pair[0]))
        self._crash_pending = [rule for _, rule in self._crash_pending]
        self.crashed_clients: Set[str] = set()
        self.dead_mns: Set[int] = set()

    # -- accounting ------------------------------------------------------
    def _record(self, now: int, client: str, kind: str, verb: str,
                addr: int) -> None:
        event = FaultEvent(self.verb_seq, now, client, kind, verb, addr)
        self.counters[kind] = self.counters.get(kind, 0) + 1
        self._schedule.append(event.compact())
        self._trace.append(event)
        if len(self._trace) > TRACE_LIMIT:
            del self._trace[0]

    def faults_total(self) -> int:
        return sum(self.counters.values())

    def schedule(self) -> Tuple[Tuple, ...]:
        """The full fired-fault schedule (compact tuples) - the object the
        determinism tests compare bit-for-bit."""
        return tuple(self._schedule)

    def trace_tuple(self) -> Tuple[FaultEvent, ...]:
        """The most recent fired faults (bounded), for error context."""
        return tuple(self._trace)

    # -- address sanity (NAK semantics) ----------------------------------
    def address_ok(self, op: Verb) -> bool:
        """Whether the fabric can even route this verb.  Corruption can
        hand clients garbage pointers; a real NIC answers with a NAK, not
        a Python KeyError."""
        memory = self._memories.get(addr_mn(op.addr))
        if memory is None:
            return False
        offset = addr_offset(op.addr)
        cls = op.__class__
        if cls is ReadOp:
            size = op.size
        elif cls is WriteOp:
            size = len(op.data)
        else:
            size = 8
        return 64 <= offset and offset + size <= memory.capacity

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
        then the plan's rules decide.  Only the last step consumes a
        verb sequence number."""
        if client in self.crashed_clients:
            return Decision("crash_cn")  # it never gets a verb out again
        if self.dead_mns and addr_mn(op.addr) in self.dead_mns:
            self._record(now, client, "mn_unavailable",
                         _VERB_KIND[op.__class__], op.addr)
            return Decision("mn_unavailable")
        if not self.address_ok(op):
            self._record(now, client, "nak", _VERB_KIND[op.__class__],
                         op.addr)
            return Decision("nak")
        seq = self.verb_seq
        if self._fired < len(self._scheduled):
            self._run_scheduled(seq, now)
        decision = None
        if self._crash_pending:
            decision = self._match_crash(client, op, seq, now)
        if decision is None and self._stochastic:
            decision = self._match_stochastic(client, op, now)
        self.verb_seq = seq + 1
        return decision

    def _match_crash(self, client: str, op: Verb, seq: int,
                     now: int) -> Optional[Decision]:
        for i, rule in enumerate(self._crash_pending):
            if rule.at_verb > seq:
                continue
            if rule.client is not None \
                    and not client.startswith(rule.client):
                continue
            del self._crash_pending[i]
            self.crashed_clients.add(client)
            applied_prob = rule.applied_prob
            if applied_prob >= 1.0:
                applied = True
            elif applied_prob <= 0.0:
                applied = False
            else:
                applied = self._rng.random() < applied_prob
            self._record(now, client, "crash_cn",
                         _VERB_KIND[op.__class__], op.addr)
            return Decision("crash_cn", applied=applied)
        return None

    def _match_stochastic(self, client: str, op: Verb,
                          now: int) -> Optional[Decision]:
        verb_kind = _VERB_KIND[op.__class__]
        mn = addr_mn(op.addr)
        rng = self._rng
        for rule in self._stochastic:
            if rule.verbs is not None and verb_kind not in rule.verbs:
                continue
            if rule.mn is not None and mn != rule.mn:
                continue
            if now < rule.start_ns:
                continue
            if rule.end_ns is not None and now >= rule.end_ns:
                continue
            if rule.kind == "flip":
                if rng.random() >= rule.prob:
                    continue
                self._random_flip(rule, now)
                return None  # environment corruption; the verb proceeds
            if rng.random() >= rule.prob:
                continue
            return self._fire(rule, client, verb_kind, op.addr, now)
        return None

    def _fire(self, rule: FaultRule, client: str, verb_kind: str,
              addr: int, now: int) -> Decision:
        kind = rule.kind
        self._record(now, client, kind, verb_kind, addr)
        if kind == "delay":
            return Decision("delay", delay_ns=rule.delay_ns)
        if kind == "duplicate":
            return Decision("duplicate")
        if kind == "stale_cas":
            return Decision("stale_cas")
        # drop, or a brown-out acting as drop/delay
        if kind == "brownout" and rule.delay_ns > 0:
            return Decision("delay", delay_ns=rule.delay_ns)
        applied_prob = rule.applied_prob
        if applied_prob >= 1.0:
            applied = True
        elif applied_prob <= 0.0:
            applied = False
        else:
            applied = self._rng.random() < applied_prob
        return Decision("drop", applied=applied)

    # -- scheduled environment faults ------------------------------------
    def _run_scheduled(self, seq: int, now: int) -> None:
        while self._fired < len(self._scheduled):
            _, rule = self._scheduled[self._fired]
            if rule.at_verb > seq:
                return
            self._fired += 1
            if rule.kind == "poke":
                self._poke_bytes(rule.addr, rule.data)
                self._record(now, "env", "poke", "-", rule.addr)
            elif rule.kind == "flip":
                self._random_flip(rule, now)
            elif rule.kind == "crash_mn":
                self._crash(rule.mn)
                self._record(now, "env", "crash_mn", "-",
                             make_addr(rule.mn, 64))

    def _poke_bytes(self, addr: int, data: bytes) -> None:
        """Raw byte write, bypassing allocator/sanitizer bookkeeping -
        this is physical corruption, not a protocol access."""
        memory = self._memories[addr_mn(addr)]
        offset = addr_offset(addr)
        end = offset + len(data)
        if end > len(memory._data):
            memory._data.extend(bytes(end - len(memory._data)))
        memory._data[offset:end] = data

    def _random_flip(self, rule: FaultRule, now: int) -> None:
        rng = self._rng
        if rule.addr is not None:
            addr = rule.addr
        else:
            mn_ids = sorted(self._memories)
            mn = rule.mn if rule.mn is not None else rng.choice(mn_ids)
            memory = self._memories[mn]
            bump = memory.footprint_bytes()
            if bump <= 64:
                return
            addr = make_addr(mn, rng.randrange(64, bump))
        memory = self._memories[addr_mn(addr)]
        offset = addr_offset(addr)
        mask = rule.xor if rule.xor else (1 << rng.randrange(8))
        for i in range(rule.length):
            if offset + i >= len(memory._data):
                break
            memory._data[offset + i] ^= mask
        self._record(now, "env", "flip", "-", addr)

    def _crash(self, mn: int) -> None:
        memory = self._memories[mn]
        end = min(memory._bump, len(memory._data))
        if end > 64:
            memory._data[64:end] = bytes(end - 64)
        self.dead_mns.add(mn)
