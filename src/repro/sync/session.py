"""Incremental peer synchronization sessions.

The paper's motivating scenario (Introduction) is *periodic*: "at regular
intervals of time, the university database is willing to receive new data
from Swiss-Prot".  A :class:`SyncSession` maintains the materialized
target state across rounds instead of re-solving from scratch.  Each round
the source publishes a new snapshot ``I_t`` (the source is authoritative,
so withdrawals are legitimate) and the session solves ``SOL(P)(I_t,
pinned)`` seeded with its still-justified imports.  *Pinned* facts are
the target's own data and must survive (Definition 2's ``J ⊆ J'``);
*imported* facts came from earlier rounds and are retracted once the
source stops vouching for them.

One round path: a snapshot is a delta against the retained base.  The
session retains the *base*, the source its committed state solves.
Whether ``I_t`` arrives whole (:meth:`SyncSession.sync`) or as an
``(added, withdrawn)`` patch of the base (:meth:`SyncSession.sync_delta`),
the round only needs the withdrawn part.  The committed state satisfied
``Σ_ts`` against the base, so an import can lose its justification only
through a ``Σ_ts`` body match whose head (in any disjunct) could have used
a withdrawn fact; the retraction scan re-checks just those.  Without a
base (the first round, after an unstamped round, or after resuming a
journal without a source) it re-checks every match.  One pass suffices:
``Σ_ts`` is anti-monotone in the target, so a retraction only removes
matches and never creates a violation.

Resilience (:mod:`repro.runtime`): a :class:`~repro.runtime.Budget`
that runs out *degrades* the round (a non-``DECIDED``
:class:`~repro.runtime.SolveStatus`, state unchanged); a
:class:`~repro.runtime.RetryPolicy` re-attempts budget-exhausted rounds
with escalated caps and jittered backoff (deadline expiry and
cancellation are never retried); a :class:`~repro.runtime.SessionJournal`
commits each round *before* the in-memory state changes, and
:meth:`SyncSession.resume` rebuilds the session after a crash.

Stamps (:mod:`repro.net`): transports deliver at-least-once and out of
order, so a publisher stamps each snapshot with a :class:`Stamp`
``(epoch, seq)``, ordered lexicographically.  A stamp at or below the
session's watermark is a stale no-op (``outcome.stale``), which makes
ingestion idempotent; the watermark and the base commit to the journal
with the round they protect.  A delta names the stamp of the base it
patches and applies only when that is the watermark and a base is
retained; otherwise the round reports ``DELTA_CHAIN_BROKEN`` without
touching any state and the sender falls back to a full snapshot.  An
applied *unstamped* round drops the base, since no stamp names the
source its state solves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.core.atoms import Atom, Fact
from repro.core.chase import _unify_row
from repro.core.dependencies import DisjunctiveTGD, TGD
from repro.core.homomorphism import find_homomorphism, iter_homomorphisms
from repro.core.instance import Instance
from repro.core.setting import PDESetting
from repro.exceptions import BudgetExceeded, SolverError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.runtime.budget import Budget, SolveStatus
from repro.runtime.journal import SessionJournal
from repro.runtime.retry import RetryPolicy
from repro.solver.exists_solution import _governed, solve
from repro.solver.incremental import IncrementalTractableSolver

__all__ = [
    "DELTA_CHAIN_BROKEN",
    "Stamp",
    "SyncOutcome",
    "SyncSession",
    "watermark_lag",
]

#: The :attr:`SyncOutcome.reason` reported when a delta's base stamp does
#: not match the session's watermark (or no base snapshot is retained).
#: The sender's contract: on this reason, fall back to a full snapshot.
DELTA_CHAIN_BROKEN = "delta-chain-broken"


class Stamp(NamedTuple):
    """A monotone snapshot stamp: ``(epoch, seq)``, lexicographic order.

    ``seq`` increments with every publish; ``epoch`` increments when the
    publisher restarts or re-baselines (``seq`` restarts at 0, and the
    higher epoch still wins).  Tuple comparison gives exactly the
    protocol order, so ``stamp <= watermark`` means *stale*.
    """

    epoch: int
    seq: int

    def __str__(self) -> str:
        return f"{self.epoch}.{self.seq}"


def watermark_lag(
    published: "list[Stamp] | list[tuple[int, int]]",
    watermark: "Stamp | tuple[int, int] | None",
) -> int:
    """How many published stamps a peer's watermark has not yet absorbed.

    The convergence-lag primitive shared by the simulator and the real
    daemon: given the publisher's history of published stamps and one
    peer's applied watermark, the lag is the number of publishes stamped
    *strictly above* the watermark — publishes whose effect the peer has
    not yet seen.  A peer that never applied anything (``watermark is
    None``) lags by the full history; a peer at the head lags 0.  Pure
    stamp arithmetic — lexicographic tuple comparison, the same order
    that makes ingestion idempotent — so both network stacks compute the
    identical number.
    """
    stamps = [Stamp(*stamp) for stamp in published]
    if watermark is None:
        return len(stamps)
    mark = Stamp(*watermark)
    return sum(1 for stamp in stamps if stamp > mark)


def _body_matches(
    dependency: "TGD | DisjunctiveTGD",
    disjuncts: "tuple[tuple[Atom, ...], ...]",
    state: Instance,
    rows: "dict[str, set] | None",
):
    """The body matches of ``dependency`` over ``state`` to re-check.

    Every match when ``rows`` is None; otherwise only those whose head
    atoms, in some disjunct, unify with a withdrawn row (each yielded
    once).
    """
    if rows is None:
        yield from iter_homomorphisms(dependency.body, state)
        return
    body_vars = dependency.body_variables()
    seen: set = set()
    for disjunct in disjuncts:
        for atom in disjunct:
            for args in rows.get(atom.relation, ()):
                partial = _unify_row(atom, args, restrict=body_vars)
                if partial is None:
                    continue
                for assignment in iter_homomorphisms(dependency.body, state, partial):
                    key = frozenset(assignment.items())
                    if key not in seen:
                        seen.add(key)
                        yield assignment


@dataclass
class SyncOutcome:
    """The result of one synchronization round.

    Attributes:
        ok: the round produced a consistent materialization.
        added: facts newly imported this round.
        retracted: previously imported facts dropped because the source no
            longer vouches for them.
        state: the materialized target state after the round.
        reason: when ``ok`` is False, why the round was rejected (or what
            budget ran out, for degraded rounds).
        status: ``DECIDED`` when the round ran to completion (successfully
            or as a definitive rejection); a degraded status
            (``BUDGET_EXHAUSTED`` / ``DEADLINE`` / ``CANCELLED``) when the
            governed solve gave up — the state is untouched and the round
            may simply be re-run later.
        attempts: how many solve attempts the round used (> 1 when a
            :class:`~repro.runtime.RetryPolicy` escalated a budget).
        metrics: the :class:`repro.obs.MetricsRegistry` the caller passed
            into :meth:`SyncSession.sync`, populated with the round's
            instruments; None when no registry was supplied.
        stale: the snapshot's :class:`Stamp` was not newer than the
            session's watermark, so the round was skipped as a duplicate
            or out-of-order redelivery (``ok`` is True — rejecting a
            replay is the protocol working, not an error — and the state
            is untouched).
        delta: the round ingested an incremental ``(added, withdrawn)``
            payload via :meth:`SyncSession.sync_delta` rather than a full
            snapshot.
    """

    ok: bool
    added: Instance
    retracted: Instance
    state: Instance
    reason: str = ""
    status: SolveStatus = SolveStatus.DECIDED
    attempts: int = 1
    metrics: MetricsRegistry | None = None
    stale: bool = False
    delta: bool = False

    @property
    def changed(self) -> bool:
        """Did the round modify the materialized state?"""
        return bool(len(self.added) or len(self.retracted))

    @property
    def degraded(self) -> bool:
        """True when the round gave up on a budget rather than deciding."""
        return self.status is not SolveStatus.DECIDED

    @property
    def chain_broken(self) -> bool:
        """True when a delta round's base did not match the watermark.

        The state is untouched; the sender should re-offer a full
        snapshot (the stamped protocol makes the re-offer idempotent).
        """
        return self.reason == DELTA_CHAIN_BROKEN


@dataclass
class SyncSession:
    """A long-lived synchronization session between two peers.

    Args:
        setting: the PDE setting governing the exchange.
        pinned: the target peer's own facts — the ``J`` of Definition 2;
            every materialization must contain them.
        journal: optional :class:`~repro.runtime.SessionJournal`; when
            given, every successful round is durably committed before the
            in-memory state changes, and :meth:`resume` can rebuild the
            session after a crash.
        retry: optional :class:`~repro.runtime.RetryPolicy` applied to
            budget-exhausted rounds.
    """

    setting: PDESetting
    pinned: Instance = field(default_factory=Instance)
    journal: SessionJournal | None = None
    retry: RetryPolicy | None = None
    #: Solve rounds with the stateful semi-naive solver when the setting
    #: allows it (C_tract).  Flipped off automatically for settings the
    #: incremental pipeline cannot serve; flip off manually to force the
    #: historical from-scratch solve on every round.
    incremental: bool = True
    _imported: Instance = field(default_factory=Instance)
    rounds: int = 0
    #: Watermark of the newest stamped snapshot ever ingested; None until
    #: the first stamped round.  Snapshots at or below it are stale.
    last_stamp: Stamp | None = None
    #: The base: the source snapshot the committed state solves, which
    #: the next round's retraction scan diffs against and the next delta
    #: patches.  Set by every applied stamped round; None before one and
    #: after an applied unstamped round (deltas are keyed on stamps).
    _last_source: Instance | None = None
    #: Lazily constructed incremental solver (see ``incremental``).
    _solver: IncrementalTractableSolver | None = field(default=None, repr=False)

    @classmethod
    def resume(cls, journal: SessionJournal) -> "SyncSession":
        """Rebuild a session from its journal (after a crash or restart).

        The restored session has the setting, pinned facts, imported
        facts, round counter, and stamp watermark of the last durably
        committed round; un-committed work is simply re-run by the next
        :meth:`sync` (stamped ingestion makes the re-run idempotent).
        """
        state = journal.load()
        session = cls(setting=state.setting, pinned=state.pinned, journal=journal)
        session._imported = state.imported
        session.rounds = state.rounds
        if state.stamp is not None:
            session.last_stamp = Stamp(*state.stamp)
        session._last_source = state.source
        return session

    def state(self) -> Instance:
        """The current materialized target state (pinned + imported)."""
        return self.pinned.union(self._imported)

    @property
    def last_source(self) -> Instance | None:
        """The source snapshot of the last applied stamped round.

        This is the snapshot a relay re-publishes downstream: forwarding
        the applied source (rather than the materialized target) keeps
        every hop exchanging *source* facts, so a chain of peers computes
        the same solutions as direct subscribers of the origin.  ``None``
        until a stamped round applies, and after an unstamped one.
        """
        return self._last_source

    def _retraction_scan(
        self, source: Instance, withdrawn: "Iterable[Fact] | None"
    ) -> Instance:
        """The imported facts that ``source`` no longer justifies.

        ``withdrawn`` is what ``source`` dropped from the retained base
        (None without a base; see the module docstring for why only the
        matches it touches need re-checking).  A ``Σ_ts`` body match that
        no disjunct witnesses in ``source`` retracts its first imported
        premise fact; matches that already lost a premise are skipped.
        """
        rows: dict[str, set] | None = None
        if withdrawn is not None:
            rows = {}
            for fact in withdrawn:
                rows.setdefault(fact.relation, set()).add(fact.args)
        state = self.state()
        retracted = Instance(schema=self.setting.target_schema)
        for dependency in self.setting.sigma_ts:
            if isinstance(dependency, DisjunctiveTGD):
                disjuncts = dependency.disjuncts
            else:
                disjuncts = (dependency.head,)
            for assignment in _body_matches(dependency, disjuncts, state, rows):
                premise = [
                    atom.substitute(assignment).to_fact() for atom in dependency.body
                ]
                if any(fact in retracted for fact in premise):
                    continue  # the match already lost a premise
                if any(
                    find_homomorphism(disjunct, source, assignment) is not None
                    for disjunct in disjuncts
                ):
                    continue  # some disjunct is still witnessed
                for fact in premise:
                    if fact in self._imported:
                        retracted.add(fact)
                        break
        return retracted

    def _incremental_solver(self) -> IncrementalTractableSolver | None:
        """The session's stateful solver, or None when unavailable."""
        if not self.incremental:
            return None
        if self._solver is None:
            try:
                self._solver = IncrementalTractableSolver(self.setting)
            except SolverError:
                # Outside C_tract the incremental pipeline is unsound;
                # remember that and keep the historical dispatch.
                self.incremental = False
                return None
        return self._solver

    def _attempt_solve(
        self,
        source: Instance,
        seed: Instance,
        node_budget: int | None,
        budget: Budget | None,
        tracer: Tracer,
        metrics: MetricsRegistry | None,
    ):
        """One solve attempt, via the incremental solver when available.

        Mirrors :func:`repro.solver.exists_solution.solve`'s governance:
        with a non-strict budget, exhaustion and chase overruns degrade
        into a result instead of raising.  A failed incremental attempt
        resets the solver cache itself, so a retry rebuilds cold.
        """
        solver = self._incremental_solver()
        if solver is None:
            return solve(
                self.setting,
                source,
                seed,
                node_budget=node_budget,
                budget=budget,
                tracer=tracer,
            )
        accounting = budget if budget is not None else Budget(strict=True)
        # Keep the historical ``solve`` span shape (method/dispatched/
        # exists/status) so trace consumers see one solver span per
        # attempt regardless of which pipeline served it.
        with tracer.span("solve", method="incremental") as span:
            result = _governed(
                "tractable-incremental",
                budget,
                lambda: solver.solve(
                    source, seed, budget=accounting, tracer=tracer,
                    metrics=metrics,
                ),
            )
            if tracer.enabled:
                span.set("dispatched", result.method)
                span.set("exists", result.exists)
                span.set("status", result.status.value)
        return result

    def _unchanged(self, reason: str, ok: bool = False, **fields) -> SyncOutcome:
        """An outcome leaving the materialization untouched: a rejected or
        degraded round, a stale redelivery, or a broken delta chain."""
        empty = Instance(schema=self.setting.target_schema)
        return SyncOutcome(
            ok, empty, empty.copy(), self.state(), reason=reason, **fields
        )

    def _skip_stale(
        self,
        stamp: Stamp,
        delta: bool,
        tracer: Tracer,
        metrics: MetricsRegistry | None,
    ) -> SyncOutcome | None:
        """The no-op outcome for a stamp at or below the watermark (a
        duplicate or out-of-order redelivery, which could only regress
        the materialization), or None for a live stamp."""
        if self.last_stamp is None or stamp > self.last_stamp:
            return None
        tracer.event("stale-snapshot", stamp=str(stamp), watermark=str(self.last_stamp))
        if metrics is not None:
            metrics.counter("sync.stale").inc()
        kind = "delta" if delta else "snapshot"
        return self._unchanged(
            f"stale {kind} {stamp} at or below watermark {self.last_stamp}; "
            "round skipped", ok=True, stale=True, delta=delta, metrics=metrics,
        )

    def sync(
        self,
        source: Instance,
        node_budget: int | None = None,
        budget: Budget | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        stamp: Stamp | tuple[int, int] | None = None,
    ) -> SyncOutcome:
        """Run one synchronization round against a new source snapshot.

        The snapshot is treated as a delta against the retained base: the
        round's retraction scan re-checks only what ``base - source``
        withdrew (everything, when no base is retained), exactly as
        :meth:`sync_delta` does for a shipped delta.

        Returns a :class:`SyncOutcome`; when the round is rejected (the
        *pinned* facts themselves are incompatible with the new source) or
        degraded (a governed solve ran out of budget), the materialized
        state is left unchanged.

        ``stamp`` marks the snapshot's position in the publisher's
        timeline (see :class:`Stamp`).  A stamped snapshot at or below
        the session's watermark returns a ``stale`` no-op outcome without
        solving; a newer one advances the watermark atomically with the
        journal commit and becomes the base.  Unstamped calls (the
        historical API) skip the check; an applied unstamped round drops
        the base, since no stamp names the source its state solves.

        With a non-strict ``budget`` and a session ``retry`` policy,
        budget-exhausted attempts are re-run with escalated caps after a
        jittered backoff; deadline and cancellation degradations are
        returned immediately.

        A ``tracer`` records one ``sync-round`` span per call, with a
        ``retraction-scan`` sub-span, one ``solve-attempt`` sub-span per
        attempt, a ``retry`` event before each backoff pause, and a
        ``journal-commit`` event after the durable commit.  A ``metrics``
        registry accumulates round/added/retracted counters and is
        attached to the outcome.
        """
        if tracer is None:
            tracer = NULL_TRACER
        if stamp is not None:
            stamp = Stamp(*stamp)
            stale = self._skip_stale(stamp, False, tracer, metrics)
            if stale is not None:
                return stale
        withdrawn = None
        if self._last_source is not None:
            _, withdrawn = source.diff(self._last_source)
        return self._round(
            source, withdrawn, stamp, node_budget, budget, tracer, metrics
        )

    def sync_delta(
        self,
        added: Instance,
        withdrawn: Instance,
        base: Stamp | tuple[int, int],
        stamp: Stamp | tuple[int, int],
        node_budget: int | None = None,
        budget: Budget | None = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> SyncOutcome:
        """Run one round from an incremental ``(added, withdrawn)`` payload.

        The delta patches the source snapshot stamped ``base`` into the
        snapshot stamped ``stamp``: the session reconstructs ``I_t =
        (I_{t-1} - withdrawn) ∪ added`` from its retained base and runs
        the same round as :meth:`sync`, with ``withdrawn`` narrowing the
        retraction scan — so a delta round and a full-snapshot round of
        the same ``I_t`` commit identical state; the delta only shrinks
        the wire.

        Ordering mirrors :meth:`sync`: a stamp at or below the watermark
        is a stale no-op *before* any chain check (redelivered deltas are
        idempotent, like redelivered snapshots).  A live stamp whose
        ``base`` differs from the watermark — the session missed (or
        never saw) the base snapshot or crashed without a journal — or a
        session holding no base (its last round was unstamped) breaks the
        chain: the round returns
        ``ok=False`` with :data:`DELTA_CHAIN_BROKEN` as the reason,
        leaving all state untouched, and the sender is expected to fall
        back to a full snapshot.
        """
        if tracer is None:
            tracer = NULL_TRACER
        stamp = Stamp(*stamp)
        base = Stamp(*base)
        stale = self._skip_stale(stamp, True, tracer, metrics)
        if stale is not None:
            return stale

        if self.last_stamp != base or self._last_source is None:
            tracer.event(
                "delta-chain-broken",
                base=str(base),
                stamp=str(stamp),
                watermark=str(self.last_stamp),
            )
            if metrics is not None:
                metrics.counter("sync.delta_broken").inc()
            if self._solver is not None:
                # The sender will fall back to a full snapshot of unknown
                # lineage; start the next round from a cold pipeline.
                self._solver.reset()
            return self._unchanged(DELTA_CHAIN_BROKEN, delta=True, metrics=metrics)

        if metrics is not None:
            metrics.counter("sync.delta_rounds").inc()
        source = self._last_source.copy()
        for fact in withdrawn:
            source.discard(fact)
        for fact in added:
            source.add(fact)
        outcome = self._round(
            source, withdrawn, stamp, node_budget, budget, tracer, metrics
        )
        outcome.delta = True
        return outcome

    def _round(
        self,
        source: Instance,
        withdrawn: "Iterable[Fact] | None",
        stamp: Stamp | None,
        node_budget: int | None,
        budget: Budget | None,
        tracer: Tracer,
        metrics: MetricsRegistry | None,
    ) -> SyncOutcome:
        """The one sync round behind :meth:`sync` and :meth:`sync_delta`.

        ``withdrawn`` is what ``source`` dropped from the retained base
        (None without a base); it narrows the retraction scan.
        """

        def finish(outcome: SyncOutcome, span) -> SyncOutcome:
            if tracer.enabled:
                span.set("ok", outcome.ok)
                span.set("status", outcome.status.value)
                span.set("attempts", outcome.attempts)
                span.add("added", len(outcome.added))
                span.add("retracted", len(outcome.retracted))
            if metrics is not None:
                metrics.counter("sync.rounds").inc()
                metrics.counter("sync.added").inc(len(outcome.added))
                metrics.counter("sync.retracted").inc(len(outcome.retracted))
                metrics.counter("sync.attempts").inc(outcome.attempts)
                metrics.annotate("sync.status", outcome.status.value)
                metrics.gauge("sync.state_size").set(len(outcome.state))
                outcome.metrics = metrics
            return outcome

        if (
            stamp is not None
            and self.last_stamp is not None
            and stamp.epoch != self.last_stamp.epoch
            and self._solver is not None
        ):
            # Epoch bump: the publisher re-baselined, so the new snapshot
            # shares no lineage with the cached pipeline state.  The diff
            # would still be correct, but could be as large as the data;
            # rebuild cold instead.
            self._solver.reset()
            tracer.event("incremental-reset", reason="epoch-bump")

        with tracer.span("sync-round", round=self.rounds + 1) as round_span:
            with tracer.span("retraction-scan"):
                retracted = self._retraction_scan(source, withdrawn)
            seed = self.state()
            for fact in retracted:
                seed.discard(fact)

            max_attempts = self.retry.max_attempts if self.retry is not None else 1
            attempt = 0
            while True:
                attempt_budget = budget
                if attempt > 0 and self.retry is not None and budget is not None:
                    attempt_budget = self.retry.escalate(budget, attempt)
                try:
                    with tracer.span("solve-attempt", attempt=attempt + 1):
                        result = self._attempt_solve(
                            source,
                            seed,
                            node_budget,
                            attempt_budget,
                            tracer,
                            metrics,
                        )
                except BudgetExceeded as exhausted:
                    # Strict/legacy budgets raise; treat the raise like a
                    # degraded attempt so the retry policy still applies.
                    result = None
                    status = SolveStatus(exhausted.status)
                    reason = str(exhausted)
                except SolverError as error:
                    return finish(
                        self._unchanged(str(error), attempts=attempt + 1),
                        round_span,
                    )
                if result is not None:
                    if result.decided:
                        break
                    status = result.status
                    reason = result.reason
                retriable = status is SolveStatus.BUDGET_EXHAUSTED
                if not retriable or attempt + 1 >= max_attempts:
                    return finish(
                        self._unchanged(reason, status=status, attempts=attempt + 1),
                        round_span,
                    )
                assert self.retry is not None
                tracer.event("retry", attempt=attempt + 1, status=status.value)
                if metrics is not None:
                    metrics.counter("sync.retries").inc()
                self.retry.pause(attempt)
                attempt += 1

            if not result.exists:
                return finish(
                    self._unchanged(
                        "the target's pinned facts are incompatible with the "
                        "new source snapshot",
                        attempts=attempt + 1,
                    ),
                    round_span,
                )

            new_state, target = result.solution, self.setting.target_schema
            previous = self.state()
            added = Instance((f for f in new_state if f not in previous), target)
            imported = Instance(
                (f for f in new_state if f not in self.pinned), target
            )
            round_number = self.rounds + 1
            if self.journal is not None:
                # Commit durably before mutating in-memory state: a crash
                # between the two replays to the committed round.
                self.journal.ensure_header(self.setting, self.pinned)
                # Stamped rounds commit the ingested source alongside the
                # round: a resumed session then still holds the base, so
                # a crash does not break the delta chain.
                self.journal.record_round(
                    round_number, imported, added, retracted, stamp=stamp,
                    source=source if stamp is not None else None,
                )
                tracer.event("journal-commit", round=round_number)
            self.rounds = round_number
            self._imported = imported
            if stamp is not None:
                self.last_stamp = stamp
                self._last_source = source.copy()
            else:
                self._last_source = None
            return finish(
                SyncOutcome(
                    ok=True,
                    added=added,
                    retracted=retracted,
                    state=self.state(),
                    attempts=attempt + 1,
                ),
                round_span,
            )
