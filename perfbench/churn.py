"""Seeded steady-state churn feed for the genomics setting.

``repro.workloads.generate_genomics_feed`` withdraws ``churn * |live|``
entries per round but adds ``proteins // rounds``, so the source drifts in
size and a long run's round cost drifts with it.  :class:`SteadyChurnFeed`
keeps |I| fixed instead: every round withdraws ``k`` live protein entries
and publishes ``k`` new ones, so round ``n`` of a run gets an input of the
same size as round ``n + 1000``.

One timeline is emitted both ways: each :class:`ChurnRound` carries the
full snapshot (for snapshot-mode publishers) and the ``(added,
withdrawn)`` delta against the previous round (for ``sync_delta``).  An
entry's facts depend only on ``(seed, index)``, so a protein publishes
identically in every snapshot that holds it; only membership churns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.core.atoms import Fact
from repro.core.instance import Instance
from repro.core.terms import Constant

_ORGANISMS = ("human", "mouse", "yeast", "ecoli")


@dataclass
class ChurnRound:
    """One published round: its stamp, full snapshot and delta."""

    stamp: tuple[int, int]
    base: tuple[int, int] | None
    snapshot: Instance
    added: Instance
    withdrawn: Instance


class SteadyChurnFeed:
    """An endless genomics feed whose source size never changes.

    Args:
        proteins: live protein entries; every entry publishes one
            ``protein``, one ``annotation`` and one ``citation`` fact, so
            |I| is ``3 * proteins``.
        swap: entries withdrawn and added per round; the delta is
            ``6 * swap`` facts.
        seed: seeds membership churn and every entry's values.
    """

    def __init__(self, proteins: int, swap: int, seed: int):
        if not 0 < swap < proteins:
            raise ValueError(f"swap must be in (0, {proteins}), got {swap}")
        self.seed = seed
        self.swap = swap
        self._rng = random.Random(f"churn:{seed}")
        self._live = list(range(proteins))
        self._next_index = proteins
        self._seq = 0
        self._snapshot = Instance()
        for index in self._live:
            self._snapshot.add_all(self.entry(index))

    def entry(self, index: int) -> list[Fact]:
        """The facts one protein entry publishes (a pure function of index)."""
        rng = random.Random(f"{self.seed}:protein:{index}")
        acc = Constant(f"P{index:06d}")
        return [
            Fact("protein", (acc, Constant(f"PROT_{index}"), Constant(rng.choice(_ORGANISMS)))),
            Fact("citation", (acc, Constant(f"PMID{rng.randint(10_000, 99_999)}"))),
            Fact("annotation", (acc, Constant(f"GO:{rng.randint(1000, 9999):07d}"))),
        ]

    @property
    def size(self) -> int:
        """|I|: the number of source facts in every snapshot."""
        return len(self._snapshot)

    def snapshot(self) -> Instance:
        """A copy of the latest published snapshot."""
        return self._snapshot.copy()

    def next_round(self) -> ChurnRound:
        """Advance the timeline by one publish (the first is the baseline)."""
        base = (1, self._seq) if self._seq else None
        self._seq += 1
        added = Instance()
        withdrawn = Instance()
        if base is not None:
            gone = self._rng.sample(range(len(self._live)), self.swap)
            for position in sorted(gone, reverse=True):
                index = self._live.pop(position)
                for fact in self.entry(index):
                    withdrawn.add(fact)
                    self._snapshot.discard(fact)
            for _ in range(self.swap):
                self._live.append(self._next_index)
                for fact in self.entry(self._next_index):
                    added.add(fact)
                    self._snapshot.add(fact)
                self._next_index += 1
        else:
            added = self._snapshot.copy()
        return ChurnRound(
            stamp=(1, self._seq),
            base=base,
            snapshot=self.snapshot(),
            added=added,
            withdrawn=withdrawn,
        )
