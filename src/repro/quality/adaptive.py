"""Adaptive redundancy: ask for more answers only where they are needed.

Fixed redundancy (Bob's ``n_assignments=3``) wastes money on easy items and
under-spends on ambiguous ones.  The adaptive policy starts with a small
number of assignments per task and requests more — in rounds — only for the
items whose current answers are not yet confident enough, up to a cap.  This
is the classic budget-optimisation technique of the crowdsourcing literature
and one of the "widely used techniques" the paper's quality-control component
is meant to host.

The policy exposes two equivalent decision surfaces:

* the historical answer-list form (``confidence(answers)``,
  ``is_resolved(answers)``, ``next_batch(answers)``) used by tests and by
  the per-item classification at the end of a collection;
* a count-based form (``confidence_from_counts``, ``is_resolved_counts``,
  ``next_batch_counts``) consumed by the streaming adaptive loop, which
  tracks per-item answer tallies incrementally (see
  :mod:`repro.quality.incremental`) instead of re-materialising every
  answer list each round.

Both forms compute the plurality winner count **exactly** with
:class:`collections.Counter`.  The count used to be reconstructed as
``round(share * len(answers))`` — a float product whose banker's rounding
can misreport the winner count by one the moment the share stops being an
exact ``count / len`` ratio (e.g. a posterior-weighted share), silently
shifting the Wilson bound.  The exact computation removes that hazard for
every caller.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Mapping, Sequence

from repro.quality.confidence import wilson_lower_bound
from repro.utils.validation import require_fraction, require_positive


@dataclass(frozen=True)
class AdaptivePolicy:
    """Parameters of the adaptive-redundancy loop.

    Attributes:
        initial_assignments: Assignments requested when a task is published.
        max_assignments: Hard per-task cap; no task ever exceeds it.
        min_assignments: An item cannot be declared resolved with fewer than
            this many answers (a single answer is always "unanimous", so a
            floor of 2 is what makes the confidence test meaningful).
        confidence_threshold: Stop collecting for an item once the plurality
            share of its answers reaches this value.
        extra_per_round: Additional assignments requested per round for each
            unresolved item.
        use_wilson: Judge confidence by the Wilson lower bound of the
            plurality share instead of the raw share — more conservative for
            small answer counts.
    """

    initial_assignments: int = 2
    max_assignments: int = 7
    min_assignments: int = 2
    confidence_threshold: float = 0.75
    extra_per_round: int = 2
    use_wilson: bool = False

    def __post_init__(self) -> None:
        require_positive("initial_assignments", self.initial_assignments)
        require_positive("max_assignments", self.max_assignments)
        require_positive("min_assignments", self.min_assignments)
        require_positive("extra_per_round", self.extra_per_round)
        require_fraction("confidence_threshold", self.confidence_threshold)
        if self.max_assignments < self.initial_assignments:
            raise ValueError(
                "max_assignments must be >= initial_assignments "
                f"({self.max_assignments} < {self.initial_assignments})"
            )
        if self.min_assignments > self.max_assignments:
            raise ValueError(
                "min_assignments must be <= max_assignments "
                f"({self.min_assignments} > {self.max_assignments})"
            )

    # -- decision logic ------------------------------------------------------

    def confidence_from_counts(self, counts: Mapping[Any, int]) -> float:
        """Confidence score given per-answer tallies (the streaming form).

        The winner count is the exact maximum tally — never reconstructed
        from a float share — so the Wilson bound is computed on the true
        binomial numerator.
        """
        total = sum(counts.values())
        if total <= 0:
            return 0.0
        winners = max(counts.values())
        if not self.use_wilson:
            return winners / total
        return wilson_lower_bound(winners, total)

    def confidence(self, answers: Sequence[Any]) -> float:
        """Return the confidence score of the collected *answers*."""
        if not answers:
            return 0.0
        return self.confidence_from_counts(Counter(answers))

    def is_resolved_counts(self, counts: Mapping[Any, int]) -> bool:
        """Count-based form of :meth:`is_resolved`."""
        total = sum(counts.values())
        if total >= self.max_assignments:
            return True
        if total < self.min_assignments:
            return False
        return self.confidence_from_counts(counts) >= self.confidence_threshold

    def is_resolved(self, answers: Sequence[Any]) -> bool:
        """Return True when no further answers should be requested."""
        return self.is_resolved_counts(Counter(answers))

    def next_batch_counts(self, counts: Mapping[Any, int]) -> int:
        """Count-based form of :meth:`next_batch`."""
        if self.is_resolved_counts(counts):
            return 0
        remaining = self.max_assignments - sum(counts.values())
        return min(self.extra_per_round, remaining)

    def next_batch(self, answers: Sequence[Any]) -> int:
        """Return how many extra assignments to request for an unresolved item."""
        return self.next_batch_counts(Counter(answers))


@dataclass
class AdaptiveCollectionStats:
    """What the adaptive loop actually did (reported by CrowdData).

    Items are counted per *task*, not per table row: several rows sharing
    one deduplicated task contribute a single item (and its answers once)
    to every tally below.

    Attributes:
        rounds: Number of collection rounds performed.
        pages_streamed: Task-run pages fetched across all rounds (the
            round-trip currency of the streaming loop; the legacy loop paid
            one round-trip per item per round instead).
        answers_collected: Total answers collected across all items.
        items_resolved_early: Items that reached the confidence threshold
            before exhausting the assignment cap.
        items_at_cap: Items that hit ``max_assignments`` without reaching
            the confidence threshold.
        items_below_minimum: Items that ended with fewer than
            ``min_assignments`` answers (e.g. a non-simulating platform
            returned nothing) — previously misfiled as "resolved early".
        extensions_requested: Extra assignments purchased by the loop.
    """

    rounds: int = 0
    pages_streamed: int = 0
    answers_collected: int = 0
    items_resolved_early: int = 0
    items_at_cap: int = 0
    items_below_minimum: int = 0
    extensions_requested: int = 0

    def to_dict(self) -> dict[str, int]:
        """Return a JSON-friendly representation for the manipulation log."""
        return {
            "rounds": self.rounds,
            "pages_streamed": self.pages_streamed,
            "answers_collected": self.answers_collected,
            "items_resolved_early": self.items_resolved_early,
            "items_at_cap": self.items_at_cap,
            "items_below_minimum": self.items_below_minimum,
            "extensions_requested": self.extensions_requested,
        }
