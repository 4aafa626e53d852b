"""Crash injection for the fault-recovery experiments (E3).

The paper's sharable guarantee is crash-and-rerun: "when the program is
crashed, rerunning the program is as if it has never crashed".  To test it we
need to crash the experiment at arbitrary points.  Two mechanisms are
provided:

* :class:`CrashingEngine` wraps a storage engine and raises
  :class:`repro.exceptions.CrashInjected` after a configurable number of
  writes — crashing the program in the middle of persisting crowd data.
* :func:`run_with_crashes` runs an experiment function repeatedly, injecting
  one crash per run at successively later points, and finally runs it with no
  crash; it returns all the intermediate states so tests can assert that the
  final result is identical to an uninterrupted run and that no crowd task
  was ever published twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.exceptions import CrashInjected
from repro.storage.engine import StorageEngine
from repro.storage.records import Record


@dataclass
class CrashPlan:
    """When to crash: after the Nth write to the storage engine.

    Attributes:
        crash_after_writes: The write count at which to raise; None disables
            crashing.
        fired: Set to True once the crash has been raised.
    """

    crash_after_writes: int | None = None
    fired: bool = False
    writes_seen: int = 0

    def note_write(self) -> None:
        """Record one write, raising :class:`CrashInjected` when it is time."""
        self.writes_seen += 1
        if (
            self.crash_after_writes is not None
            and not self.fired
            and self.writes_seen >= self.crash_after_writes
        ):
            self.fired = True
            raise CrashInjected(
                step=f"write #{self.writes_seen}",
                detail="injected by CrashPlan",
            )


class CrashingEngine(StorageEngine):
    """Storage engine decorator that crashes according to a :class:`CrashPlan`.

    The crash is raised *after* the underlying write has been made durable,
    which models a process dying between a successful database commit and
    whatever it was going to do next — the hardest case for exactly-once
    task publication.
    """

    engine_name = "crashing"

    def __init__(self, inner: StorageEngine, plan: CrashPlan):
        self.inner = inner
        self.plan = plan

    # -- table management (pass-through) ------------------------------------------

    def create_table(self, table_name: str) -> None:
        self.inner.create_table(table_name)

    def drop_table(self, table_name: str) -> None:
        self.inner.drop_table(table_name)

    def list_tables(self) -> list[str]:
        return self.inner.list_tables()

    def has_table(self, table_name: str) -> bool:
        return self.inner.has_table(table_name)

    # -- record access (writes counted) ---------------------------------------------

    def put(self, table_name: str, key: str, value: Any) -> Record:
        record = self.inner.put(table_name, key, value)
        self.plan.note_write()
        return record

    def put_new(self, table_name: str, key: str, value: Any) -> Record:
        record = self.inner.put_new(table_name, key, value)
        self.plan.note_write()
        return record

    def get(self, table_name: str, key: str, default: Any = None) -> Any:
        return self.inner.get(table_name, key, default)

    def get_record(self, table_name: str, key: str) -> Record | None:
        return self.inner.get_record(table_name, key)

    def delete(self, table_name: str, key: str) -> bool:
        deleted = self.inner.delete(table_name, key)
        if deleted:
            self.plan.note_write()
        return deleted

    def contains(self, table_name: str, key: str) -> bool:
        return self.inner.contains(table_name, key)

    def scan(
        self, table_name: str, limit: int | None = None, start_after: str | None = None
    ) -> Iterator[Record]:
        return self.inner.scan(table_name, limit=limit, start_after=start_after)

    def count(self, table_name: str) -> int:
        return self.inner.count(table_name)

    # -- bulk record access (writes counted per item) --------------------------------

    def put_many(
        self,
        table_name: str,
        items: Iterable[tuple[str, Any]],
        if_absent: bool = False,
        *,
        defer_commit: bool = False,
    ) -> list[Record]:
        """Write the batch one item at a time so a crash can land mid-batch.

        Deliberately *not* delegated to the inner engine's atomic batch
        write: each item becomes durable individually and counts as one
        write, which is the hardest recovery scenario — a prefix of the
        batch survives the crash and the rerun must fill only the gap.
        ``defer_commit`` is accepted and ignored: every item is already
        written through on its own.
        """
        del defer_commit
        records: list[Record] = []
        for key, value in items:
            if if_absent:
                existing = self.inner.get_record(table_name, key)
                if existing is not None:
                    records.append(existing)
                    continue
            records.append(self.inner.put(table_name, key, value))
            self.plan.note_write()
        return records

    def get_many(
        self, table_name: str, keys: Sequence[str], default: Any = None
    ) -> list[Any]:
        return self.inner.get_many(table_name, keys, default)

    # -- lifecycle -----------------------------------------------------------------------

    def flush(self) -> None:
        self.inner.flush()

    def close(self) -> None:
        self.inner.close()


@dataclass
class CrashRunReport:
    """Outcome of :func:`run_with_crashes`.

    Attributes:
        crashes: Number of runs that ended in an injected crash.
        completed_result: The return value of the final, uninterrupted run.
        attempts: Total number of runs performed (crashed + final).
        writes_per_attempt: Engine write counts observed per attempt.
    """

    crashes: int = 0
    completed_result: Any = None
    attempts: int = 0
    writes_per_attempt: list[int] = field(default_factory=list)


def run_with_crashes(
    experiment: Callable[[StorageEngine], Any],
    engine: StorageEngine,
    crash_points: list[int],
) -> CrashRunReport:
    """Run *experiment* with a crash injected at each point, then to completion.

    Args:
        experiment: Callable taking a storage engine and running the whole
            experiment against it.  It must be written in the crash-and-rerun
            style (i.e. use CrowdData), because it will be re-invoked from
            the top after every crash.
        engine: The durable engine that survives across crashes (the shared
            database file).
        crash_points: Write counts at which to crash successive attempts.

    Returns:
        A :class:`CrashRunReport`; ``completed_result`` is the value returned
        by the final uninterrupted attempt.
    """
    report = CrashRunReport()
    for crash_after in crash_points:
        plan = CrashPlan(crash_after_writes=crash_after)
        wrapped = CrashingEngine(engine, plan)
        report.attempts += 1
        try:
            experiment(wrapped)
        except CrashInjected:
            report.crashes += 1
        report.writes_per_attempt.append(plan.writes_seen)
    # Final attempt with no crash: this is "rerunning the program".
    plan = CrashPlan(crash_after_writes=None)
    wrapped = CrashingEngine(engine, plan)
    report.attempts += 1
    report.completed_result = experiment(wrapped)
    report.writes_per_attempt.append(plan.writes_seen)
    return report
