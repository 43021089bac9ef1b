"""Registry of scheduler yield-point tags.

Yield points are where the deterministic scheduler may switch sessions
and where the schedule explorer (``explore.py``) branches.  Tags are
``family:process`` strings; this module is the single source of truth
for the allowed families.  ``DeterministicScheduler.yield_point``
validates every tag against it, so a typo'd tag is a hard
``InvariantViolationError`` instead of a silently unexplored boundary,
and the PHX013 lint rule (``repro.analysis.sites``) reads the same
registry to cross-check that every FaultPlane durability site family is
covered by some yield family.

Only stdlib is imported here so ``repro.analysis`` can read the
registry without pulling in the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class YieldTag:
    """One registered yield-point family."""

    family: str
    where: str
    # FaultPlane site families whose durability boundary this yield
    # point exposes to schedule exploration (PHX013 cross-check).
    covers: tuple[str, ...] = ()


LOG_APPEND = "log.append"
LOG_FORCE = "log.force"
LOG_SUBMIT = "log.submit"
NET_REQUEST = "net.request"
NET_REPLY = "net.reply"
RECOVERY_SHARD = "recovery.shard"


YIELD_TAGS: dict[str, YieldTag] = {
    tag.family: tag
    for tag in (
        YieldTag(
            LOG_APPEND,
            "immediately before a record enters the log buffer",
            covers=(
                # Algorithm 3's pre-reply crash window sits between the
                # reply append and its force; the append-side yield is
                # the switch point that exposes it.
                "alg3.pre_reply",
                "checkpoint.begin",
            ),
        ),
        YieldTag(
            LOG_FORCE,
            "immediately after a force (or coalesced no-op force) returns",
            covers=(
                "log.force.before",
                "log.force.after",
                "log.flush",
                "checkpoint.end",
                "checkpoint.publish.before_truncate",
            ),
        ),
        YieldTag(
            LOG_SUBMIT,
            "after a pipelined group-commit window closed, before its "
            "leader performs the shared write (the closed-but-in-flight "
            "state is schedulable: the next batch opens underneath it)",
        ),
        YieldTag(
            NET_REQUEST,
            "on message delivery, before the receiving process runs",
            covers=(
                "recovery.start",
                "recovery.pass1",
                "recovery.restored",
                "recovery.pass2",
                "recovery.drained",
                "recovery.done",
                "recovery.admit_early",
                "recovery.lazy_replay.before",
                "recovery.lazy_replay.after",
                "recovery.drain_worker",
            ),
        ),
        YieldTag(
            NET_REPLY,
            "after the receiving process replied, before the caller resumes",
        ),
        YieldTag(
            RECOVERY_SHARD,
            "between two components of a recovery drain (a shard's, or "
            "an on-demand background drain; each component's replay is "
            "independent, so the boundary between two is schedulable)",
            covers=("recovery.shard.drained",),
        ),
    )
}

# FaultPlane site families with no scheduler yield point, with the
# reason each is exempt.  PHX013 fails on any site family that is
# neither covered above nor listed here.
EXEMPT_SITE_FAMILIES: dict[str, str] = {
    "qforce.before": (
        "queued-component substrate runs under its own serial queue "
        "driver, never under the DeterministicScheduler"
    ),
    "qforce.after": (
        "queued-component substrate runs under its own serial queue "
        "driver, never under the DeterministicScheduler"
    ),
    "qlog.flush": (
        "queue-log flushes happen inside the serial queue driver; "
        "sessions cannot interleave with them"
    ),
}


def covered_site_families() -> dict[str, str]:
    """Map of FaultPlane site family -> covering yield family."""
    out: dict[str, str] = {}
    for tag in YIELD_TAGS.values():
        for site in tag.covers:
            out[site] = tag.family
    return out


def tag_family(tag: str) -> str:
    """The family part of a ``family:process`` yield tag."""
    return tag.split(":", 1)[0]


def validate_tag(tag: str) -> None:
    """Raise (ValueError) if ``tag``'s family is not registered.

    The scheduler converts this into an ``InvariantViolationError`` so a
    misspelled yield point aborts the run instead of silently escaping
    schedule exploration.
    """
    family = tag_family(tag)
    if family not in YIELD_TAGS:
        known = ", ".join(sorted(YIELD_TAGS))
        raise ValueError(
            f"unregistered yield-point tag {tag!r} (family {family!r}); "
            f"registered families: {known} — add it to "
            "repro/concurrency/tags.py or fix the typo"
        )
