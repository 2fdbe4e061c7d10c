"""Streaming search for indices N with v_p(H_N) > 0 (or v_p(H_N - 1) > 0).

The run keeps the p-adic state of ModularHarmonicSum and prunes candidates
with the recursion "a positive valuation at N forces a positive valuation
at floor(N/p)" (Boyd's tree). It visits only the candidate blocks
[1, p - 1] and [x p, x p + p - 1] for each positive x, with one advance_to
per index it reads: a closed-form jump into each block, then one inverse
per index. So its work grows with the number of candidate blocks, not with
the bound. Valuations are capped at 4 (a hit at or beyond the cap is a
conjecture-level event and is flagged). At p = 2 there is nothing to find,
v_2(H_N) = -floor(log2 N) <= 0: the run reads the block [1, 1] and stops.

Runs save a checkpoint and resume deterministically: a run to N,
checkpoint, resume to M yields record for record what a single run to M
yields. A checkpoint keeps only what cannot be recomputed cheaply from its
last index ``last_N``: the queue of parents whose blocks are not finished;
it is empty once the records hold every positive N, for all N. Its p-adic
state is a function of the index alone, rebuilt by one jump. A run asked to
``stop()`` ends at the next index boundary, so a checkpoint taken then
covers exactly the records already yielded.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from typing import Iterator, NamedTuple

from .harmonic import TARGET_H, TARGET_H1, ModularHarmonicSum
from .padic import require_prime

TARGETS = (TARGET_H, TARGET_H1)

# Every checkpoint's `backend`. Format 4 keeps the field, so a checkpoint
# that names another backend ("exact") is refused as another run's.
BACKEND_MODULAR = "modular"

VALUATION_CAP = 4
CHECKPOINT_FORMAT_VERSION = 4

def canonical_json(o) -> str:
    """The one JSON encoding of records, checkpoints and CLI documents:
    sorted keys and no spaces. Sweep lines do not go through it: the CLI
    writes them through one template per check, in the same bytes."""
    return json.dumps(o, sort_keys=True, separators=(",", ":"))


class CheckpointError(Exception):
    """Checkpoint document is corrupt or inconsistent with the run."""


class SieveRecord(NamedTuple):
    p: int
    N: int
    v: int
    v_at_least: bool
    target: str

    def to_json(self) -> dict:
        return self._asdict()

    def to_line(self) -> str:
        return canonical_json(self.to_json())


def _state_digest(core: dict) -> str:
    return hashlib.sha256(canonical_json(core).encode()).hexdigest()


class SieveCheckpoint(NamedTuple):
    """The processed prefix of a run; ``state`` holds the queue.
    ``out_offset`` is the byte length of the --out file so far
    (None for stdout); the run ignores it, and a resumed CLI run truncates
    the file to it before appending."""

    p: int
    target: str
    backend: str
    last_N: int
    state: dict
    out_offset: int | None = None

    def to_json(self) -> dict:
        core = self._asdict()
        return {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            **core,
            "digest": _state_digest(core),
        }

    def dump(self) -> str:
        return canonical_json(self.to_json())

    @staticmethod
    def from_json(doc: dict) -> "SieveCheckpoint":
        if not isinstance(doc, dict):
            raise CheckpointError("checkpoint is not a JSON object")
        if doc.get("format_version") != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError("unsupported checkpoint format_version")
        try:
            cp = SieveCheckpoint(
                p=doc["p"],
                target=doc["target"],
                backend=doc["backend"],
                last_N=doc["last_N"],
                state=doc["state"],
                out_offset=doc["out_offset"],
            )
            digest = doc["digest"]
        except KeyError as exc:
            raise CheckpointError(f"checkpoint is missing field {exc}") from exc
        if _state_digest(cp._asdict()) != digest:
            raise CheckpointError("checkpoint digest mismatch (corrupt file)")
        if type(cp.last_N) is not int or cp.last_N < 0:
            raise CheckpointError("checkpoint last_N is not an index")
        offset = cp.out_offset
        if offset is not None and (type(offset) is not int or offset < 0):
            raise CheckpointError("checkpoint out_offset is not a byte count")
        return cp

    @staticmethod
    def load(text: str) -> "SieveCheckpoint":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"checkpoint is not valid JSON: {exc}") from exc
        return SieveCheckpoint.from_json(doc)


class SieveRun:
    """One resumable sieve pass over Boyd's tree; iterate it to stream
    SieveRecords. A run passed a ``checkpoint`` (by keyword) resumes it.

    ``checkpoint()`` is valid at any point between yielded records and after
    exhaustion, captures exactly the processed prefix and depends on
    ``last_N`` alone. ``stop()`` ends the iteration at the next index boundary
    (safe to call from a signal handler); the run then reports ``stopped``.
    """

    def __init__(
        self,
        p: int,
        max_N: int,
        target: str = TARGET_H,
        *,
        checkpoint: SieveCheckpoint | None = None,
    ):
        require_prime(p)
        if max_N < 1:
            raise ValueError("max_N must be at least 1")
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}")
        self.p = p
        self.max_N = max_N
        self.target = target
        # The last index processed.
        self.last_N = 0
        self._queue = deque([0])  # see _iter_modular
        self.stopped = False
        if checkpoint is not None:
            self._restore(checkpoint)

    def _restore(self, cp: SieveCheckpoint) -> None:
        if (cp.p, cp.target, cp.backend) != (self.p, self.target, BACKEND_MODULAR):
            raise CheckpointError(
                "checkpoint was produced by a different run "
                f"(p={cp.p}, target={cp.target}, backend={cp.backend})"
            )
        if cp.last_N > self.max_N:
            raise CheckpointError("checkpoint is already past the requested max_N")
        try:
            queue, p = deque(cp.state["queue"]), self.p
            if list(queue) != sorted(set(queue)) or not all(
                type(x) is int and 0 <= x <= cp.last_N < x * p + p - 1 for x in queue
            ):
                raise ValueError("queue must ascend through parents of unfinished blocks")
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"checkpoint state is invalid: {exc}") from exc
        self._queue = queue
        self.last_N = cp.last_N

    def checkpoint(self) -> SieveCheckpoint:
        # Leaves out a head that was stopped at the end of its block.
        state = {"queue": [x for x in self._queue if (x + 1) * self.p > self.last_N + 1]}
        return SieveCheckpoint(
            p=self.p,
            target=self.target,
            backend=BACKEND_MODULAR,
            last_N=self.last_N,
            state=state,
        )

    def stop(self) -> None:
        self.stopped = True

    def __iter__(self) -> Iterator[SieveRecord]:
        return self._iter_modular()

    def _record(self, n: int, v: int, at_least: bool) -> SieveRecord:
        return SieveRecord(self.p, n, v, at_least, self.target)

    def _iter_modular(self) -> Iterator[SieveRecord]:
        p = self.p
        state = ModularHarmonicSum(p, cap=VALUATION_CAP)
        queue = self._queue
        # A positive valuation at n forces one at n // p, so the candidates
        # are the block [1, p - 1] of parent 0 and the block [x p, x p + p - 1]
        # of each positive x. Positives turn up in increasing order, each one
        # above every block still queued, so a FIFO of parents lists the
        # blocks in increasing order. A parent leaves it once its block is
        # finished; a resumed run's first advance_to jumps there from n = 0.
        while queue:
            end = queue[0] * p + p - 1
            for n in range(max(end - p + 1, self.last_N + 1), min(end, self.max_N) + 1):
                if self.stopped:
                    return
                state.advance_to(n)
                self.last_N = n
                v, at_least = state.valuation()
                if v >= 1:
                    queue.append(n)
                if self.target == TARGET_H:
                    if v >= 1:
                        yield self._record(n, v, at_least)
                elif n > 1:
                    v1, at_least1 = state.valuation(shifted=True)
                    if v1 >= 1:
                        yield self._record(n, v1, at_least1)
            if end > self.max_N:
                break
            queue.popleft()
        if not self.stopped:
            self.last_N = self.max_N
