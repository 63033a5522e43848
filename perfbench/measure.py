"""Pure measurement helpers: percentiles, failure accounting, digests.

Nothing here imports ``repro``; the benchmark's own tests exercise these
functions directly (``python -m pytest perfbench/tests``).
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Percentiles considered for a tail figure, lowest first.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9)

#: A percentile is only reported when at least this many samples lie
#: beyond it, so a tail figure is never one or two outliers.
MIN_BEYOND = 10


def _rank(q: float, n: int) -> int:
    """``ceil(q/100 * n)`` in integers (``q`` to a thousandth), at least 1."""
    milli = round(q * 1000)
    return max(1, -(-milli * n // 100_000))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile by the nearest-rank rule."""
    if not values:
        raise ValueError("percentile of no samples")
    return sorted(values)[_rank(q, len(values)) - 1]


def tail_percentile(
    values: Sequence[float], ladder: Sequence[float] = PERCENTILE_LADDER
) -> Optional[Tuple[float, float]]:
    """The highest ladder percentile with ``MIN_BEYOND`` samples beyond it.

    With ``n`` samples the nearest-rank ``q``-th percentile sits at rank
    ``ceil(q/100 * n)`` and ``n - rank`` samples lie beyond it.  Returns
    ``(q, value)``, or ``None`` when even the median has fewer than
    ``MIN_BEYOND`` samples beyond it (fewer than 20 samples).
    """
    n = len(values)
    best = None
    for q in ladder:
        if n - _rank(q, n) >= MIN_BEYOND:
            best = q
    if best is None:
        return None
    return best, nearest_rank(values, best)


class Operation:
    """One attempted operation: a campaign, an epoch, a job or a request.

    An operation fails at most once, however many reasons pile up, so a
    job that ended ``failed`` and whose exports are then also missing is
    one failure, not two.  A failure is charged where it happened: a
    job is not charged again for a request of its own that failed.
    """

    __slots__ = ("kind", "label", "reasons")

    def __init__(self, kind: str, label: str) -> None:
        self.kind = kind
        self.label = label
        self.reasons: List[str] = []

    def fail(self, reason: str) -> None:
        self.reasons.append(reason)

    @property
    def failed(self) -> bool:
        return bool(self.reasons)


class Tally:
    """Attempted and failed operations across one benchmark run."""

    def __init__(self) -> None:
        self.operations: List[Operation] = []
        self._lock = threading.Lock()

    def begin(self, kind: str, label: str) -> Operation:
        op = Operation(kind, label)
        with self._lock:
            self.operations.append(op)
        return op

    @property
    def attempted(self) -> int:
        return len(self.operations)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.operations if op.failed)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def failures(self) -> List[Operation]:
        return [op for op in self.operations if op.failed]


def digest_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def digest_files(directory: Path, names: Iterable[str]) -> Dict[str, str]:
    """sha256 of each named file in ``directory`` (missing files omitted)."""
    digests = {}
    for name in names:
        path = Path(directory) / name
        if path.is_file():
            digests[name] = digest_bytes(path.read_bytes())
    return digests


def diff_digests(
    expected: Dict[str, str], actual: Dict[str, str], names: Iterable[str]
) -> List[str]:
    """File names whose digest differs (or is missing on either side)."""
    return [
        name
        for name in names
        if name not in expected
        or name not in actual
        or expected[name] != actual[name]
    ]


class DigestLedger:
    """Export digests remembered across runs in one checkout.

    Keyed by what determines the exports (a spec fingerprint), so a
    later run of the same seed must reproduce the earlier digests: the
    "repeated runs hash the same" check, across processes.
    """

    def __init__(self, path: Path) -> None:
        self.path = Path(path)
        try:
            self._entries: Dict[str, Dict[str, str]] = json.loads(
                self.path.read_text(encoding="utf-8")
            )
        except (OSError, ValueError):
            self._entries = {}

    def check(
        self, key: str, digests: Dict[str, str], names: Iterable[str]
    ) -> List[str]:
        """Mismatched files against an earlier run (records first sight)."""
        previous = self._entries.get(key)
        if previous is None:
            self._entries[key] = dict(digests)
            return []
        return diff_digests(previous, digests, names)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        tmp = self.path.with_name(self.path.name + f".{os.getpid()}.tmp")
        tmp.write_text(json.dumps(self._entries, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self.path)


#: The gauge, in ms, on the reference machine (a quiet 2-core container,
#: Python 3.11).  Normalised times are seconds at that machine's speed.
REFERENCE_GAUGE_MS = 12.0


def gauge_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop: the machine's speed now.

    On a shared host the same campaign can take twice as long from one
    minute to the next.  The loop slows down with it, and it runs no
    code of the program, so dividing by it takes the host's load out of
    a timing without hiding a change in the program.
    """
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def normalised(seconds: float, gauge: float) -> float:
    """``seconds`` scaled to the reference machine's speed."""
    return seconds * REFERENCE_GAUGE_MS / gauge


def derive_seed(workload: str, seed: int, *parts: object) -> int:
    """A campaign/job seed derived from the workload seed.

    ``sha256("<workload>:<seed>:<parts...>")`` truncated to 31 bits:
    identical on every commit and host, and independent across
    workloads and operation indices.
    """
    text = ":".join([workload, str(seed), *(str(p) for p in parts)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") & 0x7FFFFFFF
