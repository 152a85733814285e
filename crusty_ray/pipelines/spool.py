"""Streaming driver-telemetry spool — bounded buffers, per-epoch parquet.

The reference streams every measurement to ClickHouse continuously through
bounded buffered writers (``workspace/main/src/clickhouse_utils.rs:37-121``)
with per-table force-flush cadences (``conf/default.yaml:117-163``); nothing
accumulates for the whole run. This is the Ray re-expression: each telemetry
stream (job metrics, top-k snapshots, queue gauges, stage gauges, DB-op
notifications) buffers rows in the driver and flushes to its own partition
directory ``out_dir/<stream>/part-e{epoch}.parquet`` when the buffer exceeds
``flush_rows`` or at every checkpoint epoch. Driver memory is O(buffer), not
O(run), and a driver crash between checkpoints loses at most one buffer.

Filenames are deterministic per flush epoch, so a replayed epoch overwrites
its own file instead of duplicating rows (the absorb-file discipline,
pipelines/crawl.py). ``drop_after`` deletes partitions past a checkpoint on
resume — the same stale-lineage rule the crawl log uses.
"""

from __future__ import annotations

import os
import shutil
import threading

import pyarrow as pa
import pyarrow.parquet as pq


class MetricsSpool:
    def __init__(self, out_dir: str, streams: dict[str, str],
                 flush_rows: int = 50_000):
        """``streams`` maps logical stream name → output subdirectory."""
        self.out_dir = out_dir
        self.streams = dict(streams)
        self.flush_rows = flush_rows
        self.buf: dict[str, list[dict]] = {k: [] for k in streams}
        self.rows_total: dict[str, int] = {k: 0 for k in streams}
        # (stream, epoch) → flush count: a size-triggered flush and the
        # checkpoint flush can both land in one epoch; the sequence suffix
        # keeps both files, in lexicographic = append order
        self._flush_seq: dict[str, tuple[int, int]] = {}
        # the engine adds and flushes from its driver thread only; the lock
        # keeps each add and flush whole for a caller that shares the spool
        # from another thread. Never pickled (checkpoints carry counters
        # only), so the lock is safe to hold here
        self._lock = threading.Lock()

    def _dir(self, stream: str) -> str:
        return f"{self.out_dir}/{self.streams[stream]}"

    # ------------------------------------------------------------- writes
    def add(self, stream: str, rows: list[dict]) -> None:
        if rows:
            with self._lock:
                self.buf[stream].extend(rows)
                self.rows_total[stream] += len(rows)

    def _flush_stream(self, stream: str, epoch: int) -> None:
        rows = self.buf[stream]
        if not rows:
            return
        d = self._dir(stream)
        os.makedirs(d, exist_ok=True)
        last_epoch, seq = self._flush_seq.get(stream, (-1, -1))
        seq = seq + 1 if last_epoch == epoch else 0
        self._flush_seq[stream] = (epoch, seq)
        name = f"part-e{epoch:06d}-{seq:02d}.parquet"
        tmp = f"{d}/{name}.tmp"
        pq.write_table(pa.Table.from_pylist(rows), tmp)
        os.replace(tmp, f"{d}/{name}")
        self.buf[stream] = []

    def maybe_flush(self, epoch: int) -> None:
        """Size-triggered flush (the buffer_size half of the reference's
        buffered-writer contract)."""
        with self._lock:
            for s in self.streams:
                if len(self.buf[s]) >= self.flush_rows:
                    self._flush_stream(s, epoch)

    def flush_all(self, epoch: int) -> None:
        """Unconditional flush — called at checkpoint epochs (so checkpoints
        and flushed partitions agree) and at run end."""
        with self._lock:
            for s in self.streams:
                self._flush_stream(s, epoch)

    # -------------------------------------------------------------- reads
    @staticmethod
    def _flush_key(name: str) -> tuple[int, int]:
        """(epoch, seq) parsed NUMERICALLY from part-e{epoch}-{seq}.parquet —
        lexicographic filename order breaks once {epoch:06d} widens past six
        digits (epoch 10^6)."""
        stem = name[len("part-e"):-len(".parquet")]
        e, seq = stem.split("-", 1)
        return int(e), int(seq)

    def read(self, stream: str) -> list[dict]:
        """All rows in append order: flushed partitions in numeric
        (epoch, seq) order (row order preserved within a file) + the live
        buffer. O(run) — for tests/summaries on small runs, not the hot path;
        at scale consumers read the parquet partitions directly."""
        out: list[dict] = []
        d = self._dir(stream)
        if os.path.isdir(d):
            names = [n for n in os.listdir(d) if n.endswith(".parquet")]
            for name in sorted(names, key=self._flush_key):
                out.extend(pq.read_table(f"{d}/{name}").to_pylist())
        out.extend(self.buf[stream])
        return out

    # ---------------------------------------------------- lifecycle/resume
    def reset(self) -> None:
        """Fresh run over a reused out_dir: drop prior partitions."""
        for s in self.streams:
            shutil.rmtree(self._dir(s), ignore_errors=True)
            self.buf[s] = []
            self.rows_total[s] = 0
        self._flush_seq = {}

    def drop_after(self, epoch: int) -> None:
        """Resume: delete partitions flushed after the checkpoint epoch and
        recount totals from what survives."""
        for s in self.streams:
            self.buf[s] = []
            d = self._dir(s)
            total = 0
            if os.path.isdir(d):
                for name in sorted(os.listdir(d)):
                    if not name.endswith(".parquet"):
                        os.remove(f"{d}/{name}")  # torn .tmp
                        continue
                    e = self._flush_key(name)[0]
                    if e > epoch:
                        os.remove(f"{d}/{name}")
                    else:
                        total += pq.read_metadata(f"{d}/{name}").num_rows
            self.rows_total[s] = total
        self._flush_seq = {}
