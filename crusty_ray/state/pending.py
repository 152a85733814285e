"""Spillable pending-domain store — the frontier's RAM-ceiling fix (r3
VERDICT next-#1).

The reference holds pending domains OUT of the crawler process for exactly
this reason (redis sets, ``redis-queue/src/lib.rs:13-27``); r1-r3 held them
in actor RAM (``dict[addr_key] → sorted list[DomainMsg]``), which at the
north rule's 10^10-URL scale is ~10^8 pending domains *per shard* — far past
a worker heap. This store keeps the semantics byte-identical while bounding
RAM:

- **in-RAM head per addr_key** (``heads``): the exact minimum-priority entry
  of every key, so ``take_ready``'s candidate scan never touches disk;
- **RAM tails** (``tails``): per-key sorted overflow, bounded by
  ``spill_threshold`` entries total;
- **sorted runs on scratch**: when the tails exceed the threshold they are
  written as one immutable run — entries grouped by key, segments addressed
  by a compact numpy index (key-hash → byte range), so a head refill reads
  only the popped key's few hundred bytes (seek + read), never a whole run;
- **liveness by membership**: popped entries are never deleted from runs —
  a run entry is live iff its domain is still in the pending-membership set,
  so stale bytes age out at compaction (runs merge when more than
  ``max_runs`` accumulate) at amortized O(spilled) cost;
- **membership as 64-bit hashes**: the pending-domain dedup set stores
  ``hash64(domain)`` instead of strings (~10× smaller; a collision merely
  skips one enqueue — the same effect as a ddc hit — and the simulator runs
  this identical code, so engine ≡ sim holds unconditionally).

Determinism: spilling changes WHERE an entry lives, never its priority or
the pop order — the store with any threshold produces the identical
take_ready stream (pinned by ``tests/test_pending_spill.py``). The default
threshold (2³¹) never spills at test scale, so pre-existing conformance
fixtures are unchanged.

An entry lives in exactly one of head / RAM tail / disk at insert time;
promotion from disk to head leaves stale bytes behind, which the membership
check filters on every later read (see ``_refill``).
"""

from __future__ import annotations

import os
import pickle
import tempfile
from bisect import insort
from typing import Iterator, Optional

import numpy as np

from ..core.hashing import hash64


_MEMBER_SEED = 17
_KEY_SEED = 23


class IntSet:
    """Open-addressing uint64 hash set — the pending-membership structure.

    ~12 bytes/entry at the 2/3 load ceiling vs ~60 for a Python
    ``set[int]``: at the north rule's 10^8-pending-per-shard this is the
    difference between ~1.2 GiB and ~6 GiB of membership RAM per actor.
    Values are already uniform 64-bit hashes, so slots index by the low
    bits directly. 0/1 are reserved (empty/tombstone); real values folding
    onto them shift by 2 — a 2⁻⁶³ membership aliasing both the simulator
    and the engine share, like every other hash-collision property here.
    Tombstones from ``discard`` are reclaimed by rebuilding when they
    outnumber live entries."""

    __slots__ = ("slots", "mask", "n", "tombs")
    _EMPTY, _TOMB = 0, 1

    def __init__(self, initial_pow: int = 10):
        self.slots = np.zeros(1 << initial_pow, dtype=np.uint64)
        self.mask = (1 << initial_pow) - 1
        self.n = 0
        self.tombs = 0

    @staticmethod
    def _fold(v: int) -> int:
        return v + 2 if v < 2 else v

    def _probe(self, v: int) -> tuple[int, int]:
        """(slot of v or -1, first free/tomb slot along the probe path)."""
        slots, mask = self.slots, self.mask
        i = v & mask
        free = -1
        while True:
            s = int(slots[i])
            if s == v:
                return i, free
            if s == self._TOMB:
                if free < 0:
                    free = i
            elif s == self._EMPTY:
                return -1, (free if free >= 0 else i)
            i = (i + 1) & mask

    def __contains__(self, v: int) -> bool:
        return self._probe(self._fold(v))[0] >= 0

    def add(self, v: int) -> None:
        v = self._fold(v)
        hit, free = self._probe(v)
        if hit >= 0:
            return
        if int(self.slots[free]) == self._TOMB:
            self.tombs -= 1
        self.slots[free] = v
        self.n += 1
        if (self.n + self.tombs) * 3 > len(self.slots) * 2:
            self._rebuild(grow=self.n * 3 > len(self.slots))

    def discard(self, v: int) -> None:
        hit, _ = self._probe(self._fold(v))
        if hit >= 0:
            self.slots[hit] = self._TOMB
            self.n -= 1
            self.tombs += 1
            if self.tombs > max(self.n, 64):
                self._rebuild(grow=False)

    def _rebuild(self, grow: bool) -> None:
        live = self.slots[(self.slots != self._EMPTY)
                          & (self.slots != self._TOMB)]
        size = len(self.slots) * (2 if grow else 1)
        self.slots = np.zeros(size, dtype=np.uint64)
        self.mask = size - 1
        self.tombs = 0
        # vectorized first-pass placement; collisions fall back per-item
        idx = (live & np.uint64(self.mask)).astype(np.int64)
        order = np.argsort(idx, kind="stable")
        for v in live[order]:
            v = int(v)
            i = v & self.mask
            while int(self.slots[i]) != self._EMPTY:
                i = (i + 1) & self.mask
            self.slots[i] = v

    def __len__(self) -> int:
        return self.n


class _Run:
    """One immutable sorted run: per-key segments + numpy byte index."""

    __slots__ = ("path", "key_hashes", "offsets", "lengths", "n_entries")

    def __init__(self, path: str, key_hashes: np.ndarray,
                 offsets: np.ndarray, lengths: np.ndarray, n_entries: int):
        self.path = path
        self.key_hashes = key_hashes    # sorted uint64
        self.offsets = offsets
        self.lengths = lengths
        self.n_entries = n_entries

    def read_key(self, key_hash: int) -> list:
        """All entries whose addr_key hashes to ``key_hash`` (caller filters
        by actual key + liveness). Colliding keys share a segment."""
        i = int(np.searchsorted(self.key_hashes, np.uint64(key_hash)))
        if i >= len(self.key_hashes) or int(self.key_hashes[i]) != key_hash:
            return []
        with open(self.path, "rb") as f:
            f.seek(int(self.offsets[i]))
            return pickle.loads(f.read(int(self.lengths[i])))

    def read_all(self) -> list:
        with open(self.path, "rb") as f:
            blob = f.read()
        out = []
        for off, ln in zip(self.offsets, self.lengths):
            out.extend(pickle.loads(blob[int(off):int(off) + int(ln)]))
        return out


class PendingStore:
    def __init__(self, shard: int, spill_threshold: int = 1 << 31,
                 max_runs: int = 8, spill_dir: Optional[str] = None):
        self.shard = shard
        self.spill_threshold = spill_threshold
        self.max_runs = max_runs
        self._spill_root = spill_dir
        self._dir: Optional[str] = None         # created lazily on first spill
        self._run_seq = 0

        # (prio, DomainMsg) per key — exact per-key minimum, always in RAM
        self.heads: dict[str, tuple] = {}
        self.tails: dict[str, list] = {}        # sorted [(prio, DomainMsg)]
        self.tail_count = 0
        self.runs: list[_Run] = []
        self.spilled_entries = 0                # live entries written (gauge)
        self.members = IntSet()                 # hash64(domain) of pending

    # ------------------------------------------------------------ membership
    @staticmethod
    def _mh(domain: str) -> int:
        return int(hash64(domain, seed=_MEMBER_SEED))

    def contains_mh(self, mh: int) -> bool:
        """Membership by PRECOMPUTED domain hash (the batch enqueue path
        hashes every domain once, vectorized, instead of per check)."""
        return mh in self.members

    def __len__(self) -> int:
        return len(self.members)

    def n_keys(self) -> int:
        return len(self.heads)

    # ------------------------------------------------------------ insert side
    def add(self, prio: tuple, msg) -> None:
        """Insert a NEW pending domain (caller has checked membership)."""
        self.add_mh(prio, msg, self._mh(msg.domain))

    def add_mh(self, prio: tuple, msg, mh: int) -> None:
        """`add` with the domain hash precomputed by the caller."""
        self.members.add(mh)
        key = msg.addr_key
        cur = self.heads.get(key)
        if cur is None:
            self.heads[key] = (prio, msg)
            return
        if prio < cur[0]:
            self.heads[key] = (prio, msg)
            prio, msg = cur                      # demote the old head
        insort(self.tails.setdefault(key, []), (prio, msg))
        self.tail_count += 1
        if self.tail_count > self.spill_threshold:
            self._spill()

    # ------------------------------------------------------------ dequeue side
    def head_items(self) -> Iterator[tuple]:
        """(priority, addr_key) of every key with pending entries."""
        for key, (prio, _msg) in self.heads.items():
            yield prio, key

    def pop(self, key: str):
        """Pop the head entry of ``key``; refill the head from the tails /
        runs or drop the key entirely. Returns the popped DomainMsg."""
        prio, msg = self.heads.pop(key)
        self.members.discard(self._mh(msg.domain))
        self._refill(key)
        return msg

    def _refill(self, key: str) -> None:
        # RAM candidate: first LIVE tail entry (drop dead dup copies —
        # stale duplicates can linger after a disk promotion was popped)
        tail = self.tails.get(key)
        while tail and self._mh(tail[0][1].domain) not in self.members:
            tail.pop(0)
            self.tail_count -= 1
        if tail is not None and not tail:
            del self.tails[key]
            tail = None

        disk_best = None
        if self.runs:
            kh = int(hash64(key, seed=_KEY_SEED))
            for run in self.runs:
                for prio, m in run.read_key(kh):
                    if m.addr_key != key:
                        continue                 # key-hash collision
                    if self._mh(m.domain) not in self.members:
                        continue                 # stale (popped) bytes
                    if disk_best is None or prio < disk_best[0]:
                        disk_best = (prio, m)

        ram_best = tail[0] if tail else None
        if disk_best is not None and (ram_best is None
                                      or disk_best[0] < ram_best[0]):
            # promote the disk copy; its bytes stay (filtered as stale
            # only after the promoted head is eventually popped)
            self.heads[key] = disk_best
        elif ram_best is not None:
            self.heads[key] = ram_best
            tail.pop(0)
            self.tail_count -= 1
            if not tail:
                del self.tails[key]
        # else: key exhausted — stays absent from heads

    # ------------------------------------------------------------ spill side
    def _ensure_dir(self) -> str:
        if self._dir is None:
            root = self._spill_root or tempfile.gettempdir()
            os.makedirs(root, exist_ok=True)
            self._dir = tempfile.mkdtemp(
                prefix=f"pending_shard{self.shard}_", dir=root)
        return self._dir

    def _write_run(self, by_key: dict[str, list]) -> None:
        """Write one sorted run from per-key entry lists (entries sorted)."""
        groups: dict[int, list] = {}
        n = 0
        for key, entries in by_key.items():
            live = [e for e in entries
                    if self._mh(e[1].domain) in self.members]
            if not live:
                continue
            kh = int(hash64(key, seed=_KEY_SEED))
            groups.setdefault(kh, []).extend(live)
            n += len(live)
        if not n:
            return
        path = os.path.join(self._ensure_dir(), f"run_{self._run_seq:06d}.pkl")
        self._run_seq += 1
        hashes = sorted(groups)
        offsets, lengths = [], []
        with open(path, "wb") as f:
            for kh in hashes:
                blob = pickle.dumps(sorted(groups[kh]), protocol=4)
                offsets.append(f.tell())
                lengths.append(len(blob))
                f.write(blob)
        self.runs.append(_Run(path, np.array(hashes, dtype=np.uint64),
                              np.array(offsets, dtype=np.int64),
                              np.array(lengths, dtype=np.int64), n))
        self.spilled_entries += n

    def _spill(self) -> None:
        """Move ALL RAM tails into one new sorted run; compact if needed."""
        by_key = self.tails
        self.tails = {}
        self.tail_count = 0
        self._write_run(by_key)
        if len(self.runs) > self.max_runs:
            self._compact()

    def _compact(self) -> None:
        """Merge every run into one, dropping stale (popped) entries —
        STREAMING per key segment (never the whole spilled set in RAM:
        the first version loaded all runs at once and peaked at ~4 GiB on
        the 10M smoke; this holds one key's entries at a time)."""
        old = self.runs
        self.runs = []
        self.spilled_entries = 0
        if not old:
            return
        all_hashes = np.unique(np.concatenate(
            [r.key_hashes for r in old]))
        path = os.path.join(self._ensure_dir(),
                            f"run_{self._run_seq:06d}.pkl")
        self._run_seq += 1
        handles = [open(r.path, "rb") for r in old]
        hashes_out, offsets, lengths = [], [], []
        n = 0
        try:
            with open(path, "wb") as out:
                for kh in all_hashes:
                    entries = []
                    for r, f in zip(old, handles):
                        i = int(np.searchsorted(r.key_hashes, kh))
                        if i < len(r.key_hashes) and r.key_hashes[i] == kh:
                            f.seek(int(r.offsets[i]))
                            entries.extend(
                                pickle.loads(f.read(int(r.lengths[i]))))
                    live = [e for e in entries
                            if self._mh(e[1].domain) in self.members]
                    if not live:
                        continue
                    live.sort()
                    blob = pickle.dumps(live, protocol=4)
                    hashes_out.append(int(kh))
                    offsets.append(out.tell())
                    lengths.append(len(blob))
                    out.write(blob)
                    n += len(live)
        finally:
            for f in handles:
                f.close()
        for r in old:
            os.unlink(r.path)
        if n:
            self.runs.append(_Run(path,
                                  np.array(hashes_out, dtype=np.uint64),
                                  np.array(offsets, dtype=np.int64),
                                  np.array(lengths, dtype=np.int64), n))
            self.spilled_entries = n
        else:
            os.unlink(path)

    # ------------------------------------------------------------ introspection
    def gauges(self) -> dict:
        return {"pending_spill_runs": len(self.runs),
                "pending_spilled_entries": self.spilled_entries,
                "pending_ram_entries": len(self.heads) + self.tail_count}

    # ------------------------------------------------------------ checkpointing
    def snapshot_by_key(self) -> dict[str, list]:
        """Full live content as {addr_key: sorted [(prio, msg)]} — the
        checkpoint format (identical to the r1-r3 in-RAM ``pending`` dict,
        so old checkpoints restore and the format is spill-independent)."""
        out: dict[str, list] = {}
        for key, head in self.heads.items():
            out[key] = [head] + list(self.tails.get(key, []))
        for run in self.runs:
            for prio, m in run.read_all():
                if self._mh(m.domain) not in self.members:
                    continue
                cur = out.get(m.addr_key)
                if cur is not None and any(c[1].domain == m.domain
                                           for c in cur):
                    continue  # stale duplicate of a promoted head
                out.setdefault(m.addr_key, []).append((prio, m))
        for entries in out.values():
            entries.sort()
        return out

    def load_by_key(self, by_key: dict[str, list]) -> None:
        """Replace all content from a checkpoint snapshot."""
        self.drop_files()
        self.heads, self.tails, self.tail_count = {}, {}, 0
        self.runs, self.spilled_entries = [], 0
        self.members = IntSet()
        for key, entries in by_key.items():
            if not entries:
                continue
            entries = sorted(entries)
            self.heads[key] = entries[0]
            if len(entries) > 1:
                self.tails[key] = entries[1:]
                self.tail_count += len(entries) - 1
            for _prio, m in entries:
                self.members.add(self._mh(m.domain))
        if self.tail_count > self.spill_threshold:
            self._spill()

    def drop_files(self) -> None:
        for run in self.runs:
            try:
                os.unlink(run.path)
            except OSError:
                pass


# ------------------------------------------------------------ spill-aware
# checkpointing (the O(pending)-RAM snapshot path is only for unspilled /
# legacy states; a spilled store checkpoints its immutable run FILES by OS
# copy and its membership table by buffer dump — RAM stays O(heads+tails))

def _intset_to_bytes(s: IntSet) -> bytes:
    return pickle.dumps({"slots": s.slots, "n": s.n, "tombs": s.tombs},
                        protocol=4)


def _intset_from_bytes(blob: bytes) -> IntSet:
    d = pickle.loads(blob)
    out = IntSet.__new__(IntSet)
    out.slots = d["slots"]
    out.mask = len(d["slots"]) - 1
    out.n, out.tombs = d["n"], d["tombs"]
    return out


def _ram_by_key(self) -> dict[str, list]:
    """Heads + RAM tails only — bounded by the spill threshold."""
    out: dict[str, list] = {}
    for key, head in self.heads.items():
        out[key] = [head] + list(self.tails.get(key, []))
    return out


def _checkpoint_runs(self, run_dir: str) -> list[dict]:
    """OS-copy the immutable run files into ``run_dir``; return the
    manifest (filenames + index arrays — O(keys), not O(entries))."""
    import shutil as _sh
    os.makedirs(run_dir, exist_ok=True)
    manifest = []
    for i, r in enumerate(self.runs):
        name = f"run_{i:06d}.pkl"
        _sh.copyfile(r.path, os.path.join(run_dir, name))
        manifest.append({"name": name, "key_hashes": r.key_hashes,
                         "offsets": r.offsets, "lengths": r.lengths,
                         "n_entries": r.n_entries})
    return manifest


def _restore_spilled(self, ram: dict[str, list], members_blob: bytes,
                     manifest: list[dict], run_dir: str) -> None:
    """Restore a spilled checkpoint: RAM part verbatim, membership from
    its table dump, run files copied into a fresh spill dir (the
    checkpoint dir stays immutable for re-resume)."""
    import shutil as _sh
    self.drop_files()
    self.heads, self.tails, self.tail_count = {}, {}, 0
    self.runs, self.spilled_entries = [], 0
    for key, entries in ram.items():
        if not entries:
            continue
        entries = sorted(entries)
        self.heads[key] = entries[0]
        if len(entries) > 1:
            self.tails[key] = entries[1:]
            self.tail_count += len(entries) - 1
    self.members = _intset_from_bytes(members_blob)
    for m in manifest:
        dst = os.path.join(self._ensure_dir(),
                           f"run_{self._run_seq:06d}.pkl")
        self._run_seq += 1
        _sh.copyfile(os.path.join(run_dir, m["name"]), dst)
        self.runs.append(_Run(dst, m["key_hashes"], m["offsets"],
                              m["lengths"], m["n_entries"]))
        self.spilled_entries += m["n_entries"]


PendingStore.ram_by_key = _ram_by_key
PendingStore.checkpoint_runs = _checkpoint_runs
PendingStore.restore_spilled = _restore_spilled
