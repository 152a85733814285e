"""Politeness-group keys and horizontal sharding.

Semantics mirror the reference's ``Domain::select_addr`` / ``Domain::calc_shard``
(``workspace/main/src/types.rs:22-55``): the politeness group (*addr_key*) is the
base64 of the network-masked first resolved IP (IPv4 ``/24`` and IPv6 ``/24`` by
default, ``conf/default.yaml:54-55``), and the horizontal partition is
``crc32(addr_key) % shard_total`` (``types.rs:51-53``).

Everything here is a pure function of its inputs so it can run vectorized inside
``map_batches`` and identically inside the single-threaded simulator oracle.
"""

from __future__ import annotations

import base64
import ipaddress
import zlib
from typing import Iterable, Optional, Sequence

import numpy as np

# IPv6 policy mirrors config::ResolverAddrIpv6Policy (reference config.rs:226-231).
IPV6_DISABLED = "disabled"
IPV6_PREFERRED = "preferred"
IPV6_FALLBACK = "fallback"


def select_addr(addrs: Iterable[str], ipv6_policy: str = IPV6_FALLBACK) -> Optional[str]:
    """Pick the canonical address for a domain from its resolved addr list.

    Mirrors ``Domain::select_addr`` (types.rs:22-40): v4 and v6 sorted
    separately, first of the preferred family by policy. ``addrs`` are
    ``"ip:port"`` strings (v6 as ``"[ip]:port"``).
    """
    v4: list[tuple] = []
    v6: list[tuple] = []
    for a in addrs:
        ip_s, port = _split_hostport(a)
        try:
            ip = ipaddress.ip_address(ip_s)
        except ValueError:
            continue
        key = (ip.packed, port)
        (v4 if ip.version == 4 else v6).append((key, a, ip, port))
    v4.sort(key=lambda t: t[0])
    v6.sort(key=lambda t: t[0])
    if ipv6_policy == IPV6_DISABLED:
        pick = v4[:1]
    elif ipv6_policy == IPV6_PREFERRED:
        pick = v6[:1] or v4[:1]
    else:
        pick = v4[:1] or v6[:1]
    return pick[0][1] if pick else None


def _split_hostport(addr: str) -> tuple[str, int]:
    if addr.startswith("["):
        host, _, rest = addr[1:].partition("]")
        port = int(rest.lstrip(":") or 0)
        return host, port
    host, _, port_s = addr.rpartition(":")
    if not host:  # bare ip, no port
        return addr, 0
    return host, int(port_s or 0)


def addr_key(addr: str, v4_mask: int = 24, v6_mask: int = 24) -> str:
    """base64 of the masked network bytes of ``addr`` — the politeness group.

    Mirrors ``Domain::calc_shard``'s masking step (types.rs:44-50).
    """
    ip_s, _ = _split_hostport(addr)
    ip = ipaddress.ip_address(ip_s)
    mask = v4_mask if ip.version == 4 else v6_mask
    net = ipaddress.ip_network(f"{ip}/{mask}", strict=False)
    return base64.b64encode(net.network_address.packed).decode("ascii")


def shard_of_addr_key(key: str, shard_total: int) -> int:
    """``crc32(addr_key) % shard_total`` (types.rs:51-53)."""
    return zlib.crc32(key.encode("utf-8")) % shard_total


def shard_of_addr_keys(keys: Sequence[str], shard_total: int) -> np.ndarray:
    """Vectorized shard assignment for a batch of addr_keys."""
    return np.fromiter(
        (zlib.crc32(k.encode("utf-8")) for k in keys), dtype=np.int64, count=len(keys)
    ) % shard_total


def domain_shard(domain: str, shard_total: int) -> int:
    """Domain-hash sharding (north_rule generalization of addr_key sharding).

    Used when no resolved address is available yet — e.g. routing a freshly
    discovered domain name to its owning seen-set partition. crc32 keeps the
    same hash family as the reference's shard function.
    """
    return zlib.crc32(domain.encode("utf-8")) % shard_total


def resolve_domain_row(
    addrs: Optional[Sequence[str]],
    shard_total: int,
    v4_mask: int = 24,
    v6_mask: int = 24,
    ipv6_policy: str = IPV6_FALLBACK,
) -> Optional[tuple[str, str, int]]:
    """Full ``Domain::new`` equivalent: (selected_addr, addr_key, shard) or None.

    Returns None when no usable address exists (unresolvable domains are
    dropped with a log in the reference, crusty.rs:405-432).
    """
    if not addrs:
        return None
    sel = select_addr(addrs, ipv6_policy)
    if sel is None:
        return None
    key = addr_key(sel, v4_mask, v6_mask)
    return sel, key, shard_of_addr_key(key, shard_total)
