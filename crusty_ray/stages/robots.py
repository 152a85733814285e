"""robots.txt parsing + allow checks (reference F7, rules.rs:70-72,89-92).

The reference delegates to crusty-core's port of Google's robots.txt parser;
this module implements the same REP semantics (RFC 9309 / the public
google-robotstxt spec) rather than the r1-r3 prefix-only subset:

- **groups**: consecutive ``User-agent:`` lines open a group; ``Allow:`` /
  ``Disallow:`` rules belong to every agent of the most recent group. A
  ``User-agent:`` line appearing after rules starts a NEW group.
- **group selection**: the matching group with the LONGEST user-agent token
  that is a case-insensitive prefix of the crawler's product token wins
  (``googlebot-news`` beats ``googlebot`` beats ``*``); ``*`` applies only
  when no named group matches. All groups with the winning token merge.
- **patterns**: ``*`` matches any run of characters, a trailing ``$``
  anchors at end-of-path; everything else is a literal prefix match from
  the start of the path (path + ``?query`` when present, per the spec).
- **precedence**: the rule with the longest pattern (in characters) wins;
  on a tie between Allow and Disallow of equal length, Allow wins. An
  empty ``Disallow:`` value is a no-op (allows everything). No rules / no
  robots.txt = everything allowed.

Out of (documented) scope: percent-encoding normalization beyond what the
synthetic web emits, and the 500 KiB parse cap — neither is observable on
the synthetic corpus.
"""

from __future__ import annotations

import re
from typing import Optional
from urllib.parse import urlsplit


class RobotsRules:
    """Compiled rule set for ONE crawler agent against one robots.txt body.

    Instances are built once per (domain, agent) and cached in the fetch /
    discover actors (reference ST9), so the regex compilation cost is paid
    once per domain per actor, never per URL."""

    __slots__ = ("rules",)

    def __init__(self, rules: list[tuple[int, bool, "re.Pattern | str"]]):
        # (pattern_len, allow, matcher) — matcher is a plain str for pure
        # prefix rules (startswith is ~10× cheaper than regex) or a
        # compiled regex for patterns containing * / $
        self.rules = rules

    def allowed(self, url: str) -> bool:
        parts = urlsplit(url)
        path = parts.path or "/"
        if parts.query:
            path = f"{path}?{parts.query}"
        best_len = -1
        best_allow = True
        for plen, allow, m in self.rules:
            if plen < best_len or (plen == best_len and not allow):
                continue  # cannot improve (Allow wins ties)
            hit = path.startswith(m) if isinstance(m, str) else \
                m.match(path) is not None
            if hit:
                best_len, best_allow = plen, allow
        return best_allow


def _compile_pattern(pat: str):
    """Rule pattern → (len, matcher). Literal prefixes stay strings."""
    if "*" not in pat and not pat.endswith("$"):
        return len(pat), pat
    body = pat[:-1] if pat.endswith("$") else pat
    rx = ".*".join(re.escape(seg) for seg in body.split("*"))
    if pat.endswith("$"):
        rx += r"\Z"
    return len(pat), re.compile(rx)


def parse_robots(body: Optional[str], agent: str = "crusty") -> RobotsRules:
    """Parse a robots.txt body and select the rule group for ``agent``.

    ``agent`` is the crawler's product token (the part of the configured
    user-agent string before any ``/``), matched case-insensitively."""
    if not body:
        return RobotsRules([])
    token = agent.split("/", 1)[0].strip().lower()

    # group parse: agent value (lowered) → list[(allow, pattern)]
    by_agent: dict[str, list[tuple[bool, str]]] = {}
    current: list[str] = []         # agents of the open group
    in_agent_run = False            # consecutive User-agent lines merge
    for raw in body.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition(":")
        if not sep:
            continue
        key, val = key.strip().lower(), val.strip()
        if key == "user-agent":
            if not in_agent_run:
                current = []
                in_agent_run = True
            current.append(val.lower())
            by_agent.setdefault(val.lower(), [])
        elif key in ("allow", "disallow"):
            in_agent_run = False
            if not val:
                continue  # empty Disallow/Allow is a no-op
            for a in current:
                by_agent[a].append((key == "allow", val))

    # group selection: longest agent token that prefixes ours, else '*'
    winner = None
    for a in by_agent:
        if a != "*" and token.startswith(a):
            if winner is None or len(a) > len(winner):
                winner = a
    if winner is None and "*" in by_agent:
        winner = "*"
    if winner is None:
        return RobotsRules([])
    rules = []
    for allow, pat in by_agent[winner]:
        plen, matcher = _compile_pattern(pat)
        rules.append((plen, allow, matcher))
    return RobotsRules(rules)
