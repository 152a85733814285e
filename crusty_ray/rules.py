"""User-extension surface — the reference's JobRules trait re-expressed.

crusty-core lets the user supply task/status/load filter chains, expanders
and a document parser (``workspace/main/src/rules.rs:55-102``; parser
pluggable via cargo features, ``main/Cargo.toml:13-18``). Our equivalent is a
dataclass of callables injected into the stages — the built-in chain (F1-F9)
always runs; user hooks append at the chain positions the reference's
``filters.push`` pattern implies:

- ``parser``:        which link parser the fetch stage uses (M1/M2 slot);
- ``link_filter``:   extra *task filter* run after the built-in pure chain,
                     before the seen-commit (a user ``task_filters.push``);
- ``status_filter``: extra *status filter* after Redirect/ContentType
                     (a user ``status_filters.push``).

Hooks must be picklable (module-level functions / functools.partial): they
ship to Ray workers inside the stage instances, on every crawl however
small. A module-level hook pickles by reference, so its module must be
importable on the workers; a hook defined inside a function (or in
``__main__``) is shipped by value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class CrawlRules:
    parser: str = "regex"
    link_filter: Optional[Callable[[str, str], bool]] = None    # (url, job_domain) -> keep
    status_filter: Optional[Callable[[int, str], bool]] = None  # (status, content_type) -> keep


DEFAULT_RULES = CrawlRules()
