"""Google-parser robots.txt semantics (F7) — stages/robots.py.

Vectors reproduce published examples from the public REP documentation
(RFC 9309 §2.2 and Google Search Central's robots.txt specification pages):
pattern wildcards * and $, Allow/Disallow longest-match precedence, and
user-agent group selection. The datagen corpus tests pin the synthetic
variants the crawl suite relies on.
"""

import pytest

from crusty_ray.datagen.webgraph import SyntheticWeb, WebConfig
from crusty_ray.stages.robots import RobotsRules, parse_robots


def rules(body: str, agent: str = "crusty") -> RobotsRules:
    return parse_robots(body, agent)


class TestPatternMatching:
    # Google's published /fish family of matching examples
    def test_plain_prefix(self):
        r = rules("User-agent: *\nDisallow: /fish\n")
        for path in ("/fish", "/fish.html", "/fishheads",
                     "/fishheads/yummy.html", "/fish.php?id=anything"):
            assert not r.allowed(f"http://x.com{path}")
        for path in ("/Fish.asp", "/catfish", "/?id=fish"):
            assert r.allowed(f"http://x.com{path}")

    def test_trailing_star_equivalent(self):
        a = rules("User-agent: *\nDisallow: /fish\n")
        b = rules("User-agent: *\nDisallow: /fish*\n")
        for path in ("/fish", "/fishheads", "/catfish", "/Fish.asp"):
            assert a.allowed(f"http://x.com{path}") == \
                b.allowed(f"http://x.com{path}")

    def test_directory_slash(self):
        r = rules("User-agent: *\nDisallow: /fish/\n")
        assert not r.allowed("http://x.com/fish/")
        assert not r.allowed("http://x.com/fish/salmon.htm")
        assert r.allowed("http://x.com/fish")
        assert r.allowed("http://x.com/fish.html")

    def test_infix_wildcard_suffix_anchor(self):
        r = rules("User-agent: *\nDisallow: /*.php$\n")
        assert not r.allowed("http://x.com/filename.php")
        assert not r.allowed("http://x.com/folder/filename.php")
        assert r.allowed("http://x.com/filename.php?parameters")
        assert r.allowed("http://x.com/filename.php/")
        assert r.allowed("http://x.com/windows.PHP")

    def test_infix_wildcard(self):
        r = rules("User-agent: *\nDisallow: /fish*.php\n")
        assert not r.allowed("http://x.com/fish.php")
        assert not r.allowed("http://x.com/fishheads/catfish.php?p=1")
        assert r.allowed("http://x.com/Fish.PHP")

    def test_query_included_in_match(self):
        r = rules("User-agent: *\nDisallow: /*?session=\n")
        assert not r.allowed("http://x.com/page?session=abc")
        assert r.allowed("http://x.com/page")


class TestPrecedence:
    # Google's published order-of-precedence examples
    def test_longer_allow_wins(self):
        r = rules("User-agent: *\nAllow: /p\nDisallow: /\n")
        assert r.allowed("http://x.com/page")
        assert not r.allowed("http://x.com/other")

    def test_equal_length_allow_wins(self):
        r = rules("User-agent: *\nAllow: /folder\nDisallow: /folder\n")
        assert r.allowed("http://x.com/folder/page")

    def test_root_dollar_anchor(self):
        r = rules("User-agent: *\nAllow: /$\nDisallow: /\n")
        assert r.allowed("http://x.com/")
        assert not r.allowed("http://x.com/page.htm")

    def test_longer_disallow_wins(self):
        r = rules("User-agent: *\nAllow: /private/p3\nDisallow: /private/\n")
        assert r.allowed("http://x.com/private/p3")
        assert r.allowed("http://x.com/private/p31")
        assert not r.allowed("http://x.com/private/p4")

    def test_empty_disallow_is_noop(self):
        r = rules("User-agent: *\nDisallow:\n")
        assert r.allowed("http://x.com/anything")

    def test_no_body_allows_all(self):
        assert parse_robots(None).allowed("http://x.com/a")
        assert parse_robots("").allowed("http://x.com/a")


class TestGroupSelection:
    BODY = ("User-agent: googlebot-news\nDisallow: /news-only/\n\n"
            "User-agent: googlebot\nDisallow: /g/\n\n"
            "User-agent: crusty\nDisallow: /c/\n\n"
            "User-agent: *\nDisallow: /all/\n")

    def test_exact_token(self):
        r = rules(self.BODY, agent="crusty")
        assert not r.allowed("http://x.com/c/x")
        assert r.allowed("http://x.com/all/x")  # * group not merged in

    def test_longest_prefix_wins(self):
        r = rules(self.BODY, agent="googlebot-news")
        assert not r.allowed("http://x.com/news-only/x")
        assert r.allowed("http://x.com/g/x")

    def test_prefix_fallback(self):
        # googlebot-images has no own group: falls to the googlebot group
        r = rules(self.BODY, agent="googlebot-images")
        assert not r.allowed("http://x.com/g/x")
        assert r.allowed("http://x.com/all/x")

    def test_star_fallback(self):
        r = rules(self.BODY, agent="otherbot")
        assert not r.allowed("http://x.com/all/x")
        assert r.allowed("http://x.com/c/x")

    def test_case_insensitive_agent(self):
        r = rules("User-Agent: CRUSTY\nDisallow: /c/\n", agent="Crusty/1.0")
        assert not r.allowed("http://x.com/c/x")

    def test_consecutive_agent_lines_share_rules(self):
        body = ("User-agent: a\nUser-agent: b\nDisallow: /x/\n\n"
                "User-agent: c\nDisallow: /y/\n")
        for agent in ("a", "b"):
            r = rules(body, agent=agent)
            assert not r.allowed(f"http://x.com/x/{agent}")
            assert r.allowed("http://x.com/y/z")

    def test_same_agent_groups_merge(self):
        body = ("User-agent: crusty\nDisallow: /a/\n\n"
                "User-agent: crusty\nDisallow: /b/\n")
        r = rules(body)
        assert not r.allowed("http://x.com/a/1")
        assert not r.allowed("http://x.com/b/1")


class TestDatagenCorpus:
    WEB = SyntheticWeb(WebConfig(n_domains=400, max_pages_per_domain=8))

    def variants(self):
        bodies = {self.WEB.robots_body(d) for d in self.WEB.domains}
        return bodies

    def test_all_variants_emitted(self):
        bodies = self.variants()
        assert None in bodies
        joined = "\n".join(b for b in bodies if b)
        assert "Disallow: /private/" in joined
        assert "Disallow: /*3$" in joined
        assert "Allow: /private/p3" in joined
        assert "User-agent: crusty" in joined

    def test_wildcard_variant_blocks_suffix3(self):
        r = rules("User-agent: *\nDisallow: /*3$\n")
        assert not r.allowed("http://x.com/p3")
        assert not r.allowed("http://x.com/p13")
        assert not r.allowed("http://x.com/private/p3")
        assert r.allowed("http://x.com/p30")

    def test_agent_variant_selects_crusty_group(self):
        body = ("User-agent: googlebot\nDisallow: /\n\n"
                "User-agent: crusty\nDisallow: /p1\n\n"
                "User-agent: *\nDisallow: /p\n")
        r = rules(body)
        assert not r.allowed("http://x.com/p1")
        assert not r.allowed("http://x.com/p12")
        assert r.allowed("http://x.com/p2")   # * group would have blocked
        r_other = rules(body, agent="otherbot")
        assert not r_other.allowed("http://x.com/p2")


@pytest.mark.parametrize("agent", ["crusty", "crusty/abc123"])
def test_product_token_strips_version(agent):
    r = parse_robots("User-agent: crusty\nDisallow: /x/\n", agent)
    assert not r.allowed("http://x.com/x/1")


def test_robots_parsed_once_per_stage_pair(monkeypatch):
    """The fetch and discover stages of one pair share one robots cache:
    a simulator crawl (which holds one pair) generates each domain's
    robots.txt body at most once."""
    from collections import Counter

    from crusty_ray.config import test_config
    from crusty_ray.sim.simulator import CrawlSimulator

    calls = Counter()
    orig = SyntheticWeb.robots_body

    def counting(self, domain):
        calls[domain] += 1
        return orig(self, domain)

    monkeypatch.setattr(SyntheticWeb, "robots_body", counting)
    cfg = test_config(**{"rules.total_link_budget": 30,
                         "rules.links_per_task_budget": 10,
                         "rules.max_level": 6, "engine.max_epochs": 25})
    CrawlSimulator(cfg, WebConfig(n_domains=40, max_pages_per_domain=16)).run()
    assert calls and max(calls.values()) == 1
