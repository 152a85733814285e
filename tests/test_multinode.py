"""Engine ≡ simulator across REAL node boundaries.

With frontier shards SPREAD over 2 genuine Ray nodes (separate raylets +
object stores, cross-node block transfer), the crawl log, finished domains
and top-k rows still exactly match the single-threaded simulator. Runs in a
subprocess because the session fixture already owns a single-node ray
instance.
"""

import json
import subprocess
import sys

_SCRIPT = r"""
import json, sys
from ray.cluster_utils import Cluster
import ray
cluster = Cluster(initialize_head=True,
                  head_node_args={"num_cpus": 2,
                                  "object_store_memory": 1_500_000_000})
cluster.add_node(num_cpus=2, object_store_memory=1_500_000_000)
ray.init(address=cluster.address, include_dashboard=False,
         logging_level="ERROR")
import time
for _ in range(50):
    if ray.cluster_resources().get("CPU", 0) >= 4:
        break
    time.sleep(0.2)
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False

from crusty_ray.config import test_config
from crusty_ray.datagen.webgraph import WebConfig
from crusty_ray.pipelines.crawl import CrawlEngine
from crusty_ray.sim.simulator import CrawlSimulator

cfg = test_config()
cfg.rules.total_link_budget = 30
cfg.rules.links_per_task_budget = 10
cfg.rules.max_level = 6
cfg.engine.max_epochs = 20
web_cfg = WebConfig(n_domains=50, max_pages_per_domain=14)

eng = CrawlEngine(cfg, web_cfg, sys.argv[1]).run()
n_nodes = len([n for n in ray.nodes() if n["Alive"]])
sim = CrawlSimulator(cfg, web_cfg).run()

elog = eng.read_crawl_log().to_pandas().drop(columns=["image_ids"])
import pandas as pd
slog = pd.DataFrame(sim.crawl_log).drop(columns=["image_ids"])
pd.testing.assert_frame_equal(
    elog.reset_index(drop=True), slog.reset_index(drop=True),
    check_dtype=False)
assert eng.finished_domains == sim.finished_domains
assert eng.topk_rows == sim.topk_rows
assert eng.seen_filter_bytes() == sim.seen_filter_bytes()
print(json.dumps({"ok": True, "n_nodes": n_nodes, "rows": len(elog)}))
ray.shutdown()
cluster.shutdown()
"""


def test_two_node_cluster_exact_match(tmp_path):
    out = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(tmp_path / "o")],
        capture_output=True, text=True, timeout=420, cwd="/root/repo")
    assert out.returncode == 0, out.stderr[-3000:]
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert res["ok"] and res["n_nodes"] == 2 and res["rows"] > 200
