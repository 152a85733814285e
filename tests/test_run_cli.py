"""CLI smoke (crusty_ray.run): crawl → resume → streaming mode, each in its
own subprocess (the CLI owns its Ray session and shuts it down — running it
in-process would kill the shared test fixture's session)."""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(args, env_extra=None, timeout=240):
    env = dict(os.environ, PYTHONPATH=REPO, RAY_GRAFT_CPUS="4",
               **(env_extra or {}))
    return subprocess.run(
        [sys.executable, "-m", "crusty_ray.run"] + args,
        capture_output=True, text=True, timeout=timeout, cwd=REPO, env=env)


@pytest.mark.slow
def test_cli_crawl_resume_and_streaming(tmp_path):
    seeds = "http://site00000.com/,http://site00001.net/"
    out = str(tmp_path / "c")
    r = _run(["--out", out, "--epochs", "8", "--web-domains", "120"],
             env_extra={"CRUSTY_SEEDS": seeds})
    assert r.returncode == 0, r.stderr[-2000:]
    summary = json.loads(r.stdout.strip().splitlines()[-1])
    assert summary["pages_fetched"] > 0
    assert os.path.exists(f"{out}/checkpoints/LATEST")

    # resume continues toward a larger horizon from the checkpoint
    r2 = _run(["--out", out, "--epochs", "20", "--web-domains", "120",
               "--resume"], env_extra={"CRUSTY_SEEDS": seeds})
    assert r2.returncode == 0, r2.stderr[-2000:]
    s2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert s2["pages_fetched"] >= summary["pages_fetched"]

    # streaming mode end-to-end
    out3 = str(tmp_path / "s")
    r3 = _run(["--out", out3, "--epochs", "20", "--web-domains", "120",
               "--mode", "streaming"], env_extra={"CRUSTY_SEEDS": seeds})
    assert r3.returncode == 0, r3.stderr[-2000:]
    s3 = json.loads(r3.stdout.strip().splitlines()[-1])
    assert s3["pages_fetched"] > 0

    # no seeds and no resume → explicit config error, not a crash
    r4 = _run(["--out", str(tmp_path / "x")],
              env_extra={"CRUSTY_SEEDS": ""})
    assert r4.returncode == 2


def test_num_cpus_default(monkeypatch, tmp_path):
    """A local session gets the CPUs this process may run on, unless
    RAY_GRAFT_CPUS overrides them (bench.py's rule)."""
    import ray
    from crusty_ray import run

    class Started(Exception):
        pass

    seen = []

    def fake_init(**kw):
        seen.append(kw.get("num_cpus"))
        raise Started

    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init", fake_init)
    monkeypatch.setenv("RAY_ADDRESS", "local")
    monkeypatch.setenv("CRUSTY_SEEDS", "http://site00000.com/")
    monkeypatch.delenv("RAY_GRAFT_CPUS", raising=False)
    with pytest.raises(Started):
        run.main(["--out", str(tmp_path / "a")])
    monkeypatch.setenv("RAY_GRAFT_CPUS", "3")
    with pytest.raises(Started):
        run.main(["--out", str(tmp_path / "b")])
    assert seen == [len(os.sched_getaffinity(0)), 3]
