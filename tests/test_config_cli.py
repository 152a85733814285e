"""Config layering (config.rs:260-292 semantics) + CLI smoke tests."""

import ast
import dataclasses
import json
import pathlib
import subprocess
import sys

import yaml

from crusty_ray.config import Config, load_config


class TestConfigLayering:
    def test_defaults(self):
        cfg = Config()
        assert cfg.jobs.shard_total == 2
        assert cfg.rules.total_link_budget == 1000
        assert cfg.crawl.concurrency == 2
        assert cfg.topk.decay == 0.92

    def test_yaml_overlay(self, tmp_path):
        p = tmp_path / "c.yaml"
        p.write_text("jobs:\n  shard_total: 8\nrules:\n  max_level: 3\n")
        cfg = load_config(str(p), env={})
        assert cfg.jobs.shard_total == 8
        assert cfg.rules.max_level == 3
        assert cfg.rules.total_link_budget == 1000  # untouched default

    def test_profile_overlays_config(self, tmp_path):
        base = tmp_path / "b.yaml"
        base.write_text("jobs:\n  shard_total: 4\n")
        prof = tmp_path / "p.yaml"
        prof.write_text("jobs:\n  shard_total: 16\n")
        cfg = load_config(str(base), str(prof), env={})
        assert cfg.jobs.shard_total == 16  # profile wins (CRUSTY_PROFILE layer)

    def test_env_overrides(self):
        cfg = load_config(env={"APP_JOBS__SHARD_TOTAL": "32",
                               "APP_RULES__ROBOTS_TXT": "false"})
        assert cfg.jobs.shard_total == 32
        assert cfg.rules.robots_txt is False

    def test_crusty_seeds_env(self):
        cfg = load_config(env={"CRUSTY_SEEDS": "http://a.com/, http://b.org/"})
        assert cfg.seeds == ["http://a.com/", "http://b.org/"]

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("nonsense_key: 1\n")
        import pytest
        with pytest.raises(KeyError):
            load_config(str(p), env={})

    def test_test_config_rejects_unknown_override(self):
        import pytest
        from crusty_ray.config import test_config
        assert test_config(**{"engine.max_epochs": 7}).engine.max_epochs == 7
        for key in ("engine.no_such_knob", "no_such_section.max_epochs",
                    "engine.scratch_dir.x"):
            with pytest.raises(KeyError):
                test_config(**{key: 0})

    def test_repo_default_yaml_loads(self):
        import os
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        cfg = load_config(os.path.join(root, "conf", "default.yaml"), env={})
        assert cfg.jobs.dequeue_limit == 10000


class TestNoDeadKnobs:
    """Every config field is read by the engine, and the shipped yaml sets
    only fields that exist: a knob nothing reads is a promise the engine
    does not keep."""

    ROOT = pathlib.Path(__file__).resolve().parent.parent

    @staticmethod
    def _leaves(obj, prefix=""):
        for f in dataclasses.fields(obj):
            v = getattr(obj, f.name)
            if dataclasses.is_dataclass(v):
                yield from TestNoDeadKnobs._leaves(v, f"{prefix}{f.name}.")
            else:
                yield prefix + f.name

    def _names_read(self):
        """Attribute names and ``getattr(obj, "<name>")`` strings used in
        the package (outside config.py) and the contract entry point."""
        pkg = self.ROOT / "crusty_ray"
        files = [p for p in pkg.rglob("*.py") if p != pkg / "config.py"]
        names = set()
        for path in files + [self.ROOT / "__ray_entry__.py"]:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif (isinstance(node, ast.Call)
                      and isinstance(node.func, ast.Name)
                      and node.func.id == "getattr" and len(node.args) >= 2
                      and isinstance(node.args[1], ast.Constant)):
                    names.add(node.args[1].value)
        return names

    def test_every_field_is_read(self):
        names = self._names_read()
        dead = [f for f in self._leaves(Config())
                if f.rsplit(".", 1)[-1] not in names]
        assert dead == []

    def test_default_yaml_keys_are_fields(self):
        data = yaml.safe_load((self.ROOT / "conf" / "default.yaml").read_text())
        cfg = Config()
        top = {f.name for f in dataclasses.fields(cfg)}
        assert set(data) <= top
        for section, body in data.items():
            sub = getattr(cfg, section)
            if dataclasses.is_dataclass(sub):
                assert set(body) <= {f.name for f in dataclasses.fields(sub)}, section


class TestCli:
    def test_crawl_and_resume(self, tmp_path):
        import os
        env = dict(os.environ,
                   CRUSTY_SEEDS="http://site00000.com/,http://site00004.dev/",
                   RAY_GRAFT_CPUS="4")
        out_dir = str(tmp_path / "o")
        r = subprocess.run(
            [sys.executable, "-m", "crusty_ray.run", "--out", out_dir,
             "--epochs", "6", "--web-domains", "40", "--num-cpus", "4"],
            capture_output=True, text=True, env=env, timeout=240,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert r.returncode == 0, r.stderr[-2000:]
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["epochs_run"] == 6
        assert summary["pages_fetched"] > 0

        # resume continues toward a longer horizon
        r2 = subprocess.run(
            [sys.executable, "-m", "crusty_ray.run", "--out", out_dir,
             "--epochs", "10", "--web-domains", "40", "--num-cpus", "4",
             "--resume"],
            capture_output=True, text=True, env=env, timeout=240,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert r2.returncode == 0, r2.stderr[-2000:]
        s2 = json.loads(r2.stdout.strip().splitlines()[-1])
        assert s2["epochs_run"] >= summary["epochs_run"]
        assert s2["pages_fetched"] >= summary["pages_fetched"]

    def test_no_seeds_errors(self, tmp_path):
        import os
        env = {k: v for k, v in os.environ.items() if k != "CRUSTY_SEEDS"}
        r = subprocess.run(
            [sys.executable, "-m", "crusty_ray.run", "--out", str(tmp_path / "x")],
            capture_output=True, text=True, env=env, timeout=60,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        assert r.returncode == 2
        assert "CRUSTY_SEEDS" in r.stderr
