"""Smoke runs of the experiment scripts in scripts/, each as a subprocess
with tiny arguments: every script exits 0 and prints its report lines."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def family_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("family")
    out = _run("sphere_family_demo.py", "--epochs", 2, "--samples-per-shape", 200,
               "--resolution", 16, "--out-dir", out_dir)
    return out_dir, out


def test_overfit_sphere(tmp_path):
    ck = tmp_path / "sphere.nsdf"
    out = _run("overfit_sphere.py", "--epochs", 2, "--samples", 200,
               "--resolution", 16, "--out", ck)
    assert "trained 2 epochs" in out
    assert re.search(r"mean \|f\| on held-out surface: \S+", out)
    assert re.search(r"mean \|grad norm - 1\| in unit ball: \d+\.\d{3}", out)
    assert re.search(r"reconstruction: [1-9]\d* vertices, mean radius", out)
    assert f"checkpoint -> {ck}" in out and ck.stat().st_size > 0


def test_sphere_family_demo(family_dir):
    out_dir, out = family_dir
    assert "trained 2 epochs over 8 shapes" in out
    assert len(re.findall(r"^  shape \d \(r = 0\.\d\d\): chamfer \S+$", out, re.M)) == 8
    assert "chamfer mean" in out and "alpha = 0.5 blend" in out
    for name in ("model.nsdf", "metrics.csv", "recon.csv", "interpolated.obj"):
        assert (out_dir / name).stat().st_size > 0


def test_cohort_variance(family_dir, tmp_path):
    out_dir, _ = family_dir
    out = _run("cohort_variance.py", "--checkpoint", out_dir / "model.nsdf",
               "--count", 3, "--resolution", 16, "--eval-points", 200,
               "--out-prefix", tmp_path / "cohort")
    lines = out.splitlines()
    assert lines[0].split() == ["m", "pairs", "mean", "std", "var"]
    assert [line.split()[:2] for line in lines[1:]] == [["2", "3"], ["4", "3"], ["8", "3"]]
    for m in (2, 4, 8):
        assert (tmp_path / f"cohort_m{m}.csv").exists()
