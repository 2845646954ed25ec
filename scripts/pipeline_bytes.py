"""Run the whole command-line pipeline into one directory, for a byte diff.

Writes three UV-sphere meshes, then runs each sdfshapes command as a
subprocess inside OUT_DIR, with paths relative to it: sample the spheres;
train the desk network (8 x 64, d = 8) 3 epochs, then --resume it to 6;
reconstruct at R = 64 and 40, and with --workers 2 at R = 33; interpolate;
generate 5 shapes; evaluate recon and evaluate pairwise.  Each command's
stdout and stderr go to NN-name.out and NN-name.err.  Every output is
seeded, so two runs of one tree, or of two trees that should agree, give
directories that `diff -r` finds equal:

    python scripts/pipeline_bytes.py /tmp/a && python scripts/pipeline_bytes.py /tmp/b
    diff -r /tmp/a /tmp/b
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))  # meshes and commands both come from this tree

from sdfshapes.mesh import save_mesh  # noqa: E402
from sdfshapes.primitives import uv_sphere_mesh  # noqa: E402

NETWORK = ("latent_dim = 8\nhidden_width = 64\nlayer_count = 8\nskip_layer = 4\n"
           "surface_batch_size = 128\nseed = 0\n")
EVAL_POINTS = "2000"


def commands(points: int) -> list:
    """(name, argv) of each CLI command, in order."""
    train = ["train", "--samples", "train.nsds", "--out", "model.nsdf"]
    ck = ["--checkpoint", "model.nsdf"]
    return [
        ("sample", ["sample", "--input-dir", "meshes", "--out", "train.nsds",
                    "--points", str(points), "--seed", "0"]),
        ("train", train + ["--config", "epochs3.cfg"]),
        ("resume", train + ["--config", "epochs6.cfg", "--resume", "model.nsdf"]),
        ("reconstruct64", ["reconstruct", *ck, "--shape-index", "0", "--resolution", "64",
                           "--out", "recon64.obj"]),
        ("reconstruct40", ["reconstruct", *ck, "--shape-index", "1", "--resolution", "40",
                           "--out", "recon40.obj"]),
        ("reconstruct33", ["reconstruct", *ck, "--shape-index", "2", "--resolution", "33",
                           "--workers", "2", "--out", "recon33.obj"]),
        ("interpolate", ["interpolate", *ck, "--indices", "0,2", "--alphas", "0.3,0.7",
                         "--resolution", "40", "--out", "interpolated.obj"]),
        ("generate", ["generate", *ck, "--num", "5", "--interp-count", "2",
                      "--resolution", "40", "--seed", "0", "--out-dir", "cohort"]),
        ("evaluate-recon", ["evaluate", "recon", *ck, "--samples", "train.nsds",
                            "--resolution", "40", "--eval-points", EVAL_POINTS,
                            "--out", "recon.csv"]),
        ("evaluate-pairwise", ["evaluate", "pairwise", "--mesh-dir", "cohort",
                               "--eval-points", EVAL_POINTS, "--out", "pairwise.csv"]),
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir", type=Path, help="a new or empty directory")
    ap.add_argument("--points", type=int, default=2000, help="surface samples per sphere")
    args = ap.parse_args()
    out = args.out_dir
    if out.exists() and any(out.iterdir()):
        sys.exit(f"{out} is not empty")
    (out / "meshes").mkdir(parents=True, exist_ok=True)
    for k, (n_theta, n_phi) in enumerate(((8, 12), (12, 24), (16, 32))):
        save_mesh(uv_sphere_mesh(1.0, n_theta, n_phi), out / "meshes" / f"sphere{k}.obj")
    for epochs in (3, 6):
        (out / f"epochs{epochs}.cfg").write_text(NETWORK + f"epochs = {epochs}\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    for n, (name, argv) in enumerate(commands(args.points), 1):
        stem = out / f"{n:02d}-{name}"
        with open(f"{stem}.out", "w") as stdout, open(f"{stem}.err", "w") as stderr:
            code = subprocess.call([sys.executable, "-m", "sdfshapes.cli", *argv], cwd=out,
                                   env=env, stdout=stdout, stderr=stderr)
        if code:
            sys.exit(f"{name} exited {code}; see {stem}.err")
    print(f"{n} commands -> {out}")


if __name__ == "__main__":
    main()
