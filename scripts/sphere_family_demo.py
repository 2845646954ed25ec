"""Train an auto-decoder on a family of spheres and evaluate reconstructions.

Eight spheres with radii 0.30..0.65 stand in for a real mesh corpus.  After
training, every shape is reconstructed from its learned code and the per-shape
Chamfer distances are written as a CSV report, along with a mesh interpolated
halfway between the smallest and largest shapes.

    python scripts/sphere_family_demo.py --epochs 2000 --out-dir runs/family
"""

import argparse
import os
import time

import numpy as np

from sdfshapes import (Architecture, CombinationWeights, TrainConfig,
                       combine_codes, reconstruct_shape, reconstruction_report,
                       save_checkpoint, save_mesh, train)
from sdfshapes.primitives import multi_sphere_samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=2000)
    ap.add_argument("--samples-per-shape", type=int, default=5000)
    ap.add_argument("--width", type=int, default=64)
    ap.add_argument("--latent-dim", type=int, default=8)
    ap.add_argument("--batch", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--resolution", type=int, default=64)
    ap.add_argument("--out-dir", default="runs/family")
    args = ap.parse_args()
    os.makedirs(args.out_dir, exist_ok=True)

    radii = [0.30 + 0.05 * k for k in range(8)]
    data = multi_sphere_samples(radii, args.samples_per_shape, args.seed)
    arch = Architecture(hidden_width=args.width, latent_dim=args.latent_dim)
    cfg = TrainConfig(epochs=args.epochs, surface_batch_size=args.batch, seed=args.seed)

    t0 = time.time()
    ck = train(cfg, data, arch=arch, metrics=os.path.join(args.out_dir, "metrics.csv"))
    print(f"trained {args.epochs} epochs over {len(radii)} shapes "
          f"in {time.time() - t0:.1f}s")
    save_checkpoint(ck, os.path.join(args.out_dir, "model.nsdf"))

    report = reconstruction_report(ck, data, args.resolution, eval_points=5000,
                                   seed=args.seed)
    report.to_csv(os.path.join(args.out_dir, "recon.csv"))
    for label, value, r in zip(report.labels, report.values, radii):
        print(f"  shape {label} (r = {r:.2f}): chamfer {value:.2e}")
    s = report.summary()
    print(f"chamfer mean {s['mean']:.2e}, max {s['max']:.2e}")

    z = combine_codes(ck.codes, CombinationWeights((0, 7), np.array([0.5, 0.5])))
    mesh = reconstruct_shape(ck, z, args.resolution)
    mean_r = np.linalg.norm(mesh.vertices, axis=1).mean()
    path = os.path.join(args.out_dir, "interpolated.obj")
    save_mesh(mesh, path)
    print(f"alpha = 0.5 blend of r = {radii[0]:.2f} and r = {radii[7]:.2f}: "
          f"mean radius {mean_r:.3f} -> {path}")


if __name__ == "__main__":
    main()
