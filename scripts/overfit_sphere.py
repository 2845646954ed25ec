"""Overfit the field to a single analytic sphere and report surface error.

Desk-scale sanity experiment: a width-64 network with an 8-dimensional code
is trained on samples of one sphere, then evaluated on held-out surface
points and re-meshed to compare the recovered radius.

    python scripts/overfit_sphere.py --radius 0.75 --epochs 2000
"""

import argparse
import time

import numpy as np

from sdfshapes import (Architecture, TrainConfig, forward, reconstruct_shape,
                       save_checkpoint, spatial_gradient, train)
from sdfshapes.primitives import sphere_samples


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--radius", type=float, default=0.75)
    ap.add_argument("--samples", type=int, default=2000)
    ap.add_argument("--epochs", type=int, default=2000)
    ap.add_argument("--width", type=int, default=64)
    ap.add_argument("--latent-dim", type=int, default=8)
    ap.add_argument("--batch", type=int, default=128)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--resolution", type=int, default=64)
    ap.add_argument("--out", default=None, help="optional checkpoint path")
    args = ap.parse_args()

    data = sphere_samples(args.radius, args.samples, args.seed)
    arch = Architecture(hidden_width=args.width, latent_dim=args.latent_dim)
    cfg = TrainConfig(epochs=args.epochs, surface_batch_size=args.batch, seed=args.seed)

    t0 = time.time()
    ck = train(cfg, data, arch=arch)
    print(f"trained {args.epochs} epochs in {time.time() - t0:.1f}s")

    z = ck.codes[0]
    held_out = sphere_samples(args.radius, 1000, args.seed + 1).points[0]
    print(f"mean |f| on held-out surface: "
          f"{np.abs(forward(ck.params, z, held_out)).mean():.2e}")

    rng = np.random.default_rng(args.seed + 2)
    v = rng.normal(size=(10000, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    pts = v * rng.random(10000)[:, None] ** (1 / 3)
    g = np.linalg.norm(spatial_gradient(ck.params, z, pts), axis=1)
    print(f"mean |grad norm - 1| in unit ball: {np.abs(g - 1).mean():.3f}")

    mesh = reconstruct_shape(ck, z, args.resolution)
    radii = np.linalg.norm(mesh.vertices, axis=1)
    print(f"reconstruction: {len(mesh.vertices)} vertices, "
          f"mean radius {radii.mean():.4f} (target {args.radius})")

    if args.out:
        save_checkpoint(ck, args.out)
        print(f"checkpoint -> {args.out}")


if __name__ == "__main__":
    main()
