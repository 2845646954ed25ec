"""Command-line pipeline: sample, train, reconstruct, interpolate, generate,
evaluate.

Every artifact a command writes (sample sets, checkpoints, meshes, the
cohort manifest, reports and their .summary.csv files) lands by rename,
through container.write_atomic, except train's progress log, the metrics
CSV: it is flushed row by row, anew by a fresh run and appended to by
--resume.  generate refuses an --out-dir that already holds OBJ or PLY
files, so that one directory never mixes two cohorts, and a generate that
fails removes the meshes it wrote, so that the same command can be run
again.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

import numpy as np

from . import cohort as cohort_mod
from .checkpoint_io import load_checkpoint, save_checkpoint
from .config import parse_config
from .errors import BadValue, InvalidCount, SdfShapesError, ZeroArea
from .mesh import (SurfaceSampleSet, load_mesh, load_sample_set,
                   normalize_unit_ball, sample_surface, save_mesh,
                   save_sample_set)
from .isosurface import reconstruct_shape
from .training import train

MESH_EXTENSIONS = (".obj", ".ply")
DEFAULT_RESOLUTION = 256  # lattice nodes per axis of every extracting command


def _meshes_in(directory) -> list:
    return sorted(f for f in os.listdir(directory) if f.lower().endswith(MESH_EXTENSIONS))


def _mesh_files(directory) -> list:
    paths = [os.path.join(directory, f) for f in _meshes_in(directory)]
    if not paths:
        raise SdfShapesError(f"no OBJ/PLY meshes in {directory}")
    return paths


def _cmd_sample(args) -> int:
    out = SurfaceSampleSet()
    for k, path in enumerate(_mesh_files(args.input_dir)):
        mesh = load_mesh(path)
        mesh, _ = normalize_unit_ball(mesh)
        s = sample_surface(mesh, args.points, (args.seed, k))
        out.points.append(s.points[0])
        out.normals.append(s.normals[0])
    out.validate()
    save_sample_set(out, args.out)
    print(f"sampled {out.shape_count} shapes x {args.points} points -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    samples = load_sample_set(args.samples)
    settings = parse_config(b"" if args.config is None else Path(args.config).read_bytes())
    initial = load_checkpoint(args.resume) if args.resume else None
    metrics = args.metrics or (str(args.out) + ".metrics.csv")
    ck = train(settings.train, samples, settings.arch, initial=initial, metrics=metrics)
    save_checkpoint(ck, args.out)
    print(f"trained {ck.epochs_completed} epochs over {samples.shape_count} "
          f"shapes -> {args.out}")
    return 0


def _write_reconstruction(args, ck, code, what: str) -> int:
    mesh = reconstruct_shape(ck, code, args.resolution, workers=args.workers)
    save_mesh(mesh, args.out)
    print(f"{what}: {len(mesh.vertices)} vertices, {len(mesh.faces)} faces -> {args.out}")
    return 0


def _parse_list(option: str, text: str, kind) -> list:
    try:
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise BadValue(f"{option} needs comma-separated {kind.__name__}s, got {text!r}")


def _cmd_reconstruct(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    if not 0 <= args.shape_index < len(ck.codes):
        raise SdfShapesError(f"shape index {args.shape_index} outside "
                             f"[0, {len(ck.codes)})")
    return _write_reconstruction(args, ck, ck.codes[args.shape_index],
                                 f"reconstructed shape {args.shape_index}")


def _cmd_interpolate(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    indices = tuple(_parse_list("--indices", args.indices, int))
    alphas = np.array(_parse_list("--alphas", args.alphas, float))
    weights = cohort_mod.CombinationWeights(indices, alphas)
    return _write_reconstruction(args, ck, cohort_mod.combine_codes(ck.codes, weights),
                                 f"interpolated {indices} with {alphas.tolist()}")


def _cmd_generate(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    made_dir = not os.path.isdir(args.out_dir)
    os.makedirs(args.out_dir, exist_ok=True)
    if _meshes_in(args.out_dir):
        raise SdfShapesError(f"{args.out_dir} already holds OBJ/PLY meshes; "
                             "generate writes a cohort only into a directory without them")
    try:
        _, manifest = cohort_mod.generate_cohort(
            ck, args.num, args.interp_count, args.seed, args.resolution,
            out_dir=args.out_dir)
        manifest.to_csv(os.path.join(args.out_dir, "manifest.csv"))
    except BaseException:
        # the directory held no meshes when this run began, so every mesh in
        # it is this run's: remove them, so that a retry is not refused
        for name in _meshes_in(args.out_dir):
            os.remove(os.path.join(args.out_dir, name))
        if made_dir and not os.listdir(args.out_dir):
            os.rmdir(args.out_dir)
        raise
    print(f"generated {args.num} shapes (m={args.interp_count}) in {args.out_dir}")
    return 0


def _cmd_evaluate_recon(args) -> int:
    ck = load_checkpoint(args.checkpoint)
    samples = load_sample_set(args.samples).validate()
    report = cohort_mod.reconstruction_report(
        ck, samples, args.resolution, args.eval_points, args.seed)
    report.to_csv(args.out)
    s = report.summary()
    print(f"reconstruction chamfer over {s['count']} shapes: "
          f"mean {s['mean']:.3e}, max {s['max']:.3e} -> {args.out}")
    return 0


def _cmd_evaluate_pairwise(args) -> int:
    meshes = []
    for path in _mesh_files(args.mesh_dir):
        meshes.append(load_mesh(path))
        if meshes[-1].area() <= 0.0:
            raise ZeroArea(f"{path}: mesh has no positive-area triangles")
    report = cohort_mod.pairwise_report(meshes, args.eval_points, args.seed)
    report.to_csv(args.out)
    s = report.summary()
    print(f"pairwise chamfer over {s['count']} pairs: mean {s['mean']:.3e}, "
          f"std {s['std']:.3e} -> {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sdfshapes",
        description="Latent-conditioned neural signed distance fields: "
                    "train on mesh surface samples, reconstruct and generate shapes.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample normalized mesh surfaces")
    sp.add_argument("--input-dir", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--points", type=int, default=500000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(fn=_cmd_sample)

    tp = sub.add_parser("train", help="train the field network")
    tp.add_argument("--samples", required=True)
    tp.add_argument("--config", default=None)
    tp.add_argument("--out", required=True)
    tp.add_argument("--resume", default=None)
    tp.add_argument("--metrics", default=None)
    tp.set_defaults(fn=_cmd_train)

    rp = sub.add_parser("reconstruct", help="mesh one training shape")
    rp.add_argument("--checkpoint", required=True)
    rp.add_argument("--shape-index", type=int, required=True)
    rp.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    rp.add_argument("--workers", type=int, default=1)
    rp.add_argument("--out", required=True)
    rp.set_defaults(fn=_cmd_reconstruct)

    ip = sub.add_parser("interpolate", help="mesh a convex code combination")
    ip.add_argument("--checkpoint", required=True)
    ip.add_argument("--indices", required=True, help="comma-separated row indices")
    ip.add_argument("--alphas", required=True, help="comma-separated weights")
    ip.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    ip.add_argument("--workers", type=int, default=1)
    ip.add_argument("--out", required=True)
    ip.set_defaults(fn=_cmd_interpolate)

    gp = sub.add_parser("generate", help="generate a synthetic cohort")
    gp.add_argument("--checkpoint", required=True)
    gp.add_argument("--num", type=int, required=True)
    gp.add_argument("--interp-count", type=int, required=True)
    gp.add_argument("--seed", type=int, default=0)
    gp.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    gp.add_argument("--out-dir", required=True)
    gp.set_defaults(fn=_cmd_generate)

    ep = sub.add_parser("evaluate", help="Chamfer-distance reports")
    esub = ep.add_subparsers(dest="evaluate_command", required=True)
    erp = esub.add_parser("recon", help="per-shape reconstruction distances")
    erp.add_argument("--checkpoint", required=True)
    erp.add_argument("--samples", required=True)
    erp.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    erp.add_argument("--eval-points", type=int, default=cohort_mod.DEFAULT_EVAL_POINTS)
    erp.add_argument("--seed", type=int, default=0)
    erp.add_argument("--out", required=True)
    erp.set_defaults(fn=_cmd_evaluate_recon)
    epp = esub.add_parser("pairwise", help="pairwise distances over a mesh set")
    epp.add_argument("--mesh-dir", required=True)
    epp.add_argument("--eval-points", type=int, default=cohort_mod.DEFAULT_EVAL_POINTS)
    epp.add_argument("--seed", type=int, default=0)
    epp.add_argument("--out", required=True)
    epp.set_defaults(fn=_cmd_evaluate_pairwise)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # numpy rejects negative seeds with a bare ValueError
        if getattr(args, "seed", 0) < 0:
            raise InvalidCount(f"--seed must be >= 0, got {args.seed}")
        return args.fn(args)
    except (SdfShapesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
