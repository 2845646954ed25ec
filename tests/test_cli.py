"""End-to-end command-line pipeline on tiny fixtures."""

import os
import shlex
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from sdfshapes import blas, cohort, training
from sdfshapes.cli import build_parser, main
from sdfshapes.cohort import CohortManifest, DistanceReport
from sdfshapes.errors import EmptySet
from sdfshapes.checkpoint_io import load_checkpoint, save_checkpoint
from sdfshapes.mesh import (_SAMPLE_BYTES, load_mesh, load_sample_set, save_mesh,
                           save_sample_set)
from sdfshapes.primitives import multi_sphere_samples, uv_sphere_mesh

from conftest import CUBE_OBJ

TINY_CONFIG = """\
# desk-scale settings for fast tests
epochs = 2
latent_dim = 4
surface_batch_size = 32
knn_k = 5
layer_count = 3
hidden_width = 32
skip_layer = 1
seed = 3
"""


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run sample + train once; later tests reuse the artifacts."""
    root = tmp_path_factory.mktemp("cli")
    meshes = root / "meshes"
    meshes.mkdir()
    (meshes / "a.obj").write_text(CUBE_OBJ)
    save_mesh(uv_sphere_mesh(2.0, 8, 12), meshes / "b.obj")
    samples = root / "train.nsds"
    assert main(["sample", "--input-dir", str(meshes), "--out", str(samples),
                 "--points", "400", "--seed", "0"]) == 0
    config = root / "run.cfg"
    config.write_text(TINY_CONFIG)
    ck = root / "model.nsdf"
    assert main(["train", "--samples", str(samples), "--config", str(config),
                 "--out", str(ck)]) == 0
    return root, meshes, samples, config, ck


def test_sample_artifact(pipeline):
    _, _, samples, _, _ = pipeline
    ss = load_sample_set(samples)
    assert ss.shape_count == 2
    assert all(len(p) == 400 for p in ss.points)
    for p in ss.points:
        assert np.linalg.norm(p, axis=1).max() <= 1.0 + 1e-6


def test_train_artifacts(pipeline):
    root, _, _, _, ck_path = pipeline
    ck = load_checkpoint(ck_path)
    assert ck.epochs_completed == 2
    assert ck.codes.shape == (2, 4)
    metrics = root / "model.nsdf.metrics.csv"
    assert metrics.exists()
    assert len(metrics.read_text().strip().splitlines()) == 3  # header + 2 epochs


def _train_to(pipeline, tmp_path, epochs, out, *extra):
    """Train the pipeline's samples to `epochs` epochs; return the exit code."""
    cfg = tmp_path / f"to{epochs}.cfg"
    cfg.write_text(TINY_CONFIG.replace("epochs = 2", f"epochs = {epochs}"))
    return main(["train", "--samples", str(pipeline[2]), "--config", str(cfg),
                 "--out", str(out), *extra])


def test_train_resume_equals_straight_run(pipeline, tmp_path):
    root, _, _, _, ck = pipeline
    resumed, straight = tmp_path / "resumed.nsdf", tmp_path / "straight.nsdf"
    metrics = tmp_path / "resumed.csv"
    shutil.copyfile(root / "model.nsdf.metrics.csv", metrics)
    assert _train_to(pipeline, tmp_path, 4, resumed, "--resume", str(ck),
                     "--metrics", str(metrics)) == 0
    assert _train_to(pipeline, tmp_path, 4, straight) == 0
    assert resumed.read_bytes() == straight.read_bytes()
    assert metrics.read_bytes() == Path(f"{straight}.metrics.csv").read_bytes()
    lines = metrics.read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["epoch", "0", "1", "2", "3"]


def test_fresh_train_starts_its_metrics_anew(pipeline, tmp_path):
    out, straight = tmp_path / "again.nsdf", tmp_path / "straight.nsdf"
    for _ in range(2):
        assert _train_to(pipeline, tmp_path, 2, out) == 0
    assert _train_to(pipeline, tmp_path, 4, out, "--resume", str(out)) == 0
    metrics = Path(f"{out}.metrics.csv")
    lines = metrics.read_text().splitlines()
    assert [ln.split(",")[0] for ln in lines] == ["epoch", "0", "1", "2", "3"]
    assert _train_to(pipeline, tmp_path, 4, straight) == 0
    assert metrics.read_bytes() == Path(f"{straight}.metrics.csv").read_bytes()


def test_train_resume_below_completed_epochs_fails(pipeline, tmp_path, capsys):
    out, metrics = tmp_path / "lower.nsdf", tmp_path / "lower.csv"
    assert _train_to(pipeline, tmp_path, 1, out, "--resume", str(pipeline[4]),
                     "--metrics", str(metrics)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "below the 2 already completed" in err
    assert not out.exists() and not metrics.exists()


@pytest.mark.parametrize("old, new, named", [
    ("seed = 3", "seed = 7", "seed = 7, but the checkpoint was trained with 3"),
    ("hidden_width = 32", "hidden_width = 16",
     "hidden_width = 16, but the checkpoint was trained with 32"),
    ("seed = 3", "seed = 3\nsoftplus_beta = 5",
     "softplus_beta = 5.0, but the checkpoint was trained with 100.0"),
], ids=["seed", "hidden_width", "softplus_beta"])
def test_train_resume_under_another_seed_fails(pipeline, tmp_path, capsys, old, new, named):
    # the config and the architecture may differ from the checkpoint's in
    # epochs only
    out, metrics = tmp_path / "reseeded.nsdf", tmp_path / "reseeded.csv"
    cfg = tmp_path / "reseeded.cfg"
    cfg.write_text(TINY_CONFIG.replace("epochs = 2", "epochs = 4").replace(old, new))
    assert main(["train", "--samples", str(pipeline[2]), "--config", str(cfg),
                 "--out", str(out), "--resume", str(pipeline[4]),
                 "--metrics", str(metrics)]) == 1
    assert capsys.readouterr().err == f"error: resume config sets {named}\n"
    assert not out.exists() and not metrics.exists()


def test_train_refuses_to_resume_without_adam_state(pipeline, tmp_path, capsys):
    # the Adam step counts follow from the epoch, so fresh moments past
    # epoch 0 would take the wrong bias correction
    stripped = load_checkpoint(pipeline[4])
    stripped.optimizer = None
    save_checkpoint(stripped, tmp_path / "no_adam.nsdf")
    out, metrics = tmp_path / "resumed.nsdf", tmp_path / "resumed.csv"
    assert _train_to(pipeline, tmp_path, 4, out, "--resume", str(tmp_path / "no_adam.nsdf"),
                     "--metrics", str(metrics)) == 1
    assert capsys.readouterr().err == ("error: the checkpoint has 2 completed epochs but "
                                       "no Adam state to resume them from\n")
    assert not out.exists() and not metrics.exists()


def test_train_bits_independent_of_blas_thread_count(tmp_path):
    # the desk-scale network: its skip layer's weight-gradient GEMM changes
    # bits with the OpenBLAS thread count unless training pins it to one
    save_sample_set(multi_sphere_samples([0.3, 0.5], 500, 0), tmp_path / "s.nsds")
    (tmp_path / "run.cfg").write_text("epochs = 2\nlatent_dim = 8\nhidden_width = 64\n"
                                      "layer_count = 8\nskip_layer = 4\n"
                                      "surface_batch_size = 128\nseed = 0\n")
    src = str(Path(__file__).resolve().parent.parent / "src")
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"t{threads}.nsdf"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        subprocess.run([sys.executable, "-m", "sdfshapes.cli", "train", "--samples",
                        str(tmp_path / "s.nsds"), "--config", str(tmp_path / "run.cfg"),
                        "--out", str(out)], env=env, check=True, capture_output=True,
                       timeout=300)
        outs.append(out.read_bytes() + Path(f"{out}.metrics.csv").read_bytes())
    assert outs[0] == outs[1]


def test_reconstruct_command(pipeline):
    root, _, _, _, ck = pipeline
    out = root / "shape0.obj"
    assert main(["reconstruct", "--checkpoint", str(ck), "--shape-index", "0",
                 "--resolution", "20", "--out", str(out)]) == 0
    mesh = load_mesh(out)
    assert len(mesh.faces) > 0


def test_reconstruct_bad_index(pipeline, capsys):
    root, _, _, _, ck = pipeline
    rc = main(["reconstruct", "--checkpoint", str(ck), "--shape-index", "7",
               "--resolution", "16", "--out", str(root / "x.obj")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err


def test_reconstruct_unallocatable_resolution(pipeline, capsys):
    # a 7.1 PiB grid: the allocation fails at once
    root, _, _, _, ck = pipeline
    assert main(["reconstruct", "--checkpoint", str(ck), "--shape-index", "0",
                 "--resolution", "100000", "--out", str(root / "huge.obj")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "grid resolution 100000 needs" in err
    assert not (root / "huge.obj").exists()


def test_interpolate_command(pipeline):
    root, _, _, _, ck = pipeline
    out = root / "mid.obj"
    assert main(["interpolate", "--checkpoint", str(ck), "--indices", "0,1",
                 "--alphas", "0.5,0.5", "--resolution", "20",
                 "--out", str(out)]) == 0
    assert len(load_mesh(out).faces) > 0


def test_interpolate_rejects_non_convex(pipeline, capsys, monkeypatch):
    # non-finite weights fail the same checks, before the field is evaluated
    root, _, _, _, ck = pipeline

    def never(*args, **kwargs):
        raise AssertionError("the field was evaluated")

    monkeypatch.setattr("sdfshapes.isosurface.forward", never)
    for alphas in ("0.9,0.9", "nan,nan", "1.0,nan", "inf,0"):
        rc = main(["interpolate", "--checkpoint", str(ck), "--indices", "0,1",
                   "--alphas", alphas, "--resolution", "16",
                   "--out", str(root / "bad.obj")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: weights [")


def test_interpolate_rejects_unparsable_lists(pipeline, capsys):
    root, _, _, _, ck = pipeline
    for indices, alphas, option in (("a,1", "0.5,0.5", "--indices"),
                                    ("0,1", "0.5,x", "--alphas")):
        rc = main(["interpolate", "--checkpoint", str(ck), "--indices", indices,
                   "--alphas", alphas, "--resolution", "16",
                   "--out", str(root / "bad.obj")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and option in err


def test_reconstruct_rejects_non_positive_workers(pipeline, capsys):
    root, _, _, _, ck = pipeline
    for workers in ("0", "-3"):
        rc = main(["reconstruct", "--checkpoint", str(ck), "--shape-index", "0",
                   "--resolution", "16", "--workers", workers,
                   "--out", str(root / "w.obj")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "workers must be >= 1" in err
    assert not (root / "w.obj").exists()


def test_generate_command(pipeline):
    root, _, _, _, ck = pipeline
    out_dir = root / "cohort"
    assert main(["generate", "--checkpoint", str(ck), "--num", "3",
                 "--interp-count", "2", "--seed", "5", "--resolution", "14",
                 "--out-dir", str(out_dir)]) == 0
    manifest = CohortManifest.from_csv(out_dir / "manifest.csv")
    assert len(manifest.entries) == 3
    for i in range(3):
        assert (out_dir / f"shape_{i:03d}.obj").exists()


def test_generate_refuses_a_directory_holding_meshes(pipeline, tmp_path, capsys, monkeypatch):
    # a second cohort written over a larger first one kept the first one's
    # extra meshes beside the second manifest, and evaluate pairwise read them
    _, _, _, _, ck = pipeline
    out_dir = tmp_path / "cohort"
    argv = ["generate", "--checkpoint", str(ck), "--interp-count", "1",
            "--resolution", "14", "--out-dir", str(out_dir)]
    assert main(argv + ["--num", "4"]) == 0
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    calls = []
    monkeypatch.setattr(cohort, "reconstruct_shape", lambda *args: calls.append(args))
    assert main(argv + ["--num", "2", "--seed", "5"]) == 1
    assert capsys.readouterr().err == (
        f"error: {out_dir} already holds OBJ/PLY meshes; generate writes a cohort "
        "only into a directory without them\n")
    assert calls == []
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == first


def test_failed_generate_leaves_the_directory_as_it_was(pipeline, tmp_path, capsys,
                                                       monkeypatch, pool_workers):
    # a generate that failed at one shape left the others' meshes, and the
    # retry was refused because the directory then held meshes
    _, _, _, _, ck = pipeline
    real, lock, calls = cohort.reconstruct_shape, threading.Lock(), []

    def third_call_fails(*args):
        with lock:
            calls.append(args)
            n = len(calls)
        if n == 3:
            raise EmptySet("the zero set misses this one")
        return real(*args)

    pool_workers(2)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_text("not a mesh\n")
    for out_dir, before in ((kept, {"notes.txt": b"not a mesh\n"}), (tmp_path / "new", None)):
        argv = ["generate", "--checkpoint", str(ck), "--num", "5", "--interp-count", "1",
                "--resolution", "14", "--out-dir", str(out_dir)]
        calls.clear()
        monkeypatch.setattr(cohort, "reconstruct_shape", third_call_fails)
        assert main(argv) == 1
        assert "error: cohort shape " in capsys.readouterr().err and len(calls) >= 3
        if before is None:
            assert not out_dir.exists()
        else:
            assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before
        monkeypatch.setattr(cohort, "reconstruct_shape", real)
        assert main(argv) == 0
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["manifest.csv"] + [f"shape_{i:03d}.obj" for i in range(5)] + list(before or []))


def test_evaluate_recon_command(pipeline):
    root, _, samples, _, ck = pipeline
    out = root / "recon.csv"
    assert main(["evaluate", "recon", "--checkpoint", str(ck),
                 "--samples", str(samples), "--resolution", "20",
                 "--eval-points", "400", "--out", str(out)]) == 0
    report = DistanceReport.from_csv(out)
    assert len(report.values) == 2
    assert (root / "recon.summary.csv").exists()


def test_evaluate_pairwise_command(pipeline):
    root, meshes, _, _, _ = pipeline
    out = root / "pairwise.csv"
    assert main(["evaluate", "pairwise", "--mesh-dir", str(meshes),
                 "--eval-points", "400", "--out", str(out)]) == 0
    report = DistanceReport.from_csv(out)
    assert len(report.values) == 1  # 2 meshes -> 1 pair


def test_evaluate_pairwise_rejects_non_finite_vertex(tmp_path, capsys):
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    save_mesh(uv_sphere_mesh(0.8, 8, 12), meshes / "a.obj")
    lines = (meshes / "a.obj").read_text().splitlines(keepends=True)
    (meshes / "b.obj").write_text("v nan 0 0.5\n" + "".join(lines[1:]))
    out = tmp_path / "pairs.csv"
    assert main(["evaluate", "pairwise", "--mesh-dir", str(meshes),
                 "--eval-points", "400", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "non-finite vertex" in err
    assert not out.exists()


def test_evaluate_pairwise_ignores_non_utf8_comment(tmp_path):
    for name, comment in (("plain", b""), ("latin1", b"# caf\xe9, in Latin-1\n")):
        meshes = tmp_path / name
        meshes.mkdir()
        save_mesh(uv_sphere_mesh(0.8, 8, 12), meshes / "a.obj")
        body = (meshes / "a.obj").read_bytes()
        (meshes / "b.obj").write_bytes(comment + body)
        assert main(["evaluate", "pairwise", "--mesh-dir", str(meshes),
                     "--eval-points", "400", "--out", str(tmp_path / f"{name}.csv")]) == 0
    # the comment is never read, so both reports have the same bytes
    assert (tmp_path / "latin1.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_evaluate_pairwise_rejects_non_utf8_record(tmp_path, capsys):
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    save_mesh(uv_sphere_mesh(0.8, 8, 12), meshes / "a.obj")
    lines = (meshes / "a.obj").read_bytes().splitlines(keepends=True)
    lines[2] = b"v 0.5 0 \xe90.1\n"
    (meshes / "b.obj").write_bytes(b"".join(lines))
    out = tmp_path / "pairs.csv"
    assert main(["evaluate", "pairwise", "--mesh-dir", str(meshes),
                 "--eval-points", "400", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "line 3: bytes that are not UTF-8 text" in err
    assert not out.exists()


def test_evaluate_pairwise_rejects_face_index_beyond_int64(tmp_path, capsys):
    meshes = tmp_path / "meshes"
    meshes.mkdir()
    save_mesh(uv_sphere_mesh(0.8, 8, 12), meshes / "a.obj")
    (meshes / "b.obj").write_text((meshes / "a.obj").read_text()
                                  + "f 1 2 99999999999999999999\n")
    lineno = len((meshes / "b.obj").read_text().splitlines())
    out = tmp_path / "pairs.csv"
    assert main(["evaluate", "pairwise", "--mesh-dir", str(meshes),
                 "--eval-points", "400", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert f"line {lineno}: face index '99999999999999999999' out of range" in err
    assert not out.exists()


def test_evaluate_recon_rejects_non_finite_samples(pipeline, tmp_path, capsys):
    _, _, samples, _, ck = pipeline
    bad = load_sample_set(samples)
    bad.points[0][3, 1] = np.nan
    save_sample_set(bad, tmp_path / "nan.nsds")
    out = tmp_path / "recon.csv"
    assert main(["evaluate", "recon", "--checkpoint", str(ck), "--samples",
                 str(tmp_path / "nan.nsds"), "--resolution", "16",
                 "--eval-points", "400", "--out", str(out)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "\n" not in err
    assert "shape 0: non-finite point or normal" in err
    assert not out.exists()


def test_readme_pipeline_lines_parse():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command-line pipeline", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    commands = [ln for ln in block.splitlines() if ln.startswith("sdfshapes ")]
    assert len(commands) == 7
    for line in commands:
        args = build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.fn), line


def test_cli_error_on_bad_checkpoint(tmp_path, capsys):
    bad = tmp_path / "junk.nsdf"
    bad.write_bytes(b"not a checkpoint")
    rc = main(["reconstruct", "--checkpoint", str(bad), "--shape-index", "0",
               "--resolution", "16", "--out", str(tmp_path / "o.obj")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_cli_error_on_missing_file(tmp_path, capsys):
    rc = main(["train", "--samples", str(tmp_path / "nope.nsds"),
               "--out", str(tmp_path / "ck.nsdf")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_sample_empty_dir(tmp_path, capsys):
    rc = main(["sample", "--input-dir", str(tmp_path),
               "--out", str(tmp_path / "s.nsds")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_negative_seed_rejected(pipeline, capsys):
    root, meshes, _, _, ck = pipeline
    for argv in (["sample", "--input-dir", str(meshes),
                  "--out", str(root / "neg.nsds")],
                 ["generate", "--checkpoint", str(ck), "--num", "1",
                  "--interp-count", "1", "--out-dir", str(root / "neg")],
                 ["evaluate", "pairwise", "--mesh-dir", str(meshes),
                  "--out", str(root / "neg.csv")]):
        assert main(argv + ["--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--seed must be >= 0" in err


def _train_with(pipeline, extra_config, samples=None):
    root, _, default_samples, _, _ = pipeline
    cfg = root / "extra.cfg"
    cfg.write_text(TINY_CONFIG + extra_config)
    return main(["train", "--samples", str(samples or default_samples),
                 "--config", str(cfg), "--out", str(root / "extra.nsdf")])


def test_train_rejects_negative_config_seed(pipeline, capsys):
    assert _train_with(pipeline, "seed = -1\n") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "seed must be >= 0" in err


def test_train_rejects_knn_k_beyond_checkpoint_field(pipeline, capsys):
    assert _train_with(pipeline, "knn_k = 4294967296\n") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "knn_k must be < 4294967296" in err


@pytest.mark.parametrize("key, value", [
    ("offsurface_ratio", "nan"), ("offsurface_ratio", "1e300"),
    ("hidden_width", "99999999999999999999"), ("uniform_halfwidth", "inf"),
    ("initial_lr", "nan"), ("softplus_beta", "nan"), ("adam_eps", "-1"),
])
def test_train_rejects_out_of_range_setting_by_name(pipeline, capsys, key, value):
    assert _train_with(pipeline, f"{key} = {value}\n") == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith(f"error: {key} ") and "\n" not in err
    assert not (pipeline[0] / "extra.nsdf").exists()


def test_train_config_non_utf8_bytes_only_in_comments(pipeline, capsys):
    root, _, samples, _, _ = pipeline
    cfg = root / "latin1.cfg"
    argv = ["train", "--samples", str(samples), "--config", str(cfg),
            "--out", str(root / "latin1.nsdf")]
    cfg.write_bytes(TINY_CONFIG.encode() + b"# caf\xe9\n")
    assert main(argv) == 0
    cfg.write_bytes(TINY_CONFIG.encode() + b"tau = 0.\xe9 # caf\xe9\n")
    os.remove(root / "latin1.nsdf")
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err == f"error: line {TINY_CONFIG.count(chr(10)) + 1}: bytes that are not UTF-8 text"
    assert not (root / "latin1.nsdf").exists()


def test_train_rejects_non_finite_samples(pipeline, capsys):
    root = pipeline[0]
    bad = load_sample_set(pipeline[2])
    bad.normals[1][7, 2] = np.nan
    path = root / "nan.nsds"
    save_sample_set(bad, path)
    assert _train_with(pipeline, "", samples=path) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "shape 1: non-finite point or normal" in err


def test_train_rejects_non_positive_hidden_width(pipeline, capsys):
    for width in ("0", "-5"):
        assert _train_with(pipeline, f"hidden_width = {width}\n") == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "hidden_width must be >= 1" in err


def test_empty_zero_set_fails_early_and_named(pipeline, capsys):
    # at R = 2 the lattice is the 8 corners of [-1.1, 1.1]^3, all outside the shapes
    root, meshes, samples, _, ck = pipeline
    missed = "zero set misses the [-1.1, 1.1]^3 lattice at resolution 2"
    out_dir = root / "empty_cohort"
    assert main(["generate", "--checkpoint", str(ck), "--num", "2",
                 "--interp-count", "1", "--resolution", "2",
                 "--out-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cohort shape 0:") and missed in err
    assert not (out_dir / "shape_000.obj").exists()
    assert main(["evaluate", "recon", "--checkpoint", str(ck), "--samples", str(samples),
                 "--resolution", "2", "--out", str(root / "empty.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: shape 0:") and missed in err
    mesh_dir = root / "with_empty"
    mesh_dir.mkdir()
    (mesh_dir / "a.obj").write_text((meshes / "a.obj").read_text())
    (mesh_dir / "b.obj").write_text("")
    assert main(["evaluate", "pairwise", "--mesh-dir", str(mesh_dir),
                 "--out", str(root / "empty_pairs.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(mesh_dir / "b.obj") in err
    assert "no positive-area triangles" in err


def test_shape_without_samples_fails_early_and_named(pipeline, tmp_path, capsys, monkeypatch):
    _, _, samples, _, ck = pipeline
    empty = load_sample_set(samples)
    empty.points[1], empty.normals[1] = np.zeros((0, 3)), np.zeros((0, 3))
    save_sample_set(empty, tmp_path / "empty.nsds")

    def never(*args, **kwargs):
        raise AssertionError("a step was taken or a mesh extracted")

    monkeypatch.setattr(training, "loss_gradients", never)
    monkeypatch.setattr(cohort, "reconstruct_shape", never)
    assert _train_with(pipeline, "", samples=tmp_path / "empty.nsds") == 1
    assert capsys.readouterr().err == "error: shape 1: no samples\n"
    out = tmp_path / "recon.csv"
    assert main(["evaluate", "recon", "--checkpoint", str(ck), "--samples",
                 str(tmp_path / "empty.nsds"), "--resolution", "16",
                 "--eval-points", "400", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: shape 1: no samples\n"
    assert not out.exists()


@pytest.mark.parametrize("count, phys", [(10 ** 12, None), (400, 400 * _SAMPLE_BYTES - 1)],
                         ids=["1e12", "one_byte_short"])
def test_sample_counts_beyond_memory_fail_by_name(pipeline, tmp_path, capsys, monkeypatch,
                                                  count, phys):
    # 10^12 samples need 176 TB, which numpy would refuse without allocating;
    # 400 need more than a physical memory patched one byte short of them
    _, meshes, _, _, _ = pipeline
    if phys is not None:
        monkeypatch.setattr(blas, "physical_memory", lambda: phys)
    out = tmp_path / "out"
    for argv in (["sample", "--input-dir", str(meshes), "--points", str(count)],
                 ["evaluate", "pairwise", "--mesh-dir", str(meshes), "--eval-points", str(count)]):
        assert main(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: sample count {count} needs {count * _SAMPLE_BYTES} "
                              "bytes, more than the ")
        assert err.endswith(" bytes of physical memory\n") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("count, line", [
    (0, "sample count must be >= 1, got 0"),
    (10 ** 12, "sample count 1000000000000 needs 176000000000000 bytes, more than the "
               "1000000000 bytes of physical memory")], ids=["0", "1e12"])
def test_evaluate_recon_checks_eval_points_before_meshing(pipeline, tmp_path, capsys,
                                                          monkeypatch, count, line):
    _, _, samples, _, ck = pipeline
    monkeypatch.setattr(blas, "physical_memory", lambda: 10 ** 9)
    calls = []
    monkeypatch.setattr(cohort, "reconstruct_shape", lambda *args: calls.append(args))
    out = tmp_path / "recon.csv"
    assert main(["evaluate", "recon", "--checkpoint", str(ck), "--samples", str(samples),
                 "--resolution", "16", "--eval-points", str(count), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {line}\n"
    assert calls == [] and not out.exists()
