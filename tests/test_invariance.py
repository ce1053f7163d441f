"""Outputs that neither the particle order nor the field batch size may change.

Each test runs shipped configs through ``cli.run`` with one thing changed that must
not show, and compares every file it writes, byte for byte, with the run as shipped.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bohmsim import cli, ensemble, manybody, propagator, trajectories

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

# equivariance streams its ensemble through a velocity cache of free rows; cm-newton reads two caches
# side by side over one widened row window; free-gaussian reads its free rows in chunks; no-tunneling
# reads its 2D free rows one a batch through its cache's workspace; crosscheck's two caches share one
BATCHED = ("equivariance", "cm_newton", "free_gaussian", "no_tunneling", "crosscheck")
# configs run shortened: the line as shipped and the line run in its place
SHORTENED = {"no_tunneling": ("t_final = 1.0", "t_final = 0.1"), "crosscheck": ("t_final = 2.0", "t_final = 0.1")}


def outputs(name: str, out: Path) -> dict[str, bytes]:
    """The files the shipped config ``name``, shortened if it is in ``SHORTENED``, writes into ``out``, by name."""
    text = (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
    shipped, shortened = SHORTENED.get(name, ("", ""))
    assert shipped in text
    cli.run(cli.parse_config(text.replace(shipped, shortened)), out_dir=str(out), quiet=True)
    return {path.name: path.read_bytes() for path in out.iterdir()}


@pytest.fixture(scope="module")
def shipped(tmp_path_factory):
    base = tmp_path_factory.mktemp("shipped")
    return {name: outputs(name, base / name) for name in BATCHED}


def test_particle_order_leaves_equivariance_unchanged(shipped, tmp_path, monkeypatch):
    # the KS distance sorts and the means are exactly rounded, so no order of the sample shows
    sample = ensemble.sample_equilibrium

    def permuted(spec):
        x = sample(spec)
        return x[np.random.default_rng(0).permutation(len(x))]

    monkeypatch.setattr(ensemble, "sample_equilibrium", permuted)
    assert outputs("equivariance", tmp_path) == shipped["equivariance"]


def test_subsystem_order_leaves_cm_newton_unchanged(shipped, tmp_path, monkeypatch):
    # the subsystems relabelled: each offset moves with its frame, as an offset alone would land on
    # another frame and round frame + offset otherwise; the sums are exactly rounded, so no order shows
    draw, experiment, draws = manybody._sample_from_snapshot, cli.run_cm_experiment, []
    order = np.random.default_rng(0).permutation(1000)

    def permuted_draw(rho, grid, eroded, count, rng):
        draws.append(count)
        x, redraws = draw(rho, grid, eroded, count, rng)
        return x[order], redraws

    def permuted_frames(spec, *args, **kwargs):  # the same permutation of the frames
        relabelled = replace(
            spec, frame_positions=spec.frame_positions[order], frame_velocities=spec.frame_velocities[order]
        )
        return experiment(relabelled, *args, **kwargs)

    monkeypatch.setattr(manybody, "_sample_from_snapshot", permuted_draw)
    monkeypatch.setattr(cli, "run_cm_experiment", permuted_frames)
    assert outputs("cm_newton", tmp_path) == shipped["cm_newton"]
    assert draws == [1000]  # no redraw at a row, which would take offsets by index


@pytest.mark.parametrize("points", [1, 10**6])
def test_field_batch_size_leaves_outputs_unchanged(shipped, tmp_path, monkeypatch, points):
    # one row per batch, or every row of a record in one
    monkeypatch.setattr(propagator, "FIELD_BATCH_POINTS", points)
    monkeypatch.setattr(trajectories, "FIELD_BATCH_POINTS", points)
    for name in BATCHED:
        assert outputs(name, tmp_path / name) == shipped[name], name
