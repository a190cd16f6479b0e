"""Independent references the benchmark checks the program's outputs against."""

from __future__ import annotations

import dataclasses

import numpy as np


def _grid_span(grid) -> np.ndarray:
    span = (np.asarray(grid.dims, dtype=np.float64) - 1.0) * np.asarray(grid.spacing)
    return np.where(span <= 0, 1.0, span)


def brute_force_neighbours(sample_points: np.ndarray, queries: np.ndarray, k: int,
                           chunk: int = 256) -> np.ndarray:
    """``(Q, k)`` sample indices ordered by ``(distance, index)`` over all samples.

    Squared distances sum the three axes in order and take one square root,
    the same arithmetic a kd-tree uses, so exact ties stay exact ties.
    """
    out = np.empty((len(queries), k), dtype=np.int64)
    for start in range(0, len(queries), chunk):
        q = queries[start : start + chunk]
        diff = q[:, None, :] - sample_points[None, :, :]
        sq = diff[..., 0] ** 2
        sq += diff[..., 1] ** 2
        sq += diff[..., 2] ** 2
        # A stable sort keeps equal distances in ascending sample index.
        out[start : start + len(q)] = np.argsort(np.sqrt(sq), axis=1, kind="stable")[:, :k]
    return out


def reference_forward(network, x: np.ndarray) -> np.ndarray:
    """Plain numpy forward pass over a Dense/ReLU/Identity network."""
    from repro.nn.layers import Dense

    for layer in network.layers:
        if isinstance(layer, Dense):
            x = x @ layer.weight.value + layer.bias.value
        elif type(layer).__name__ == "ReLU":
            x = np.maximum(x, 0.0)
        elif type(layer).__name__ != "Identity":
            raise TypeError(f"reference forward has no rule for {type(layer).__name__}")
    return x


def neighbours_and_forward(recon, sample, volume: np.ndarray, num_points: int, seed: int):
    """Check neighbour selection and the predicted values on a subset of voids.

    ``FeatureExtractor.features`` must equal features assembled from the
    brute-force ``(distance, index)`` neighbours exactly; the reconstructed
    volume at those voids must equal a plain numpy forward pass over those
    features to within float64 rounding.
    """
    grid = sample.grid
    void = sample.void_indices()
    rng = np.random.default_rng(seed)
    pick = np.sort(rng.choice(void.size, size=min(num_points, void.size), replace=False))
    flat = void[pick]
    points = grid.index_to_position(grid.flat_to_multi(flat))
    local = dataclasses.replace(
        recon.normalizer, origin=np.asarray(grid.origin, dtype=np.float64), span=_grid_span(grid)
    )
    k = recon.extractor.num_neighbors
    got = recon.extractor.features(sample, points, local)

    sample_points = sample.points
    idx = brute_force_neighbours(sample_points, points, k)
    xyz = local.normalize_coords(sample_points[idx.ravel()]).reshape(len(points), k, 3)
    val = local.normalize_values(sample.values[idx])[..., None]
    expected = np.concatenate(
        [np.concatenate([xyz, val], axis=2).reshape(len(points), 4 * k),
         local.normalize_coords(points)],
        axis=1,
    )
    wrong_rows = int(np.count_nonzero(np.any(got != expected, axis=1)))
    if wrong_rows:
        return False, f"{wrong_rows}/{len(points)} void points select other neighbours than the oracle"

    want = local.denormalize_values(reference_forward(recon.model, expected)[:, 0])
    have = volume.ravel()[flat]
    scale = float(np.max(np.abs(want))) or 1.0
    worst = float(np.max(np.abs(have - want))) / scale
    if not worst <= 1e-9:
        return False, f"reconstructed voids differ from the reference forward by {worst:.3g} (relative)"
    return True, f"{len(points)} voids: neighbours exact, forward within {worst:.1e}"


def campaign_step_matches(pipe, recon, first_step: int, t: int, size: dict, volume: np.ndarray):
    """Re-derive one campaign timestep outside the campaign driver.

    Fine-tunes timestep ``t`` alone (a one-member stack; the batched engine's
    members do not depend on the stack size) and reconstructs the campaign's
    frozen sample locations with the plain ``FCNNReconstructor`` path.  The
    campaign's volume for ``t`` must match bit for bit.
    """
    from repro.perf.weights import restore_weights
    from repro.sampling.base import SampledField

    field0 = pipe.field(first_step)
    indices = pipe.sample(field0, size["fraction"]).indices
    fld = pipe.field(t)
    train = [pipe.sample(fld, f) for f in pipe.train_fractions]
    flats, _ = recon.fine_tune_batch(
        [fld], [train], epochs=size["finetune_epochs"], strategy="last"
    )
    ref = recon.clone()
    restore_weights(ref.model, flats[0])
    shell = SampledField(
        grid=fld.grid, indices=indices.copy(), values=fld.flat[indices], fraction=size["fraction"]
    )
    expected = ref.reconstruct(shell)
    if expected.shape != volume.shape or expected.tobytes() != volume.tobytes():
        diff = float(np.max(np.abs(expected - volume))) if expected.shape == volume.shape else None
        return False, f"timestep {t} differs from the single-step reference (max abs diff {diff})"
    return True, f"timestep {t} bit-identical to the single-step reference"
