"""Bounded memory: enrollment and evaluation keep a packed mask per image, not an image or a full mask;
a noise field is added in place block by block, so no field of its full size is allocated, and what the
generator caches lives with its identity, not the module."""

import tracemalloc

import numpy as np
import pytest

from palmroi import cli, rng, synth
from palmroi.evaluate import RunConfig, run_evaluation
from palmroi.image import write_manifest
from palmroi.rng import _FIELD_BLOCK, add_normal

MASK_BYTES = synth.DEFAULT_WIDTH * synth.DEFAULT_HEIGHT  # one unpacked bool edge mask


@pytest.fixture(scope="module")
def manifests(tmp_path_factory):
    """(8-image, 16-image) manifests of one 2x8 corpus at the default frame size."""
    out = tmp_path_factory.mktemp("memory")
    manifest, entries = synth.generate_corpus(2, 8, 5, out)
    half = out / "half.tsv"
    write_manifest([e for e in entries if int(e.sample_id[1:]) < 4], half)
    return half, manifest


def peak_bytes(fn) -> int:
    """Peak traced allocation while fn runs; numpy reports its buffers to tracemalloc."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def enroll_auto(manifest, tmp_path):
    assert cli.main(["enroll", "--manifest", str(manifest), "--out", str(tmp_path / "db.tsv"), "--roi", "auto"]) == 0


def enroll_full(manifest, tmp_path):
    assert cli.main(["enroll", "--manifest", str(manifest), "--out", str(tmp_path / "db.tsv"), "--roi", "full"]) == 0


def evaluate(manifest, tmp_path):
    run_evaluation(manifest, RunConfig())


@pytest.mark.parametrize("run", [enroll_auto, enroll_full, evaluate])
def test_peak_grows_by_under_a_quarter_mask_per_image(manifests, tmp_path, run):
    half, full = manifests
    run(half, tmp_path)  # untraced first run: lazy imports and caches are not per-image memory
    peaks = [peak_bytes(lambda m=m: run(m, tmp_path)) for m in (half, full)]
    per_image = (peaks[1] - peaks[0]) / 8
    assert per_image < MASK_BYTES / 4, f"peaks {peaks} B: {per_image / MASK_BYTES:.2f} masks per added image"


def test_noise_field_allocates_only_its_block_buffers():
    """Three block buffers (steps, states, scratch) of 2 * _FIELD_BLOCK uint64 each; no field-sized array."""
    out = np.zeros((1000, 1000))
    buffer_bytes = 3 * 2 * _FIELD_BLOCK * 8
    add_normal(out, 3, 3.0)  # untraced first call
    peak = peak_bytes(lambda: add_normal(out, 3, 3.0))
    assert peak < 1.25 * buffer_bytes, f"peak {peak} B is {peak / buffer_bytes:.3f} x the block buffers"


def test_render_peak_is_under_two_and_a_half_frames():
    """The canvas plus the noise block buffers (under one frame); no whole noise field, no second canvas."""
    frame_bytes = synth.DEFAULT_WIDTH * synth.DEFAULT_HEIGHT * 8
    synth.generate_palm(synth.PalmModel.from_seed(1), 0)  # untraced first render
    model = synth.PalmModel.from_seed(2)
    peak = peak_bytes(lambda: synth.generate_palm(model, 3))  # builds this model's stroke curves too
    assert peak < 2.5 * frame_bytes, f"peak {peak} B is {peak / frame_bytes:.2f} float64 frames"


def test_module_caches_hold_at_most_one_entry_per_thickness(tmp_path):
    caches = [f for module in (synth, rng) for f in vars(module).values() if hasattr(f, "cache_info")]
    for cache in caches:
        cache.cache_clear()
    synth.generate_corpus(6, 2, 4, tmp_path)
    models = [synth.PalmModel.from_seed(synth.identity_seed_for(4, i)) for i in range(6)]
    thicknesses = {s.thickness for m in models for s in m.wrinkles + m.principal_lines}
    assert caches, "the disc offsets are cached per thickness"
    for cache in caches:
        assert cache.cache_info().currsize <= len(thicknesses), f"{cache.__name__}: {cache.cache_info()}"
