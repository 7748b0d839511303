"""Bounded memory: enrollment and evaluation keep a packed mask per image, not an image or a full mask;
a noise field is drawn in blocks, not from one stream of its full size."""

import tracemalloc

import pytest

from palmroi import cli, synth
from palmroi.evaluate import RunConfig, run_evaluation
from palmroi.image import write_manifest
from palmroi.rng import normal_field

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


def test_noise_field_peak_is_under_three_fields():
    shape = (synth.DEFAULT_HEIGHT, synth.DEFAULT_WIDTH)
    field_bytes = shape[0] * shape[1] * 8
    normal_field(3, shape)  # untraced first call
    peak = peak_bytes(lambda: normal_field(3, shape, 3.0))
    assert peak < 3 * field_bytes, f"peak {peak} B is {peak / field_bytes:.2f} fields"
