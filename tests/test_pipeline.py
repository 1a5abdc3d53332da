import numpy as np
import pytest

from test_lbp import reference_basic, reference_circular

from facekeys.lbp import LbpConfig, lbp_histogram_features
from facekeys.pca import transform as pca_transform
from facekeys.pipeline import (
    FeaturePipeline,
    fit_pipeline,
    pipeline_from_payload,
    pipeline_to_payload,
)


def images(n=10, side=16, seed=0):
    return np.random.default_rng(seed).integers(0, 256, (n, side, side), dtype=np.uint8)


def test_raw_pipeline_scales_pixels():
    imgs = images()
    fm = FeaturePipeline().transform(imgs)
    assert fm.values.shape == (10, 256)
    assert np.allclose(fm.values, imgs.reshape(10, -1) / 255.0)
    unscaled = FeaturePipeline(scale_pixels=False).transform(imgs)
    assert np.allclose(unscaled.values, imgs.reshape(10, -1))


def test_lbp_pixel_map_matches_direct_coding():
    imgs = images(n=4)
    pipe = FeaturePipeline(lbp=LbpConfig())
    fm = pipe.transform(imgs)
    for i in range(4):
        assert np.array_equal(
            fm.values[i], reference_basic(imgs[i]).reshape(-1).astype(float)
        )


def test_lbp_histogram_mode():
    imgs = images(n=3, side=32)
    cfg = LbpConfig(cell_size=16)
    pipe = FeaturePipeline(lbp=cfg, lbp_mode="histogram")
    fm = pipe.transform(imgs)
    assert fm.values.shape == (3, 4 * 256)
    for i in range(3):
        codes = reference_basic(imgs[i])
        assert np.array_equal(fm.values[i], lbp_histogram_features(codes, cfg))


def test_non_default_lbp_uses_circular_path():
    imgs = images(n=2)
    cfg = LbpConfig(neighbors=8, radius=2.0)
    fm = FeaturePipeline(lbp=cfg).transform(imgs)
    for i in range(2):
        assert np.array_equal(
            fm.values[i], reference_circular(imgs[i], cfg).reshape(-1).astype(float)
        )


def test_pca_stage_fits_on_training_images_only():
    train = images(n=12, seed=1)
    test = images(n=5, seed=2)
    pipe, _ = fit_pipeline(train, pca_components=4)
    fm_train = pipe.transform(train)
    fm_test = pipe.transform(test)
    assert fm_train.values.shape == (12, 4) and fm_test.values.shape == (5, 4)
    # the projection applied to test rows uses the train-fitted model
    raw_test = test.reshape(5, -1) / 255.0
    assert np.allclose(fm_test.values, pca_transform(pipe.pca, raw_test))


@pytest.mark.parametrize("lbp,pca", [(None, None), (LbpConfig(), None), (None, 4),
                                     (LbpConfig(neighbors=8, radius=1.5), 4)])
def test_fit_pipeline_returns_the_features_of_its_training_images(lbp, pca):
    train = images(n=12, seed=7)
    pipe, fm = fit_pipeline(train, lbp=lbp, pca_components=pca)
    again = pipe.transform(train)
    assert np.array_equal(fm.values, again.values)


def test_variance_target_selector_reaches_target():
    train = images(n=20, seed=3)
    pipe, _ = fit_pipeline(train, variance_target=0.9)
    assert pipe.pca is not None
    assert pipe.pca.explained_ratio.sum() >= 0.9 - 1e-9


def test_lbp_then_pca_chains():
    train = images(n=10, seed=4)
    pipe, _ = fit_pipeline(train, lbp=LbpConfig(cell_size=8), lbp_mode="histogram",
                           pca_components=3)
    fm = pipe.transform(train)
    assert fm.values.shape == (10, 3)


def test_bad_lbp_mode_rejected():
    with pytest.raises(ValueError, match="lbp_mode"):
        FeaturePipeline(lbp_mode="spectrum")


@pytest.mark.parametrize("with_lbp,with_pca", [(False, False), (True, False),
                                               (False, True), (True, True)])
def test_payload_round_trip(with_lbp, with_pca):
    train = images(n=10, seed=5)
    pipe, _ = fit_pipeline(
        train,
        lbp=LbpConfig(neighbors=8, radius=1.5, cell_size=8) if with_lbp else None,
        lbp_mode="histogram" if with_lbp else "pixel_map",
        pca_components=3 if with_pca else None,
    )
    meta, arrays = pipeline_to_payload(pipe)
    back = pipeline_from_payload(meta, arrays)
    probe = images(n=4, seed=6)
    a = pipe.transform(probe)
    b = back.transform(probe)
    assert np.array_equal(a.values, b.values)
