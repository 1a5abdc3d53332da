"""Feature pipeline shared by the benchmark and the CLI.

Turns an image block into model-ready features: optional pixel scaling,
optional LBP coding (pixel-map or cell-histogram form), optional PCA
projection. A fitted pipeline serializes to flat arrays plus JSON-safe
metadata so trained models can be applied to new images later.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import pca as pca_mod
from ._inputs import check_choice
from .dataset import FeatureMatrix
from .lbp import LbpConfig, lbp_circular, lbp_histogram_features, samples_nearest

#: the forms of the LBP stage's features
LBP_MODES = ("pixel_map", "histogram")


@dataclass(eq=False)
class FeaturePipeline:
    """(scale | lbp) -> (pca): LBP codes the uint8 images, so scale_pixels
    acts only without it; the PCA projection is optional.

    The LBP stage codes the whole image block with one lbp_circular call.
    """

    scale_pixels: bool = True
    lbp: LbpConfig | None = None
    lbp_mode: str = "pixel_map"  # an LBP_MODES name
    pca: pca_mod.PcaModel | None = None
    image_shape: tuple[int, int] | None = None  # (h, w) of the fit images; None takes any

    def __post_init__(self):
        check_choice("lbp_mode", self.lbp_mode, LBP_MODES)

    def _lbp_matrix(self, images: np.ndarray) -> np.ndarray:
        codes = lbp_circular(images, self.lbp)
        if self.lbp_mode == "histogram":
            return lbp_histogram_features(codes, self.lbp)
        return codes.reshape(len(images), -1).astype(np.float64)

    def transform(self, images: np.ndarray) -> FeatureMatrix:
        """Feature rows for an (n, h, w) uint8 image block."""
        if self.image_shape not in (None, images.shape[1:]):
            raise ValueError("images are {}x{}, but the feature pipeline was fit on {}x{} images"
                             .format(*images.shape[1:], *self.image_shape))
        if self.lbp is not None:
            X = self._lbp_matrix(images)
        else:
            X = images.reshape(images.shape[0], -1).astype(np.float64)
            if self.scale_pixels:
                X /= 255.0
        if self.pca is not None:
            X = pca_mod.transform(self.pca, X)
        return FeatureMatrix(X)


def fit_pipeline(
    images_train: np.ndarray,
    scale_pixels: bool = True,
    lbp: LbpConfig | None = None,
    lbp_mode: str = "pixel_map",
    pca_components: int | None = None,
    variance_target: float | None = None,
) -> tuple[FeaturePipeline, FeatureMatrix]:
    """Fit pipeline state (the PCA stage) on training images only; returns
    the pipeline and the training features, pipe.transform(images_train)."""
    pipe = FeaturePipeline(scale_pixels=scale_pixels, lbp=lbp, lbp_mode=lbp_mode,
                           image_shape=images_train.shape[1:])
    features = pipe.transform(images_train)
    if pca_components is not None or variance_target is not None:
        pipe.pca = pca_mod.fit_pca(
            features.values, n_components=pca_components, variance_target=variance_target
        )
        features = FeatureMatrix(pca_mod.transform(pipe.pca, features.values))
    return pipe, features


#: the PCA stage's fields and the model-file array that holds each
_PCA_ARRAYS = {"mean": "pipe_pca_mean", "components": "pipe_pca_components",
               "explained_variance": "pipe_pca_variance", "explained_ratio": "pipe_pca_ratio"}


def pipeline_to_payload(pipe: FeaturePipeline) -> tuple[dict, dict[str, np.ndarray]]:
    """JSON-safe metadata plus arrays for serialization."""
    meta = {
        "scale_pixels": pipe.scale_pixels,
        "lbp": asdict(pipe.lbp) if pipe.lbp is not None else None,
        "lbp_mode": pipe.lbp_mode,
        "has_pca": pipe.pca is not None,
        "image_shape": None if pipe.image_shape is None else list(pipe.image_shape),
    }
    if pipe.pca is None:
        return meta, {}
    return meta, {name: getattr(pipe.pca, field) for field, name in _PCA_ARRAYS.items()}


def _entry(source, name: str, what: str = "meta entry"):
    if name not in source:
        raise ValueError(f"the feature pipeline has no {what} {name!r}")
    return source[name]


def _flag(meta: dict, name: str) -> bool:
    """The JSON true or false meta[name]; any other value raises ValueError."""
    value = _entry(meta, name)
    if type(value) is not bool:
        raise ValueError(f"the feature pipeline's {name!r} entry is {value!r}, not true or false")
    return value


def pipeline_from_payload(meta: dict, arrays) -> FeaturePipeline:
    """Inverse of pipeline_to_payload. A missing meta entry or array, a
    has_pca or scale_pixels that is not a bool, an lbp record that is not
    LbpConfig's fields, PCA arrays whose shapes do not fit together, or an
    image_shape that is not two ints, raises ValueError naming it."""
    lbp = _entry(meta, "lbp")
    fields = set(LbpConfig.__dataclass_fields__)
    # a record from before lbp_circular held the rule names a sampler: "bilinear", which every
    # command wrote (the basic map sampled nearest anyway), or the basic map's own "nearest"
    sampled = lbp.get("interpolation", "bilinear") if isinstance(lbp, dict) else "bilinear"
    if lbp is not None and not (isinstance(lbp, dict) and set(lbp) - {"interpolation"} == fields):
        raise ValueError(f"the feature pipeline's 'lbp' entry is {lbp!r}, "
                         f"not null or a record of {sorted(fields)}")
    lbp = None if lbp is None else LbpConfig(**{name: lbp[name] for name in fields})
    if sampled != "bilinear" and not (sampled == "nearest" and samples_nearest(lbp)):
        raise ValueError(f"the feature pipeline's 'lbp' entry asks for {sampled!r} sampling, "
                         "which lbp_circular does not do at its geometry")
    model = None
    if _flag(meta, "has_pca"):
        stage = {field: np.asarray(_entry(arrays, name, "array"))
                 for field, name in _PCA_ARRAYS.items()}
        try:
            model = pca_mod.PcaModel(**stage)
        except pca_mod.PcaError:
            shapes = ", ".join(f"{name} {stage[field].shape}" for field, name in _PCA_ARRAYS.items())
            raise ValueError(f"the feature pipeline's PCA arrays do not fit together: "
                             f"{shapes}") from None
    shape = meta.get("image_shape")  # older files have none: images of any size
    if shape is not None and not (isinstance(shape, list) and list(map(type, shape)) == [int, int]):
        raise ValueError(f"the feature pipeline's 'image_shape' entry is {shape!r}, "
                         "not null or [h, w]")
    return FeaturePipeline(
        scale_pixels=_flag(meta, "scale_pixels"),
        lbp=lbp,
        lbp_mode=_entry(meta, "lbp_mode"),
        pca=model,
        image_shape=None if shape is None else tuple(shape),
    )
