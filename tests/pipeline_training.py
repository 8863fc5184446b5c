"""One-call model training over a pipeline's first stage, for the tests.

The CLI builds the datasets with `build_blended_datasets` and fits each
variant with `train_variant`; these helpers chain the two. Not a test module
itself.
"""

from blendrank.corpus import Qrels, QuerySet
from blendrank.ltr import Ensemble, TrainParams
from blendrank.pipeline import Pipeline, build_blended_datasets, train_variant


def train_variants(pipeline: Pipeline, train_queries: QuerySet,
                   valid_queries: QuerySet, qrels: Qrels,
                   variants=("full", "lexical", "dense"),
                   params: TrainParams | None = None, n_neg: int = 30,
                   tune_trials: int = 0, seed: int = 0,
                   tune_ranges: dict | None = None) -> dict[str, Ensemble]:
    """Train one model per feature-mask variant over a shared candidate and
    feature construction, so the variants differ only in mask and trees."""
    params = params or TrainParams()
    full_train, full_valid = build_blended_datasets(
        pipeline, train_queries, valid_queries, qrels, n_neg, seed)
    return {variant: train_variant(full_train, full_valid, pipeline.extractor.registry,
                                   variant, params, tune_trials, seed, tune_ranges)
            for variant in variants}


def train_pipeline(pipeline: Pipeline, train_queries: QuerySet,
                   valid_queries: QuerySet, qrels: Qrels,
                   params: TrainParams | None = None, mask_variant: str = "full",
                   n_neg: int = 30, tune_trials: int = 0, seed: int = 0,
                   tune_ranges: dict | None = None) -> Ensemble:
    """Build the training/validation datasets from first-stage candidates
    and fit a model for the given feature mask variant."""
    return train_variants(pipeline, train_queries, valid_queries, qrels,
                          (mask_variant,), params, n_neg, tune_trials, seed,
                          tune_ranges)[mask_variant]
