"""somnoflow: sleep/wake classification and sleep-event prediction from
per-epoch BCG-derived vitals, with a from-scratch multi-head 1D CNN."""

from .datapipe import (EpochSeries, FeatureWindow, NormStats, SynthConfig,
                       apply_normalizer, build_training_set, fit_normalizer,
                       ingest_epochs, make_windows, synth_generate)
from .events import (BinaryHypnogram, EventRuleConfig, Hypnogram, SleepEvents,
                     binarize, detect_sleep_time, detect_wake_time,
                     predict_events, smooth_probs, suppress_short_runs)
from .evalkit import (ConfusionCounts, MetricReport, accuracy, aggregate_runs,
                      confusion, match_events, precision, sensitivity,
                      specificity)
from .sleepnet import (HeadConfig, ModelConfig, SleepNetModel, TrainingHyper,
                       build_model, finetune_transfer, infer_hypnogram, load_model,
                       save_model, train)
from .stream import SleepStream, batch_emissions, replay_series

__version__ = "0.1.0"
