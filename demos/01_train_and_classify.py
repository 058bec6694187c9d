"""Train the four-head sleep/wake classifier on synthetic nights.

Generates a handful of labeled synthetic subjects, builds a balanced training
set of 15-minute feature windows around the sleep/wake transitions, trains the
network, and reports per-night classification metrics on a held-out subject.

Run:  python3 demos/01_train_and_classify.py
"""

import numpy as np

import somnoflow as sf
from somnoflow.evalkit import MetricReport, confusion
from somnoflow.events import binarize
from somnoflow.sleepnet import TrainingHyper, infer_hypnogram


def minute_truth(series, hyp):
    """Truth states for each hypnogram minute (label of the minute's 2nd epoch)."""
    offset = (hyp.start - int(series.timestamps[0])) // 30
    states = [max(int(series.labels[offset + i * 2 + 1]), 0) for i in range(len(hyp))]
    return sf.BinaryHypnogram(start=hyp.start, states=np.array(states))


def main():
    # 1. Synthesize six 8-hour nights; five for training, one held out.
    nights = [sf.synth_generate(sf.SynthConfig(seed=s, hours=8,
                                               subject_id=f"subject{s}"))
              for s in range(6)]
    train_nights, test_night = nights[:5], nights[5]

    # 2. Windows near the transitions, balanced across classes, then normalized.
    windows = sf.build_training_set(train_nights, context_hours=1, seed=0)
    print(f"training set: {len(windows)} windows "
          f"({sum(w.label for w in windows)} sleep)")
    stats = sf.fit_normalizer(windows)
    normed = [sf.apply_normalizer(w, stats) for w in windows]

    # 3. Train the default 4-head model (kernel widths 3/5/7/11).
    model = sf.build_model(sf.ModelConfig(seed=0))
    model.norm_stats = stats
    model, report = sf.train(model, normed, None, TrainingHyper(n_epochs=10))
    print(f"trained {model.param_count()} parameters in {report.wall_time:.1f}s; "
          f"final train accuracy {report.train_accuracy * 100:.1f}%")

    # 4. Per-minute probabilities on the held-out night, scored against truth.
    hyp = infer_hypnogram(model, test_night)
    counts = confusion(binarize(hyp, 0.5), minute_truth(test_night, hyp))
    print(MetricReport.from_counts(counts, run_id=test_night.subject_id).format())


if __name__ == "__main__":
    main()
