"""Acceptance gate: nine go/no-go criteria for the whole pipeline.

Each test prints a single `[ACCEPTANCE] <n> <name>: PASS|FAIL` line on the
real stdout (past pytest's capture) and then asserts, so a plain `pytest -v`
run shows one verdict per criterion.
"""

import itertools
import time

import numpy as np
import pytest

import somnoflow as sf
from somnoflow import reference
from somnoflow.cli import _minute_truth
from somnoflow.datapipe import SynthConfig, build_training_set, synth_generate
from somnoflow.events import (BinaryHypnogram, EventRuleConfig,
                              detect_sleep_time, detect_wake_time,
                              predict_events)
from somnoflow.neuralcore import BatchNorm1d, Conv1d, Dense, MaxPool1d, bce_loss
from somnoflow.sleepnet import (DigestMismatchError, HeadConfig, ModelConfig,
                                TrainingHyper, TruncatedFileError,
                                VersionMismatchError, build_model,
                                finetune_transfer, infer_hypnogram, load_model,
                                save_model, train)
from somnoflow.stream import batch_emissions, replay_series
from test_neuralcore import fd_grad, max_rel_err

pytestmark = pytest.mark.filterwarnings("ignore::UserWarning")


@pytest.fixture
def verdict(capsys, request):
    emitted = []

    def emit(ok, label, detail=""):
        line = f"[ACCEPTANCE] {label}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f" ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        emitted.append(ok)
        assert ok, line
    yield emit
    assert emitted, "criterion emitted no verdict"


# --- helpers ----------------------------------------------------------------

def make_subjects(first_seed, n, hours=8.0, **kw):
    return [synth_generate(SynthConfig(seed=first_seed + i, hours=hours,
                                       subject_id=f"s{first_seed + i}", **kw))
            for i in range(n)]


def pick_windows(series_list, n_target, seed):
    windows = build_training_set(series_list, context_hours=1, seed=seed)
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(windows))[:n_target]
    return [windows[i] for i in sorted(idx)]


def fit_and_train(windows, config, n_epochs, train_seed=0, lr=1e-3):
    stats = sf.fit_normalizer(windows)
    normed = [sf.apply_normalizer(w, stats) for w in windows]
    model = build_model(config)
    model.norm_stats = stats
    model, report = train(model, normed, None,
                          TrainingHyper(n_epochs=n_epochs, seed=train_seed, lr=lr))
    return model, report


def window_accuracy(model, windows):
    x = np.stack([sf.apply_normalizer(w, model.norm_stats).values for w in windows])
    y = np.array([w.label for w in windows], dtype=float)
    p_final, _ = model.forward_batch(x, train=False)
    return float(np.mean((p_final >= 0.5) == y))


SWAPPED = dict(
    sleep_means={"hr": 72.0, "br": 16.0, "hr_conf": 0.75, "movement": 0.6},
    sleep_stds={"hr": 8.0, "br": 2.5, "hr_conf": 0.08, "movement": 0.3},
    wake_means={"hr": 58.0, "br": 13.0, "hr_conf": 0.92, "movement": 0.05},
    wake_stds={"hr": 4.0, "br": 1.5, "hr_conf": 0.03, "movement": 0.05},
)


# --- criteria ---------------------------------------------------------------

def test_criterion_1_gradient_correctness(verdict):
    t0 = time.perf_counter()
    worst_layer = 0.0
    worst_model = 0.0

    for seed in range(20):
        # (a) every layer type, chained, in float64
        rng = np.random.default_rng(seed)
        conv = Conv1d("c", 2, 2, 3, rng=rng, dtype=np.float64)
        bn = BatchNorm1d("bn", 2, dtype=np.float64)
        bn.params["gamma"][...] = rng.uniform(0.5, 1.5, 2)
        pool = MaxPool1d("p", 2)
        dense = Dense("d", 6, 2, rng=rng, dtype=np.float64)
        x = rng.standard_normal((2, 2, 8))
        dy = rng.standard_normal((2, 2))

        def layer_loss():
            z = pool.forward(bn.forward(conv.forward(x), train=True))
            return float(np.sum(dense.forward(z.reshape(2, -1)) * dy))

        z = pool.forward(bn.forward(conv.forward(x), train=True))
        shape = z.shape
        dense.forward(z.reshape(2, -1))
        dz = pool.backward(dense.backward(dy).reshape(shape))
        conv.backward(bn.backward(dz))
        for layer, pname in [(conv, "w"), (conv, "b"), (bn, "gamma"),
                             (bn, "beta"), (dense, "w"), (dense, "b")]:
            err = max_rel_err(layer.grads[pname], fd_grad(layer_loss, layer.params[pname]))
            worst_layer = max(worst_layer, err)

        # (b) full reduced model (~100 params), BCE + deep-supervision loss
        cfg = ModelConfig(window_epochs=12,
                          heads=[HeadConfig(kernel_width=3, n_filters=2,
                                            fc_width=2, dropout_rate=0.0)],
                          trunk_widths=[2, 1], seed=seed, dtype="float64")
        model = build_model(cfg)
        mrng = np.random.default_rng(1000 + seed)
        xm = mrng.standard_normal((3, 5, 12))
        ym = np.array([0.0, 1.0, 1.0])
        aux = model.config.aux_loss_weight

        def model_loss():
            pf, ph = model.forward_batch(xm, train=True)
            l, _ = bce_loss(pf, ym)
            total = l.mean()
            for i in range(ph.shape[1]):
                lh, _ = bce_loss(ph[:, i], ym)
                total += aux * lh.mean()
            return float(total)

        pf, ph = model.forward_batch(xm, train=True)
        _, gf = bce_loss(pf, ym)
        dheads = np.zeros_like(ph)
        for i in range(ph.shape[1]):
            _, gh = bce_loss(ph[:, i], ym)
            dheads[:, i] = aux * gh / len(xm)
        model.zero_grad()
        model.backward(gf / len(xm), dheads)
        for layer in model.param_layers():
            for pname, grad in layer.grads.items():
                err = max_rel_err(grad, fd_grad(model_loss, layer.params[pname]))
                worst_model = max(worst_model, err)

    elapsed = time.perf_counter() - t0
    ok = worst_layer < 1e-4 and worst_model < 1e-3 and elapsed < 30.0
    verdict(ok, "1 gradient-correctness",
            f"layer err {worst_layer:.2e} < 1e-4, model err {worst_model:.2e} "
            f"< 1e-3, 20 seeds in {elapsed:.1f}s < 30s")


def test_criterion_2_architecture_conformance(verdict):
    model = build_model()
    kernels = [h.conv.params["w"].shape[2] for h in model.heads]
    x = np.zeros((1, 5, 30), dtype=np.float32)
    lengths = [h.conv.forward(x, train=False).shape[2] for h in model.heads]
    ok = kernels == [3, 5, 7, 11] and lengths == [28, 26, 24, 20]
    verdict(ok, "2 architecture-conformance",
            f"kernels {kernels}, conv lengths {lengths}")


def test_criterion_3_synthetic_end_to_end(verdict):
    t0 = time.perf_counter()
    subjects = make_subjects(100, 20)
    windows = pick_windows(subjects, 2000, seed=0)
    model, _ = fit_and_train(windows, ModelConfig(seed=0), n_epochs=15)

    nights = make_subjects(200, 10, single_sleep_period=True)
    correct = total = 0
    night_hits = 0
    for night in nights:
        hyp = infer_hypnogram(model, night)
        truth = _minute_truth(night, hyp)
        pred = hyp.probs >= 0.5
        correct += int(np.sum(pred == (truth.states == 1)))
        total += len(hyp)
        ev = predict_events(hyp)
        truth_ev = dict(night.transitions)
        hit = (ev.sleep_onset is not None and ev.wake_time is not None
               and abs(ev.sleep_onset - truth_ev["sleep_onset"]) <= 15 * 60
               and abs(ev.wake_time - truth_ev["wake_time"]) <= 15 * 60)
        night_hits += hit
    accuracy = correct / total
    elapsed = time.perf_counter() - t0
    ok = accuracy >= 0.90 and night_hits >= 9 and elapsed < 300.0
    verdict(ok, "3 synthetic-end-to-end",
            f"accuracy {accuracy * 100:.2f}% >= 90%, events within 15 min on "
            f"{night_hits}/10 nights >= 9, {elapsed:.0f}s < 300s")


def test_criterion_4_ablation_direction(verdict):
    train_subjects = make_subjects(300, 8)
    train_windows = pick_windows(train_subjects, 1200, seed=1)
    held_out = pick_windows(make_subjects(320, 4), 600, seed=2)

    single_head = [HeadConfig(kernel_width=3, n_filters=32, fc_width=32)]
    budget_4 = build_model(ModelConfig()).param_count()
    budget_1 = build_model(ModelConfig(heads=single_head)).param_count()
    assert abs(budget_4 - budget_1) / budget_4 < 0.10, \
        f"parameter budgets not matched: {budget_4} vs {budget_1}"

    acc4, acc1 = [], []
    for seed in range(3):
        m4, _ = fit_and_train(train_windows, ModelConfig(seed=seed),
                              n_epochs=8, train_seed=seed)
        m1, _ = fit_and_train(train_windows, ModelConfig(heads=[
            HeadConfig(kernel_width=3, n_filters=32, fc_width=32)], seed=seed),
            n_epochs=8, train_seed=seed)
        acc4.append(window_accuracy(m4, held_out))
        acc1.append(window_accuracy(m1, held_out))
    mean4, mean1 = np.mean(acc4) * 100, np.mean(acc1) * 100
    ok = mean4 >= mean1 - 0.5
    verdict(ok, "4 ablation-direction",
            f"4-head {mean4:.2f}% vs 1-head {mean1:.2f}% over 3 seeds, "
            f"margin {mean4 - mean1:+.2f}pp >= -0.5pp, "
            f"budgets {budget_4}/{budget_1} params")


def test_criterion_5_event_rule_exactness(verdict):
    t0 = time.perf_counter()
    mismatches = 0

    scaled = EventRuleConfig(sleep_confirm=4, awake_break=2, wake_confirm=2,
                             reentry_run=2, min_run=1, median_width=1)
    for bits in itertools.product((0, 1), repeat=16):
        b = BinaryHypnogram(start=0, states=np.array(bits, dtype=np.int8))
        onset = detect_sleep_time(b, scaled)
        if onset != reference.ref_detect_sleep_time(bits, 4, 2):
            mismatches += 1
            continue
        if onset is not None:
            if detect_wake_time(b, scaled, onset) != \
                    reference.ref_detect_wake_time(bits, onset, 2, 2):
                mismatches += 1
    exhaustive_n = 2 ** 16

    cfg = EventRuleConfig()
    rng = np.random.default_rng(2024)
    fuzz_n = 100_000
    for _ in range(fuzz_n):
        states = (rng.random(600) < rng.uniform(0.1, 0.95)).astype(np.int8)
        b = BinaryHypnogram(start=0, states=states)
        onset = detect_sleep_time(b, cfg)
        if onset != reference.ref_detect_sleep_time(
                states, cfg.sleep_confirm, cfg.awake_break):
            mismatches += 1
            continue
        if onset is not None:
            if detect_wake_time(b, cfg, onset) != reference.ref_detect_wake_time(
                    states, onset, cfg.wake_confirm, cfg.reentry_run):
                mismatches += 1

    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    verdict(ok, "5 event-rule-exactness",
            f"{mismatches} mismatches over {exhaustive_n} exhaustive + "
            f"{fuzz_n} fuzzed inputs in {elapsed:.1f}s < 60s")


def test_criterion_6_metric_formulas(verdict):
    from somnoflow.evalkit import (ConfusionCounts, accuracy, precision,
                                   sensitivity, specificity)
    c = ConfusionCounts(tp=2, fp=1, tn=1, fn=1)
    hand_ok = (abs(accuracy(c) - 60.0) < 0.005
               and abs(precision(c) - 200 / 3) < 0.005
               and abs(specificity(c) - 50.0) < 0.005
               and abs(sensitivity(c) - 200 / 3) < 0.005)

    rng = np.random.default_rng(6)
    worst = 0.0
    checked = 0
    while checked < 10_000:
        tp, tn, fp, fn = (int(v) for v in rng.integers(0, 1000, 4))
        c = ConfusionCounts(tp, tn, fp, fn)
        if c.p == 0 or c.n == 0:
            continue
        checked += 1
        lhs = accuracy(c)
        rhs = (sensitivity(c) * c.p + specificity(c) * c.n) / (c.p + c.n)
        worst = max(worst, abs(lhs - rhs))
    ok = hand_ok and worst < 1e-9
    verdict(ok, "6 metric-formulas",
            f"hand case exact, identity max dev {worst:.1e} < 1e-9 "
            f"over {checked} counts")


def test_criterion_7_transfer_contract(verdict):
    gains = []
    frozen_ok = True
    for seed in range(3):
        base_windows = pick_windows(make_subjects(400 + 10 * seed, 4), 800, seed)
        model, _ = fit_and_train(base_windows, ModelConfig(seed=seed),
                                 n_epochs=6, train_seed=seed)

        cohort = make_subjects(500 + 10 * seed, 3, **SWAPPED)
        cohort_train = build_training_set(cohort[:2], context_hours=1, seed=seed)
        cohort_train = [sf.apply_normalizer(w, model.norm_stats) for w in cohort_train]
        cohort_test = build_training_set(cohort[2:], context_hours=1, seed=seed)

        before = window_accuracy(model, cohort_test)
        frozen_snapshot = {n: a.copy() for n, a in model.named_tensors()
                           if not n.startswith("trunk.")}
        finetune_transfer(model, cohort_train,
                          TrainingHyper(n_epochs=20, lr=0.05, seed=seed))
        after_tensors = dict(model.named_tensors())
        frozen_ok &= all(np.array_equal(arr, after_tensors[n])
                         for n, arr in frozen_snapshot.items())
        after = window_accuracy(model, cohort_test)
        gains.append((after - before) * 100)
    ok = frozen_ok and all(g >= 5.0 for g in gains)
    verdict(ok, "7 transfer-contract",
            f"frozen tensors bit-identical: {frozen_ok}; gains "
            f"{[f'{g:+.1f}pp' for g in gains]} all >= +5pp")


def test_criterion_8_stream_batch_equivalence(verdict, small_trained):
    model = small_trained[0]
    t0 = time.perf_counter()
    mismatched = 0
    for seed in range(200):
        series = synth_generate(SynthConfig(
            seed=3000 + seed, hours=2.0, mean_sleep_min=70, mean_wake_min=20,
            single_sleep_period=(seed % 2 == 0)))
        s_out, s_ev = replay_series(model, series)
        b_out, b_ev = batch_emissions(model, series)
        same = (sorted(e.format() for e in s_out) == sorted(e.format() for e in b_out)
                and [e.payload for e in s_out if e.kind == "class"] ==
                    [e.payload for e in b_out if e.kind == "class"]
                and s_ev.sleep_onset == b_ev.sleep_onset
                and s_ev.wake_time == b_ev.wake_time)
        mismatched += not same
    elapsed = time.perf_counter() - t0
    ok = mismatched == 0
    verdict(ok, "8 stream-batch-equivalence",
            f"{mismatched}/200 nights mismatched in {elapsed:.0f}s")


def test_criterion_9_determinism_and_persistence(verdict, tmp_path):
    windows = pick_windows(make_subjects(600, 2, hours=6), 300, seed=0)
    digests = []
    for _ in range(2):
        model, report = fit_and_train(windows, ModelConfig(seed=4),
                                      n_epochs=3, train_seed=4)
        digests.append(report.digest)
    deterministic = digests[0] == digests[1]

    path = tmp_path / "m.slpn"
    save_model(model, path)
    roundtrip = load_model(path).digest() == model.digest()

    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0x01
    (tmp_path / "corrupt.slpn").write_bytes(bytes(blob))
    blob2 = bytearray(path.read_bytes())
    blob2[4] = 42
    (tmp_path / "version.slpn").write_bytes(bytes(blob2))
    (tmp_path / "short.slpn").write_bytes(path.read_bytes()[:200])
    errors_ok = True
    for name, exc in (("corrupt.slpn", DigestMismatchError),
                      ("version.slpn", VersionMismatchError),
                      ("short.slpn", TruncatedFileError)):
        try:
            load_model(tmp_path / name)
            errors_ok = False
        except exc:
            pass
        except Exception:
            errors_ok = False
    ok = deterministic and roundtrip and errors_ok
    verdict(ok, "9 determinism-and-persistence",
            f"repeat-train digests equal: {deterministic}; round-trip bit-exact: "
            f"{roundtrip}; corrupt/version/truncated rejected: {errors_ok}")
