"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The end-to-end and ablation criteria train real models on synthetic
walkers; the whole module is budgeted to finish well inside 20 CPU-minutes.
"""

import io
import math
import time
from contextlib import contextmanager

import numpy as np
import scipy.stats

from gaitpt import dataio, numcore as nc
from gaitpt.cli import _gradcheck_cases, tiny_model_gradcheck
from gaitpt.evaluation import (
    CASIA_VIEWS,
    EmbeddingSet,
    ablation_run,
    casia_eval,
    embed_sequence_set,
    rank_k_accuracy,
    welch_t_test,
)
from gaitpt.model import GaitPTConfig, GaitPTModel
from gaitpt.skeleton import Condition
from gaitpt.synthgait import SynthConfig, generate_split_sequences
from gaitpt.training import TrainConfig, batch_hard_mine, cyclic_lr, train, triplet_loss


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {num} FAIL  {desc}")
        raise
    print(f"\nACCEPTANCE {num} PASS  {desc}")


# ---------------------------------------------------------------------------
# 1. gradient fidelity
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_fidelity():
    with criterion(1, "gradients of every op and of the full tiny network match "
                      "central differences at 1e-4 in under 2 minutes"):
        start = time.time()
        rng = np.random.default_rng(0)
        for name, f, x in _gradcheck_cases(rng):
            report = nc.grad_check(f, x, tol=1e-4)
            assert report.passed, f"{name}: {report.max_rel_err:.3e}"
        for name, report in tiny_model_gradcheck(tol=1e-4, seed=0, sample=96):
            assert report.passed, f"{name}: {report.max_rel_err:.3e}"
        assert time.time() - start < 120.0


# ---------------------------------------------------------------------------
# 2. architecture ledger
# ---------------------------------------------------------------------------

def test_criterion_2_architecture_ledger():
    with criterion(2, "token counts 18>5>3>1, widths 32>64>128>256, 256-d output, "
                      "parameter count within [2M, 8M]"):
        cfg = GaitPTConfig.build()  # defaults: HUL, dims 32/64/128/256
        model = GaitPTModel(cfg, seed=0)
        trace = []
        x = np.zeros((1, cfg.sequence_length, 18, 2), dtype=np.float32)
        emb = model.embed_batch(x, trace=trace)
        assert [(t, c) for _, t, c in trace] == [(18, 32), (5, 64), (3, 128), (1, 256)]
        assert emb.shape == (1, 256)
        assert 2_000_000 <= model.param_count() <= 8_000_000


# ---------------------------------------------------------------------------
# 3. metric-oracle equivalence
# ---------------------------------------------------------------------------

def _oracle_rank_hits(gallery_vecs, gallery_keys, gallery_subjects, probe_vec, probe_subject, k):
    order = sorted(
        range(len(gallery_keys)),
        key=lambda j: (float(np.linalg.norm(probe_vec - gallery_vecs[j])), gallery_keys[j]),
    )
    return probe_subject in {gallery_subjects[j] for j in order[:k]}


def _oracle_mine(emb, labels):
    out = []
    for i in range(len(labels)):
        d = [float(np.linalg.norm(emb[i] - emb[j])) for j in range(len(labels))]
        pos = [(d[j], j) for j in range(len(labels)) if labels[j] == labels[i] and j != i]
        neg = [(d[j], j) for j in range(len(labels)) if labels[j] != labels[i]]
        out.append((i, max(pos, key=lambda t: (t[0], -t[1]))[1],
                    min(neg, key=lambda t: (t[0], t[1]))[1]))
    return out


def test_criterion_3_metric_oracle_equivalence():
    with criterion(3, "rank-K, batch-hard mining and Welch t match "
                      "independent oracles on 100+ random fixtures"):
        rng = np.random.default_rng(42)

        for _ in range(100):  # rank-K vs exhaustive sort
            ng, npr, dim = int(rng.integers(2, 10)), int(rng.integers(1, 8)), int(rng.integers(2, 6))
            g_sub = tuple(f"s{i}" for i in rng.integers(0, 5, size=ng))
            g_keys = tuple(f"g{i:02d}" for i in range(ng))
            g_vecs = rng.normal(size=(ng, dim))
            gallery = EmbeddingSet(
                keys=g_keys, subject_ids=g_sub,
                conditions=tuple(Condition.NM for _ in range(ng)),
                views=np.zeros(ng, dtype=int), sessions=np.ones(ng, dtype=int),
                embeddings=g_vecs,
            )
            p_sub = tuple(f"s{int(rng.integers(0, 5))}" for _ in range(npr))
            p_vecs = rng.normal(size=(npr, dim))
            probe = EmbeddingSet(
                keys=tuple(f"p{i:02d}" for i in range(npr)), subject_ids=p_sub,
                conditions=tuple(Condition.NM for _ in range(npr)),
                views=np.zeros(npr, dtype=int), sessions=np.ones(npr, dtype=int),
                embeddings=p_vecs,
            )
            ks = sorted({1, int(rng.integers(1, ng + 1)), ng})
            got = rank_k_accuracy(gallery, probe, ks)
            for k in ks:
                hits = sum(
                    _oracle_rank_hits(g_vecs, g_keys, g_sub, p_vecs[i], p_sub[i], k)
                    for i in range(npr)
                )
                assert got[k] == hits / npr

        for _ in range(100):  # mining vs exhaustive search
            n_labels = int(rng.integers(2, 5))
            counts = rng.integers(2, 5, size=n_labels)
            labels = [f"id{i}" for i, c in enumerate(counts) for _ in range(c)]
            emb = rng.normal(size=(len(labels), int(rng.integers(2, 8))))
            assert batch_hard_mine(emb, labels) == _oracle_mine(emb, labels)

        for _ in range(100):  # Welch vs scipy
            x = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=int(rng.integers(2, 25)))
            y = rng.normal(rng.uniform(-1, 1), rng.uniform(0.5, 2), size=int(rng.integers(2, 25)))
            ours = welch_t_test(x, y)
            ref = scipy.stats.ttest_ind(x, y, equal_var=False)
            assert abs(ours.t - ref.statistic) <= 1e-6
            assert abs(ours.p - ref.pvalue) <= 1e-6


# ---------------------------------------------------------------------------
# 4. protocol fidelity
# ---------------------------------------------------------------------------

def _criterion4_fixture():
    """4 subjects, 11 views, NM#1-6 + BG#1-2 + CL#1-2, engineered so the
    accuracy matrix is computable by hand.

    Galleries sit on four far-apart base points, except s3's gallery at
    view 36 which sits on Q near s0. Probes sit 0.01 from their own base
    point except three overrides:

        BG probes of s0 at probe view 0   -> placed on s1's point (wrong)
        CL probes of s1 at probe view 90  -> placed on s2's point (wrong)
        NM probes of s3 at probe view 36  -> placed on Q: the only gallery
          at distance 0 is s3's own view-36 entry, which same-view exclusion
          removes; every other-view comparison then resolves to s0 (wrong)

    Moving s3's view-36 gallery to Q also costs s3 every comparison
    *against* gallery view 36 (its own entry there is ~56 away while s1/s2
    sit at ~40), so column 36 scores 3/4 for all conditions wherever the
    probes are unperturbed.
    """
    base = {"s0": (0.0, 0.0), "s1": (40.0, 0.0), "s2": (0.0, 40.0), "s3": (40.0, 40.0)}
    q_point = (1.0, 0.0)  # near s0, far from s3
    rows = []
    for s, pos in base.items():
        for view in CASIA_VIEWS:
            g_pos = q_point if (s == "s3" and view == 36) else pos
            for session in (1, 2, 3, 4):
                rows.append((f"g-{s}-{view:03d}-{session}", s, "NM", view, session, g_pos))
    for cond, sessions in (("NM", (5, 6)), ("BG", (1, 2)), ("CL", (1, 2))):
        for s, pos in base.items():
            for view in CASIA_VIEWS:
                point = np.array(pos) + 0.01
                if cond == "BG" and s == "s0" and view == 0:
                    point = np.array(base["s1"], dtype=float)
                if cond == "CL" and s == "s1" and view == 90:
                    point = np.array(base["s2"], dtype=float)
                if cond == "NM" and s == "s3" and view == 36:
                    point = np.array(q_point, dtype=float)
                for session in sessions:
                    rows.append((f"p-{cond}-{s}-{view:03d}-{session}", s, cond, view, session, point))
    keys, subjects, conds, views, sessions, vecs = zip(*rows)
    return EmbeddingSet(
        keys=tuple(keys), subject_ids=tuple(subjects),
        conditions=tuple(Condition(c) for c in conds),
        views=np.array(views), sessions=np.array(sessions),
        embeddings=np.array(vecs, dtype=np.float64),
    )


def test_criterion_4_protocol_fidelity():
    with criterion(4, "cross-view protocol reproduces the hand-computed matrix "
                      "on a 4-subject, 11-view fixture, same-view pairs excluded"):
        report = casia_eval(_criterion4_fixture())
        nv = len(CASIA_VIEWS)
        v36, v90 = 2, 5  # indices of views 36 and 90

        expected = {c: np.ones((nv, nv)) for c in ("NM", "BG", "CL")}
        for m in expected.values():
            m[:, v36] = 0.75           # column effect: s3 has no gallery on its base at view 36
        expected["NM"][v36, :] = 0.75  # s3's probes sit on Q; own-view match excluded
        expected["BG"][0, :] = 0.75    # s0's probes sit on s1's point
        expected["BG"][0, v36] = 0.5   # both s0 and s3 lose there
        expected["BG"][v36, :] = 1.0   # BG probes at view 36 are unperturbed; diag removes gv 36
        expected["CL"][v90, :] = 0.75  # s1's probes sit on s2's point
        expected["CL"][v90, v36] = 0.5
        expected["CL"][v36, :] = 1.0
        for m in expected.values():
            np.fill_diagonal(m, np.nan)

        for cond in ("NM", "BG", "CL"):
            got = report.matrix[cond]
            assert np.array_equal(np.isnan(got), np.isnan(expected[cond]))
            assert np.array_equal(got[~np.isnan(got)], expected[cond][~np.isnan(expected[cond])])
            means = np.nanmean(expected[cond], axis=1)
            assert np.array_equal(report.probe_view_means[cond], means)
            assert report.condition_means[cond] == float(np.mean(means))
            # every probe-view mean averages exactly the 10 other gallery views
            assert all(np.sum(~np.isnan(got[i])) == 10 for i in range(nv))


# ---------------------------------------------------------------------------
# 5. end-to-end synthetic recognition
# ---------------------------------------------------------------------------

ACCEPTANCE_DATASET = SynthConfig(
    identities=16, sequences_per_identity=8, frames=60, views=(0, 90),
    conditions=(Condition.NM,), seed=42, noise_level=0.02, train_fraction=0.5,
)


def test_criterion_5_end_to_end_recognition():
    with criterion(5, "full model trained <= 30 epochs on 16 synthetic identities "
                      "reaches rank-1 >= 0.90 on held-out probes within 20 minutes"):
        start = time.time()
        splits = generate_split_sequences(ACCEPTANCE_DATASET)
        assert len(splits["train"]) == 128 and len(splits["probe"]) == 96
        model = GaitPTModel(GaitPTConfig.build(), seed=7)
        tcfg = TrainConfig(p=8, k=4, epochs=30, seed=7, micro_batch=8)

        achieved = []

        def early_stop(m, entry):
            gallery = embed_sequence_set(m, splits["gallery"])
            probe = embed_sequence_set(m, splits["probe"])
            achieved.append(rank_k_accuracy(gallery, probe, [1])[1])
            return achieved[-1] >= 0.92

        log = train(model, splits["train"], tcfg, log_stream=io.StringIO(), on_epoch=early_stop)
        elapsed = time.time() - start
        assert len(log) <= 30
        assert max(achieved) >= 0.90, f"best rank-1 {max(achieved):.3f}"
        assert elapsed <= 20 * 60, f"took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 6. stage-ablation ordering
# ---------------------------------------------------------------------------

ABLATION_DATASET = SynthConfig(
    identities=12, sequences_per_identity=8, frames=30, views=(0, 90),
    conditions=(Condition.NM, Condition.CL), seed=99, noise_level=0.05,
    train_fraction=0.5,
)


def _ablation_splits():
    raw = generate_split_sequences(ABLATION_DATASET)
    # cross-view retrieval: enroll the frontal view, probe the side view
    return {
        "train": raw["train"],
        "gallery": [s for s in raw["gallery"] if s.view == 0],
        "probe": [s for s in raw["probe"] if s.view == 90],
    }


def test_criterion_6_stage_ablation_ordering():
    with criterion(6, "across 5 seeded runs the full pyramid strictly beats the "
                      "body-level-only variant; Welch p-values are emitted"):
        splits = _ablation_splits()
        model_cfg = GaitPTConfig.build(dims=(16, 32, 64, 128), blocks=1, heads=2,
                                       sequence_length=20, output_dim=32)
        train_cfg = TrainConfig(p=6, k=4, epochs=14, steps_per_epoch=8, seed=0, micro_batch=8)
        result = ablation_run(splits, [(4,), (1, 2, 3, 4)], runs=5, seed=2024,
                              model_config=model_cfg, train_config=train_cfg)
        means = dict(zip(result.labels, result.means))
        print(f"\n{result.render()}", end="")
        assert means["stages 1+2+3+4"] > means["stages 4"], means
        assert result.p_values and all(0.0 <= p <= 1.0 for p in result.p_values.values())


# ---------------------------------------------------------------------------
# 7. schedule and loss point checks
# ---------------------------------------------------------------------------

def test_criterion_7_point_checks():
    with criterion(7, "cyclic_lr(0) = 1e-4 exactly; triplet(0.5, 0.1, m=0.02) = 0.42; "
                      "degenerate triplet = 0.02"):
        assert cyclic_lr(0, TrainConfig()) == 1e-4
        loss = triplet_loss(np.array([0.0]), np.array([0.5]), np.array([0.1]), margin=0.02)
        assert math.isclose(loss.item(), 0.42, rel_tol=1e-12)
        v = np.array([0.25, -0.5])
        assert triplet_loss(v, v, v, margin=0.02).item() == 0.02


# ---------------------------------------------------------------------------
# 8. determinism and persistence
# ---------------------------------------------------------------------------

def test_criterion_8_determinism_and_persistence(tmp_path):
    with criterion(8, "fixed-seed training is bitwise reproducible and embeddings "
                      "survive a checkpoint round-trip bitwise"):
        cfg = SynthConfig(identities=4, sequences_per_identity=4, frames=30,
                          views=(90,), seed=5, train_fraction=0.5)
        splits = generate_split_sequences(cfg)
        data = splits["train"] + splits["probe"]
        model_cfg = GaitPTConfig.build(dims=(8, 16, 32, 64), blocks=1, heads=2,
                                       sequence_length=20, output_dim=32)
        tcfg = TrainConfig(p=4, k=2, epochs=2, seed=11, micro_batch=4)

        def run():
            model = GaitPTModel(model_cfg, seed=1)
            log = train(model, data, tcfg, log_stream=io.StringIO())
            return model, log

        model_a, log_a = run()
        model_b, log_b = run()
        assert log_a == log_b
        for name, p in model_a.params.items():
            assert np.array_equal(p.value.data, model_b.params[name].value.data), name

        windows = np.stack([s.frames[:20] for s in splits["probe"]]).astype(np.float32)
        before = model_a.embed_arrays(windows)
        path = tmp_path / "model.ckpt"
        dataio.save_checkpoint(model_a, path)
        after = dataio.load_checkpoint(path).embed_arrays(windows)
        assert np.array_equal(before, after)
