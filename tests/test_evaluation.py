"""Retrieval metrics against brute-force oracles, protocol fidelity on
hand-computed fixtures, and the statistical tests against scipy."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats

from conftest import fast_train_config, random_windows, tiny_config, tiny_splits

from gaitpt.errors import ConfigError, InputError, ProtocolError, StatisticsError
from gaitpt.evaluation import (
    CASIA_VIEWS,
    EmbeddingSet,
    ablation_run,
    casia_eval,
    embed_sequence_set,
    grew_eval,
    partition_study,
    rank_k_accuracy,
    welch_t_test,
)
from gaitpt.model import GaitPTModel
from gaitpt.skeleton import Condition, GaitSequence, PartitionScheme


def make_set(rows):
    """rows: (key, subject, condition, view, session, vector)"""
    keys, subjects, conds, views, sessions, vecs = zip(*rows)
    return EmbeddingSet(
        keys=tuple(keys),
        subject_ids=tuple(subjects),
        conditions=tuple(Condition(c) for c in conds),
        views=np.array(views),
        sessions=np.array(sessions),
        embeddings=np.array(vecs, dtype=np.float64),
    )


def simple_set(points, prefix="g"):
    """points: dict subject -> vector; one NM row per subject."""
    return make_set([
        (f"{prefix}-{s}", s, "NM", 0, 1, v) for s, v in sorted(points.items())
    ])


# ---------------------------------------------------------------------------
# rank-K
# ---------------------------------------------------------------------------

def test_rank1_nearest_neighbor():
    gallery = simple_set({"A": [0.0, 0.0], "B": [1.0, 0.0]})
    probe = make_set([("p0", "A", "NM", 0, 1, [0.1, 0.0])])
    assert rank_k_accuracy(gallery, probe, [1]) == {1: 1.0}


def test_rank_k_tie_broken_by_key():
    # probe equidistant from a wrong-subject and right-subject gallery row;
    # the lexicographically smaller key wins deterministically
    gallery = make_set([
        ("g-a", "WRONG", "NM", 0, 1, [1.0, 0.0]),
        ("g-b", "RIGHT", "NM", 0, 1, [-1.0, 0.0]),
    ])
    probe = make_set([("p", "RIGHT", "NM", 0, 1, [0.0, 0.0])])
    assert rank_k_accuracy(gallery, probe, [1]) == {1: 0.0}

    flipped = make_set([
        ("g-b", "WRONG", "NM", 0, 1, [1.0, 0.0]),
        ("g-a", "RIGHT", "NM", 0, 1, [-1.0, 0.0]),
    ])
    assert rank_k_accuracy(flipped, probe, [1]) == {1: 1.0}


def test_rank_k_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for _ in range(100):
        ng, np_, dim = rng.integers(2, 9), rng.integers(1, 7), rng.integers(2, 5)
        subjects = [f"s{i}" for i in rng.integers(0, 4, size=ng)]
        gallery = make_set([
            (f"g{i:02d}", subjects[i], "NM", 0, 1, rng.normal(size=dim)) for i in range(ng)
        ])
        probe = make_set([
            (f"p{i:02d}", f"s{rng.integers(0, 4)}", "NM", 0, 1, rng.normal(size=dim))
            for i in range(np_)
        ])
        ks = sorted({1, 2, int(ng)})
        got = rank_k_accuracy(gallery, probe, ks)

        expected = {k: 0 for k in ks}
        for i in range(np_):
            dists = [
                (np.linalg.norm(probe.embeddings[i] - gallery.embeddings[j]), gallery.keys[j], j)
                for j in range(ng)
            ]
            order = [j for _, _, j in sorted(dists, key=lambda t: (t[0], t[1]))]
            for k in ks:
                if probe.subject_ids[i] in {gallery.subject_ids[j] for j in order[:k]}:
                    expected[k] += 1
        assert got == {k: expected[k] / np_ for k in ks}


def test_rank_k_monotone_and_saturates():
    rng = np.random.default_rng(12)
    gallery = simple_set({f"s{i}": rng.normal(size=3) for i in range(6)})
    probe = make_set([
        (f"p{i}", f"s{i}", "NM", 0, 1, rng.normal(size=3)) for i in range(6)
    ])
    accs = rank_k_accuracy(gallery, probe, [1, 2, 3, 6])
    vals = [accs[k] for k in sorted(accs)]
    assert vals == sorted(vals)
    assert accs[6] == 1.0  # every probe subject exists in the gallery


def test_rank_k_absent_subject_counts_as_failure():
    gallery = simple_set({"A": [0.0], "B": [1.0]})
    probe = make_set([("p", "GHOST", "NM", 0, 1, [0.0])])
    assert rank_k_accuracy(gallery, probe, [2]) == {2: 0.0}
    # a k past the gallery's end still finds no hit
    assert rank_k_accuracy(gallery, probe, [1, 3, 10]) == {1: 0.0, 3: 0.0, 10: 0.0}


def test_rank_k_validation():
    gallery = simple_set({"A": [0.0]})
    probe = make_set([("p", "A", "NM", 0, 1, [0.0])])
    with pytest.raises(InputError):
        rank_k_accuracy(gallery, probe, [0])
    for ks in ([1.9], [True], []):  # not coerced to rank 1
        with pytest.raises(InputError, match="rank"):
            rank_k_accuracy(gallery, probe, ks)
    with pytest.raises(ProtocolError):
        rank_k_accuracy(gallery.select(np.zeros(1, dtype=bool)), probe, [1])


def test_embedding_set_validation():
    with pytest.raises(InputError):
        make_set([("k", "s", "NM", 0, 1, [0.0]), ("k", "s", "NM", 0, 2, [1.0])])


# ---------------------------------------------------------------------------
# cross-view protocol
# ---------------------------------------------------------------------------

def casia_fixture(subject_positions, probe_overrides=None, conditions=("NM", "BG", "CL")):
    """Gallery NM#1-4 at each view on the subject's base point; probes sit
    next to their own subject unless overridden to another subject's point."""
    probe_overrides = probe_overrides or {}
    rows = []
    for subject, base in subject_positions.items():
        for view in CASIA_VIEWS:
            for session in (1, 2, 3, 4):
                rows.append((f"g-{subject}-{view}-{session}", subject, "NM", view, session, base))
    for cond in conditions:
        sessions = (5, 6) if cond == "NM" else (1, 2)
        for subject, base in subject_positions.items():
            for view in CASIA_VIEWS:
                for session in sessions:
                    target = probe_overrides.get((cond, subject, view), subject)
                    point = np.asarray(subject_positions[target], dtype=float) + 0.01
                    rows.append((f"p-{cond}-{subject}-{view}-{session}", subject, cond, view, session, point))
    return make_set(rows)


SUBJECTS4 = {"s0": [0.0, 0.0], "s1": [10.0, 0.0], "s2": [0.0, 10.0], "s3": [10.0, 10.0]}


def test_embed_sequence_set_dedupes_default_keys():
    frames = random_windows(3, 20)
    seqs = [GaitSequence("s0", Condition.NM, 0, 1, f) for f in frames]
    embset = embed_sequence_set(GaitPTModel(tiny_config(), seed=0), seqs)
    assert embset.keys == ("s0-NM-v000-01", "s0-NM-v000-01#1", "s0-NM-v000-01#2")


def test_embed_sequence_set_renames_a_repeat_to_a_free_key():
    frames = random_windows(5, 20)
    keys = ["k", "k#2", "k", "k", "j"]
    seqs = [GaitSequence("s0", Condition.NM, 0, 1, f, key=key) for f, key in zip(frames, keys)]
    embset = embed_sequence_set(GaitPTModel(tiny_config(), seed=0), seqs)
    assert embset.keys == ("k", "k#2", "k#3", "k#4", "j")


def test_embed_sequence_set_rejects_an_empty_list():
    with pytest.raises(InputError, match="no sequences"):
        embed_sequence_set(GaitPTModel(tiny_config(), seed=0), [])


def test_casia_all_correct_gives_ones():
    report = casia_eval(casia_fixture(SUBJECTS4))
    for cond in ("NM", "BG", "CL"):
        m = report.matrix[cond]
        assert np.all(np.isnan(np.diagonal(m)))
        off = m[~np.isnan(m)]
        assert off.size == 110 and np.all(off == 1.0)
        assert np.all(report.probe_view_means[cond] == 1.0)
        assert report.condition_means[cond] == 1.0


def test_casia_selects_each_view_gallery_once(monkeypatch):
    calls = []
    select = EmbeddingSet.select
    monkeypatch.setattr(EmbeddingSet, "select", lambda self, mask: calls.append(1) or select(self, mask))
    casia_eval(casia_fixture(SUBJECTS4))
    assert len(calls) == 11 + 3 * 11  # a gallery per view, a probe set per condition and view


def test_casia_probe_view_mean_averages_ten_cells():
    report = casia_eval(casia_fixture(SUBJECTS4))
    m = report.matrix["NM"]
    for i in range(len(CASIA_VIEWS)):
        row = m[i]
        assert np.isnan(row[i]) and np.sum(~np.isnan(row)) == 10


def test_casia_hand_computed_mixed_matrix():
    # At probe view 0, subject s0's BG probes sit on s1's point: every BG
    # cell in that probe row scores 3/4, all other cells 1.0.
    overrides = {("BG", "s0", 0): "s1"}
    report = casia_eval(casia_fixture(SUBJECTS4, overrides))
    bg = report.matrix["BG"]
    assert np.allclose(bg[0][~np.isnan(bg[0])], 0.75)
    assert np.allclose(bg[1:][~np.isnan(bg[1:])], 1.0)
    assert np.isclose(report.probe_view_means["BG"][0], 0.75)
    assert np.isclose(report.condition_means["BG"], (0.75 + 10 * 1.0) / 11)
    assert report.condition_means["NM"] == 1.0 and report.condition_means["CL"] == 1.0


def test_casia_same_view_exclusion_changes_outcome():
    # Probe p sits exactly on its subject's same-view gallery point; the
    # nearest *other-view* gallery row belongs to a different subject. With
    # the same-view pair excluded the probe must be scored wrong.
    rows = []
    for view in (0, 18):
        for session in (1, 2, 3, 4):
            # correct subject's gallery is far away except at the probe's view
            pos = [0.0, 0.0] if view == 0 else [100.0, 0.0]
            rows.append((f"g-right-{view}-{session}", "right", "NM", view, session, pos))
            rows.append((f"g-wrong-{view}-{session}", "wrong", "NM", view, session, [5.0, 0.0]))
    for view in CASIA_VIEWS[2:]:
        for subject, pos in (("right", [200.0, 50.0]), ("wrong", [5.0, 0.0])):
            for session in (1, 2, 3, 4):
                rows.append((f"g-{subject}-{view}-{session}", subject, "NM", view, session, pos))
    for view in CASIA_VIEWS:
        for subject in ("right", "wrong"):
            # benign probes everywhere so the protocol has no gaps
            base = [0.0, 0.0] if (subject == "right" and view == 0) else None
            if base is None:
                base = [200.0, 50.0] if subject == "right" else [5.0, 0.0]
                if subject == "right" and view == 18:
                    base = [100.0, 0.0]
            for session in (5, 6):
                rows.append((f"p-{subject}-{view}-{session}", subject, "NM", view, session, base))
    report = casia_eval(make_set(rows))
    # right@view0 probes: same-view gallery (distance 0) is excluded; among
    # other views the wrong subject at distance 5 beats right at distance 100
    assert report.matrix["NM"][0, 1] == 0.5  # right fails, wrong succeeds


def test_casia_missing_gallery_view_lists_gap():
    emb = casia_fixture(SUBJECTS4)
    mask = ~((np.array([c.value for c in emb.conditions]) == "NM")
             & (emb.sessions <= 4) & (emb.views == 36))
    with pytest.raises(ProtocolError, match="view 36"):
        casia_eval(emb.select(mask))


def test_casia_report_serializes():
    report = casia_eval(casia_fixture(SUBJECTS4, conditions=("NM",)))
    d = report.to_dict()
    assert d["protocol"] == "casia"
    assert len(d["matrix"]["NM"]) == 11
    assert d["matrix"]["NM"][0][0] is None
    text = report.render()
    assert "probe" in text and "condition mean" in text


# ---------------------------------------------------------------------------
# rank table protocol
# ---------------------------------------------------------------------------

def test_metrics_are_pure_functions():
    emb = casia_fixture(SUBJECTS4, {("BG", "s0", 0): "s1"})
    r1 = casia_eval(emb)
    r2 = casia_eval(emb)
    for cond in r1.conditions:
        a, b = r1.matrix[cond], r2.matrix[cond]
        assert np.array_equal(a[~np.isnan(a)], b[~np.isnan(b)])
        assert np.array_equal(r1.probe_view_means[cond], r2.probe_view_means[cond])
    assert r1.condition_means == r2.condition_means


def test_grew_eval_four_ranks_monotone():
    rng = np.random.default_rng(13)
    gallery = simple_set({f"s{i}": rng.normal(size=4) for i in range(25)})
    probe = make_set([
        (f"p{i}", f"s{i % 25}", "NM", 0, 1, rng.normal(size=4)) for i in range(30)
    ])
    report = grew_eval(gallery, probe)
    ks = sorted(report.rank_table)
    assert ks == [1, 5, 10, 20]
    vals = [report.rank_table[k] for k in ks]
    assert vals == sorted(vals)
    assert grew_eval(gallery, probe, ks=[25]).rank_table[25] == 1.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def test_welch_identical_samples():
    res = welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert res.t == 0.0 and res.p == 1.0


def test_welch_separated_samples_significant():
    res = welch_t_test([1.0, 2.0, 3.0], [11.0, 12.0, 13.0])
    assert res.p < 0.05


def test_welch_matches_scipy_on_random_fixtures():
    rng = np.random.default_rng(21)
    for _ in range(100):
        x = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(2, 30))
        y = rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3), size=rng.integers(2, 30))
        ours = welch_t_test(x, y)
        ref = scipy.stats.ttest_ind(x, y, equal_var=False)
        assert abs(ours.t - ref.statistic) < 1e-6
        assert abs(ours.p - ref.pvalue) < 1e-6
        assert abs(ours.df - ref.df) < 1e-6


_NO_SCIPY_UNTIL_ASKED = r"""
import io, json, sys
import numpy as np
from gaitpt import evaluation, model, numcore, synthgait, training
m = model.GaitPTModel(model.GaitPTConfig(dims=(8, 16, 32, 64), blocks=1, heads=2,
                                         sequence_length=20, output_dim=32), seed=0)
m.embed_arrays(np.random.default_rng(0).uniform(size=(3, 20, 18, 2)).astype(np.float32))
splits = synthgait.generate_split_sequences(synthgait.SynthConfig(identities=4, frames=40, seed=0))
seqs = [s for part in splits.values() for s in part]
cfg = training.TrainConfig(p=2, k=2, micro_batch=2, epochs=1, steps_per_epoch=1)
training.train(m, seqs, cfg, log_stream=io.StringIO())
loaded = "scipy" in sys.modules
gelu = numcore.gelu(numcore.Tensor(np.linspace(-6.0, 6.0, 101))).data
welch = evaluation.welch_t_test([1.0, 2.0, 4.0], [2.5, 3.0, 7.0, 8.0])
print(json.dumps([loaded, gelu.tobytes().hex(), list(welch)]))
"""


def test_only_float64_gelu_and_welch_import_scipy():
    """A float32 embedding and a training step leave scipy unloaded in a
    fresh process; float64 GELU and the Welch test then load it and give
    the values of scipy's formulas."""
    src = Path(__import__("gaitpt").__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY_UNTIL_ASKED], env={"PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=300).stdout
    loaded, gelu, welch = json.loads(out)
    assert loaded is False
    x = np.linspace(-6.0, 6.0, 101)
    assert bytes.fromhex(gelu) == (x * (0.5 * (1.0 + scipy.special.erf(x / np.sqrt(2.0))))).tobytes()
    t, df, p = welch_t_test([1.0, 2.0, 4.0], [2.5, 3.0, 7.0, 8.0])
    assert welch == [t, df, p] and p == 2.0 * scipy.special.stdtr(df, -abs(t))


def test_welch_antisymmetric_in_t():
    rng = np.random.default_rng(22)
    x, y = rng.normal(size=10), rng.normal(1.0, 2.0, size=14)
    ab = welch_t_test(x, y)
    ba = welch_t_test(y, x)
    assert np.isclose(ab.t, -ba.t) and np.isclose(ab.p, ba.p) and np.isclose(ab.df, ba.df)


def test_welch_degenerate_samples_rejected():
    with pytest.raises(StatisticsError):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(StatisticsError):
        welch_t_test([2.0, 2.0], [3.0, 3.0])


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def small_dataset(seed=31):
    return tiny_splits(identities=4, sequences_per_identity=4, frames=30,
                       views=(90,), seed=seed)


def test_ablation_smoke_and_determinism():
    ds = small_dataset()
    cfg = tiny_config()
    tcfg = fast_train_config(epochs=1)
    kwargs = dict(runs=2, seed=17, model_config=cfg, train_config=tcfg)
    res1 = ablation_run(ds, [(4,), (1, 4)], **kwargs)
    assert res1.labels == ["stages 4", "stages 1+4"]
    assert res1.accuracies.shape == (2, 2)
    assert (0, 1) in res1.p_values and 0.0 <= res1.p_values[(0, 1)] <= 1.0
    res2 = ablation_run(ds, [(4,), (1, 4)], **kwargs)
    assert np.array_equal(res1.accuracies, res2.accuracies)
    assert res1.p_values == res2.p_values


def test_ablation_single_subset_has_no_p_values():
    ds = small_dataset()
    res = ablation_run(ds, [(1, 2, 3, 4)], runs=1, seed=3,
                       model_config=tiny_config(), train_config=fast_train_config(epochs=1))
    assert res.p_values == {} and res.accuracies.shape == (1, 1)
    assert "mean rank-1" in res.render()


def test_ablation_requires_runs_for_t_tests():
    with pytest.raises(ConfigError):
        ablation_run(small_dataset(), [(4,), (1, 4)], runs=1, seed=0,
                     model_config=tiny_config(), train_config=fast_train_config())
    for runs in (True, 2.5):  # not run counts
        with pytest.raises(ConfigError, match="runs must be an integer"):
            ablation_run(small_dataset(), [(4,)], runs=runs, seed=0,
                         model_config=tiny_config(), train_config=fast_train_config(epochs=1))


def test_partition_study_covers_all_schemes():
    ds = small_dataset()
    res = partition_study(ds, runs=2, seed=5, model_config=tiny_config(),
                          train_config=fast_train_config(epochs=1),
                          schemes=(PartitionScheme.HUL, PartitionScheme.ALL))
    assert res.labels == ["HUL", "ALL"]
    assert res.accuracies.shape == (2, 2)
