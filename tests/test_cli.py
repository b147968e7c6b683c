"""Command-line surface: exit codes, reproducible output, and the
synth -> train -> embed -> eval pipeline."""

import filecmp
import json

import numpy as np
import pytest

from gaitpt import dataio
from gaitpt.cli import main
from gaitpt.evaluation import CASIA_VIEWS
from gaitpt.model import GaitPTModel
from gaitpt.skeleton import Condition
from gaitpt.synthgait import generate_sequence, sample_identity

from conftest import tiny_config


TINY_RUN_CONFIG = {
    "model": {"dims": [8, 16, 32, 64], "blocks": 1, "heads": 2,
              "sequence_length": 16, "output_dim": 16},
    "train": {"p": 3, "k": 2, "epochs": 1, "micro_batch": 6},
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synth dataset + config + trained checkpoint shared by the tests."""
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(TINY_RUN_CONFIG))
    rc = main(["synth", "--out", str(root / "ds"), "--identities", "5",
               "--seqs-per-id", "4", "--frames", "24", "--views", "0,90",
               "--seed", "3"])
    assert rc == 0
    rc = main(["train", "--data", str(root / "ds" / "manifest.json"),
               "--config", str(cfg_path), "--out", str(root / "model.ckpt"),
               "--seed", "5"])
    assert rc == 0
    return root


def test_synth_produces_loadable_manifest(workdir):
    splits = dataio.load_split_sequences(workdir / "ds" / "manifest.json")
    assert splits["train"] and splits["gallery"] and splits["probe"]


def test_synth_is_reproducible(tmp_path, capsys):
    outputs = []
    for sub in ("a", "b"):
        rc = main(["synth", "--out", str(tmp_path / sub), "--identities", "3",
                   "--seqs-per-id", "4", "--frames", "8", "--views", "0",
                   "--seed", "11"])
        assert rc == 0
        outputs.append(capsys.readouterr().out.replace(str(tmp_path / sub), "<out>"))
    assert outputs[0] == outputs[1]  # stdout reproducible modulo the path
    cmp = filecmp.dircmp(tmp_path / "a", tmp_path / "b")
    assert not cmp.diff_files
    for name in ("manifest.json", "train.jsonl", "gallery.jsonl", "probe.jsonl"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_synth_rejects_zero_identities(tmp_path):
    assert main(["synth", "--out", str(tmp_path / "x"), "--identities", "0"]) == 2


def test_synth_rejects_unknown_condition(tmp_path, capsys):
    assert main(["synth", "--out", str(tmp_path / "x"), "--conditions", "NM,XX"]) == 2
    assert "'XX'" in capsys.readouterr().err


def test_unknown_flag_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--out", str(tmp_path / "y"), "--bogus", "1"])
    assert exc.value.code == 2


def test_train_stage_subset_and_scheme(workdir, tmp_path, capsys):
    rc = main(["train", "--data", str(workdir / "ds" / "manifest.json"),
               "--config", str(workdir / "cfg.json"), "--out", str(tmp_path / "s4.ckpt"),
               "--stages", "4", "--scheme", "OPPOSITE", "--seed", "1"])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.startswith("{")]
    entry = json.loads(lines[0])
    assert {"epoch", "lr", "mean_loss", "active_triplets"} <= set(entry)
    model = dataio.load_checkpoint(tmp_path / "s4.ckpt")
    assert model.config.active_stages == (4,)
    assert model.config.scheme.value == "OPPOSITE"
    assert not any(".spatial." in n for n in model.params)


def test_train_checkpoint_dir_writes_one_file_per_epoch(workdir, tmp_path):
    ckpts = tmp_path / "ckpts"
    ckpts.mkdir()
    rc = main(["train", "--data", str(workdir / "ds" / "manifest.json"),
               "--config", str(workdir / "cfg.json"), "--out", str(tmp_path / "final.ckpt"),
               "--epochs", "3", "--checkpoint-dir", str(ckpts), "--seed", "2"])
    assert rc == 0
    names = sorted(p.name for p in ckpts.iterdir())
    assert names == ["epoch000.ckpt", "epoch001.ckpt", "epoch002.ckpt"]
    for name in names:
        dataio.load_checkpoint(ckpts / name)
    assert (ckpts / names[-1]).read_bytes() == (tmp_path / "final.ckpt").read_bytes()


def test_embed_checkpoint_without_crc_exits_3(workdir, tmp_path, capsys):
    header_line, _, payload = (workdir / "model.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header_line)
    del header["crc32"]
    ckpt = tmp_path / "no_crc.ckpt"
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    rc = main(["embed", "--data", str(workdir / "ds" / "probe.jsonl"), "--ckpt", str(ckpt),
               "--out", str(tmp_path / "emb.jsonl")])
    assert rc == 3
    assert "crc32" in capsys.readouterr().err


def test_embed_checkpoint_with_malformed_param_table_exits_3(workdir, tmp_path, capsys):
    header_line, _, payload = (workdir / "model.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["params"] = 5
    ckpt = tmp_path / "bad_params.ckpt"
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    rc = main(["embed", "--data", str(workdir / "ds" / "probe.jsonl"), "--ckpt", str(ckpt),
               "--out", str(tmp_path / "emb.jsonl")])
    assert rc == 3
    assert "'params'" in capsys.readouterr().err


def test_embed_checkpoint_with_a_bool_head_count_exits_3(workdir, tmp_path, capsys):
    header_line, _, payload = (workdir / "model.ckpt").read_bytes().partition(b"\n")
    header = json.loads(header_line)
    header["model_config"]["heads"] = True
    ckpt = tmp_path / "bool_heads.ckpt"
    ckpt.write_bytes(json.dumps(header).encode() + b"\n" + payload)
    rc = main(["embed", "--data", str(workdir / "ds" / "probe.jsonl"), "--ckpt", str(ckpt),
               "--out", str(tmp_path / "emb.jsonl")])
    assert rc == 3
    assert "heads must be an integer >= 1, got True" in capsys.readouterr().err


def test_train_config_with_two_block_counts_exits_2(workdir, tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"model": {**TINY_RUN_CONFIG["model"], "blocks": [1, 2]}}))
    rc = main(["train", "--data", str(workdir / "ds" / "manifest.json"),
               "--config", str(cfg_path), "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2
    assert "blocks takes one integer or four" in capsys.readouterr().err


@pytest.mark.parametrize("section, key, value, message", [
    ("train", "margin", float("nan"), "margin must be > 0, got nan"),
    ("model", "spatial_positional", "false", "unknown config key: model.spatial_positional"),
])
def test_train_config_with_bad_value_exits_2(workdir, tmp_path, capsys, section, key, value, message):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({section: {**TINY_RUN_CONFIG[section], key: value}}))
    rc = main(["train", "--data", str(workdir / "ds" / "manifest.json"),
               "--config", str(cfg_path), "--out", str(tmp_path / "m.ckpt")])
    assert rc == 2
    assert message in capsys.readouterr().err


def test_train_default_uses_all_stages(workdir):
    model = dataio.load_checkpoint(workdir / "model.ckpt")
    assert model.config.active_stages == (1, 2, 3, 4)


def test_eval_rankk_emits_requested_rows(workdir, capsys):
    rc = main(["eval", "--gallery", str(workdir / "ds" / "gallery.jsonl"),
               "--probe", str(workdir / "ds" / "probe.jsonl"),
               "--ckpt", str(workdir / "model.ckpt"),
               "--protocol", "rankk", "--ks", "1,5,10,20"])
    assert rc == 0
    out = capsys.readouterr().out
    assert [line.split()[0] for line in out.strip().splitlines()] == [
        "rank-1", "rank-5", "rank-10", "rank-20"
    ]


def test_eval_json_output(workdir, capsys):
    rc = main(["eval", "--gallery", str(workdir / "ds" / "gallery.jsonl"),
               "--probe", str(workdir / "ds" / "probe.jsonl"),
               "--ckpt", str(workdir / "model.ckpt"),
               "--protocol", "rankk", "--ks", "1,2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["rank_table"]) == {"1", "2"}


def test_eval_missing_checkpoint_exits_2(workdir):
    rc = main(["eval", "--gallery", str(workdir / "ds" / "gallery.jsonl"),
               "--probe", str(workdir / "ds" / "probe.jsonl"),
               "--ckpt", str(workdir / "nonexistent.ckpt")])
    assert rc == 2


def test_embed_writes_readable_embeddings(workdir, tmp_path, capsys):
    out = tmp_path / "emb.jsonl"
    rc = main(["embed", "--data", str(workdir / "ds" / "probe.jsonl"),
               "--ckpt", str(workdir / "model.ckpt"), "--out", str(out)])
    assert rc == 0
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    probe = dataio.read_records(workdir / "ds" / "probe.jsonl")
    assert [row["key"] for row in rows] == [rec.key for rec in probe]
    for row in rows:
        vector = np.array(row["embedding"])
        assert vector.shape == (16,) and abs(np.linalg.norm(vector) - 1.0) < 1e-5


def test_embed_row_does_not_depend_on_the_other_records(workdir, tmp_path):
    probe = workdir / "ds" / "probe.jsonl"
    lines = probe.read_text().splitlines(keepends=True)
    ckpt = str(workdir / "model.ckpt")
    assert main(["embed", "--data", str(probe), "--ckpt", ckpt, "--out", str(tmp_path / "all.jsonl")]) == 0
    rows = (tmp_path / "all.jsonl").read_text().splitlines(keepends=True)
    assert len(rows) == len(lines) > 1
    for i, line in enumerate(lines):
        (tmp_path / "one.jsonl").write_text(line)
        assert main(["embed", "--data", str(tmp_path / "one.jsonl"), "--ckpt", ckpt,
                     "--out", str(tmp_path / "row.jsonl")]) == 0
        assert (tmp_path / "row.jsonl").read_text() == rows[i], f"probe line {i + 1}"


def test_embed_keeps_a_repeated_key_apart_from_a_stored_one(workdir, tmp_path):
    line = json.loads((workdir / "ds" / "probe.jsonl").read_text().splitlines()[0])
    data = tmp_path / "repeats.jsonl"
    data.write_text("".join(json.dumps({**line, "key": key}) + "\n" for key in ("k", "k#2", "k")))
    out = tmp_path / "emb.jsonl"
    assert main(["embed", "--data", str(data), "--ckpt", str(workdir / "model.ckpt"), "--out", str(out)]) == 0
    assert [json.loads(row)["key"] for row in out.read_text().splitlines()] == ["k", "k#2", "k#3"]


@pytest.mark.parametrize("argv", [
    ["embed", "--data", "{empty}", "--out", "{tmp}/emb.jsonl"],
    ["eval", "--gallery", "{empty}", "--probe", "{probe}"],
    ["eval", "--gallery", "{gallery}", "--probe", "{empty}"],
    ["eval", "--gallery", "{gallery}", "--probe", "{empty}", "--protocol", "casia"],
], ids=["embed", "eval-gallery", "eval-probe", "eval-casia-probe"])
def test_empty_record_file_exits_3_naming_it(workdir, tmp_path, capsys, argv):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    assert dataio.read_sequences(empty) == []  # an empty file is still a valid record file
    names = {"empty": empty, "tmp": tmp_path,
             "gallery": workdir / "ds" / "gallery.jsonl", "probe": workdir / "ds" / "probe.jsonl"}
    rc = main([arg.format(**names) for arg in argv] + ["--ckpt", str(workdir / "model.ckpt")])
    assert rc == 3
    assert f"{empty}: no sequence records" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["frames", "frame_width"])
def test_embed_rejects_non_finite_record_by_line(workdir, tmp_path, capsys, field):
    rows = (workdir / "ds" / "probe.jsonl").read_text().splitlines()
    bad = json.loads(rows[1])
    if field == "frames":
        bad["frames"][0][3][1] = float("nan")
    else:
        bad["frame_width"] = float("nan")
    rows[1] = json.dumps(bad)
    data = tmp_path / "nan.jsonl"
    data.write_text("\n".join(rows) + "\n")
    rc = main(["embed", "--data", str(data), "--ckpt", str(workdir / "model.ckpt"),
               "--out", str(tmp_path / "emb.jsonl")])
    assert rc == 3
    assert "line 2" in capsys.readouterr().err


def test_casia_protocol_on_eleven_view_fixture(tmp_path, capsys):
    # records covering NM#1-6 + BG#1-2 + CL#1-2 at all 11 angles
    rng = np.random.default_rng(0)
    walkers = [sample_identity(np.random.default_rng(i), noise_level=0.01) for i in range(2)]
    records = []
    for i, w in enumerate(walkers):
        for view in CASIA_VIEWS:
            for cond, sessions in (("NM", range(1, 7)), ("BG", (1, 2)), ("CL", (1, 2))):
                for session in sessions:
                    seq = generate_sequence(
                        w, view, Condition(cond), 18,
                        np.random.default_rng(int(rng.integers(1 << 30))),
                        subject_id=f"s{i}", session=session,
                        key=f"s{i}-{cond}-{view:03d}-{session}",
                    )
                    records.append(dataio.sequence_to_record(seq))
    data = tmp_path / "casia.jsonl"
    dataio.write_records(records, data)

    model = GaitPTModel(tiny_config(sequence_length=16, output_dim=16), seed=0)
    ckpt = tmp_path / "m.ckpt"
    dataio.save_checkpoint(model, ckpt)

    rc = main(["eval", "--gallery", str(data), "--probe", str(data),
               "--ckpt", str(ckpt), "--protocol", "casia", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["views"] == list(CASIA_VIEWS)
    for cond in ("NM", "BG", "CL"):
        assert len(payload["matrix"][cond]) == 11
        assert all(len(row) == 11 for row in payload["matrix"][cond])
        assert len(payload["probe_view_means"][cond]) == 11


def test_casia_protocol_gap_exits_3(workdir):
    # two-view synth data cannot satisfy the 11-view protocol
    rc = main(["eval", "--gallery", str(workdir / "ds" / "gallery.jsonl"),
               "--probe", str(workdir / "ds" / "probe.jsonl"),
               "--ckpt", str(workdir / "model.ckpt"), "--protocol", "casia"])
    assert rc == 3


def test_gradcheck_pass_and_forced_failure(capsys):
    assert main(["gradcheck", "--tol", "1e-4", "--seed", "0"]) == 0
    out = capsys.readouterr().out
    assert "multi_head_attention" in out and "model/params" in out
    assert main(["gradcheck", "--tol", "0", "--seed", "0"]) == 1


def test_ablate_smoke(workdir, capsys):
    rc = main(["ablate", "--data", str(workdir / "ds" / "manifest.json"),
               "--config", str(workdir / "cfg.json"), "--subsets", "4|1,4",
               "--runs", "2", "--seed", "2", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["labels"] == ["stages 4", "stages 1+4"]
    assert len(payload["accuracies"][0]) == 2
    assert len(payload["p_values"]) == 1


def test_ablate_rejects_single_run_with_pairs(workdir):
    rc = main(["ablate", "--data", str(workdir / "ds" / "manifest.json"),
               "--config", str(workdir / "cfg.json"), "--subsets", "4|1,4",
               "--runs", "1"])
    assert rc == 2


def test_partition_study_smoke(workdir, capsys):
    rc = main(["partition-study", "--data", str(workdir / "ds" / "manifest.json"),
               "--config", str(workdir / "cfg.json"), "--runs", "2",
               "--schemes", "HUL,OPPOSITE", "--seed", "4", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["labels"] == ["HUL", "OPPOSITE"]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
def test_gradcheck_with_a_meaningless_tolerance_exits_2(capsys, tol):
    assert main(["gradcheck", f"--tol={tol}", "--seed", "0"]) == 2
    assert "tol must be finite and >= 0" in capsys.readouterr().err
