import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gcmae
from gcmae.cli import main
from gcmae.graph import load_dataset

FAST = ["--set", "epochs=4", "--set", "d_hidden=8", "--set", "d_proj=8",
        "--set", "block_size=16", "--set", "probe_every=0"]
PROBED = [*FAST, "--set", "probe_every=1"]


@pytest.fixture()
def dataset_file(tmp_path):
    path = str(tmp_path / "sbm.txt")
    code = main(["generate", "--blocks", "2", "--per-block", "15", "--p-in", "0.3",
                 "--p-out", "0.05", "--feature-dim", "6", "--seed", "3",
                 "--out", path])
    assert code == 0
    return path


@pytest.fixture()
def probe_calls(monkeypatch):
    """Counts the similarity probes that train() runs."""
    import gcmae.training as training
    calls = []
    original = training.similarity_probe

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(training, "similarity_probe", counted)
    return calls


def train_once(tmp_path, dataset_file, prefix="run", extra=()):
    out = str(tmp_path / prefix)
    code = main(["train", "--dataset", dataset_file, "--out-prefix", out,
                 *FAST, *extra])
    return code, out


class TestGenerate:
    def test_writes_parseable_dataset(self, tmp_path, capsys):
        path = str(tmp_path / "g.txt")
        code = main(["generate", "--blocks", "3", "--per-block", "100",
                     "--p-in", "0.1", "--p-out", "0.01", "--seed", "7",
                     "--out", path])
        assert code == 0
        assert "nodes=300" in capsys.readouterr().out
        ds = load_dataset(path)
        assert ds.num_nodes == 300
        assert ds.num_classes == 3

    def test_zero_probabilities_zero_edges(self, tmp_path):
        path = str(tmp_path / "g.txt")
        assert main(["generate", "--blocks", "2", "--per-block", "5",
                     "--p-in", "0", "--p-out", "0", "--out", path]) == 0
        assert load_dataset(path).graph.num_arcs == 0

    def test_missing_required_flag_usage_error(self, tmp_path):
        assert main(["generate", "--blocks", "2"]) == 1


class TestTrain:
    def test_writes_artifacts(self, tmp_path, dataset_file):
        code, out = train_once(tmp_path, dataset_file)
        assert code == 0
        trace = (tmp_path / "run.trace.tsv").read_text()
        assert len(trace.splitlines()) == 4
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["command"] == "train"
        assert any(p.endswith(".ckpt") for p in manifest["outputs"])
        assert manifest["dataset_sha256"]

    def test_bitwise_reproducible(self, tmp_path, dataset_file):
        _, out1 = train_once(tmp_path, dataset_file, "a")
        _, out2 = train_once(tmp_path, dataset_file, "b")
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert (tmp_path / "a.trace.tsv").read_bytes() == (tmp_path / "b.trace.tsv").read_bytes()

    def test_mode_weight_conflict_is_usage_error(self, tmp_path, dataset_file):
        code, _ = train_once(tmp_path, dataset_file,
                             extra=["--set", "encoder_mode=mae_only", "--set", "alpha=0.5"])
        assert code == 1

    def test_unknown_config_key_is_usage_error(self, tmp_path, dataset_file):
        code, _ = train_once(tmp_path, dataset_file, extra=["--set", "alpa=0.5"])
        assert code == 1

    def test_missing_dataset_is_data_error(self, tmp_path):
        code = main(["train", "--dataset", str(tmp_path / "nope.txt"), *FAST])
        assert code == 2

    def test_config_file_plus_overrides(self, tmp_path, dataset_file):
        cfg_path = tmp_path / "cfg.txt"
        cfg_path.write_text("epochs=3\nd_hidden=8\nd_proj=8\nblock_size=16\nprobe_every=0\n")
        out = str(tmp_path / "cfgrun")
        code = main(["train", "--dataset", dataset_file, "--config", str(cfg_path),
                     "--set", "epochs=2", "--out-prefix", out])
        assert code == 0
        assert len((tmp_path / "cfgrun.trace.tsv").read_text().splitlines()) == 2


# A valid four-node dataset; each malformed case swaps one token for a word
# or for a non-finite feature value.
VALID_DATASET = """NODES 4 2
0: 1.0 0.0
1: 0.9 0.1
2: 0.0 1.0
3: 0.1 0.9
EDGES 2
0 1
2 3
UNDIRECTED
LABELS
0 0
1 0
2 1
3 1
"""


class TestMalformedDataset:
    @pytest.mark.parametrize("good,bad", [
        ("1: 0.9 0.1\n", "1: 0.9 x\n"),   # feature value
        ("EDGES 2\n", "EDGES two\n"),     # edge count
        ("2 3\n", "2 y\n"),               # edge endpoint
        ("3 1\n", "3 z\n"),               # label
        ("1: 0.9 0.1\n", "1: 0.9 nan\n"),  # non-finite feature value
        ("1: 0.9 0.1\n", "1: inf 0.1\n"),
        ("1: 0.9 0.1\n", "1: 0.9 1e39\n"),  # overflows float32
    ], ids=["feature-value", "edge-count", "edge-endpoint", "label", "feature-nan",
            "feature-inf", "feature-overflow"])
    def test_non_numeric_token_is_data_error(self, tmp_path, capsys, good, bad):
        assert good in VALID_DATASET
        path = tmp_path / "bad.txt"
        path.write_text(VALID_DATASET.replace(good, bad))
        code = main(["train", "--dataset", str(path), *FAST,
                     "--out-prefix", str(tmp_path / "bad")])
        err = capsys.readouterr().err
        assert code == 2
        assert len(err.strip().splitlines()) == 1, err
        assert err.startswith("data error: ")


class TestBlasThreadDeterminism:
    def test_checkpoint_and_trace_independent_of_blas_threads(self, tmp_path):
        """At the default d_hidden of 512 OpenBLAS runs its products on both
        threads: user time was 1.7x wall time at 2 threads on a 2-core machine."""
        data = str(tmp_path / "sbm.txt")
        assert main(["generate", "--blocks", "3", "--per-block", "100", "--p-in", "0.1",
                     "--p-out", "0.01", "--feature-dim", "16", "--seed", "0",
                     "--out", data]) == 0
        src = str(Path(gcmae.__file__).resolve().parents[1])
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            prefix = tmp_path / f"t{threads}"
            subprocess.run([sys.executable, "-m", "gcmae.cli", "train", "--dataset", data,
                            "--set", "epochs=20", "--set", "probe_every=10",
                            "--out-prefix", str(prefix)],
                           env=env, check=True, capture_output=True)
            digests.append([hashlib.sha256(Path(f"{prefix}{ext}").read_bytes()).hexdigest()
                            for ext in (".ckpt", ".trace.tsv")])
        assert digests[0] == digests[1]


class TestEval:
    def test_cluster_metrics_schema(self, tmp_path, dataset_file):
        _, out = train_once(tmp_path, dataset_file)
        metrics_path = str(tmp_path / "metrics.json")
        code = main(["eval", "--checkpoint", out + ".ckpt", "--dataset", dataset_file,
                     *FAST, "--task", "cluster", "--seeds", "0,1,2",
                     "--out", metrics_path])
        assert code == 0
        result = json.loads((tmp_path / "metrics.json").read_text())
        assert result["task"] == "cluster"
        assert len(result["per_seed"]) == 3
        for row in result["per_seed"]:
            assert 0.0 <= row["nmi"] <= 1.0
            assert -1.0 <= row["ari"] <= 1.0
        vals = [r["nmi"] for r in result["per_seed"]]
        assert result["aggregate"]["nmi"]["mean"] == pytest.approx(np.mean(vals))
        assert result["aggregate"]["nmi"]["std"] == pytest.approx(np.std(vals))

    def test_classify_and_probe_tasks(self, tmp_path, dataset_file):
        _, out = train_once(tmp_path, dataset_file)
        for task in ("classify", "probe"):
            path = str(tmp_path / f"{task}.json")
            code = main(["eval", "--checkpoint", out + ".ckpt", "--dataset",
                         dataset_file, *FAST, "--task", task, "--seeds", "0,1",
                         "--khop", "2", "--out", path])
            assert code == 0
            result = json.loads((tmp_path / f"{task}.json").read_text())
            assert len(result["per_seed"]) == 2

    def test_linkpred_task(self, tmp_path, dataset_file):
        _, out = train_once(tmp_path, dataset_file)
        path = str(tmp_path / "lp.json")
        code = main(["eval", "--checkpoint", out + ".ckpt", "--dataset", dataset_file,
                     *FAST, "--task", "linkpred", "--seeds", "0", "--out", path])
        assert code == 0
        row = json.loads((tmp_path / "lp.json").read_text())["per_seed"][0]
        assert 0.0 <= row["auc"] <= 1.0 and 0.0 <= row["ap"] <= 1.0

    def test_linkpred_retrain_runs_no_probe(self, tmp_path, dataset_file, probe_calls):
        """The retrain's trace is discarded, so its probe would be wasted work."""
        out = str(tmp_path / "probed")
        assert main(["train", "--dataset", dataset_file, "--out-prefix", out,
                     *PROBED]) == 0
        assert len(probe_calls) == 4  # the counter sees train()'s probes
        probe_calls.clear()
        code = main(["eval", "--checkpoint", out + ".ckpt", "--dataset", dataset_file,
                     *PROBED, "--task", "linkpred", "--seeds", "0,1",
                     "--out", str(tmp_path / "lp.json")])
        assert code == 0
        assert probe_calls == []

    def test_pca_csv(self, tmp_path, dataset_file):
        _, out = train_once(tmp_path, dataset_file)
        path = str(tmp_path / "pca.json")
        code = main(["eval", "--checkpoint", out + ".ckpt", "--dataset", dataset_file,
                     *FAST, "--task", "pca", "--seeds", "0", "--out", path])
        assert code == 0
        lines = (tmp_path / "pca.csv").read_text().splitlines()
        assert lines[0] == "node,x,y,label"
        assert len(lines) == 31

    def test_config_hash_mismatch_is_data_error(self, tmp_path, dataset_file):
        _, out = train_once(tmp_path, dataset_file)
        code = main(["eval", "--checkpoint", out + ".ckpt", "--dataset", dataset_file,
                     *FAST, "--set", "seed=99", "--task", "cluster", "--seeds", "0",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2

    def test_unlabeled_classify_is_data_error(self, tmp_path):
        from gcmae.graph import Dataset, SparseGraph, save_dataset
        import numpy as np
        g = SparseGraph.from_edges(6, [(i, i + 1) for i in range(5)])
        ds = Dataset(g, np.random.default_rng(0).normal(size=(6, 3)).astype(np.float32))
        data_path = str(tmp_path / "nolabel.txt")
        save_dataset(ds, data_path)
        code, out = train_once(tmp_path, data_path, "nl")
        assert code == 0
        code = main(["eval", "--checkpoint", out + ".ckpt", "--dataset", data_path,
                     *FAST, "--task", "classify", "--seeds", "0",
                     "--out", str(tmp_path / "m.json")])
        assert code == 2


class TestAblate:
    def test_table_rows_and_hash(self, tmp_path, dataset_file):
        table_path = str(tmp_path / "table.tsv")
        code = main(["ablate", "--dataset", dataset_file, *FAST,
                     "--seeds", "0", "--out", table_path])
        assert code == 0
        lines = (tmp_path / "table.tsv").read_text().splitlines()
        assert len(lines) == 8  # header + 7 variants
        rows = {ln.split("\t")[0]: ln.split("\t") for ln in lines[1:]}
        assert set(rows) == {"full", "no_contrastive", "no_structure", "no_variance",
                             "mae_only", "contrastive_only", "fusion"}
        from gcmae.config import TrainConfig, config_hash, parse_config, apply_overrides
        base = apply_overrides(TrainConfig(), [f.split("=")[0] + "=" + f.split("=")[1]
                                               for f in [p for p in FAST if "=" in p]])
        assert rows["full"][1] == config_hash(base)

    def test_retrains_run_no_probe(self, tmp_path, dataset_file, probe_calls):
        code = main(["ablate", "--dataset", dataset_file, *PROBED,
                     "--seeds", "0", "--out", str(tmp_path / "table.tsv")])
        assert code == 0
        assert probe_calls == []
