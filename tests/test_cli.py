"""Command-line interface: subcommands, overrides, and error reporting."""
import errno
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import longtail_lab
from longtail_lab import config_from_dict, experiment, load_embeddings, load_model
from longtail_lab.cli import build_parser, main
from longtail_lab.experiment import load_manifest
from longtail_lab.model import METHODS


def write_config(path, out_dir, methods=("baseline", "sqrt_samp")):
    doc = {
        "seed": 5,
        "output_dir": str(out_dir),
        "methods": list(methods),
        "dataset": {
            "synthetic": {"num_classes": 4, "feature_dim": 6, "head_count": 60,
                          "imbalance_factor": 12.0, "class_separation": 4.0,
                          "noise_sigma": 1.0, "seed": 3},
            "eval": {"mode": "fresh", "per_class": 25},
        },
        "stage1": {"epochs": 5, "warmup_epochs": 1},
        "stage2": {"epochs": 3, "warmup_epochs": 1},
    }
    path.write_text(yaml.safe_dump(doc))
    return path


class TestGen:
    def test_writes_loadable_embedding_file(self, tmp_path, capsys):
        out = tmp_path / "data.txt"
        code = main(["gen", "--out", str(out), "--classes", "3", "--dim", "4",
                     "--head-count", "40", "--imbalance", "8", "--separation", "3.5",
                     "--noise", "1.0", "--data-seed", "2"])
        assert code == 0
        ds = load_embeddings(str(out))
        assert ds.num_classes == 3 and ds.feature_dim == 4
        assert "wrote" in capsys.readouterr().out

    # sha256 of gen's output per mix of flags and config file; keys that
    # neither supplies fall back to the default config document.
    @pytest.mark.parametrize("config, flags, digest", [
        (None, ["--classes", "3", "--dim", "4", "--head-count", "40", "--imbalance", "8",
                "--separation", "3.5", "--noise", "1.0", "--data-seed", "2"],
         "836806e3416a0ace5ce2d95743a32cf528b9eee9227027fcec1f08c5556bdfff"),
        ("seed: 4\ndataset:\n  synthetic: {num_classes: 5, head_count: 50}\n",
         ["--dim", "3", "--imbalance", "10"],
         "17d70899ca685bafcd3a650b184bfa5f0258e85855b867f670783c64576c90ce"),
        ("seed: 0\n", [],
         "c957f38e10a616c80643d62638d4e383c58657ffc7866760f92a0606d6fc5858"),
        (None, [], "c957f38e10a616c80643d62638d4e383c58657ffc7866760f92a0606d6fc5858"),
    ], ids=["all_flags", "partial_config", "config_without_dataset", "no_config"])
    def test_writes_pinned_bytes(self, tmp_path, config, flags, digest):
        out = tmp_path / "data.txt"
        argv = ["gen", "--out", str(out)] + flags
        if config is not None:
            (tmp_path / "cfg.yaml").write_text(config)
            argv += ["--config", str(tmp_path / "cfg.yaml")]
        assert main(argv) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("eval_mode", ["split", "fresh"])
    def test_writes_the_rows_compare_trains_on(self, tmp_path, monkeypatch, eval_mode):
        config = tmp_path / "cfg.yaml"
        config.write_text(yaml.safe_dump({
            "seed": 4, "output_dir": str(tmp_path / "run"), "methods": ["baseline"],
            "dataset": {"synthetic": {"num_classes": 5, "head_count": 50, "imbalance_factor": 10},
                        "eval": {"mode": eval_mode}},
            "stage1": {"epochs": 1, "warmup_epochs": 0}}))
        drawn = []
        generate = experiment.generate_synthetic
        monkeypatch.setattr(experiment, "generate_synthetic",
                            lambda *args, **kwargs: drawn.append(generate(*args, **kwargs))
                            or drawn[-1])
        assert main(["gen", "--out", str(tmp_path / "data.txt"), "--config", str(config)]) == 0
        assert drawn == []
        assert main(["compare", "--config", str(config)]) == 0
        written = load_embeddings(str(tmp_path / "data.txt"))
        assert np.array_equal(written.features, drawn[0].features)
        assert np.array_equal(written.labels, drawn[0].labels)
        assert written.class_names == drawn[0].class_names


    def test_unknown_synthetic_key_rejected(self, tmp_path, capsys):
        (tmp_path / "cfg.yaml").write_text("dataset:\n  synthetic: {num_clases: 3}\n")
        code = main(["gen", "--out", str(tmp_path / "data.txt"),
                     "--config", str(tmp_path / "cfg.yaml")])
        assert code == 1
        err = capsys.readouterr().err
        assert "dataset.synthetic" in err and "num_clases" in err
        assert not (tmp_path / "data.txt").exists()


    @pytest.mark.parametrize("config, key", [
        ("seed: abc\n", "seed"),
        ("dataset:\n  synthetic: [1, 2]\n", "synthetic"),
    ], ids=["seed_not_an_integer", "synthetic_not_a_mapping"])
    def test_bad_config_value_names_its_key(self, tmp_path, capsys, config, key):
        (tmp_path / "cfg.yaml").write_text(config)
        code = main(["gen", "--out", str(tmp_path / "data.txt"),
                     "--config", str(tmp_path / "cfg.yaml")])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (tmp_path / "data.txt").exists()


class TestTrain:
    def test_method_choices_are_methods(self):
        parser = build_parser()
        for method in METHODS:
            assert parser.parse_args(["train", "--method", method]).method == method
        with pytest.raises(SystemExit):
            parser.parse_args(["train", "--method", "mystery"])

    def test_single_method_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        code = main(["train", "--config", str(cfg), "--method", "baseline"])
        assert code == 0
        assert (tmp_path / "run" / "checkpoints" / "baseline.ckpt").exists()
        assert "baseline" in capsys.readouterr().out


class TestCompare:
    def test_full_run_prints_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        code = main(["compare", "--config", str(cfg)])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "sqrt_samp" in out
        assert (tmp_path / "run" / "manifest.json").exists()

    def test_set_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        code = main(["compare", "--config", str(cfg), "--methods", "baseline",
                     "--set", "stage1.epochs=2", "--set", "dataset.eval.per_class=10"])
        assert code == 0

    # YAML reads a bare on/off as a boolean; the digest records the word.
    @pytest.mark.parametrize("word, flags", [
        ("off", []),
        ("on", ["--set", "dataset.background_class=class_00"]),
    ], ids=["off", "on"])
    def test_set_background_group_word(self, tmp_path, word, flags):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run", methods=("bags",))
        code = main(["compare", "--config", str(cfg),
                     "--set", f"bags.background_group={word}"] + flags)
        assert code == 0
        doc = yaml.safe_load(cfg.read_text())
        doc["bags"] = {"background_group": word}
        doc["dataset"]["background_class"] = "class_00" if flags else None
        manifest = load_manifest(str(tmp_path / "run" / "manifest.json"))
        assert manifest.config_digest == config_from_dict(doc).digest()
        model = load_model(str(tmp_path / "run" / "checkpoints" / "bags.ckpt"))
        assert ("bags.background" in model.heads) == (word == "on")

    def test_output_dir_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "runA")
        code = main(["compare", "--config", str(cfg), "--methods", "baseline",
                     "--output-dir", str(tmp_path / "runB")])
        assert code == 0
        assert (tmp_path / "runB" / "manifest.json").exists()
        assert not (tmp_path / "runA").exists()

    def test_second_compare_of_an_embedding_file_reads_its_cache(self, tmp_path, monkeypatch):
        assert main(["gen", "--out", str(tmp_path / "emb.txt"), "--classes", "4", "--dim", "3",
                     "--head-count", "60", "--imbalance", "10"]) == 0
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        doc = yaml.safe_load(cfg.read_text())
        doc["dataset"] = {"synthetic": None, "embeddings": str(tmp_path / "emb.txt"),
                          "eval": {"mode": "split"}}
        cfg.write_text(yaml.safe_dump(doc))
        assert main(["compare", "--config", str(cfg), "--output-dir", str(tmp_path / "a")]) == 0
        assert (tmp_path / "emb.txt.ltlab-cache").is_file()

        def parse(lines):
            raise AssertionError("the embedding file was parsed again")
        monkeypatch.setattr(longtail_lab.data, "_parse_embeddings", parse)
        assert main(["compare", "--config", str(cfg), "--output-dir", str(tmp_path / "b")]) == 0
        reports = sorted(p.name for p in (tmp_path / "a" / "reports").iterdir())
        assert reports == sorted(p.name for p in (tmp_path / "b" / "reports").iterdir())
        for name in reports:
            assert ((tmp_path / "a" / "reports" / name).read_bytes()
                    == (tmp_path / "b" / "reports" / name).read_bytes()), name


class TestReport:
    def test_rerender_from_run_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        assert main(["compare", "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main(["report", "--run-dir", str(tmp_path / "run")])
        assert code == 0
        assert "macro_f1" in capsys.readouterr().out

    def test_csv_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        assert main(["compare", "--config", str(cfg)]) == 0
        capsys.readouterr()
        code = main(["report", "--run-dir", str(tmp_path / "run"), "--format", "csv"])
        assert code == 0
        assert capsys.readouterr().out.startswith("method,")

    def test_no_reports_is_error(self, capsys):
        code = main(["report"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_run_dir_ranks_only_the_reports_its_manifest_lists(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run", methods=list(METHODS))
        run = str(tmp_path / "run")
        assert main(["compare", "--config", str(cfg), "--set", "stage1.epochs=3",
                     "--set", "stage2.epochs=2"]) == 0
        assert main(["train", "--config", str(cfg), "--method", "baseline",
                     "--set", "stage1.epochs=6", "--set", "stage2.epochs=2"]) == 0
        capsys.readouterr()
        assert main(["report", "--run-dir", run]) == 0
        assert capsys.readouterr().out == (tmp_path / "run" / "reports" /
                                           "comparison.txt").read_text(encoding="utf-8")
        assert list(load_manifest(str(tmp_path / "run" / "manifest.json")).methods) == [
            "baseline"]

    def test_run_dir_rows_follow_the_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run", methods=list(METHODS))
        assert main(["compare", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["report", "--run-dir", str(tmp_path / "run")]) == 0
        assert capsys.readouterr().out == (tmp_path / "run" / "reports" /
                                           "comparison.txt").read_text(encoding="utf-8")

    def test_run_dir_keeps_the_method_order_of_the_run(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run", methods=["ssb", "baseline"])
        assert main(["compare", "--config", str(cfg)]) == 0
        capsys.readouterr()
        assert main(["report", "--run-dir", str(tmp_path / "run")]) == 0
        table = (tmp_path / "run" / "reports" / "comparison.txt").read_text(encoding="utf-8")
        assert capsys.readouterr().out == table
        assert [line.split()[0] for line in table.splitlines()[2:4]] == ["ssb", "baseline"]

    def test_run_dir_with_an_empty_report_name_names_the_manifest_field(self, tmp_path,
                                                                        capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        assert main(["compare", "--config", str(cfg)]) == 0
        manifest = tmp_path / "run" / "manifest.json"
        document = json.loads(manifest.read_text(encoding="utf-8"))
        next(iter(document["methods"].values()))["report"] = ""
        manifest.write_text(json.dumps(document), encoding="utf-8")
        capsys.readouterr()
        assert main(["report", "--run-dir", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert str(manifest) in err and ".report' must name a file" in err

    def test_run_dir_without_a_manifest_names_it(self, tmp_path, capsys):
        (tmp_path / "reports").mkdir()
        assert main(["report", "--run-dir", str(tmp_path)]) == 1
        assert str(tmp_path / "manifest.json") in capsys.readouterr().err


class TestF1Delta:
    def test_writes_csv(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        assert main(["compare", "--config", str(cfg)]) == 0
        reports = tmp_path / "run" / "reports"
        out = tmp_path / "delta.csv"
        code = main(["f1delta", "--baseline", str(reports / "baseline.json"),
                     str(reports / "sqrt_samp.json"), "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("class,train_count,delta_sqrt_samp")

    def test_interrupted_write_keeps_the_old_table(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        assert main(["compare", "--config", str(cfg)]) == 0
        reports = tmp_path / "run" / "reports"
        out = tmp_path / "delta.csv"
        out.write_text("old table\n")
        # A lone surrogate cannot be encoded, so the write fails after the file is opened.
        to_csv = experiment.F1DeltaTable.to_csv
        monkeypatch.setattr(experiment.F1DeltaTable, "to_csv",
                            lambda table: to_csv(table) + "\ud800")
        code = main(["f1delta", "--baseline", str(reports / "baseline.json"),
                     str(reports / "sqrt_samp.json"), "--out", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "delta.csv", "run"]
        assert out.read_text() == "old table\n"


class TestErrors:
    def test_unknown_config_key_nonzero_exit(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("hedaer: 1\n")
        code = main(["compare", "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "hedaer" in err

    def test_missing_config_file(self, capsys):
        code = main(["train", "--config", "/nonexistent.yaml", "--method", "baseline"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_file_nested_too_deeply_named(self, tmp_path, capsys):
        cfg = tmp_path / "deep.yaml"
        cfg.write_text("methods: " + "[" * 5_000 + "]" * 5_000 + "\n")
        assert main(["compare", "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}: nested too deeply to parse\n"

    def test_set_value_nested_too_deeply_named(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        deep = "[" * 5_000 + "]" * 5_000
        assert main(["compare", "--config", str(cfg), "--set", f"model.hidden={deep}"]) == 1
        assert capsys.readouterr().err == "error: --set model.hidden: nested too deeply to parse\n"
        assert not (tmp_path / "run").exists()

    # No numpy warning is printed: under the test suite's warning filter one
    # would end the command with its own text instead.
    @pytest.mark.parametrize("key, fault", [
        ("noise_sigma", "config section dataset.synthetic: the train draw overflows"),
        ("class_separation", "method 'baseline' failed during stage-1 training: training "
                             "diverged: overflowing gradient for head.weight at epoch 0"),
    ])
    def test_overflowing_synthetic_scale_named(self, tmp_path, capsys, key, fault):
        cfg = write_config(tmp_path / "cfg.yaml", tmp_path / "run")
        assert main(["compare", "--config", str(cfg),
                     "--set", f"dataset.synthetic.{key}=1.0e+308"]) == 1
        assert capsys.readouterr().err.startswith(f"error: {fault}")

    @pytest.mark.parametrize("out, code", [("d", errno.EISDIR), ("d/x/data.txt", errno.ENOENT)],
                             ids=["directory", "missing_parent"])
    def test_unwritable_output_named_not_its_temporary(self, tmp_path, monkeypatch, capsys,
                                                       out, code):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        assert main(["gen", "--out", out, "--classes", "3", "--dim", "2"]) == 1
        assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
        assert [p.name for p in tmp_path.rglob("*")] == ["d"]


class TestEntryPoint:
    def test_console_script_version(self):
        # The child imports the same package as this process, however pytest found it.
        src = str(Path(longtail_lab.__file__).resolve().parents[1])
        paths = [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
        proc = subprocess.run([sys.executable, "-m", "longtail_lab.cli", "--version"],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        assert "longtail-lab" in proc.stdout
