import json
import os

import numpy as np

from hgdiff import cli, harness
from hgdiff.cli import _CONFIG_FLAGS, build_config, main, make_parser
from hgdiff.diffusion import DiffusionConfig
from hgdiff.hetgraph import GraphError


def read_embeddings(path):
    """Round-trip reader for the format `export_embeddings` writes."""
    dim = None
    offsets = {}
    tag = None
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#dim "):
                dim = int(line.split()[1])
            elif line.startswith("#offsets "):
                for part in line.split()[1:]:
                    t, off = part.split("=")
                    offsets[t] = int(off)
            elif line.startswith("#tag "):
                tag = line.split()[1]
            elif line:
                parts = line.split()
                rows.append((int(parts[0]), parts[1], parts[2],
                             np.array([float(x) for x in parts[3:]])))
    if dim is None or tag is None:
        raise GraphError(f"{path}: missing export header")
    table = np.stack([vec for _, _, _, vec in rows]) if rows else np.empty((0, dim))
    meta = [(i, t, g) for i, t, g, _ in rows]
    return {"dim": dim, "offsets": offsets, "tag": tag, "rows": meta, "table": table}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


BASE = ("--synth-users", "30", "--synth-items", "20", "--synth-aux", "2",
        "--synth-density", "0.15", "--epochs", "3", "--seed", "5", "--k", "5",
        "--dim", "8", "--layers", "2", "--steps", "8")


class TestTrain:
    def test_train_reports_metrics(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "train", *BASE, "--report", str(report_path))
        assert code == 0
        assert "recall@5=" in out and "ndcg@5=" in out
        payload = json.loads(report_path.read_text())
        assert payload["metrics"]["recall@5"] is not None
        assert payload["config"]["seed"] == 5

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "synthetic": {"users": 30, "items": 20, "aux_relations": 2,
                          "density": 0.15},
            "encoder": {"dim": 8, "layers": 2},
            "diffusion": {"steps": 8},
            "epochs": 2, "seed": 5, "k": 5,
        }))
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg_path),
                             "--report", str(r1))
        assert code == 0
        code, _, _ = run_cli(capsys, "train", "--config", str(cfg_path),
                             "--seed", "9", "--report", str(r2))
        assert code == 0
        a, b = json.loads(r1.read_text()), json.loads(r2.read_text())
        assert a["config"]["seed"] == 5 and b["config"]["seed"] == 9
        assert a["config"]["encoder"]["dim"] == 8 == b["config"]["encoder"]["dim"]

    def test_integer_for_a_float_field_trains_as_the_float(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        base = {"synthetic": {"users": 30, "items": 20, "aux_relations": 2, "density": 0.15},
                "encoder": {"dim": 8, "layers": 2}, "diffusion": {"steps": 8},
                "epochs": 2, "seed": 5, "k": 5}
        outs = []
        for lr in (1, 1.0):
            cfg_path.write_text(json.dumps({**base, "lr": lr, "loss": {"lam": 1}}))
            code, out, _ = run_cli(capsys, "train", "--config", str(cfg_path))
            assert code == 0
            outs.append([line for line in out.splitlines()
                         if not line.startswith("wall_clock")])
        assert outs[0] == outs[1]  # the config fingerprint among them
        cfg_path.write_text(json.dumps({**base, "lr": 10 ** 400}))
        code, out, err = run_cli(capsys, "train", "--config", str(cfg_path))
        assert code == 1 and out == ""
        assert err.startswith("config error:") and "lr is too large for a float" in err
        assert "Traceback" not in err

    def test_exit_code_config_error(self, capsys):
        code, _, err = run_cli(capsys, "train", *BASE, "--variant", "full",
                               "--b-max", "1.5")
        assert code == 1
        assert "config error" in err

    def test_bad_field_values_are_config_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", *BASE, "--lam", "-1")
        assert code == 1
        assert "config error" in err and "lam" in err
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"encoder": {"activation": "relu"}}))
        code, _, err = run_cli(capsys, "train", "--config", str(cfg_path))
        assert code == 1
        assert "config error" in err and "activation" in err

    def test_non_finite_weights_are_config_errors(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("loaded data")

        monkeypatch.setattr(harness, "load_dataset", refuse)
        # non-finite weights, a dim of 1, and negative seeds and synthetic
        # specs out of range (which ended in a traceback or a data error) are
        # refused before any data loads
        for flag, value in (("--lam", "nan"), ("--l2", "nan"), ("--lr", "nan"),
                            ("--seed", "-1"), ("--synth-seed", "-5"), ("--synth-users", "0"),
                            ("--synth-density", "2"), ("--dim", "1")):
            code, out, err = run_cli(capsys, "train", *BASE, flag, value)
            assert code == 1 and out == "", flag
            assert err.startswith("config error:") and "Traceback" not in err, flag
            assert flag[2:].removeprefix("synth-") in err, flag

    def test_one_side_alias_variant_is_a_config_error(self, capsys):
        code, out, err = run_cli(capsys, "train", *BASE, "--task", "node", "--variant", "-U")
        assert code == 1 and out == ""
        assert err.startswith("config error:") and "same model as -D" in err

    def test_config_file_that_is_not_a_json_object_is_a_config_error(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        for text, problem in (("{", "not valid JSON"), ("[1, 2]", "not a JSON object"),
                              ('"x"', "not a JSON object"),
                              ('{"encoder": 5}', "encoder config must be a JSON object"),
                              ('{"loss": null}', "loss config must be a JSON object")):
            cfg_path.write_text(text)
            code, _, err = run_cli(capsys, "train", "--config", str(cfg_path))
            assert code == 1, text
            assert err.startswith("config error:") and problem in err, text
        cfg_path.write_bytes(b"\xff\xfe")  # not UTF-8 text
        code, _, err = run_cli(capsys, "train", "--config", str(cfg_path))
        assert code == 1 and "not valid JSON" in err

    def test_diffusion_fields_of_another_type_are_config_errors(self, capsys, tmp_path):
        # a non-empty string is truthy, 2.5 steps once reached range() and
        # 2.5 epochs still does, and true trained as one epoch: each must be
        # refused by its type, with exit 1 and no traceback. So must values
        # out of range: k < 1 and a negative eval_every trained and then
        # exited 0, 2 or with a traceback, a negative seed or a synthetic spec
        # out of range ended in a traceback or a data error, and no training
        # labels per class was refused only once the data had loaded. So must
        # a dim of 1 and the removed patience and bucket_boundaries fields. A
        # number given as a string was refused by a comparison that named no
        # field, true trained as 1 where a number belongs, and a schema file
        # of 0 read the schema from stdin and closed it.
        cfg_path = tmp_path / "cfg.json"
        synthetic = {"users": 30, "items": 20, "aux_relations": 2, "density": 0.15}
        edges = tmp_path / "edges.txt"
        edges.write_text("0 0 buy\n")
        cases = (({"diffusion": {"per_row_t": "no"}}, "per_row_t"),
                              ({"diffusion": {"per_row_t": 1}}, "per_row_t"),
                              ({"diffusion": {"per_row_t": None}}, "per_row_t"),
                              ({"diffusion": {"steps": 2.5}}, "steps"),
                              ({"diffusion": {"steps": 8.0}}, "steps"),
                              ({"diffusion": {"steps": True}}, "steps"),
                              ({"diffusion": {"steps": 8, "infer_steps": 2.5}}, "infer_steps"),
                              ({"diffusion": {"steps": 8, "infer_steps": False}},
                               "infer_steps"),
                              ({"epochs": 1.5}, "epochs"),
                              ({"epochs": True}, "epochs"),
                              ({"batch_size": 2.5}, "batch_size"),
                              ({"seed": 1.5}, "seed"),
                              ({"k": 2.5}, "k"),
                              ({"eval_every": "1"}, "eval_every"),
                              ({"train_labels_per_class": 2.0}, "train_labels_per_class"),
                              ({"encoder": {"dim": 8.0}}, "dim"),
                              ({"encoder": {"layers": 1.5}}, "layers"),
                              ({"synthetic": {**synthetic, "users": 50.5}}, "users"),
                              ({"synthetic": {**synthetic, "aux_relations": False}},
                               "aux_relations"),
                              ({"synthetic": {**synthetic, "seed": 1.0}}, "seed"),
                              ({"k": 0}, "k must be"), ({"k": -3}, "k must be"),
                              ({"eval_every": -1}, "eval_every must be"),
                              ({"seed": -1}, "seed must be"),
                              ({"train_labels_per_class": 0},
                               "train_labels_per_class must be"),
                              *(({"synthetic": {**synthetic, key: value}}, f"{key} must be")
                                for key, value in (("users", 0), ("items", -2),
                                                   ("aux_relations", -1), ("density", 0),
                                                   ("density", 2), ("fidelity", -0.1),
                                                   ("fidelity", 1.5), ("seed", -5))),
                              ({"encoder": {"dim": 1}}, "dim >= 2"),
                              ({"patience": None}, "patience"),
                              ({"patience": -1}, "patience"),
                              *(({"bucket_boundaries": b}, "bucket_boundaries")
                                for b in ([4, 2], [2, 2], ["a"], [2, 4.0], [True, 2], 3,
                                          "24", None)),
                              ({"synthetic": {**synthetic, "density": "0.1"}}, "density"),
                              ({"loss": {"lam": "1"}}, "lam"),
                              ({"lr": True}, "lr"), ({"loss": {"lam": False}}, "lam"),
                              ({"synthetic": {**synthetic, "density": True}}, "density"),
                              ({"synthetic": None, "edge_file": str(edges), "schema_file": 0},
                               "schema_file"),
                              ({"labeled_type": 1}, "labeled_type"))
        # stdin holds a schema that no refusal may read
        schema = b"node user 1\nnode item 1\nrelation buy user item\ntarget buy\n"
        read_end, write_end = os.pipe()
        os.write(write_end, schema)
        os.close(write_end)
        stdin = os.dup(0)
        os.dup2(read_end, 0)
        os.close(read_end)
        try:
            for config, field in cases:
                cfg_path.write_text(json.dumps({"synthetic": synthetic, "epochs": 1, **config}))
                code, _, err = run_cli(capsys, "train", "--config", str(cfg_path))
                assert code == 1, config
                assert err.startswith("config error:") and field in err, config
                assert "Traceback" not in err
            assert os.read(0, len(schema) + 1) == schema
        finally:
            os.dup2(stdin, 0)
            os.close(stdin)
        for per_row_t in (False, True):
            cfg_path.write_text(json.dumps({
                "synthetic": {**synthetic, "seed": None}, "epochs": 1,
                "encoder": {"dim": 4},
                "diffusion": {"steps": 8, "infer_steps": 3, "per_row_t": per_row_t}}))
            code, _, _ = run_cli(capsys, "train", "--config", str(cfg_path))
            assert code == 0, per_row_t

    def test_every_config_flag_sets_its_field(self):
        values = {
            "--task": "node", "--edge-file": "e.txt", "--schema-file": "s.txt",
            "--label-file": "l.txt", "--labeled-type": "item", "--synth-users": 101,
            "--synth-items": 102, "--synth-aux": 3, "--synth-density": 0.21,
            "--synth-fidelity": 0.22, "--synth-seed": 104, "--dim": 105, "--layers": 6,
            "--steps": 107,
            "--b-max": 0.93, "--b-min": 0.91, "--infer-steps": 8, "--per-row-t": True,
            "--lam": 0.24, "--l2": 0.25, "--lr": 0.26, "--batch-size": 109,
            "--epochs": 110, "--eval-every": 11, "--seed": 112, "--variant": "DAE",
            "--k": 13,
        }
        assert set(values) == {flag for flag, _, _, _ in _CONFIG_FLAGS}
        argv = ["train"]
        for flag, value in values.items():
            argv += [flag] if value is True else [flag, str(value)]
        cfg = build_config(make_parser().parse_args(argv))
        for flag, group, field, _ in _CONFIG_FLAGS:
            holder = getattr(cfg, group) if group else cfg
            assert getattr(holder, field) == values[flag], flag

    def test_noise_scale_uses_the_library_preset(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        for scale in (1e-4, 1e-3, 0.05):
            code, _, _ = run_cli(capsys, "train", *BASE, "--epochs", "1",
                                 "--noise-scale", str(scale), "--report", str(report))
            assert code == 0
            preset = DiffusionConfig.from_noise_scale(scale)
            diffusion = json.loads(report.read_text())["config"]["diffusion"]
            assert (diffusion["b_max"], diffusion["b_min"]) == (preset.b_max, preset.b_min)
        # below the clamp both endpoints meet, which a multi-step schedule refuses
        code, _, err = run_cli(capsys, "train", *BASE, "--noise-scale", "1e-13")
        assert code == 1
        assert "config error" in err

    def test_empty_target_relation_is_a_config_error(self, capsys, tmp_path):
        schema, edges = tmp_path / "schema.txt", tmp_path / "edges.txt"
        schema.write_text("node user 3\nnode item 2\nrelation buy user item\n"
                          "relation view user item\ntarget buy\n")
        edges.write_text("0 1 view\n1 0 view\n")
        code, _, err = run_cli(capsys, "train", "--edge-file", str(edges),
                               "--schema-file", str(schema), "--epochs", "0")
        assert code == 1
        assert "config error" in err and "no test users" in err

    def test_exit_code_data_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "train", "--edge-file", "/nonexistent/e.txt",
                               "--schema-file", "/nonexistent/s.txt")
        assert code == 2
        assert "data error" in err

    def test_files_that_are_not_utf8_are_data_errors(self, capsys, tmp_path):
        out_dir = tmp_path / "ds"
        assert run_cli(capsys, "synth", "--users", "60", "--items", "40", "--aux", "1",
                       "--density", "0.1", "--seed", "3", "--out-dir", str(out_dir))[0] == 0
        node = ("train", "--task", "node", "--edge-file", str(out_dir / "edges.txt"),
                "--schema-file", str(out_dir / "schema.txt"),
                "--label-file", str(out_dir / "labels.txt"),
                "--epochs", "1", "--dim", "8", "--steps", "8")
        for name in ("edges.txt", "labels.txt", "schema.txt"):
            path = out_dir / name
            good = path.read_bytes()
            lines = good.split(b"\n")
            # the bad byte on line 3, after a lone \r and a \r\n break
            path.write_bytes(lines[0] + b"\r" + lines[1] + b"\r\n" + lines[2][:1] + b"\xff"
                             + lines[2][1:] + b"\n" + b"\n".join(lines[3:]))
            code, _, err = run_cli(capsys, *node)
            assert code == 2, name
            assert err == f"data error: {path}:3: not UTF-8 text\n"
            path.write_bytes(good)
        assert run_cli(capsys, *node)[0] == 0

    def test_variant_names_starting_with_dash_as_separate_arguments(self, capsys, tmp_path):
        reports = [tmp_path / "a.json", tmp_path / "b.json"]
        for flags, report in zip((["--variant=-U"], ["--variant", "-U"]), reports):
            code, _, _ = run_cli(capsys, "train", *BASE, "--epochs", "1", *flags,
                                 "--report", str(report))
            assert code == 0
        a, b = (json.loads(r.read_text()) for r in reports)
        for report in (a, b):
            del report["wall_clock_per_epoch"]
        assert a["config"]["variant"] == "-U" and a == b

    def test_exit_code_divergence(self, capsys):
        with np.errstate(all="ignore"):
            code, _, err = run_cli(capsys, "train", *BASE, "--lr", "1e200",
                                   "--epochs", "5")
        assert code == 3
        assert "divergence" in err


class TestModelCommands:
    def test_save_eval_export(self, capsys, tmp_path):
        model_path = tmp_path / "m.npz"
        emb_path = tmp_path / "e.txt"
        code, out, _ = run_cli(capsys, "train", *BASE, "--save", str(model_path),
                               "--export", str(emb_path))
        assert code == 0
        train_lines = {l.split("=", 1)[0]: l.split("=", 1)[1]
                       for l in out.splitlines() if "=" in l}

        code, out, _ = run_cli(capsys, "eval", "--model", str(model_path))
        assert code == 0
        eval_lines = {l.split("=", 1)[0]: l.split("=", 1)[1]
                      for l in out.splitlines() if "=" in l}
        assert eval_lines["recall@5"] == train_lines["recall@5"]
        assert eval_lines["ndcg@5"] == train_lines["ndcg@5"]

        out_path = tmp_path / "e2.txt"
        code, _, _ = run_cli(capsys, "export", "--model", str(model_path),
                             "--out", str(out_path))
        assert code == 0
        assert np.array_equal(read_embeddings(emb_path)["table"],
                              read_embeddings(out_path)["table"])

    def test_eval_refuses_changed_data(self, capsys, tmp_path):
        data, model_path = tmp_path / "ds", tmp_path / "m.npz"
        synth = ("synth", "--users", "25", "--items", "15", "--aux", "1",
                 "--density", "0.2", "--out-dir", str(data))
        assert run_cli(capsys, *synth, "--seed", "3")[0] == 0
        code, _, _ = run_cli(capsys, "train", "--edge-file", str(data / "edges.txt"),
                             "--schema-file", str(data / "schema.txt"), "--epochs", "1",
                             "--k", "5", "--dim", "8", "--steps", "8",
                             "--save", str(model_path))
        assert code == 0
        assert run_cli(capsys, "eval", "--model", str(model_path))[0] == 0
        # the files the config names now hold another dataset
        assert run_cli(capsys, *synth, "--seed", "4")[0] == 0
        code, _, err = run_cli(capsys, "eval", "--model", str(model_path))
        assert code == 2
        assert "data error" in err and "trained on dataset" in err

    def test_eval_refuses_model_without_fingerprint(self, capsys, tmp_path):
        model_path = tmp_path / "m.npz"
        assert run_cli(capsys, "train", *BASE, "--save", str(model_path))[0] == 0
        with np.load(model_path) as data:
            arrays = {k: data[k] for k in data.files if k != "dataset_fingerprint"}
        np.savez(model_path, **arrays)
        code, _, err = run_cli(capsys, "eval", "--model", str(model_path))
        assert code == 2
        assert "fingerprint" in err

    def test_eval_refuses_model_with_removed_config_field(self, capsys, tmp_path):
        # a model saved with a config field this version no longer has, such
        # as the settings that are now constants, which were saved with values
        model_path = tmp_path / "m.npz"
        assert run_cli(capsys, "train", *BASE, "--save", str(model_path))[0] == 0
        with np.load(model_path) as data:
            saved = {k: data[k] for k in data.files}
        for group, field, value in (("encoder", "shared_initial", True),
                                    ("encoder", "activation", "leaky_relu"),
                                    ("encoder", "pooling", "mean"),
                                    ("encoder", "leaky_slope", 0.2),
                                    (None, "init_scale", 0.1),
                                    (None, "patience", 0),
                                    (None, "bucket_boundaries", [2, 4, 8, 16])):
            cfg = json.loads(bytes(saved["config_json"]).decode())
            (cfg[group] if group else cfg)[field] = value
            arrays = dict(saved, config_json=np.frombuffer(json.dumps(cfg).encode(),
                                                           dtype=np.uint8))
            np.savez(model_path, **arrays)
            code, _, err = run_cli(capsys, "eval", "--model", str(model_path))
            assert code == 1, field
            assert "config error" in err and field in err, field


class TestSynth:
    def test_synth_round_trip(self, capsys, tmp_path):
        out_dir = tmp_path / "ds"
        code, out, _ = run_cli(capsys, "synth", "--users", "25", "--items", "15",
                               "--aux", "1", "--density", "0.2",
                               "--fidelity", "0.8", "--seed", "3",
                               "--out-dir", str(out_dir))
        assert code == 0
        assert (out_dir / "edges.txt").exists()
        code, out2, _ = run_cli(
            capsys, "train", "--edge-file", str(out_dir / "edges.txt"),
            "--schema-file", str(out_dir / "schema.txt"),
            "--label-file", str(out_dir / "labels.txt"),
            "--epochs", "2", "--k", "5", "--dim", "8", "--steps", "8")
        assert code == 0
        fingerprint = [l for l in out.splitlines() if l.startswith("fingerprint=")]
        dataset = [l for l in out2.splitlines() if l.startswith("dataset=")]
        assert fingerprint[0].split("=")[1] == dataset[0].split("=")[1]


    def test_bad_specs_are_config_errors(self, capsys, tmp_path):
        out_dir = tmp_path / "ds"
        for flag, value in (("--seed", "-1"), ("--users", "0"), ("--items", "0"),
                            ("--aux", "-1"), ("--density", "2"), ("--fidelity", "-1")):
            code, out, err = run_cli(capsys, "synth", flag, value, "--out-dir", str(out_dir))
            assert code == 1 and out == "", flag
            assert err.startswith("config error:") and "Traceback" not in err, flag
            assert {"--aux": "aux_relations"}.get(flag, flag[2:]) in err, flag
        assert not out_dir.exists()

    def test_label_files_that_do_not_fit_are_data_errors(self, capsys, tmp_path):
        out_dir = tmp_path / "ds"
        code, _, _ = run_cli(capsys, "synth", "--users", "60", "--items", "40",
                             "--aux", "1", "--density", "0.1", "--seed", "3",
                             "--out-dir", str(out_dir))
        assert code == 0
        labels = out_dir / "labels.txt"
        for text, line in (("0 0\n75 1\n99 0\n", 2), ("0 0\n-1 1\n", 2),
                           ("0 0\n1 1\n0 1\n", 3)):
            labels.write_text(text)
            code, _, err = run_cli(
                capsys, "train", "--task", "node", "--edge-file", str(out_dir / "edges.txt"),
                "--schema-file", str(out_dir / "schema.txt"), "--label-file", str(labels),
                "--epochs", "1", "--dim", "8", "--steps", "8")
            assert code == 2
            assert "data error" in err and f"{labels}:{line}:" in err


    def test_schema_label_type_must_match_labeled_type(self, capsys, tmp_path):
        out_dir = tmp_path / "ds"
        code, _, _ = run_cli(capsys, "synth", "--users", "30", "--items", "80",
                             "--aux", "1", "--density", "0.1", "--seed", "3",
                             "--out-dir", str(out_dir))
        assert code == 0
        schema = out_dir / "schema.txt"
        schema.write_text(schema.read_text().replace("labels user", "labels item"))
        labels = out_dir / "labels.txt"
        labels.write_text("".join(f"{i} {i % 2}\n" for i in range(80)))
        node = ("train", "--task", "node", "--edge-file", str(out_dir / "edges.txt"),
                "--schema-file", str(schema), "--label-file", str(labels),
                "--epochs", "1", "--dim", "8", "--steps", "8")
        code, _, err = run_cli(capsys, *node)
        assert code == 1
        assert err.startswith("config error:") and "'item'" in err and "'user'" in err
        report = tmp_path / "report.json"
        code, _, _ = run_cli(capsys, *node, "--labeled-type", "item", "--report", str(report))
        assert code == 0
        assert json.loads(report.read_text())["config"]["labeled_type"] == "item"
        # synthetic data labels users: with item rows labeled a run trained
        # user labels on item rows, and ended in a traceback with fewer items
        # than users or a node type the graph lacks
        for command, flags in (("train", ("--labeled-type", "item", "--synth-items", "120")),
                               ("train", ("--labeled-type", "item")),
                               ("train", ("--labeled-type", "shop")),
                               ("ablate", ("--labeled-type", "item")),
                               ("noise-exp", ("--labeled-type", "shop"))):
            code, out, err = run_cli(capsys, command, *BASE, "--task", "node",
                                     "--synth-users", "60", *flags)
            assert code == 1 and out == "", flags
            assert err.startswith("config error:") and "Traceback" not in err, flags
            assert "'user'" in err and repr(flags[1]) in err, flags


class TestExperimentCommands:
    def test_ablate(self, capsys, tmp_path):
        report = tmp_path / "abl.json"
        code, out, _ = run_cli(capsys, "ablate", *BASE, "--epochs", "2",
                               "--variants", "full,-D,-H",
                               "--report", str(report))
        assert code == 0
        assert out.count("variant=") == 3
        payload = json.loads(report.read_text())
        assert set(payload) == {"full", "-D", "-H"}

    def test_ablate_variants_starting_with_dash(self, capsys, tmp_path):
        report = tmp_path / "abl.json"
        code, out, _ = run_cli(capsys, "ablate", *BASE, "--epochs", "1",
                               "--variants", "-D,-U", "--report", str(report))
        assert code == 0
        assert out.count("variant=") == 2
        assert set(json.loads(report.read_text())) == {"-D", "-U"}

    def test_unknown_variant_is_refused_before_any_training(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(harness, "train", refuse)
        monkeypatch.setattr(harness, "load_dataset", refuse)
        code, out, err = run_cli(capsys, "ablate", *BASE, "--variants", "full,bogus")
        assert code == 1 and out == ""
        assert err.startswith("config error:") and "'bogus'" in err

    def test_ratios_that_are_not_numbers_are_a_config_error(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("trained")

        monkeypatch.setattr(cli, "run_noise_robustness", refuse)
        code, out, err = run_cli(capsys, "noise-exp", *BASE, "--ratios", "0,abc")
        assert code == 1 and out == ""
        assert err.startswith("config error:") and "'0,abc'" in err
        assert "Traceback" not in err

    def test_noise_exp(self, capsys, tmp_path):
        report = tmp_path / "noise.json"
        code, out, _ = run_cli(capsys, "noise-exp", *BASE, "--epochs", "2",
                               "--ratios", "0,0.3", "--report", str(report))
        assert code == 0
        assert "relation" in out  # table header
        payload = json.loads(report.read_text())
        assert any(key.endswith("@0.0") for key in payload["retention"])
