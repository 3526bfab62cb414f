import hashlib
import json
import struct
import tracemalloc

import numpy as np
import pytest

from blockfuse import io
from blockfuse.cli import build_parser, run
from blockfuse.train import save_dataset_raw

from conftest import irb_graph


def _gen(tmp_path, name="toy-irb-2", seed=0):
    out = tmp_path / "net"
    assert run(["gen-fixture", name, "--out", str(out), "--seed", str(seed)]) == 0
    return out


def _bias_map_net(tmp_path):
    """toy-irb-2 with a BN shift set ahead of block 0's padded depthwise conv,
    shrunk with mask [0, 1]: the merged conv carries an (8, 8, 8) bias map."""
    out = _gen(tmp_path)
    table = io.load_weights(out / "weights.dswt")
    table["b0_bn1.beta"] = table["b0_bn1.beta"] + 0.5
    io.save_weights(table, out / "weights.dswt")
    mask = tmp_path / "mask.json"
    io.save_mask([0, 1], mask)
    shrunk = tmp_path / "shrunk"
    assert run(["shrink", "--graph", str(out), "--mask", str(mask),
                "--out", str(shrunk)]) == 0
    return shrunk


class TestGenFixture:
    def test_writes_graph_and_weights(self, tmp_path, capsys):
        out = _gen(tmp_path)
        assert (out / "graph.json").exists()
        assert (out / "weights.dswt").exists()
        assert "2 blocks" in capsys.readouterr().out

    def test_reference_masks_written_for_mbv2(self, tmp_path):
        out = tmp_path / "net"
        assert run(["gen-fixture", "mbv2", "--out", str(out)]) == 0
        mask = io.load_mask(out / "mask_DS-A.json")
        assert len(mask) == 17

    def test_unknown_fixture_exits_1(self, tmp_path, capsys):
        rc = run(["gen-fixture", "nope", "--out", str(tmp_path / "x")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GraphError"


def _params(doc, node_id):
    return next(n for n in doc["nodes"] if n["id"] == node_id)["params"]


class TestCost:
    def test_prints_table_and_writes_json(self, tmp_path, capsys):
        out = _gen(tmp_path)
        report = tmp_path / "cost.json"
        assert run(["cost", "--graph", str(out), "--out", str(report)]) == 0
        assert "total" in capsys.readouterr().out
        doc = json.loads(report.read_text())
        assert doc["total_flops"] > 0

    def test_latency_table_option(self, tmp_path):
        out = _gen(tmp_path)
        lat = tmp_path / "lat.csv"
        lat.write_text("block_id,latency_ms\n0,1.0\n1,2.0\n")
        assert run(["cost", "--graph", str(out), "--latency", str(lat)]) == 0

    def test_latency_total_is_the_sum_of_the_block_rows(self, tmp_path):
        out = _gen(tmp_path)
        lat, report = tmp_path / "lat.csv", tmp_path / "cost.json"
        lat.write_text("block_id,latency_ms\n0,1.0\n1,2.0\n7,5.0\n")
        assert run(["cost", "--graph", str(out), "--latency", str(lat),
                    "--out", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert [b["latency_ms"] for b in doc["blocks"]] == [1.0, 2.0]
        assert doc["latency_ms"] == 3.0

    # a NaN latency once gave NaN scores and an arbitrary mask, an infinite one an
    # infinite total, and a repeated block_id silently kept its last row
    @pytest.mark.parametrize("rows,command,message", [
        ("0,nan\n1,1\n2,1\n", "search", "finite and > 0"),
        ("0,inf\n1,1\n2,1\n", "cost", "finite and > 0"),
        ("0,1\n0,5\n1,1\n2,1\n", "cost", "block_id 0 has more than one row"),
    ], ids=["nan", "inf", "repeated-block"])
    def test_bad_latency_rows_exit_1(self, tmp_path, capsys, rows, command, message):
        out = _gen(tmp_path, "toy-irb-3")
        lat = tmp_path / "lat.csv"
        lat.write_text("block_id,latency_ms\n" + rows)
        argv = {"cost": ["cost", "--graph", str(out)],
                "search": ["search", "--graph", str(out), "--k", "1", "--decay", "0.1",
                           "--epochs", "1", "--data-samples", "16",
                           "--out", str(tmp_path / "search")]}[command]
        capsys.readouterr()
        assert run(argv + ["--latency", str(lat)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError" and message in err["message"]
        assert not (tmp_path / "search").exists()


    # -8 printed negative byte counts and 0 all zeros, both with exit 0
    @pytest.mark.parametrize("bits", ["0", "-8"])
    def test_bits_below_1_exit_1(self, tmp_path, capsys, bits):
        out = _gen(tmp_path)
        capsys.readouterr()
        assert run(["cost", "--graph", str(out), f"--bits={bits}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        err = json.loads(captured.err)
        assert err["error"] == "ConfigError" and "precision_bits" in err["message"]

    def test_reads_no_weight_payloads(self, tmp_path, capsys):
        out = _gen(tmp_path, name="mbv2")
        size = (out / "weights.dswt").stat().st_size  # 28 MB
        tracemalloc.start()
        try:
            assert run(["cost", "--graph", str(out)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < size / 10  # about 0.8 MB; reading the payloads took 28 MB

    @pytest.mark.parametrize("precision", ["f64", "f32"])
    def test_report_is_the_same_without_the_weights_file(self, tmp_path, precision):
        out = tmp_path / "net"
        assert run(["gen-fixture", "toy-irb-2", "--out", str(out),
                    "--precision", precision]) == 0
        with_weights, without = tmp_path / "a.json", tmp_path / "b.json"
        assert run(["cost", "--graph", str(out), "--out", str(with_weights)]) == 0
        (out / "weights.dswt").unlink()
        assert run(["cost", "--graph", str(out), "--out", str(without)]) == 0
        assert with_weights.read_bytes() == without.read_bytes()


def _unknown_dtype(raw: bytes) -> bytes:
    name_len = struct.unpack_from("<H", raw, 12)[0]
    at = 12 + 2 + name_len  # the first record's dtype code
    return raw[:at] + b"\x07" + raw[at + 1:]


def _non_utf8_name(raw: bytes) -> bytes:
    return raw[:14] + b"\xff" + raw[15:]  # the first byte of the first record's name


def _zero_beside_huge_dims(raw: bytes) -> bytes:
    """One more record, named "z", whose dims are 0 and three times 2**32 - 1."""
    count = struct.unpack_from("<I", raw, 8)[0]
    return raw[:8] + struct.pack("<I", count + 1) + raw[12:] + \
        struct.pack("<H1sBB4I", 1, b"z", 1, 4, 0, 2**32 - 1, 2**32 - 1, 2**32 - 1)


class TestCostWeightsChecks:
    """`cost` skips the weight payloads but keeps every check that `shrink`
    makes on the file's format and shapes."""

    # (edit of the saved table, edit of the file's bytes, error, message part)
    @pytest.mark.parametrize("edit_table,edit_bytes,error,where", [
        (None, lambda raw: b"NOPE" + raw[4:], "FormatError", "magic"),
        (None, _unknown_dtype, "FormatError", "unknown dtype code 7"),
        (None, lambda raw: raw[:-8], "FormatError", "truncated"),
        # a second array saved as "b0_pw1.weighX", then renamed in the file
        (lambda t: t.update({"b0_pw1.weighX": t["b0_pw1.weight"]}),
         lambda raw: raw.replace(b"b0_pw1.weighX", b"b0_pw1.weight"),
         "FormatError", "duplicate array name"),
        (None, lambda raw: raw + b"\x00\x00", "FormatError", "trailing"),
        (lambda t: t.update({"b0_pw1.weight": np.zeros((1, 2, 1, 1))}), None,
         "GraphError", "b0_pw1.weight"),
        (None, _non_utf8_name, "FormatError", "record 0: name is not UTF-8"),
        (None, _zero_beside_huge_dims, "FormatError", "z: dims [0, 4294967295, "),
    ], ids=["bad-magic", "unknown-dtype", "truncated-payload", "duplicate-name",
            "trailing-bytes", "wrong-shape", "non-utf8-name", "zero-beside-huge-dims"])
    def test_malformed_weights_fail_cost_as_they_fail_shrink(
            self, tmp_path, capsys, edit_table, edit_bytes, error, where):
        out = _gen(tmp_path)
        path = out / "weights.dswt"
        if edit_table:
            table = io.load_weights(path)
            edit_table(table)
            io.save_weights(table, path)
        if edit_bytes:
            path.write_bytes(edit_bytes(path.read_bytes()))
        mask = tmp_path / "mask.json"
        io.save_mask([0, 1], mask)
        errors = []
        for argv in (["cost", "--graph", str(out)],
                     ["shrink", "--graph", str(out), "--mask", str(mask),
                      "--out", str(tmp_path / "shrunk")]):
            capsys.readouterr()
            assert run(argv) == 1
            errors.append(json.loads(capsys.readouterr().err))
        assert errors[0] == errors[1]
        assert errors[0]["error"] == error and where in errors[0]["message"]


def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


class TestRerun:
    """A command rerun into a used --out leaves the bytes of a fresh run."""

    @pytest.mark.parametrize("masks", [([0, 0, 0], [1, 0, 1]), ([1, 0, 1], [0, 0, 0])],
                             ids=["merged-then-kept", "kept-then-merged"])
    def test_shrink_into_a_used_out_equals_a_fresh_out(self, tmp_path, masks):
        net = _gen(tmp_path, name="toy-irb-3")

        def shrink(mask, out):
            path = tmp_path / "mask.json"
            io.save_mask(mask, path)
            assert run(["shrink", "--graph", str(net), "--mask", str(path),
                        "--out", str(out)]) == 0
            return _digests(out)

        reused = tmp_path / "reused"
        sizes = []
        for i, mask in enumerate(masks):
            assert shrink(mask, reused) == shrink(mask, tmp_path / f"fresh{i}")
            sizes.append((reused / "weights.dswt").stat().st_size)
        assert sizes[0] != sizes[1]  # one of the two orders writes over a longer file

    def test_gen_fixture_twice_into_one_dir(self, tmp_path):
        out = _gen(tmp_path, name="toy-irb-3")
        first = _digests(out)
        _gen(tmp_path, name="toy-irb-3")
        assert _digests(out) == first


class TestShrinkVerify:
    def test_shrink_then_verify_passes(self, tmp_path, capsys):
        out = _gen(tmp_path)
        mask = tmp_path / "mask.json"
        io.save_mask([0, 1], mask)
        shrunk = tmp_path / "shrunk"
        assert run(["shrink", "--graph", str(out), "--mask", str(mask),
                    "--out", str(shrunk)]) == 0
        assert "merged 1/2 blocks" in capsys.readouterr().out
        # the shrunk graph must match the mask-applied original
        assert run(["verify", "--before", str(shrunk / "graph.json"),
                    "--after", str(shrunk), "--tol", "1e-10"]) == 0

    def test_verify_out_writes_the_printed_report(self, tmp_path, capsys):
        out = _gen(tmp_path)
        capsys.readouterr()
        report = tmp_path / "verify.json"
        assert run(["verify", "--before", str(out), "--after", str(out),
                    "--samples", "2", "--out", str(report)]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert json.loads(report.read_text()) == printed and printed["pass"]

    def test_verify_reports_failure(self, tmp_path, capsys):
        a = _gen(tmp_path, seed=0)
        b = tmp_path / "other"
        assert run(["gen-fixture", "toy-irb-2", "--out", str(b), "--seed", "9"]) == 0
        rc = run(["verify", "--before", str(a), "--after", str(b),
                  "--tol", "1e-10"])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "equivalence check failed"

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_verify_without_samples_exits_1(self, tmp_path, capsys, samples):
        a = _gen(tmp_path, seed=0)
        b = tmp_path / "other"
        assert run(["gen-fixture", "toy-irb-2", "--out", str(b), "--seed", "9"]) == 0
        capsys.readouterr()
        assert run(["verify", "--before", str(a), "--after", str(b),
                    "--samples", samples, "--tol", "1e-10"]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "BlockfuseError" and "n_samples" in err["message"]

    def test_graph_without_weights_runs_cost_and_verify(self, tmp_path):
        out = _gen(tmp_path)
        (out / "weights.dswt").unlink()
        assert run(["cost", "--graph", str(out)]) == 0
        assert run(["verify", "--before", str(out), "--after", str(out)]) == 0

    def test_shrunk_graph_differs_from_unmasked_original(self, tmp_path):
        out = _gen(tmp_path)
        mask = tmp_path / "mask.json"
        io.save_mask([0, 0], mask)
        shrunk = tmp_path / "shrunk"
        assert run(["shrink", "--graph", str(out), "--mask", str(mask),
                    "--out", str(shrunk)]) == 0
        # original still has live activations, so strict verify must fail
        assert run(["verify", "--before", str(out), "--after", str(shrunk),
                    "--tol", "1e-10"]) == 1


class TestSearchFinetune:
    def test_search_writes_mask_report_log(self, tmp_path):
        out = _gen(tmp_path)
        res = tmp_path / "search"
        assert run(["search", "--graph", str(out), "--k", "1",
                    "--epochs", "1", "--data-samples", "16",
                    "--out", str(res)]) == 0
        mask = io.load_mask(res / "mask.json")
        assert sum(mask) == 1
        doc = json.loads((res / "report.json").read_text())
        assert len(doc["ranked_for_removal"]) == 2
        lines = (res / "log.jsonl").read_text().splitlines()
        assert json.loads(lines[0])["step"] == 0

    def test_finetune_reports_accuracy(self, tmp_path):
        out = _gen(tmp_path)
        mask = tmp_path / "mask.json"
        io.save_mask([0, 1], mask)
        res = tmp_path / "ft"
        assert run(["finetune", "--graph", str(out), "--mask", str(mask),
                    "--epochs", "1", "--data-samples", "16",
                    "--out", str(res)]) == 0
        doc = json.loads((res / "report.json").read_text())
        assert 0.0 <= doc["train_accuracy"] <= 1.0


    def test_finetune_trains_merged_blocks_shifts(self, tmp_path):
        # nothing is frozen: the to-be-merged block's BN shifts train, and the
        # merge of the result is still exact
        out = _gen(tmp_path)
        mask = tmp_path / "mask.json"
        io.save_mask([0, 1], mask)
        res = tmp_path / "ft"
        assert run(["finetune", "--graph", str(out), "--mask", str(mask),
                    "--epochs", "1", "--data-samples", "16", "--out", str(res)]) == 0
        before = io.load_weights(out / "weights.dswt")
        after = io.load_weights(res / "weights.dswt")
        for bn in ("b0_bn1", "b0_bn2", "b0_bn3"):
            assert not np.array_equal(before[f"{bn}.beta"], after[f"{bn}.beta"])
        shrunk = tmp_path / "shrunk"
        assert run(["shrink", "--graph", str(res), "--mask", str(mask),
                    "--out", str(shrunk)]) == 0
        assert run(["verify", "--before", str(res), "--after", str(shrunk),
                    "--tol", "1e-10"]) == 0


    def test_free_act_finetune_of_an_expanded_graph_shrinks_exactly(self, tmp_path):
        out = _gen(tmp_path)
        expanded = tmp_path / "expanded"
        assert run(["expand", "--graph", str(out), "--out", str(expanded)]) == 0
        mask = tmp_path / "mask.json"
        io.save_mask([1, 0, 1], mask)  # block 1 is nested in block 0
        res = tmp_path / "ft"
        assert run(["finetune", "--graph", str(expanded), "--mask", str(mask),
                    "--free-act", "--epochs", "1", "--data-samples", "16",
                    "--out", str(res)]) == 0
        shrunk = tmp_path / "shrunk"
        assert run(["shrink", "--graph", str(res), "--mask", str(mask),
                    "--out", str(shrunk)]) == 0
        assert run(["verify", "--before", str(res), "--after", str(shrunk),
                    "--tol", "1e-10"]) == 0

    @pytest.mark.parametrize("source", ["vgg-toy-expanded", "irb-4-channels"])
    def test_synthetic_data_takes_its_shape_from_the_graph(self, tmp_path, rng, source):
        net = tmp_path / "in"
        if source == "vgg-toy-expanded":  # 16 px
            assert run(["expand", "--graph", str(_gen(tmp_path, name="vgg-toy")),
                        "--out", str(net)]) == 0
        else:  # 4 x 6 x 6
            graph = irb_graph(rng, 4, 4, 2, 3, 1, True, image_size=6)
            net.mkdir()
            io.save_graph(graph, net / "graph.json")
            io.save_weights(io.weights_of_graph(graph), net / "weights.dswt")
        graph = io.load_graph(net / "graph.json")
        assert graph.input_dims[1:] != (3, 8, 8)
        mask = tmp_path / "mask.json"
        io.save_mask([1] * len(graph.blocks), mask)
        common = ["--graph", str(net), "--epochs", "1", "--data-samples", "4"]
        for argv in (["search", *common, "--k", "1", "--out", str(tmp_path / "s")],
                     ["finetune", *common, "--mask", str(mask), "--out", str(tmp_path / "f")]):
            assert run(argv) == 0
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--image-size", str(graph.input_dims[2])])
            assert exc.value.code == 2


class TestExpand:
    def test_expand_vgg_adds_blocks(self, tmp_path, capsys):
        out = _gen(tmp_path, name="vgg-toy")
        res = tmp_path / "expanded"
        assert run(["expand", "--graph", str(out), "--out", str(res)]) == 0
        text = capsys.readouterr().out
        assert "13 -> 29 nodes" in text
        assert io.load_graph(res / "graph.json").blocks

    def test_expand_a_fully_shrunk_graph(self, tmp_path):
        out = _gen(tmp_path, name="toy-irb-3")
        mask = tmp_path / "mask.json"
        io.save_mask([0, 0, 0], mask)
        shrunk = tmp_path / "shrunk"
        assert run(["shrink", "--graph", str(out), "--mask", str(mask),
                    "--out", str(shrunk)]) == 0
        res = tmp_path / "expanded"
        assert run(["expand", "--graph", str(shrunk), "--out", str(res)]) == 0
        kinds = [b.kind for b in io.load_graph(res / "graph.json").blocks]
        assert kinds == ["plain_conv", "inverted_residual", "plain_conv"]


class TestErrorHandling:
    def test_missing_file_exits_1(self, tmp_path, capsys):
        rc = run(["cost", "--graph", str(tmp_path / "missing.json")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFound"

    @pytest.mark.parametrize("command", ["cost", "shrink", "verify", "verify-after"])
    def test_missing_named_weights_exit_1(self, tmp_path, capsys, command):
        a = _gen(tmp_path, seed=0)
        b = tmp_path / "other"
        assert run(["gen-fixture", "toy-irb-2", "--out", str(b), "--seed", "9"]) == 0
        mask = tmp_path / "mask.json"
        io.save_mask([0, 1], mask)
        nope = str(tmp_path / "nope.dswt")
        argv = {
            "cost": ["cost", "--graph", str(a), "--weights", nope],
            "shrink": ["shrink", "--graph", str(a), "--weights", nope, "--mask", str(mask),
                       "--out", str(tmp_path / "shrunk")],
            # two different networks, both on zero placeholders if the files were skipped
            "verify": ["verify", "--before", str(a), "--after", str(b), "--tol", "1e-10",
                       "--before-weights", nope, "--after-weights", nope + "2"],
            "verify-after": ["verify", "--before", str(a), "--after", str(a),
                             "--after-weights", nope],
        }[command]
        capsys.readouterr()
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FileNotFound" and "nope.dswt" in err["message"]
        assert not (tmp_path / "shrunk").exists()

    @pytest.mark.parametrize("graph,weights,error", [
        ("net", "net", "IsADirectoryError"),
        ("net/graph.json/x", None, "NotADirectoryError"),
    ], ids=["directory-weights", "path-through-file"])
    def test_unreadable_path_exits_1(self, tmp_path, capsys, graph, weights, error):
        _gen(tmp_path)
        argv = ["cost", "--graph", str(tmp_path / graph)]
        if weights:
            argv += ["--weights", str(tmp_path / weights)]
        capsys.readouterr()
        assert run(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == error

    @pytest.mark.parametrize("command,option", [
        ("cost", "--seed"), ("cost", "--precision"), ("shrink", "--seed"),
        ("shrink", "--precision"), ("search", "--precision"),
        ("finetune", "--precision"), ("expand", "--precision"),
    ])
    def test_options_a_command_does_not_read_exit_2(self, command, option):
        argv = {
            "cost": ["cost", "--graph", "g"],
            "shrink": ["shrink", "--graph", "g", "--mask", "m", "--out", "o"],
            "search": ["search", "--graph", "g", "--k", "1", "--out", "o"],
            "finetune": ["finetune", "--graph", "g", "--mask", "m", "--out", "o"],
            "expand": ["expand", "--graph", "g", "--out", "o"],
        }[command]
        build_parser().parse_args(argv)  # the rest of the command line is fine
        value = "f32" if option == "--precision" else "1"
        with pytest.raises(SystemExit) as exc:
            run(argv + [option, value])
        assert exc.value.code == 2

    def test_usage_error_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["shrink"])  # missing required arguments
        assert exc.value.code == 2

    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("node_id,key,value", [
        ("b0_dw", "groups", 0), ("b0_dw", "stride", 0), ("b0_dw", "kernel_h", 0),
        ("b0_dw", "kernel_w", 0), ("b0_dw", "padding", -1),
        ("pool", "kernel", 0), ("pool", "stride", 0), ("b0_pw1", "c_in", 0),
        ("b0_pw1", "c_out", 0), ("b0_bn1", "channels", 0),
        ("classifier", "in_features", 0), ("classifier", "out_features", 0),
    ])
    def test_bad_layer_params_exit_1(self, tmp_path, capsys, node_id, key, value):
        out = _gen(tmp_path)
        doc = json.loads((out / "graph.json").read_text())
        node = next(n for n in doc["nodes"] if n["id"] == node_id)
        node["params"][key] = value
        (out / "graph.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["cost", "--graph", str(out)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError"
        assert key in err["message"]

    @pytest.mark.parametrize("command,flags,where", [
        ("search", ["--epochs", "0"], "epochs"),
        ("search", ["--batch-size", "0"], "batch_size"),
        ("search", ["--lr", "-1"], "lr"),
        ("search", ["--decay", "-5"], "decay_strength"),
        ("finetune", ["--distill", "--distill-alpha", "2"], "distill_alpha"),
        ("search", ["--lr", "nan"], "lr"),
        ("search", ["--lr", "inf"], "lr"),
        ("search", ["--decay", "nan"], "decay_strength"),
        ("search", ["--decay", "inf"], "decay_strength"),
        ("finetune", ["--distill", "--distill-temperature", "nan"], "distill_temperature"),
        ("search", ["--data-samples", "-1"], "n >= 1"),
        ("finetune", ["--data-samples", "0"], "n >= 1"),
    ], ids=["epochs-0", "batch-size-0", "lr-negative", "decay-negative", "alpha-2",
            "lr-nan", "lr-inf", "decay-nan", "decay-inf", "temperature-nan",
            "samples-negative", "samples-0"])
    def test_training_settings_out_of_range_exit_1(self, tmp_path, capsys, command,
                                                    flags, where):
        out = _gen(tmp_path)
        mask = tmp_path / "mask.json"
        io.save_mask([0, 1], mask)
        res = tmp_path / "res"
        argv = [command, "--graph", str(out), "--out", str(res), *flags,
                *(["--k", "1"] if command == "search" else ["--mask", str(mask)])]
        capsys.readouterr()
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError" and where in err["message"]
        assert not res.exists()

    @pytest.mark.parametrize("mutate,error,where", [
        (lambda doc: doc.update(nodes=5), "FormatError", "$.nodes"),
        (lambda doc: doc["nodes"].__setitem__(1, ["b0_pw1"]), "FormatError", "$.nodes[1]"),
        (lambda doc: doc["nodes"][1].update(id=["b0_pw1"]), "FormatError", "$.nodes[1].id"),
        (lambda doc: doc["nodes"][1].update(inputs="stem_act"), "FormatError",
         "$.nodes[1].inputs"),
        (lambda doc: doc.update(metadata=["fixture"]), "FormatError", "$.metadata"),
        (lambda doc: doc.update(version=True), "FormatError", "$.version"),
        (lambda doc: doc.update(version=1.0), "FormatError", "$.version"),
        (lambda doc: doc.update(version=1), "FormatError", "$.version: expected 3, got 1"),
        (lambda doc: doc.update(version=2), "FormatError", "$.version: expected 3, got 2"),
        (lambda doc: doc.update(version=4), "FormatError", "$.version: expected 3, got 4"),
        (lambda doc: doc["blocks"][0].update(node_ids=[]), "GraphError", "empty node list"),
        (lambda doc: doc["blocks"][0]["node_ids"].__setitem__(0, "no_such_node"),
         "GraphError", "unknown node 'no_such_node'"),
        (lambda doc: doc.update(input_dims=[1, 0, 8, 8]), "FormatError", "$.input_dims"),
        (lambda doc: doc.update(input_dims=[1, -3, 8, 8]), "FormatError", "$.input_dims"),
        (lambda doc: doc.update(input_dims=[0, 3, 8, 8]), "FormatError", "$.input_dims"),
        # a float passed `cost` and raised a TypeError in `verify` and `shrink`
        (lambda doc: _params(doc, "b0_dw").update(padding=1.0), "FormatError",
         ".params.padding: expected int, got float"),
        (lambda doc: _params(doc, "b0_dw").update(stride=1.0), "FormatError",
         ".params.stride: expected int"),
        (lambda doc: _params(doc, "pool").update(stride=8.0), "FormatError",
         ".params.stride: expected int"),
        (lambda doc: _params(doc, "b0_bn1").update(channels=True), "FormatError",
         ".params.channels: expected int, got bool"),
        # these were coerced: 8.7 read as 8, 1.7 as 1, "false" as True
        (lambda doc: doc.update(input_dims=[1, 3, 8.7, 8]), "FormatError",
         "$.input_dims[2]: expected int"),
        (lambda doc: doc["blocks"][1].update(block_id=1.7), "FormatError",
         "$.blocks[1].block_id: expected int"),
        (lambda doc: _params(doc, "b0_pw1").update(has_bias="false"), "FormatError",
         ".params.has_bias: expected bool, got str"),
        (lambda doc: _params(doc, "classifier").update(has_bias=1), "FormatError",
         ".params.has_bias: expected bool, got int"),
        (lambda doc: doc["nodes"].reverse(), "GraphError", "is listed before its input"),
        (lambda doc: doc["blocks"][1].update(kind=64), "FormatError",
         "$.blocks[1].kind: expected 'inverted_residual' or 'plain_conv', got 64"),
    ], ids=["nodes-int", "node-list", "id-list", "inputs-str", "metadata-list",
            "version-bool", "version-float", "version-1", "version-2", "version-4",
            "block-empty", "block-unknown-first", "channels-0", "channels-negative",
            "batch-0", "padding-float", "stride-float", "pool-stride-float",
            "channels-bool", "input-dims-float", "block-id-float", "conv-bias-str",
            "linear-bias-int", "nodes-reversed", "kind-int"])
    def test_malformed_graph_exits_1(self, tmp_path, capsys, mutate, error, where):
        out = _gen(tmp_path)
        doc = json.loads((out / "graph.json").read_text())
        mutate(doc)
        (out / "graph.json").write_text(json.dumps(doc))
        io.save_mask([0, 0], tmp_path / "mask.json")
        for argv in (["cost", "--graph", str(out)],
                     ["shrink", "--graph", str(out), "--mask", str(tmp_path / "mask.json"),
                      "--out", str(tmp_path / "shrunk")],
                     ["verify", "--before", str(out), "--after", str(out)]):
            capsys.readouterr()
            assert run(argv) == 1
            err = json.loads(capsys.readouterr().err)
            assert err["error"] == error
            assert where in err["message"]
        assert not (tmp_path / "shrunk").exists()

    @pytest.mark.parametrize("command", ["search", "finetune"])
    @pytest.mark.parametrize("labels, message", [
        (None, "data.bin: truncated dataset file"),
        ([0, 7], "dataset label 7 is out of range for 2 classes"),
    ], ids=["short-header", "label-7"])
    def test_a_bad_dataset_exits_1(self, tmp_path, capsys, command, labels, message):
        out = _gen(tmp_path)
        data = tmp_path / "data.bin"
        if labels is None:
            data.write_bytes(b"BFDS\x01\x00")  # shorter than the 24-byte header
        else:
            save_dataset_raw((np.full((2, 3, 8, 8), 0.5), np.array(labels)), data)
        mask = tmp_path / "mask.json"
        io.save_mask([0, 1], mask)
        extra = ["--k", "1"] if command == "search" else ["--mask", str(mask)]
        capsys.readouterr()
        assert run([command, "--graph", str(out), "--data", str(data),
                    "--out", str(tmp_path / "res"), *extra]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["message"].endswith(message)
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("flags", [["--border", "1"], ["--allow-boundary"]])
    def test_removed_verify_flags_exit_2(self, tmp_path, flags):
        out = _gen(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(["verify", "--before", str(out), "--after", str(out)] + flags)
        assert exc.value.code == 2

    @pytest.mark.parametrize("mutate,error,where", [
        (lambda p: p.update(bias_hw=[8]), "FormatError", "bias_hw"),
        (lambda p: p.update(bias_hw=[8, 8, 8]), "FormatError", "bias_hw"),
        (lambda p: p.update(bias_hw=[8, 2.5]), "FormatError", "bias_hw"),
        (lambda p: p.update(bias_hw=[8, "8"]), "FormatError", "bias_hw"),
        (lambda p: p.update(bias_hw=[0, 8]), "FormatError", "bias_hw"),
        (lambda p: p.update(bias_hw=8), "FormatError", "bias_hw"),
        (lambda p: p.update(has_bias=False), "FormatError", "bias_hw"),
        (lambda p: p.update(bias_hw=[7, 8]), "GraphError", "bias map"),
    ], ids=["short", "long", "float", "string", "zero", "int", "no-bias", "wrong-dims"])
    def test_malformed_bias_map_exits_1(self, tmp_path, capsys, mutate, error, where):
        shrunk = _bias_map_net(tmp_path)
        doc = json.loads((shrunk / "graph.json").read_text())
        node = next(n for n in doc["nodes"] if n["id"] == "block0_merged")
        assert node["params"]["bias_hw"] == [8, 8]
        mutate(node["params"])
        (shrunk / "graph.json").write_text(json.dumps(doc))
        capsys.readouterr()
        assert run(["cost", "--graph", str(shrunk)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == error
        assert where in err["message"]

    def test_weights_bias_of_the_wrong_map_shape_exits_1(self, tmp_path, capsys):
        shrunk = _bias_map_net(tmp_path)
        assert run(["cost", "--graph", str(shrunk)]) == 0
        table = io.load_weights(shrunk / "weights.dswt")
        table["block0_merged.bias"] = np.zeros((8, 7, 8))
        io.save_weights(table, shrunk / "weights.dswt")
        capsys.readouterr()
        assert run(["cost", "--graph", str(shrunk)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "GraphError"
        assert "block0_merged.bias" in err["message"]

    @pytest.mark.parametrize("mask", ["[true, false]", "[1.0, 0]", "[1, false]"])
    def test_mask_of_booleans_or_floats_exits_1(self, tmp_path, capsys, mask):
        out = _gen(tmp_path)
        bad = tmp_path / "mask.json"
        bad.write_text(mask)
        rc = run(["shrink", "--graph", str(out), "--mask", str(bad),
                  "--out", str(tmp_path / "x")])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError" and "integers 0 and 1" in err["message"]
        assert not (tmp_path / "x").exists()

    def test_bad_mask_file_exits_1(self, tmp_path, capsys):
        out = _gen(tmp_path)
        bad = tmp_path / "mask.json"
        bad.write_text("{\"not\": \"a mask\"}")
        rc = run(["shrink", "--graph", str(out), "--mask", str(bad),
                  "--out", str(tmp_path / "x")])
        assert rc == 1
        assert json.loads(capsys.readouterr().err)["error"] == "FormatError"

    # each raised a UnicodeDecodeError traceback out of `run`
    @pytest.mark.parametrize("file,command", [
        ("graph.json", "cost"), ("mask.json", "shrink"), ("lat.csv", "search")])
    def test_a_non_utf8_text_file_exits_1(self, tmp_path, capsys, file, command):
        out = _gen(tmp_path)
        io.save_mask([0, 1], tmp_path / "mask.json")
        io.save_latency_table(io.LatencyTable(((0, 1.0), (1, 1.0))), tmp_path / "lat.csv")
        bad = out / file if file == "graph.json" else tmp_path / file
        bad.write_bytes(b"\xff" + bad.read_bytes())
        argv = {"cost": ["cost", "--graph", str(out)],
                "shrink": ["shrink", "--graph", str(out), "--mask", str(bad),
                           "--out", str(tmp_path / "x")],
                "search": ["search", "--graph", str(out), "--k", "1", "--epochs", "1",
                           "--data-samples", "16", "--latency", str(bad),
                           "--out", str(tmp_path / "x")]}[command]
        capsys.readouterr()
        assert run(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "FormatError"
        assert str(bad) in err["message"] and "not UTF-8" in err["message"]
        assert not (tmp_path / "x").exists()
