"""Fuzz the file readers: `cost` and `verify` on a toy-irb-2 directory whose
graph.json is mutated or whose weights.dswt has bytes flipped, cut off or
inserted, `shrink --mask` and `cost --latency` on a mask JSON or latency CSV with
a value set or bytes flipped, cut off or inserted, and `search --data` on a BFDS
dataset with bytes flipped, cut off or inserted, exit 0, or exit 1 with a JSON
error on stderr, and never end in a traceback."""
import contextlib
import copy
import io
import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockfuse.cli import run
from blockfuse.train import save_dataset_raw, synthetic_two_class

# every integer is at most 64 (as are those of toy-irb-2), so no mutation asks
# for a large allocation
VALUES = [-1, 0, 1, 2, 64, 1.0, 2.5, "3", True, None, [], {}]


def _slots(doc) -> list:
    """(container, key) of every value in `doc`, depth first."""
    slots = []
    for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        slots.append((doc, key))
        if isinstance(value, (dict, list)):
            slots.extend(_slots(value))
    return slots


def _mutate(data, doc: dict) -> None:
    """Set a value (half the time), or write an integer as the equal float, delete
    a key, shuffle the nodes or duplicate a node."""
    nodes = doc.get("nodes")
    slots = _slots(doc)
    ints = [(c, k) for c, k in slots if type(c[k]) is int]
    others = (["retype"] if ints else []) + ["delete"] + (
        ["shuffle", "duplicate"] if isinstance(nodes, list) and nodes else [])
    kind = "set" if data.draw(st.booleans()) else data.draw(st.sampled_from(others))
    if kind == "set":
        container, key = data.draw(st.sampled_from(slots))
        container[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
    elif kind == "retype":
        container, key = data.draw(st.sampled_from(ints))
        container[key] = float(container[key])
    elif kind == "delete":
        container, key = data.draw(st.sampled_from(
            [(c, k) for c, k in slots if isinstance(c, dict)]))
        del container[key]
    elif kind == "shuffle":
        doc["nodes"] = data.draw(st.permutations(nodes))
    else:
        node = copy.deepcopy(data.draw(st.sampled_from(nodes)))
        nodes.insert(data.draw(st.integers(0, len(nodes))), node)


@pytest.fixture(scope="module")
def net(tmp_path_factory):
    """A toy-irb-2 directory (seed 0) and its graph.json document."""
    out = tmp_path_factory.mktemp("fuzz") / "net"
    assert run(["gen-fixture", "toy-irb-2", "--seed", "0", "--out", str(out)]) == 0
    return out, json.loads((out / "graph.json").read_text())


def _run(argv) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1)
    if code == 1:
        assert isinstance(json.loads(err.getvalue())["error"], str)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_graph_never_ends_in_a_traceback(net, data):
    out, doc = net
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate(data, doc)
    (out / "graph.json").write_text(json.dumps(doc))
    _run(["cost", "--graph", str(out)])
    _run(["verify", "--before", str(out), "--after", str(out), "--samples", "1"])


def _header_bytes(raw: bytes) -> list:
    """The offsets of every byte of a DSWT file that is not payload."""
    offsets, at = list(range(12)), 12
    for _ in range(struct.unpack_from("<I", raw, 8)[0]):
        name_len = struct.unpack_from("<H", raw, at)[0]
        code, ndim = struct.unpack_from("<BB", raw, at + 2 + name_len)
        end = at + 4 + name_len + 4 * ndim
        offsets.extend(range(at, end))
        dims = struct.unpack_from(f"<{ndim}I", raw, end - 4 * ndim)
        at = end + (4, 8)[code] * int(np.prod(dims))
    return offsets


@pytest.fixture(scope="module")
def weights_net(tmp_path_factory):
    """A toy-irb-2 directory (seed 0), the bytes of its weights.dswt and the
    offsets of their headers."""
    out = tmp_path_factory.mktemp("fuzz_weights") / "net"
    assert run(["gen-fixture", "toy-irb-2", "--seed", "0", "--out", str(out)]) == 0
    raw = (out / "weights.dswt").read_bytes()
    return out, raw, _header_bytes(raw)


def _mutate_bytes(data, raw: bytes, spots=()) -> bytes:
    """raw with bytes flipped, cut off or inserted, once or twice; half the time at
    one of `spots` when some lie inside raw."""
    for _ in range(data.draw(st.integers(1, 2))):
        kind = data.draw(st.sampled_from(["flip", "truncate", "insert"] if raw else ["insert"]))
        inside = [h for h in spots if h < len(raw)]
        at = data.draw(st.sampled_from(inside) if inside and data.draw(st.booleans())
                       else st.integers(0, max(len(raw) - 1, 0)))
        if kind == "flip":
            raw = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
        elif kind == "truncate":
            raw = raw[:at]
        else:
            raw = raw[:at] + data.draw(st.binary(min_size=1, max_size=4)) + raw[at:]
    return raw


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_weights_file_never_ends_in_a_traceback(weights_net, data):
    out, raw, headers = weights_net
    # half the time at a header byte, which decides how the rest is read
    (out / "weights.dswt").write_bytes(_mutate_bytes(data, raw, headers))
    _run(["cost", "--graph", str(out)])
    _run(["verify", "--before", str(out), "--after", str(out), "--samples", "1"])


@pytest.fixture(scope="module")
def text_net(tmp_path_factory):
    """A toy-irb-2 directory (seed 0) and the directory its mask and latency
    files go to."""
    root = tmp_path_factory.mktemp("fuzz_text")
    assert run(["gen-fixture", "toy-irb-2", "--seed", "0", "--out", str(root / "net")]) == 0
    return root / "net", root


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_mask_never_ends_in_a_traceback(text_net, data):
    out, root = text_net
    if data.draw(st.booleans()):  # set the whole mask, or one entry, to a value
        box = [[0, 1]]
        container, key = data.draw(st.sampled_from(_slots(box)))
        container[key] = copy.deepcopy(data.draw(st.sampled_from(VALUES)))
        raw = json.dumps(box[0]).encode()
    else:
        raw = _mutate_bytes(data, b"[0, 1]\n")
    (root / "mask.json").write_bytes(raw)
    _run(["shrink", "--graph", str(out), "--mask", str(root / "mask.json"),
          "--out", str(root / "shrunk")])


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_latency_table_never_ends_in_a_traceback(text_net, data):
    out, root = text_net
    rows = [["block_id", "latency_ms"], ["0", "1.0"], ["1", "2.5"]]
    if data.draw(st.booleans()):  # set one cell to a value, written as its text
        row = data.draw(st.sampled_from(rows))
        row[data.draw(st.integers(0, 1))] = str(data.draw(st.sampled_from(VALUES)))
        raw = "".join(",".join(r) + "\r\n" for r in rows).encode()
    else:
        raw = _mutate_bytes(data, b"block_id,latency_ms\r\n0,1.0\r\n1,2.5\r\n")
    (root / "lat.csv").write_bytes(raw)
    _run(["cost", "--graph", str(out), "--latency", str(root / "lat.csv")])


@pytest.fixture(scope="module")
def dataset_raw(tmp_path_factory):
    """The bytes of a BFDS file of 4 synthetic 3x8x8 samples (seed 0)."""
    path = tmp_path_factory.mktemp("fuzz_data") / "data.bfds"
    save_dataset_raw(synthetic_two_class(4, 3, 8, seed=0), path)
    return path.read_bytes()


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.data())
def test_a_mutated_dataset_never_ends_in_a_traceback(text_net, dataset_raw, data):
    out, root = text_net
    # half the time in the 24-byte header, which decides how the rest is read
    (root / "data.bfds").write_bytes(_mutate_bytes(data, dataset_raw, range(24)))
    _run(["search", "--graph", str(out), "--data", str(root / "data.bfds"),
          "--epochs", "1", "--k", "1", "--out", str(root / "searched")])
