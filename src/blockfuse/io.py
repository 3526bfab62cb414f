"""File formats: graph JSON, binary weights container, mask JSON, latency CSV.

Weights container layout (all little-endian, no padding):
  magic "DSWT" | u32 version=1 | u32 array count |
  per array: u16 name length | UTF-8 name | u8 dtype (0=f32, 1=f64) |
             u8 ndim | ndim x u32 dims | raw payload
"""
from __future__ import annotations

import csv
import json
import struct
from dataclasses import replace
from typing import Dict, List

import numpy as np

from .core import (
    Activation,
    ActivationKind,
    Add,
    AvgPool,
    BatchNormLayer,
    ConvLayer,
    Flatten,
    Layer,
    Linear,
)
from .errors import FormatError, GraphError
from .graph import BlockAnnotation, LatencyTable, NetGraph, Node, validate_graph

GRAPH_VERSION = 1
WEIGHTS_MAGIC = b"DSWT"
WEIGHTS_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _layer_to_json(layer: Layer) -> tuple:
    if isinstance(layer, ConvLayer):
        return "conv", {
            "kernel_h": layer.kernel_h, "kernel_w": layer.kernel_w,
            "stride": layer.stride, "padding": layer.padding,
            "groups": layer.groups, "c_in": layer.c_in, "c_out": layer.c_out,
            "has_bias": layer.bias is not None,
        }
    if isinstance(layer, BatchNormLayer):
        return "bn", {"channels": layer.channels, "epsilon": layer.epsilon}
    if isinstance(layer, Activation):
        return "act", {"kind": layer.kind.value}
    if isinstance(layer, AvgPool):
        return "avgpool", {"kernel": layer.kernel, "stride": layer.stride}
    if isinstance(layer, Linear):
        out_f, in_f = layer.weight.shape
        return "linear", {"in_features": in_f, "out_features": out_f,
                          "has_bias": layer.bias is not None}
    if isinstance(layer, Add):
        return "add", {}
    if isinstance(layer, Flatten):
        return "flatten", {}
    raise TypeError(f"unknown layer {type(layer)!r}")


def _layer_from_json(op: str, params: dict, path: str) -> Layer:
    try:
        if op == "conv":
            c_out = params["c_out"]
            shape = (c_out, params["c_in"] // params["groups"],
                     params["kernel_h"], params["kernel_w"])
            return ConvLayer(
                params["kernel_h"], params["kernel_w"], params["stride"],
                params["padding"], params["groups"], params["c_in"], c_out,
                weights=np.zeros(shape),
                bias=np.zeros(c_out) if params.get("has_bias") else None,
            )
        if op == "bn":
            c = params["channels"]
            return BatchNormLayer(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c),
                                  params.get("epsilon", 1e-5))
        if op == "act":
            return Activation(ActivationKind(params["kind"]))
        if op == "avgpool":
            return AvgPool(params["kernel"], params["stride"])
        if op == "linear":
            shape = (params["out_features"], params["in_features"])
            bias = np.zeros(params["out_features"]) if params.get("has_bias") else None
            return Linear(np.zeros(shape), bias)
        if op == "add":
            return Add()
        if op == "flatten":
            return Flatten()
    except (KeyError, ValueError, TypeError) as exc:
        raise FormatError(f"bad params at {path}: {exc}") from exc
    raise FormatError(f"unknown op {op!r} at {path}")


def graph_to_json(graph: NetGraph) -> dict:
    nodes = []
    for n in graph.nodes:
        op, params = _layer_to_json(n.layer)
        nodes.append({"id": n.node_id, "op": op, "params": params,
                      "inputs": list(n.input_ids)})
    blocks = [{
        "block_id": b.block_id, "kind": b.kind, "node_ids": list(b.node_ids),
        "expand_ratio": b.expand_ratio, "dw_kernel": b.dw_kernel, "stride": b.stride,
        "has_residual": b.has_residual, "act_node_ids": list(b.act_node_ids),
    } for b in graph.blocks]
    return {"version": GRAPH_VERSION, "input_dims": list(graph.input_dims),
            "nodes": nodes, "blocks": blocks, "metadata": dict(graph.metadata)}


def graph_from_json(doc: dict) -> NetGraph:
    if not isinstance(doc, dict):
        raise FormatError("$: graph document must be a JSON object")
    if doc.get("version") != GRAPH_VERSION:
        raise FormatError(f"$.version: expected {GRAPH_VERSION}, got {doc.get('version')!r}")
    try:
        input_dims = tuple(int(v) for v in doc["input_dims"])
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"$.input_dims: {exc}") from exc
    if len(input_dims) != 4:
        raise FormatError("$.input_dims: must have 4 entries")
    nodes = []
    for i, rec in enumerate(doc.get("nodes", [])):
        path = f"$.nodes[{i}]"
        try:
            layer = _layer_from_json(rec["op"], rec.get("params", {}), path)
            nodes.append(Node(rec["id"], layer, tuple(rec.get("inputs", []))))
        except KeyError as exc:
            raise FormatError(f"{path}: missing key {exc}") from exc
    blocks = []
    for i, rec in enumerate(doc.get("blocks", [])):
        path = f"$.blocks[{i}]"
        try:
            blocks.append(BlockAnnotation(
                int(rec["block_id"]), rec["kind"], tuple(rec["node_ids"]),
                float(rec["expand_ratio"]), int(rec["dw_kernel"]), int(rec["stride"]),
                bool(rec["has_residual"]), tuple(rec["act_node_ids"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"{path}: {exc}") from exc
    return NetGraph(tuple(nodes), input_dims, tuple(blocks),
                    dict(doc.get("metadata", {})))


def save_graph(graph: NetGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(graph), fh, indent=1)
        fh.write("\n")


def load_graph(path) -> NetGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    graph = graph_from_json(doc)
    validate_graph(graph)
    return graph


def save_weights(table: Dict[str, np.ndarray], path) -> None:
    records = []
    seen = set()
    for name, arr in table.items():
        if name in seen:
            raise FormatError(f"duplicate array name {name!r}")
        seen.add(name)
        arr = np.asarray(arr)
        if arr.dtype not in _DTYPE_CODES:
            raise FormatError(f"{name}: unsupported dtype {arr.dtype}")
        encoded = name.encode("utf-8")
        header = struct.pack(f"<H{len(encoded)}sBB{arr.ndim}I", len(encoded), encoded,
                             _DTYPE_CODES[arr.dtype], arr.ndim, *arr.shape)
        records.append((header, arr))
    with open(path, "wb") as fh:
        fh.write(WEIGHTS_MAGIC + struct.pack("<II", WEIGHTS_VERSION, len(table)))
        for header, arr in records:
            fh.write(header)
            # a C-contiguous little-endian array is written as is, uncopied
            fh.write(memoryview(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))))


def load_weights(path) -> Dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        buf = memoryview(fh.read())

    def take(n: int, what: str) -> memoryview:
        nonlocal off
        if off + n > len(buf):
            raise FormatError(f"truncated weights file while reading {what}")
        out = buf[off : off + n]
        off += n
        return out

    off = 0
    if take(4, "magic") != WEIGHTS_MAGIC:
        raise FormatError("bad magic; not a weights container")
    version, count = struct.unpack("<II", take(8, "header"))
    if version != WEIGHTS_VERSION:
        raise FormatError(f"unsupported weights version {version}")
    table: Dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = str(take(name_len, "name"), "utf-8")
        code, ndim = struct.unpack("<BB", take(2, "dtype/ndim"))
        if code not in _CODE_DTYPES:
            raise FormatError(f"{name}: unknown dtype code {code}")
        dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
        dtype = _CODE_DTYPES[code]
        payload = take(int(np.prod(dims, dtype=np.int64)) * dtype.itemsize, f"payload of {name}")
        if name in table:
            raise FormatError(f"duplicate array name {name!r}")
        # copy out of the file buffer so each array owns writable data
        table[name] = np.frombuffer(payload, dtype=dtype).reshape(dims).copy()
    if off != len(buf):
        raise FormatError(f"{len(buf) - off} trailing bytes after last record")
    return table


# weight-table naming convention: "<node_id>.<slot>"
_BN_SLOTS = ("gamma", "beta", "mean", "var")


def weights_of_graph(graph: NetGraph) -> Dict[str, np.ndarray]:
    table: Dict[str, np.ndarray] = {}
    for n in graph.nodes:
        layer = n.layer
        if isinstance(layer, ConvLayer):
            table[f"{n.node_id}.weight"] = layer.weights
            if layer.bias is not None:
                table[f"{n.node_id}.bias"] = layer.bias
        elif isinstance(layer, Linear):
            table[f"{n.node_id}.weight"] = layer.weight
            if layer.bias is not None:
                table[f"{n.node_id}.bias"] = layer.bias
        elif isinstance(layer, BatchNormLayer):
            for slot, arr in zip(_BN_SLOTS, (layer.gamma, layer.beta,
                                             layer.running_mean, layer.running_var)):
                table[f"{n.node_id}.{slot}"] = arr
    return table


def bind_weights(graph: NetGraph, table: Dict[str, np.ndarray]) -> NetGraph:
    """Return a graph whose parameterized layers carry arrays from the table."""
    nodes = []
    for n in graph.nodes:
        layer = n.layer
        if isinstance(layer, ConvLayer):
            layer = replace(
                layer,
                weights=_pick(table, n.node_id, "weight", layer.weights.shape),
                bias=(_pick(table, n.node_id, "bias", (layer.c_out,))
                      if layer.bias is not None else None),
            )
        elif isinstance(layer, Linear):
            layer = replace(
                layer,
                weight=_pick(table, n.node_id, "weight", layer.weight.shape),
                bias=(_pick(table, n.node_id, "bias", layer.bias.shape)
                      if layer.bias is not None else None),
            )
        elif isinstance(layer, BatchNormLayer):
            c = (layer.channels,)
            layer = BatchNormLayer(
                _pick(table, n.node_id, "gamma", c), _pick(table, n.node_id, "beta", c),
                _pick(table, n.node_id, "mean", c), _pick(table, n.node_id, "var", c),
                layer.epsilon,
            )
        nodes.append(replace(n, layer=layer))
    return replace(graph, nodes=tuple(nodes))


def _pick(table, node_id, slot, shape):
    name = f"{node_id}.{slot}"
    if name not in table:
        raise GraphError(f"weights table missing array {name!r}")
    arr = np.asarray(table[name])
    if tuple(arr.shape) != tuple(shape):
        raise GraphError(f"{name}: shape {arr.shape} != expected {tuple(shape)}")
    return arr


def save_mask(mask, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([int(v) for v in mask], fh)
        fh.write("\n")


def load_mask(path) -> List[int]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, list) or any(v not in (0, 1) for v in doc):
        raise FormatError(f"{path}: mask must be a JSON array of 0/1")
    return [int(v) for v in doc]


def save_latency_table(table: LatencyTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_id", "latency_ms"])
        for block_id, latency in table.entries:
            writer.writerow([block_id, repr(float(latency))])


def load_latency_table(path) -> LatencyTable:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["block_id", "latency_ms"]:
            raise FormatError(f"{path}: expected header 'block_id,latency_ms'")
        entries = []
        for row in reader:
            if not row:
                continue
            try:
                block_id, latency = int(row[0]), float(row[1])
            except (IndexError, ValueError) as exc:
                raise FormatError(f"{path}: bad row {row!r}: {exc}") from exc
            if latency <= 0:
                raise FormatError(f"{path}: latency for block {block_id} must be > 0")
            entries.append((block_id, latency))
    return LatencyTable(tuple(entries))
