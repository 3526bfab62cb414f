"""File formats: graph JSON, binary weights container, mask JSON, latency CSV.

Weights container layout (all little-endian, no padding):
  magic "DSWT" | u32 version=1 | u32 array count |
  per array: u16 name length | UTF-8 name | u8 dtype (0=f32, 1=f64) |
             u8 ndim | ndim x u32 dims | raw payload

`blockfuse cost` reads only the records' headers and seeks past every payload.
`save_weights` rewrites an existing file in place and writes the magic last, so
an exception or a killed process mid-write leaves a file that fails on "bad magic".
"""
from __future__ import annotations

import csv
import json
import math
import os
import struct
from dataclasses import replace
from io import StringIO
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
    layer_arrays,
)
from .errors import FormatError, GraphError
from .graph import BlockAnnotation, LatencyTable, NetGraph, Node, validate_graph

GRAPH_VERSION = 3
WEIGHTS_MAGIC = b"DSWT"
WEIGHTS_VERSION = 1
_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}
_CODE_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _layer_to_json(layer: Layer) -> tuple:
    if isinstance(layer, ConvLayer):
        params = {
            "kernel_h": layer.kernel_h, "kernel_w": layer.kernel_w,
            "stride": layer.stride, "padding": layer.padding,
            "groups": layer.groups, "c_in": layer.c_in, "c_out": layer.c_out,
            "has_bias": layer.bias is not None,
        }
        if layer.bias is not None and layer.bias.ndim == 3:
            params["bias_hw"] = list(layer.bias.shape[1:])
        return "conv", params
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


def _check_at_least(params: dict, keys, low: int, path: str) -> None:
    for key in keys:
        if _typed(params[key], int, f"{path}.params.{key}") < low:
            raise FormatError(f"bad params at {path}: {key} must be >= {low}, "
                              f"got {params[key]!r}")


def _placeholder(shape: tuple, dtype=np.float64) -> np.ndarray:
    """Zeros of `shape` as one read-only zero-stride view, so a graph loaded
    before `bind_weights` costs no memory per weight."""
    return np.broadcast_to(np.zeros((), dtype), shape)


def _layer_from_json(op: str, params: dict, path: str) -> Layer:
    try:
        if op == "conv":
            _check_at_least(params, ("kernel_h", "kernel_w", "stride", "groups", "c_in",
                                     "c_out"), 1, path)
            _check_at_least(params, ("padding",), 0, path)
            has_bias = _typed(params.get("has_bias", False), bool, f"{path}.params.has_bias")
            c_out = params["c_out"]
            shape = (c_out, params["c_in"] // params["groups"],
                     params["kernel_h"], params["kernel_w"])
            hw = params.get("bias_hw")
            if hw is not None and not (
                    has_bias and isinstance(hw, list) and len(hw) == 2
                    and all(type(v) is int and v >= 1 for v in hw)):
                raise FormatError(f"bad params at {path}: bias_hw must be two integers "
                                  f">= 1 on a conv with has_bias, got {hw!r}")
            return ConvLayer(
                params["kernel_h"], params["kernel_w"], params["stride"],
                params["padding"], params["groups"], params["c_in"], c_out,
                weights=_placeholder(shape),
                bias=_placeholder((c_out, *(hw or ()))) if has_bias else None,
            )
        if op == "bn":
            _check_at_least(params, ("channels",), 1, path)
            c = params["channels"]
            return BatchNormLayer(np.ones(c), np.zeros(c), np.zeros(c), np.ones(c),
                                  params.get("epsilon", 1e-5))
        if op == "act":
            return Activation(ActivationKind(params["kind"]))
        if op == "avgpool":
            _check_at_least(params, ("kernel", "stride"), 1, path)
            return AvgPool(params["kernel"], params["stride"])
        if op == "linear":
            _check_at_least(params, ("in_features", "out_features"), 1, path)
            shape = (params["out_features"], params["in_features"])
            has_bias = _typed(params.get("has_bias", False), bool, f"{path}.params.has_bias")
            bias = _placeholder((params["out_features"],)) if has_bias else None
            return Linear(_placeholder(shape), bias)
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
    blocks = [{"block_id": b.block_id, "kind": b.kind, "node_ids": list(b.node_ids),
               "act_node_ids": list(b.act_node_ids)} for b in graph.blocks]
    return {"version": GRAPH_VERSION, "input_dims": list(graph.input_dims),
            "nodes": nodes, "blocks": blocks, "metadata": dict(graph.metadata)}


def _typed(value, kind: type, path: str):
    """`value` if its type is exactly `kind`, else a FormatError naming `path`;
    exactly, so JSON true and 1.0 do not pass as an int."""
    if type(value) is not kind:
        raise FormatError(f"{path}: expected {kind.__name__}, got {type(value).__name__}")
    return value


def _node_ids(value, path: str) -> tuple:
    """A JSON array of node-id strings, as a tuple."""
    for i, nid in enumerate(_typed(value, list, path)):
        _typed(nid, str, f"{path}[{i}]")
    return tuple(value)


def graph_from_json(doc: dict) -> NetGraph:
    """The graph of a graph.json document, validated."""
    if not isinstance(doc, dict):
        raise FormatError("$: graph document must be a JSON object")
    # the type check keeps JSON true and 3.0 from passing as version 3
    version = doc.get("version")
    if type(version) is not int or version != GRAPH_VERSION:
        raise FormatError(f"$.version: expected {GRAPH_VERSION}, got {version!r}")
    input_dims = tuple(_typed(v, int, f"$.input_dims[{i}]") for i, v in
                       enumerate(_typed(doc.get("input_dims"), list, "$.input_dims")))
    if len(input_dims) != 4 or min(input_dims) < 1:
        raise FormatError(f"$.input_dims: must be 4 entries >= 1, got {list(input_dims)}")
    nodes = []
    for i, rec in enumerate(_typed(doc.get("nodes", []), list, "$.nodes")):
        path = f"$.nodes[{i}]"
        _typed(rec, dict, path)
        try:
            layer = _layer_from_json(rec["op"], rec.get("params", {}), path)
            nodes.append(Node(_typed(rec["id"], str, f"{path}.id"), layer,
                              _node_ids(rec.get("inputs", []), f"{path}.inputs")))
        except KeyError as exc:
            raise FormatError(f"{path}: missing key {exc}") from exc
    blocks = []
    for i, rec in enumerate(_typed(doc.get("blocks", []), list, "$.blocks")):
        path = f"$.blocks[{i}]"
        _typed(rec, dict, path)
        try:
            if rec["kind"] not in ("inverted_residual", "plain_conv"):
                raise FormatError(f"{path}.kind: expected 'inverted_residual' or "
                                  f"'plain_conv', got {rec['kind']!r}")
            blocks.append(BlockAnnotation(
                _typed(rec["block_id"], int, f"{path}.block_id"), rec["kind"],
                _node_ids(rec["node_ids"], f"{path}.node_ids"),
                _node_ids(rec["act_node_ids"], f"{path}.act_node_ids"),
            ))
        except KeyError as exc:
            raise FormatError(f"{path}: missing key {exc}") from exc
    blocks.sort(key=lambda b: b.block_id)  # the records may come in any order
    graph = NetGraph(tuple(nodes), input_dims, tuple(blocks),
                     dict(_typed(doc.get("metadata", {}), dict, "$.metadata")))
    validate_graph(graph)
    return graph


def save_graph(graph: NetGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(graph_to_json(graph), fh, indent=1)
        fh.write("\n")


def _read_text(path) -> str:
    """The file's text; bytes that are not UTF-8 raise a FormatError naming the file."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text: {exc}") from exc


def _read_json(path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: not valid JSON: {exc}") from exc


def load_graph(path) -> NetGraph:
    return graph_from_json(_read_json(path))


def save_weights(table: Dict[str, np.ndarray], path) -> None:
    """Check every name and dtype, then rewrite any old file in place (an ext4 truncate
    waits for writeback): 4 zero bytes, header, records, truncate, magic last. A raise or
    kill mid-write leaves "bad magic"; with no fsync a power loss or a live reader may not."""
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
    try:
        fh = open(path, "r+b")
    except FileNotFoundError:
        fh = open(path, "wb")
    with fh:
        fh.write(bytes(4) + struct.pack("<II", WEIGHTS_VERSION, len(table)))
        for header, arr in records:
            fh.write(header)
            # a C-contiguous little-endian array is written as is, uncopied
            fh.write(memoryview(np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))))
        fh.truncate()
        fh.seek(0)
        fh.write(WEIGHTS_MAGIC)


def load_weights(path, payloads: bool = True) -> Dict[str, np.ndarray]:
    """Arrays by name, each in its own writable, aligned, C-contiguous buffer;
    `payloads=False` skips the payloads for zero-stride placeholders."""
    with open(path, "rb") as fh:
        left = os.fstat(fh.fileno()).st_size

        def take(n: int, what: str, make=bytearray):
            """The next n bytes, read into the buffer make(n), or skipped if
            make is None."""
            nonlocal left
            if n > left:  # checked before anything of that size is allocated
                raise FormatError(f"truncated weights file while reading {what}")
            left -= n
            if make is None:
                fh.seek(n, os.SEEK_CUR)
                return None
            out = make(n)
            if fh.readinto(out) != n:  # a short read would leave unread memory
                raise FormatError(f"truncated weights file while reading {what}")
            return out

        if take(4, "magic") != WEIGHTS_MAGIC:
            raise FormatError("bad magic; not a weights container")
        version, count = struct.unpack("<II", take(8, "header"))
        if version != WEIGHTS_VERSION:
            raise FormatError(f"unsupported weights version {version}")
        table: Dict[str, np.ndarray] = {}
        for i in range(count):
            (name_len,) = struct.unpack("<H", take(2, "name length"))
            try:
                name = str(take(name_len, "name"), "utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"record {i}: name is not UTF-8: {exc}") from exc
            code, ndim = struct.unpack("<BB", take(2, "dtype/ndim"))
            if code not in _CODE_DTYPES:
                raise FormatError(f"{name}: unknown dtype code {code}")
            dims = struct.unpack(f"<{ndim}I", take(4 * ndim, "dims"))
            dtype = _CODE_DTYPES[code]
            if name in table:
                raise FormatError(f"duplicate array name {name!r}")
            # math.prod: a Python int, so huge dims cannot wrap around
            try:  # numpy refuses dims whose nonzero entries multiply past its limit
                payload = take(math.prod(dims) * dtype.itemsize, f"payload of {name}",
                               (lambda _: np.empty(dims, dtype)) if payloads else None)
                table[name] = _placeholder(dims, dtype) if payload is None else payload
            except ValueError as exc:
                raise FormatError(f"{name}: dims {list(dims)} make no array: {exc}") from exc
    if left:
        raise FormatError(f"{left} trailing bytes after last record")
    return table


def weights_of_graph(graph: NetGraph) -> Dict[str, np.ndarray]:
    """Every layer array of the graph, named "<node_id>.<slot>" (`core.layer_arrays`)."""
    return {f"{n.node_id}.{slot}": arr for n in graph.nodes
            for slot, _, arr in layer_arrays(n.layer)}


def bind_weights(graph: NetGraph, table: Dict[str, np.ndarray]) -> NetGraph:
    """Return a graph whose parameterized layers carry arrays from the table."""
    nodes = []
    for n in graph.nodes:
        arrays = {}
        for slot, field, old in layer_arrays(n.layer):
            name = f"{n.node_id}.{slot}"
            if name not in table:
                raise GraphError(f"weights table missing array {name!r}")
            arrays[field] = arr = np.asarray(table[name])
            if arr.shape != old.shape:
                raise GraphError(f"{name}: shape {arr.shape} != expected {old.shape}")
        nodes.append(replace(n, layer=replace(n.layer, **arrays)) if arrays else n)
    return replace(graph, nodes=tuple(nodes))


def save_mask(mask, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([int(v) for v in mask], fh)
        fh.write("\n")


def load_mask(path) -> List[int]:
    doc = _read_json(path)
    # the type check keeps JSON true and 1.0 from passing as 1
    if not isinstance(doc, list) or any(type(v) is not int or v not in (0, 1) for v in doc):
        raise FormatError(f"{path}: mask must be a JSON array of the integers 0 and 1")
    return doc


def save_latency_table(table: LatencyTable, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["block_id", "latency_ms"])
        for block_id, latency in table.entries:
            writer.writerow([block_id, repr(float(latency))])


def load_latency_table(path) -> LatencyTable:
    reader = csv.reader(StringIO(_read_text(path), newline=""))
    header = next(reader, None)
    if header != ["block_id", "latency_ms"]:
        raise FormatError(f"{path}: expected header 'block_id,latency_ms'")
    entries = []
    seen = set()
    for row in reader:
        if not row:
            continue
        try:
            block_id, latency = int(row[0]), float(row[1])
        except (IndexError, ValueError) as exc:
            raise FormatError(f"{path}: bad row {row!r}: {exc}") from exc
        if not 0 < latency < math.inf:  # NaN compares False
            raise FormatError(f"{path}: latency for block {block_id} must be finite "
                              f"and > 0, got {row[1]!r}")
        if block_id in seen:
            raise FormatError(f"{path}: block_id {block_id} has more than one row")
        seen.add(block_id)
        entries.append((block_id, latency))
    return LatencyTable(tuple(entries))
