"""Symbolic shape/dtype propagation over :mod:`repro.nn` module graphs.

The lint rules look at source text; this checker looks at *constructed
models*.  It abstract-interprets a :class:`~repro.models.base.GNNRegressor`
the way ``forward`` would execute it, but over :class:`SymTensor` values
whose row counts are symbolic (``N`` nodes, ``E[t]`` edges of type ``t``)
while column counts and parameter shapes stay concrete.  Every matrix
multiply, concat, broadcast-add and readout is checked against the actual
parameter arrays on the model, so a corrupted checkpoint, a bad ablation
combination or a refactor that breaks ``concat_skip`` arithmetic is caught
without running a single kernel.

The dtype contract rides along: every parameter must carry the compute
dtype the model was built under (:mod:`repro.nn.precision`), and symbolic
tensors propagate dtypes through each op so a mixed-precision graph is
reported at the layer that introduces it.

:func:`shipped_configs` enumerates the model zoo the repo actually ships —
all five convolution families, the paper's readout depths (4 FC for CAP,
2 for device parameters, 0 for the linear-readout baseline), both
``TrainConfig.dtype`` precisions, every ParaGraph ablation and the
shared-trunk multi-task ensemble (one trunk, 13 readout heads) — and
:func:`check_all_shipped` validates the lot.  Findings use the virtual
path ``model://<label>`` so they flow through the same reporters and CLI
exit codes as the lint rules.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.staticcheck.findings import Finding, Severity, sort_findings

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.models.base import GNNRegressor

RULE_NAME = "shape-contract"

#: Node-feature widths used when a config does not pin its own; mirrors the
#: heterogeneous Table II layout (distinct per-type dims) without importing
#: the circuit stack at module import time.
DEFAULT_MASTER_SEED = 20260806


@dataclass(frozen=True)
class SymDim:
    """A dimension that is either a concrete size or a named symbol.

    Row counts stay symbolic (``N``, ``E[coupling]``); column counts are
    concrete because parameters have real shapes.  Two symbolic dims are
    compatible iff they carry the same name — the checker never needs to
    compare a symbol against a concrete size.
    """

    name: str = ""
    size: "int | None" = None

    @classmethod
    def sym(cls, name: str) -> "SymDim":
        return cls(name=name)

    @classmethod
    def of(cls, size: int) -> "SymDim":
        return cls(size=int(size))

    def is_concrete(self) -> bool:
        return self.size is not None

    def __add__(self, other: "SymDim") -> "SymDim":
        if self.is_concrete() and other.is_concrete():
            return SymDim.of(self.size + other.size)  # type: ignore[operator]
        return SymDim.sym(f"({self}+{other})")

    def compatible(self, other: "SymDim") -> bool:
        if self.is_concrete() and other.is_concrete():
            return self.size == other.size
        if not self.is_concrete() and not other.is_concrete():
            return self.name == other.name
        return False

    def __str__(self) -> str:
        return str(self.size) if self.is_concrete() else self.name


@dataclass(frozen=True)
class SymTensor:
    """A rank-2 abstract value: symbolic rows, concrete-ish cols, a dtype."""

    rows: SymDim
    cols: SymDim
    dtype: np.dtype

    def __str__(self) -> str:
        return f"({self.rows}, {self.cols}):{np.dtype(self.dtype).name}"


@dataclass
class _Checker:
    """Accumulates contract violations for one model."""

    label: str
    expected_dtype: np.dtype
    errors: list[str] = field(default_factory=list)

    def fail(self, where: str, message: str) -> None:
        self.errors.append(f"{where}: {message}")

    # -- primitive transfer functions -----------------------------------
    def param(self, where: str, array: np.ndarray, rank: int) -> tuple:
        if array.ndim != rank:
            self.fail(where, f"parameter has rank {array.ndim}, expected {rank}")
        if array.dtype != self.expected_dtype:
            self.fail(
                where,
                f"parameter dtype {array.dtype} != compute dtype "
                f"{self.expected_dtype.name} the model was built under",
            )
        return array.shape

    def matmul(self, where: str, x: SymTensor, weight: np.ndarray) -> SymTensor:
        shape = self.param(where, weight, 2)
        if len(shape) == 2 and not x.cols.compatible(SymDim.of(shape[0])):
            self.fail(
                where,
                f"matmul mismatch: input {x} @ weight {shape} — "
                f"{x.cols} columns cannot contract against {shape[0]} rows",
            )
        out_cols = SymDim.of(shape[1]) if len(shape) == 2 else x.cols
        return SymTensor(x.rows, out_cols, np.promote_types(x.dtype, weight.dtype))

    def bias_add(self, where: str, x: SymTensor, bias: np.ndarray) -> SymTensor:
        shape = self.param(where, bias, 1)
        if len(shape) == 1 and not x.cols.compatible(SymDim.of(shape[0])):
            self.fail(
                where,
                f"bias broadcast mismatch: {x} + bias {shape}",
            )
        return SymTensor(x.rows, x.cols, np.promote_types(x.dtype, bias.dtype))

    def add(self, where: str, a: SymTensor, b: SymTensor) -> SymTensor:
        if not a.rows.compatible(b.rows) or not a.cols.compatible(b.cols):
            self.fail(where, f"elementwise add mismatch: {a} + {b}")
        return SymTensor(a.rows, a.cols, np.promote_types(a.dtype, b.dtype))

    def concat_cols(self, where: str, parts: list[SymTensor]) -> SymTensor:
        rows = parts[0].rows
        for part in parts[1:]:
            if not part.rows.compatible(rows):
                self.fail(
                    where,
                    f"concat(axis=1) row mismatch: {part} vs rows {rows}",
                )
        cols = parts[0].cols
        for part in parts[1:]:
            cols = cols + part.cols
        dtype = parts[0].dtype
        for part in parts[1:]:
            dtype = np.promote_types(dtype, part.dtype)
        return SymTensor(rows, cols, dtype)

    def gather(self, x: SymTensor, rows: SymDim) -> SymTensor:
        return SymTensor(rows, x.cols, x.dtype)

    def segment_reduce(self, x: SymTensor, rows: SymDim) -> SymTensor:
        return SymTensor(rows, x.cols, x.dtype)

    # -- layer transfer functions ---------------------------------------
    def linear(self, where: str, layer, x: SymTensor) -> SymTensor:
        out = self.matmul(f"{where}.weight", x, layer.weight.data)
        if layer.bias is not None:
            out = self.bias_add(f"{where}.bias", out, layer.bias.data)
        return out

    def mlp(self, where: str, mlp, x: SymTensor) -> SymTensor:
        for i, layer in enumerate(mlp.layers):
            x = self.linear(f"{where}.layers.{i}", layer, x)
        return x

    def encoder(self, enc, feature_dims: "dict[str, int]") -> SymTensor:
        n_rows = SymDim.sym("N")
        embed = SymDim.of(enc.embed_dim)
        missing = sorted(set(feature_dims) - set(enc.transforms))
        if missing:
            self.fail("encoder", f"no transform for node type(s) {missing}")
        for type_name in sorted(enc.transforms):
            transform = enc.transforms[type_name]
            raw_dim = feature_dims.get(type_name, transform.in_features)
            piece = SymTensor(
                SymDim.sym(f"N[{type_name}]"),
                SymDim.of(raw_dim),
                self.expected_dtype,
            )
            out = self.linear(f"encoder.transforms.{type_name}", transform, piece)
            if not out.cols.compatible(embed):
                self.fail(
                    f"encoder.transforms.{type_name}",
                    f"maps into {out.cols} columns, not embed_dim {embed}",
                )
        return SymTensor(n_rows, embed, self.expected_dtype)

    # -- convolution transfer functions ---------------------------------
    def conv(self, where: str, layer, h: SymTensor, edge_types: list[str]) -> SymTensor:
        kind = type(layer).__name__
        handler = getattr(self, f"_conv_{kind}", None)
        if handler is None:
            self.fail(where, f"no shape transfer function for layer {kind!r}")
            return h
        return handler(where, layer, h, edge_types)

    def _conv_GCNConv(self, where, layer, h, edge_types) -> SymTensor:
        e_rows = SymDim.sym("E+N")  # self-loops appended
        messages = self.gather(h, e_rows)
        agg = self.segment_reduce(messages, h.rows)
        return self.linear(f"{where}.linear", layer.linear, agg)

    def _conv_SageConv(self, where, layer, h, edge_types) -> SymTensor:
        messages = self.gather(h, SymDim.sym("E"))
        h_neigh = self.segment_reduce(messages, h.rows)
        h_neigh = self.bias_add(
            f"{where}.neigh_bias", h_neigh, layer.neigh_bias.data
        )
        combined = self.concat_cols(where, [h, h_neigh])
        return self.linear(f"{where}.linear", layer.linear, combined)

    def _conv_RGCNConv(self, where, layer, h, edge_types) -> SymTensor:
        # fused relational op: h[src] gathered once, each edge type's
        # block transformed into one shared (E, D) message buffer, mean
        # weights (E, 1) per (type, dst) segment, one scatter into dst
        edges = self.gather(h, SymDim.sym("E"))
        messages = None
        for edge_type in layer.edge_types:
            block = self.matmul(
                f"{where}.relation_weights[{edge_type}]",
                edges,
                layer.relation_weights[edge_type].data,
            )
            if messages is None:
                messages = block
            elif not block.cols.compatible(messages.cols):
                self.fail(
                    f"{where} (edge {edge_type})",
                    f"block writes {block.cols} columns into the shared "
                    f"{messages} message buffer",
                )
        self_term = self.matmul(f"{where}.self_weight", h, layer.self_weight.data)
        if messages is None:
            return self_term
        return self.add(where, self.segment_reduce(messages, h.rows), self_term)

    def _conv_GATConv(self, where, layer, h, edge_types) -> SymTensor:
        wh = self.matmul(f"{where}.weight", h, layer.weight.data)
        score_dst = self.matmul(f"{where}.attn_dst", wh, layer.attn_dst.data)
        score_src = self.matmul(f"{where}.attn_src", wh, layer.attn_src.data)
        e_rows = SymDim.sym("E+N")
        logits = self.add(
            f"{where} attention logits",
            self.gather(score_dst, e_rows),
            self.gather(score_src, e_rows),
        )
        if logits.cols.is_concrete() and logits.cols.size != 1:
            self.fail(where, f"attention logits must have 1 column, got {logits}")
        messages = self.gather(wh, e_rows)  # alpha (E,1) broadcasts over cols
        return self.segment_reduce(messages, h.rows)

    def _conv_ParaGraphConv(self, where, layer, h, edge_types) -> SymTensor:
        # fused relational op: h[src] gathered once; per edge-type block
        # the heads' weights fill one (E, H*hd) buffer side by side, and
        # each head's attention vectors fold through its weight (W a, one
        # column) so the logits are (E, H) gathers of h @ (W a)
        dim = h.cols
        edges = self.gather(h, SymDim.sym("E"))
        head_cols: "SymDim | None" = None
        for group in layer.edge_types:
            per_head = []
            for head in range(layer.num_heads):
                key = f"{group}#{head}"
                if key not in layer.type_weights:
                    self.fail(where, f"missing type weight for {key!r}")
                    continue
                weight = layer.type_weights[key].data
                per_head.append(
                    self.matmul(f"{where}.type_weights[{key}]", edges, weight)
                )
                if layer.use_attention:
                    weight_sym = SymTensor(
                        SymDim.of(weight.shape[0]),
                        SymDim.of(weight.shape[-1]),
                        weight.dtype,
                    )
                    for side in ("attn_dst", "attn_src"):
                        folded = self.matmul(
                            f"{where}.{side}[{key}]", weight_sym,
                            getattr(layer, side)[key].data,
                        )
                        if folded.cols.is_concrete() and folded.cols.size != 1:
                            self.fail(
                                where,
                                f"folded attention W a [{key}] must have "
                                f"1 column, got {folded}",
                            )
            if not per_head:
                continue
            group_out = (
                per_head[0]
                if len(per_head) == 1
                else self.concat_cols(f"{where} head concat [{group}]", per_head)
            )
            if not group_out.cols.compatible(dim):
                self.fail(
                    where,
                    f"{layer.num_heads} head(s) of group {group!r} concat to "
                    f"{group_out.cols} columns; must reassemble embed_dim {dim}",
                )
            if head_cols is not None and not group_out.cols.compatible(head_cols):
                self.fail(
                    where,
                    f"group {group!r} writes {group_out.cols} columns into "
                    f"the shared (E, {head_cols}) message buffer",
                )
            head_cols = group_out.cols
        agg = SymTensor(h.rows, head_cols if head_cols is not None else dim, h.dtype)
        agg = self.bias_add(f"{where}.agg_bias", agg, layer.agg_bias.data)
        combined = (
            self.concat_cols(f"{where} concat skip", [h, agg])
            if layer.concat_skip
            else agg
        )
        return self.linear(f"{where}.update", layer.update, combined)


def _trunk_embeddings(
    checker: _Checker,
    trunk,
    feature_dims: "dict[str, int]",
    *,
    prefix: str = "",
) -> SymTensor:
    """Symbolic node embeddings after encoder + all convolutions.

    Shared by the single-model and multi-task walks; *prefix* namespaces
    failure sites (``trunk.convs.0`` vs ``convs.0``).
    """
    edge_types = sorted(
        getattr(trunk.convs[0], "edge_types", []) if trunk.convs else []
    )
    h = checker.encoder(trunk.encoder, feature_dims)
    embed = SymDim.of(trunk.embed_dim)
    if not h.cols.compatible(embed):
        checker.fail(f"{prefix}encoder", f"produced {h} but embed_dim is {embed}")
    for i, conv in enumerate(trunk.convs):
        h_next = checker.conv(f"{prefix}convs.{i}", conv, h, edge_types)
        if not h_next.cols.compatible(embed):
            checker.fail(
                f"{prefix}convs.{i}",
                f"layer output {h_next} does not preserve embed_dim {embed}; "
                "stacked convolutions require F -> F",
            )
            h_next = SymTensor(h.rows, embed, h_next.dtype)
        h = h_next
    return h


def _check_head(
    checker: _Checker, where: str, readout, picked: SymTensor
) -> None:
    """One readout MLP: contracts against its input, ends in 1 column."""
    out = checker.mlp(where, readout, picked)
    if out.cols.is_concrete() and out.cols.size != 1:
        checker.fail(
            where,
            f"regression head must end in 1 column, got {out}",
        )
    if out.dtype != checker.expected_dtype:
        checker.fail(
            where,
            f"forward pass promotes to {out.dtype}; expected "
            f"{checker.expected_dtype.name} end to end",
        )


def _to_findings(checker: _Checker) -> list[Finding]:
    return [
        Finding(
            rule=RULE_NAME,
            path=f"model://{checker.label}",
            line=0,
            message=message,
            severity=Severity.ERROR,
        )
        for message in checker.errors
    ]


def check_regressor(
    model: "GNNRegressor",
    *,
    feature_dims: "dict[str, int] | None" = None,
    label: str = "model",
    expected_dtype: "str | np.dtype | None" = None,
) -> list[Finding]:
    """Statically validate one constructed :class:`GNNRegressor`.

    Walks encoder -> L convolutions -> readout with symbolic node/edge row
    counts, checking every parameter's shape and dtype against the data
    flow.  *expected_dtype* defaults to the active compute dtype.
    """
    from repro.nn import precision

    dtype = np.dtype(expected_dtype) if expected_dtype else precision.get_compute_dtype()
    checker = _Checker(label=label, expected_dtype=np.dtype(dtype))
    dims = feature_dims or {
        name: t.in_features for name, t in sorted(model.encoder.transforms.items())
    }
    h = _trunk_embeddings(checker, model, dims)
    picked = checker.gather(h, SymDim.sym("n_targets"))
    _check_head(checker, "readout", model.readout, picked)
    return sort_findings(_to_findings(checker))


def check_multitask(
    model,
    *,
    feature_dims: "dict[str, int] | None" = None,
    label: str = "multitask",
    expected_dtype: "str | np.dtype | None" = None,
) -> list[Finding]:
    """Statically validate one constructed :class:`MultiTaskModel`.

    Walks the :class:`SharedTrunk` once (encoder -> L convolutions), then
    feeds the symbolic embeddings to every :class:`ReadoutHead`: each head
    must contract against the trunk's embedding width, end in 1 column,
    and preserve the compute dtype end to end.
    """
    from repro.nn import precision

    dtype = np.dtype(expected_dtype) if expected_dtype else precision.get_compute_dtype()
    checker = _Checker(label=label, expected_dtype=np.dtype(dtype))
    trunk = model.trunk
    dims = feature_dims or {
        name: t.in_features for name, t in sorted(trunk.encoder.transforms.items())
    }
    h = _trunk_embeddings(checker, trunk, dims, prefix="trunk.")
    if not model.heads:
        checker.fail("heads", "multi-task model has no readout heads")
    for name in sorted(model.heads):
        picked = checker.gather(h, SymDim.sym(f"n[{name}]"))
        _check_head(
            checker, f"heads.{name}.readout", model.heads[name].readout, picked
        )
    return sort_findings(_to_findings(checker))


def _default_feature_dims() -> "dict[str, int]":
    from repro.circuits.devices import NODE_TYPES
    from repro.graph.features import feature_dim

    return {t: feature_dim(t) for t in NODE_TYPES}


def check_model_config(config: dict) -> list[Finding]:
    """Build the model a config describes and run :func:`check_regressor`.

    Config keys mirror ``GNNRegressor`` / ``TrainConfig``: ``conv`` (name),
    plus optional ``embed_dim``, ``num_layers``, ``num_fc_layers``,
    ``dtype``, ``conv_kwargs``, ``feature_dims`` and ``label``.
    ``trunk: "shared"`` (the :class:`TrainPlan` spelling) switches to the
    multi-task ensemble — see :func:`check_multitask_config`.
    """
    from repro import rng as rng_mod
    from repro.models.base import GNNRegressor
    from repro.nn import precision

    if config.get("trunk") == "shared":
        return check_multitask_config(config)
    conv = config["conv"]
    label = config.get("label") or _config_label(config)
    dtype = config.get("dtype", "float64")
    feature_dims = config.get("feature_dims") or _default_feature_dims()
    rng = rng_mod.stream(DEFAULT_MASTER_SEED, "staticcheck", label)
    try:
        with precision.compute_dtype(dtype):
            model = GNNRegressor(
                conv,
                feature_dims,
                rng,
                embed_dim=config.get("embed_dim", 32),
                num_layers=config.get("num_layers", 5),
                num_fc_layers=config.get("num_fc_layers", 4),
                conv_kwargs=config.get("conv_kwargs") or {},
            )
            return check_regressor(
                model, feature_dims=feature_dims, label=label
            )
    except Exception as exc:  # construction itself violated a contract
        return [
            Finding(
                rule=RULE_NAME,
                path=f"model://{label}",
                line=0,
                message=f"model construction failed: {type(exc).__name__}: {exc}",
                severity=Severity.ERROR,
            )
        ]


def _default_head_depths(config: dict) -> "dict[str, int]":
    """Per-target readout depths for a multi-task config.

    Mirrors :func:`repro.models.trainer.resolve_target_scaler`: net targets
    (CAP) read out through 4 FC layers, device parameters through 2, unless
    the config pins ``num_fc_layers`` for every head.
    """
    from repro.data.targets import ALL_TARGETS

    pinned = config.get("num_fc_layers")
    return {
        spec.name: (
            pinned if pinned is not None else (4 if spec.kind == "net" else 2)
        )
        for spec in ALL_TARGETS
    }


def check_multitask_config(config: dict) -> list[Finding]:
    """Build the multi-task model a config describes and check it.

    Accepts the same keys as :func:`check_model_config` plus optional
    ``heads`` (mapping target name -> readout depth; defaults to the
    paper's 13 targets at their per-kind depths).
    """
    from repro import rng as rng_mod
    from repro.models.multitask import MultiTaskModel, ReadoutHead, SharedTrunk
    from repro.nn import precision

    label = config.get("label") or _config_label(config)
    dtype = config.get("dtype", "float64")
    feature_dims = config.get("feature_dims") or _default_feature_dims()
    embed_dim = config.get("embed_dim", 32)
    head_depths = config.get("heads") or _default_head_depths(config)
    try:
        with precision.compute_dtype(dtype):
            trunk = SharedTrunk(
                config["conv"],
                feature_dims,
                rng_mod.stream(DEFAULT_MASTER_SEED, "staticcheck", label, "trunk"),
                embed_dim=embed_dim,
                num_layers=config.get("num_layers", 5),
                conv_kwargs=config.get("conv_kwargs") or {},
            )
            heads = {
                name: ReadoutHead(
                    embed_dim,
                    depth,
                    rng_mod.stream(
                        DEFAULT_MASTER_SEED, "staticcheck", label, "head", name
                    ),
                )
                for name, depth in sorted(head_depths.items())
            }
            model = MultiTaskModel(trunk, heads)
            return check_multitask(
                model, feature_dims=feature_dims, label=label
            )
    except Exception as exc:  # construction itself violated a contract
        return [
            Finding(
                rule=RULE_NAME,
                path=f"model://{label}",
                line=0,
                message=f"model construction failed: {type(exc).__name__}: {exc}",
                severity=Severity.ERROR,
            )
        ]


def _config_label(config: dict) -> str:
    parts = [config["conv"]]
    if config.get("trunk") == "shared":
        parts.append("multitask")
        if config.get("num_fc_layers") is not None:
            parts.append(f"fc{config['num_fc_layers']}")
    else:
        parts.append(f"fc{config.get('num_fc_layers', 4)}")
    parts.append(str(config.get("dtype", "float64")))
    for key, value in sorted((config.get("conv_kwargs") or {}).items()):
        parts.append(f"{key}={value}")
    return "/".join(parts)


def shipped_configs() -> list[dict]:
    """Every model configuration the repo ships.

    Five convolution families x the paper's readout depths (4 FC for CAP,
    2 for device parameters) x both ``TrainConfig.dtype`` precisions, the
    linear-readout baseline (``num_fc_layers=0``), and each ParaGraph
    ablation from §V (attention off, shared edge-type weights, no concat
    skip, multi-head attention).
    """
    from repro.models.convs import GNN_MODEL_NAMES

    configs: list[dict] = []
    for conv in GNN_MODEL_NAMES:
        for num_fc in (4, 2):  # CAP and device-parameter readouts
            for dtype in ("float64", "float32"):
                configs.append(
                    {"conv": conv, "num_fc_layers": num_fc, "dtype": dtype}
                )
    for dtype in ("float64", "float32"):  # linear-readout baseline
        configs.append({"conv": "paragraph", "num_fc_layers": 0, "dtype": dtype})
    for ablation in (
        {"use_attention": False},
        {"group_edge_types": False},
        {"concat_skip": False},
        {"num_heads": 4},
    ):
        configs.append(
            {
                "conv": "paragraph",
                "num_fc_layers": 4,
                "dtype": "float64",
                "conv_kwargs": dict(ablation),
            }
        )
    for dtype in ("float64", "float32"):  # shared-trunk multi-task ensemble
        configs.append({"conv": "paragraph", "trunk": "shared", "dtype": dtype})
    return configs


def check_all_shipped() -> list[Finding]:
    """Validate every shipped configuration; a clean repo returns []."""
    findings: list[Finding] = []
    for config in shipped_configs():
        findings.extend(check_model_config(config))
    return sort_findings(findings)
