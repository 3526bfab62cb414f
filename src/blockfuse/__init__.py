"""Block-fusion compiler for convolutional networks.

Learns which activation functions are removable via a differentiable
top-k mask search, then exactly merges the resulting activation-free
chains of linear operators into single dense convolutions.
"""
from .core import (
    Activation,
    ActivationKind,
    Add,
    AvgPool,
    BatchNormLayer,
    ConvLayer,
    Flatten,
    Linear,
    Tensor,
    execute_layer,
)
from .graph import (
    BlockAnnotation,
    LatencyTable,
    NetGraph,
    Node,
    apply_mask_vector,
    execute_graph,
    validate_graph,
)
from .merge import (
    EquivalenceReport,
    ShrinkReport,
    absorb_residual,
    compose_convs,
    fold_bn_into_conv,
    insert_free_activations,
    lift_to_dense,
    merge_block,
    shrink_graph,
    verify_equivalence,
)
from .autodiff import MaskState, backward, extract_params, forward_masked, topk_binarize
from .cost import (
    CostReport,
    cost_report,
    flops_matched_dense,
    latency_decay_weights,
)
from .train import (
    TrainConfig,
    finetune,
    frozen_shift_params,
    search_masks,
    synthetic_two_class,
)
from .expand import expand_for_training
from .fixtures import generate, mobilenet_v2, toy_irb, vgg_toy

__version__ = "0.1.0"
