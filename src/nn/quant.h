#ifndef SEMTAG_NN_QUANT_H_
#define SEMTAG_NN_QUANT_H_

#include <cstdint>
#include <vector>

#include "la/quant.h"
#include "nn/variable.h"

namespace semtag::nn {

/// Int8 inference routing (DESIGN.md "Int8 inference tier").
///
/// A frozen weight carries a la::QuantizedMatrix view on its graph node
/// (internal::Node::quant_view). The fused ops below read that view and
/// produce constant nodes — no parents, no backward, no tape — so they are
/// strictly inference ops. Layers only take them when QuantRoutable(w)
/// holds, which requires both $SEMTAG_QUANT=1 and a prepared view; views
/// exist only between a model freezing (end of Train / checkpoint load +
/// prepare) and its weights next becoming mutable, so the training path
/// can never be routed here by accident.

/// True when this weight should take the int8 path right now.
bool QuantRoutable(const Variable& w);

/// Builds (or rebuilds) the per-output-channel int8 view for a weight W
/// used as out = x * W (+ bias): la::QuantizedMatrix::FromColumns.
void PrepareQuantWeight(const Variable& w);

/// Per-row int8 view for an embedding-style table gathered by row id.
void PrepareQuantWeightRows(const Variable& w);

/// Drops the view. Call whenever the weight may change again (checkpoint
/// load, pretraining, optimizer steps). No-op on undefined Variables and
/// on weights that never had a view, so callers can sweep a whole
/// CollectParameters vector.
void DropQuantWeight(const Variable& w);

/// act(x * W + bias) through the int8 kernels; the fp32-equivalent shape
/// contract of AddRowBroadcast(MatMul(x, w), *bias). bias may be null.
Variable QuantAffine(const Variable& x, const Variable& w,
                     const Variable* bias, la::QuantAct act);

/// EmbeddingLookup served from the table's per-row int8 view, dequantized
/// at gather time.
Variable QuantEmbeddingLookup(const Variable& table,
                              const std::vector<int32_t>& ids);

/// Relu(Conv1d(x, w, b, width, blocks)) fused: the same im2col as
/// nn::Conv1d feeding one int8 GEMM with bias and ReLU folded into the
/// dequantize pass.
Variable QuantConvRelu(const Variable& x, const Variable& w,
                       const Variable& b, int width, size_t blocks);

}  // namespace semtag::nn

#endif  // SEMTAG_NN_QUANT_H_
