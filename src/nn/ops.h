#ifndef SEMTAG_NN_OPS_H_
#define SEMTAG_NN_OPS_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "nn/variable.h"

namespace semtag::nn {

/// Differentiable operations. Every function builds one graph node; the
/// backward pass accumulates into parents' grads (guarding each parent with
/// requires_grad). Shapes are checked with SEMTAG_CHECK.

/// Which rows of each stacked length-T sequence block an op produces:
/// all T, or only the first (a BERT sequence's [CLS] position).
enum class BlockRows { kAll, kFirst };

/// [m,k] x [k,n] -> [m,n]. a_rows == BlockRows::kFirst says a's rows are
/// the first rows of the length-T blocks of a taller product whose other
/// rows get zero gradient; b's gradient then runs over a and the output
/// gradient with each row followed by three zero rows, so every row fills
/// its own 4-row GEMM k-panel as in the taller product, and equals that
/// product's gradient bit for bit whenever T >= 4.
Variable MatMul(const Variable& a, const Variable& b,
                BlockRows a_rows = BlockRows::kAll);

/// a * b^T : [m,k] x [n,k] -> [m,n] (attention scores).
Variable MatMulBT(const Variable& a, const Variable& b);

/// Fused multi-head scaled dot-product attention over B stacked sequences.
/// qkv is [B*T x 3d]: the Q, K and V projections side by side, head h in
/// columns [h*hd, (h+1)*hd) of each d-wide section (hd = d / heads). mask
/// is [B*T x T]: B stacked per-sequence additive masks. Returns [B*T x d]
/// (kAll) or [B x d] (kFirst: only each sequence's first query row attends,
/// over all T keys) with head h in columns [h*hd, (h+1)*hd). Each
/// (sequence, head) tile runs through la::Kernels().attention_forward on
/// its own, so a sequence's rows do not depend on the batch it rides in;
/// the backward writes dQ, dK and dV straight into the qkv gradient.
Variable MultiHeadAttention(const Variable& qkv, const la::Matrix& mask,
                            size_t heads, float scale,
                            BlockRows rows = BlockRows::kAll);

/// Adds the [TxC] `block` to every vertically stacked [TxC] block of x
/// ([B*T x C]) — the batched position-embedding add. Gradient of `block`
/// sums over the B stacked blocks. x.rows() == block.rows() is nn::Add.
Variable AddBlockBroadcast(const Variable& x, const Variable& block);

/// Elementwise a + b (same shape).
Variable Add(const Variable& a, const Variable& b);

/// Elementwise a - b (same shape).
Variable Sub(const Variable& a, const Variable& b);

/// Elementwise (Hadamard) product.
Variable Mul(const Variable& a, const Variable& b);

/// s * a.
Variable ScalarMul(const Variable& a, float s);

/// a + c where c is a non-differentiable constant (e.g. attention mask).
Variable AddConst(const Variable& a, const la::Matrix& c);

/// Adds the 1xC `row` to every row of x ([RxC]) — the bias op. Gradient of
/// `row` is the column sum of the output gradient.
Variable AddRowBroadcast(const Variable& x, const Variable& row);

Variable Sigmoid(const Variable& a);
Variable Tanh(const Variable& a);
Variable Relu(const Variable& a);
/// tanh-approximation GELU (BERT's activation).
Variable Gelu(const Variable& a);

/// Row-wise softmax.
Variable RowSoftmax(const Variable& a);

/// Inverted dropout; identity when !training or p == 0. With
/// row_stride > 1, row r of `a` stands for row r * row_stride of a taller
/// tensor whose other rows were never computed: the RNG draws exactly as
/// for that tensor (one Bernoulli per element, skipped rows included), so
/// the kept rows get the taller tensor's mask and the RNG ends in the same
/// state.
Variable Dropout(const Variable& a, double p, Rng* rng, bool training,
                 size_t row_stride = 1);

/// Copy of rows [r0, r1).
Variable SliceRows(const Variable& a, size_t r0, size_t r1);

/// Copy of columns [c0, c1) (LSTM fused-gate unpacking).
Variable SliceColsRange(const Variable& a, size_t c0, size_t c1);

/// Horizontal concatenation; all inputs must have the same row count.
Variable ConcatCols(const std::vector<Variable>& parts);

/// Column-wise max over rows, per vertical block: [B*R x C] -> [B x C]
/// (max-over-time pooling; blocks == 1 is the single-sequence op).
Variable MaxPoolRows(const Variable& a, size_t blocks = 1);

/// Column-wise mean over rows: [RxC] -> [1xC].
Variable MeanRows(const Variable& a);

/// Gathers rows of `table` ([VxD]) by id -> [len(ids) x D]. Backward
/// scatter-adds into the table gradient.
Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int32_t>& ids);

/// Differentiable row gather: out[i] = x[rows[i]] (duplicate rows allowed);
/// backward scatter-adds. Used to pick masked positions for the MLM loss.
Variable GatherRows(const Variable& x, const std::vector<int32_t>& rows);

/// 1-D convolution over time via im2col: x [L x D], w [(width*D) x F],
/// b [1 x F] -> [(L-width+1) x F]. Requires L >= width. With blocks > 1,
/// x is B stacked length-L sequences ([B*L x D]); windows never straddle a
/// block boundary and the output is [B*(L-width+1) x F] — the whole batch
/// rides one im2col GEMM because the filter is shared.
Variable Conv1d(const Variable& x, const Variable& w, const Variable& b,
                int width, size_t blocks = 1);

/// Row-wise layer normalization with learned gain/bias (both 1xC).
Variable LayerNorm(const Variable& x, const Variable& gain,
                   const Variable& bias, float eps = 1e-5f);

/// Mean softmax cross-entropy over rows of `logits` ([NxC]) against integer
/// labels (size N). Returns a 1x1 loss. Fused op: backward is
/// (softmax - onehot)/N, numerically stable.
Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int32_t>& labels);

/// Sum of all elements -> 1x1 (L2 regularization terms, tests).
Variable SumToScalar(const Variable& a);

}  // namespace semtag::nn

#endif  // SEMTAG_NN_OPS_H_
