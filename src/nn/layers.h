#ifndef SEMTAG_NN_LAYERS_H_
#define SEMTAG_NN_LAYERS_H_

#include <vector>

#include "common/rng.h"
#include "nn/ops.h"
#include "nn/variable.h"

namespace semtag::nn {

/// Base class for parameterized layers. Layers own their parameter
/// Variables; CollectParameters appends them for the optimizer.
class Layer {
 public:
  virtual ~Layer() = default;
  Layer() = default;
  Layer(const Layer&) = delete;
  Layer& operator=(const Layer&) = delete;

  virtual void CollectParameters(std::vector<Variable>* out) = 0;
};

/// y = x W + b, W: [in x out].
class Linear : public Layer {
 public:
  Linear(size_t in_dim, size_t out_dim, Rng* rng);

  /// `rows` describes x's rows as nn::MatMul's a_rows does.
  Variable Forward(const Variable& x, BlockRows rows = BlockRows::kAll) const;
  void CollectParameters(std::vector<Variable>* out) override;

 private:
  Variable weight_;
  Variable bias_;
};

/// Token embedding table [vocab x dim].
class Embedding : public Layer {
 public:
  Embedding(size_t vocab, size_t dim, Rng* rng, float init_stddev = 0.05f);

  Variable Forward(const std::vector<int32_t>& ids) const;
  void CollectParameters(std::vector<Variable>* out) override;

  Variable& table() { return table_; }
  const Variable& table() const { return table_; }

 private:
  Variable table_;
};

/// One convolution width of a TextCNN: Conv1d + ReLU + max-over-time.
class ConvPool : public Layer {
 public:
  ConvPool(int width, size_t embed_dim, size_t filters, Rng* rng);

  /// x is B stacked length-L sequences ([B*L x embed_dim], block-major)
  /// -> [B x filters]. Requires L >= width (the caller pads sequences to
  /// at least the maximum width).
  Variable ForwardBatch(const Variable& x, size_t blocks) const;
  void CollectParameters(std::vector<Variable>* out) override;

  int width() const { return width_; }

 private:
  int width_;
  Variable weight_;  // [(width*embed_dim) x filters]
  Variable bias_;    // [1 x filters]
};

/// Single-layer unidirectional LSTM over B length-T sequences.
class Lstm : public Layer {
 public:
  Lstm(size_t input_dim, size_t hidden_dim, Rng* rng);

  /// x is timestep-major [T*B x input] (timestep t's batch rows are
  /// contiguous at [t*B, (t+1)*B)); one [B x 4H] gate GEMM per step.
  /// Returns the final hidden states [B x hidden].
  Variable ForwardBatch(const Variable& x, size_t batch) const;
  void CollectParameters(std::vector<Variable>* out) override;

  size_t hidden_dim() const { return hidden_dim_; }

 private:
  size_t hidden_dim_;
  // Fused gate weights, order (i, f, g, o): [input x 4H], [H x 4H], [1x4H].
  Variable w_x_;
  Variable w_h_;
  Variable bias_;
};

/// Single-layer GRU over B length-T sequences (the LSTM variant the paper
/// cites via Chung et al. [9]).
class Gru : public Layer {
 public:
  Gru(size_t input_dim, size_t hidden_dim, Rng* rng);

  /// Timestep-major input and [B x hidden] output, as Lstm::ForwardBatch.
  Variable ForwardBatch(const Variable& x, size_t batch) const;
  void CollectParameters(std::vector<Variable>* out) override;

  size_t hidden_dim() const { return hidden_dim_; }

 private:
  size_t hidden_dim_;
  // Fused update/reset gates (z, r): [input x 2H], [H x 2H], [1 x 2H].
  Variable w_xg_;
  Variable w_hg_;
  Variable bias_g_;
  // Candidate state: [input x H], [H x H], [1 x H].
  Variable w_xc_;
  Variable w_hc_;
  Variable bias_c_;
};

/// Row-wise layer normalization with learned gain/bias.
class LayerNormLayer : public Layer {
 public:
  explicit LayerNormLayer(size_t dim);

  Variable Forward(const Variable& x) const;
  void CollectParameters(std::vector<Variable>* out) override;

 private:
  Variable gain_;
  Variable bias_;
};

/// Multi-head self-attention over B stacked length-T sequences: x is
/// [B*T x d] and `mask` [B*T x T] (B stacked per-sequence additive masks,
/// 0 for visible and -1e9 for padded keys), so B = x.rows() / mask.cols().
/// One fused Q|K|V projection GEMM feeds one nn::MultiHeadAttention node;
/// attention itself stays per sequence. `rows` picks the query rows, and
/// so the output: [B*T x d] (kAll) or [B x d] (kFirst); K and V always
/// cover all T rows.
class MultiHeadSelfAttention : public Layer {
 public:
  MultiHeadSelfAttention(size_t dim, size_t num_heads, Rng* rng);

  Variable Forward(const Variable& x, const la::Matrix& mask,
                   BlockRows rows = BlockRows::kAll) const;
  void CollectParameters(std::vector<Variable>* out) override;

 private:
  size_t num_heads_;
  // Fused projection [d x 3d]: Q, K, V sections side by side, head h in
  // columns [h*hd, (h+1)*hd) of each section.
  Variable w_qkv_;
  Variable b_qkv_;  // [1 x 3d]
  Variable w_o_;    // [d x d]
  Variable b_o_;    // [1 x d]
};

/// Post-norm transformer encoder layer (attention + FFN with GELU),
/// the BERT building block.
class TransformerEncoderLayer : public Layer {
 public:
  TransformerEncoderLayer(size_t dim, size_t num_heads, size_t ffn_dim,
                          Rng* rng);

  /// x [B*T x d] -> [B*T x d] (kAll), or -> [B x d] (kFirst): only each
  /// sequence's first row is produced. kFirst still projects Q|K|V on
  /// every row (the first row attends over all T keys), then runs the
  /// O-projection, both residuals, both LayerNorms and the FFN on the B
  /// first rows alone. Its dropout draws the RNG as the full-height layer
  /// does, so it equals the first rows of the kAll output bit for bit, and
  /// so do its gradients (those of a kAll output whose other rows get zero
  /// gradient) when T >= 4: see DESIGN.md "Batched execution".
  Variable Forward(const Variable& x, const la::Matrix& mask, double dropout,
                   Rng* rng, bool training,
                   BlockRows rows = BlockRows::kAll) const;
  void CollectParameters(std::vector<Variable>* out) override;

 private:
  MultiHeadSelfAttention attention_;
  LayerNormLayer norm1_;
  Linear ffn1_;
  Linear ffn2_;
  LayerNormLayer norm2_;
};

}  // namespace semtag::nn

#endif  // SEMTAG_NN_LAYERS_H_
