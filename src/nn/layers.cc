#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "la/init.h"

namespace semtag::nn {

namespace {

Variable MakeParam(size_t rows, size_t cols, Rng* rng) {
  la::Matrix m(rows, cols);
  la::XavierUniform(&m, rng);
  return Variable(std::move(m), /*requires_grad=*/true);
}

Variable MakeZeroParam(size_t rows, size_t cols) {
  return Variable(la::Matrix(rows, cols), /*requires_grad=*/true);
}

}  // namespace

// ---------------------------------------------------------------- Linear

Linear::Linear(size_t in_dim, size_t out_dim, Rng* rng)
    : weight_(MakeParam(in_dim, out_dim, rng)),
      bias_(MakeZeroParam(1, out_dim)) {}

Variable Linear::Forward(const Variable& x, BlockRows rows) const {
  return AddRowBroadcast(MatMul(x, weight_, rows), bias_);
}

void Linear::CollectParameters(std::vector<Variable>* out) {
  out->push_back(weight_);
  out->push_back(bias_);
}

// ------------------------------------------------------------- Embedding

Embedding::Embedding(size_t vocab, size_t dim, Rng* rng, float init_stddev) {
  la::Matrix m(vocab, dim);
  la::GaussianInit(&m, rng, init_stddev);
  table_ = Variable(std::move(m), /*requires_grad=*/true);
}

Variable Embedding::Forward(const std::vector<int32_t>& ids) const {
  return EmbeddingLookup(table_, ids);
}

void Embedding::CollectParameters(std::vector<Variable>* out) {
  out->push_back(table_);
}

// -------------------------------------------------------------- ConvPool

ConvPool::ConvPool(int width, size_t embed_dim, size_t filters, Rng* rng)
    : width_(width),
      weight_(MakeParam(static_cast<size_t>(width) * embed_dim, filters,
                        rng)),
      bias_(MakeZeroParam(1, filters)) {}

Variable ConvPool::ForwardBatch(const Variable& x, size_t blocks) const {
  SEMTAG_CHECK(blocks >= 1 && x.rows() % blocks == 0);
  SEMTAG_CHECK(x.rows() / blocks >= static_cast<size_t>(width_));
  return MaxPoolRows(Relu(Conv1d(x, weight_, bias_, width_, blocks)),
                     blocks);
}

void ConvPool::CollectParameters(std::vector<Variable>* out) {
  out->push_back(weight_);
  out->push_back(bias_);
}

// ------------------------------------------------------------------ Lstm

Lstm::Lstm(size_t input_dim, size_t hidden_dim, Rng* rng)
    : hidden_dim_(hidden_dim),
      w_x_(MakeParam(input_dim, 4 * hidden_dim, rng)),
      w_h_(MakeParam(hidden_dim, 4 * hidden_dim, rng)),
      bias_(MakeZeroParam(1, 4 * hidden_dim)) {
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (size_t c = hidden_dim; c < 2 * hidden_dim; ++c) {
    bias_.mutable_value()(0, c) = 1.0f;
  }
}

Variable Lstm::ForwardBatch(const Variable& x, size_t batch) const {
  SEMTAG_CHECK(batch >= 1 && x.rows() % batch == 0);
  const size_t L = x.rows() / batch;  // timesteps
  const size_t H = hidden_dim_;
  Variable h(la::Matrix(batch, H));
  Variable c(la::Matrix(batch, H));
  // Precompute all input projections in one matmul: [T*B x 4H]. x is
  // timestep-major, so step t's gate rows are the contiguous slice
  // [t*B, (t+1)*B) and the recurrent update is one [B x 4H] GEMM.
  Variable xproj = AddRowBroadcast(MatMul(x, w_x_), bias_);
  for (size_t t = 0; t < L; ++t) {
    Variable hproj = MatMul(h, w_h_);
    Variable gates =
        Add(SliceRows(xproj, t * batch, (t + 1) * batch), hproj);
    Variable i = Sigmoid(SliceColsRange(gates, 0, H));
    Variable f = Sigmoid(SliceColsRange(gates, H, 2 * H));
    Variable g = Tanh(SliceColsRange(gates, 2 * H, 3 * H));
    Variable o = Sigmoid(SliceColsRange(gates, 3 * H, 4 * H));
    c = Add(Mul(f, c), Mul(i, g));
    h = Mul(o, Tanh(c));
  }
  return h;
}

void Lstm::CollectParameters(std::vector<Variable>* out) {
  out->push_back(w_x_);
  out->push_back(w_h_);
  out->push_back(bias_);
}

// ------------------------------------------------------------------- Gru

Gru::Gru(size_t input_dim, size_t hidden_dim, Rng* rng)
    : hidden_dim_(hidden_dim),
      w_xg_(MakeParam(input_dim, 2 * hidden_dim, rng)),
      w_hg_(MakeParam(hidden_dim, 2 * hidden_dim, rng)),
      bias_g_(MakeZeroParam(1, 2 * hidden_dim)),
      w_xc_(MakeParam(input_dim, hidden_dim, rng)),
      w_hc_(MakeParam(hidden_dim, hidden_dim, rng)),
      bias_c_(MakeZeroParam(1, hidden_dim)) {}

Variable Gru::ForwardBatch(const Variable& x, size_t batch) const {
  SEMTAG_CHECK(batch >= 1 && x.rows() % batch == 0);
  const size_t L = x.rows() / batch;  // timesteps
  const size_t H = hidden_dim_;
  Variable h(la::Matrix(batch, H));
  Variable xg = AddRowBroadcast(MatMul(x, w_xg_), bias_g_);
  Variable xc = AddRowBroadcast(MatMul(x, w_xc_), bias_c_);
  Variable ones(la::Matrix(batch, H, 1.0f));
  for (size_t t = 0; t < L; ++t) {
    Variable hg = MatMul(h, w_hg_);
    Variable gates = Add(SliceRows(xg, t * batch, (t + 1) * batch), hg);
    Variable z = Sigmoid(SliceColsRange(gates, 0, H));
    Variable r = Sigmoid(SliceColsRange(gates, H, 2 * H));
    Variable rh = Mul(r, h);
    Variable hc = MatMul(rh, w_hc_);
    Variable candidate =
        Tanh(Add(SliceRows(xc, t * batch, (t + 1) * batch), hc));
    // h = (1 - z) * h + z * candidate.
    h = Add(Mul(Sub(ones, z), h), Mul(z, candidate));
  }
  return h;
}

void Gru::CollectParameters(std::vector<Variable>* out) {
  out->push_back(w_xg_);
  out->push_back(w_hg_);
  out->push_back(bias_g_);
  out->push_back(w_xc_);
  out->push_back(w_hc_);
  out->push_back(bias_c_);
}

// -------------------------------------------------------- LayerNormLayer

LayerNormLayer::LayerNormLayer(size_t dim)
    : gain_(Variable(la::Matrix(1, dim, 1.0f), /*requires_grad=*/true)),
      bias_(MakeZeroParam(1, dim)) {}

Variable LayerNormLayer::Forward(const Variable& x) const {
  return LayerNorm(x, gain_, bias_);
}

void LayerNormLayer::CollectParameters(std::vector<Variable>* out) {
  out->push_back(gain_);
  out->push_back(bias_);
}

// -------------------------------------------- MultiHeadSelfAttention

MultiHeadSelfAttention::MultiHeadSelfAttention(size_t dim, size_t num_heads,
                                               Rng* rng)
    : num_heads_(num_heads),
      w_qkv_(MakeZeroParam(dim, 3 * dim)),
      b_qkv_(MakeZeroParam(1, 3 * dim)) {
  SEMTAG_CHECK(dim % num_heads == 0);
  const size_t head_dim = dim / num_heads;
  // Each head's Q, K and V blocks are drawn as separate [d x head_dim]
  // Xavier matrices, in head order, so a seed gives the same values it
  // gave the per-head parameters this layout replaced.
  la::Matrix& w = w_qkv_.mutable_value();
  for (size_t h = 0; h < num_heads; ++h) {
    for (size_t section = 0; section < 3; ++section) {
      la::Matrix block(dim, head_dim);
      la::XavierUniform(&block, rng);
      const size_t c0 = section * dim + h * head_dim;
      for (size_t r = 0; r < dim; ++r) {
        std::copy(block.Row(r), block.Row(r) + head_dim, w.Row(r) + c0);
      }
    }
  }
  w_o_ = MakeParam(dim, dim, rng);
  b_o_ = MakeZeroParam(1, dim);
}

Variable MultiHeadSelfAttention::Forward(const Variable& x,
                                         const la::Matrix& mask,
                                         BlockRows rows) const {
  const size_t head_dim = w_o_.rows() / num_heads_;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  Variable qkv = AddRowBroadcast(MatMul(x, w_qkv_), b_qkv_);
  Variable heads = MultiHeadAttention(qkv, mask, num_heads_, scale, rows);
  return AddRowBroadcast(MatMul(heads, w_o_, rows), b_o_);
}

void MultiHeadSelfAttention::CollectParameters(std::vector<Variable>* out) {
  out->push_back(w_qkv_);
  out->push_back(b_qkv_);
  out->push_back(w_o_);
  out->push_back(b_o_);
}

// -------------------------------------------- TransformerEncoderLayer

TransformerEncoderLayer::TransformerEncoderLayer(size_t dim,
                                                 size_t num_heads,
                                                 size_t ffn_dim, Rng* rng)
    : attention_(dim, num_heads, rng),
      norm1_(dim),
      ffn1_(dim, ffn_dim, rng),
      ffn2_(ffn_dim, dim, rng),
      norm2_(dim) {}

Variable TransformerEncoderLayer::Forward(const Variable& x,
                                          const la::Matrix& mask,
                                          double dropout, Rng* rng,
                                          bool training,
                                          BlockRows rows) const {
  const size_t t = mask.cols();
  // Row r of a kFirst activation stands for row r*t of the full height.
  const size_t stride = rows == BlockRows::kFirst ? t : 1;
  Variable attended = Dropout(attention_.Forward(x, mask, rows), dropout,
                              rng, training, stride);
  Variable residual = x;
  if (rows == BlockRows::kFirst) {
    std::vector<int32_t> firsts(x.rows() / t);
    for (size_t s = 0; s < firsts.size(); ++s) {
      firsts[s] = static_cast<int32_t>(s * t);
    }
    residual = GatherRows(x, firsts);
  }
  Variable h = norm1_.Forward(Add(residual, attended));
  Variable ffn = Dropout(ffn2_.Forward(Gelu(ffn1_.Forward(h, rows)), rows),
                         dropout, rng, training, stride);
  return norm2_.Forward(Add(h, ffn));
}

void TransformerEncoderLayer::CollectParameters(std::vector<Variable>* out) {
  attention_.CollectParameters(out);
  norm1_.CollectParameters(out);
  ffn1_.CollectParameters(out);
  ffn2_.CollectParameters(out);
  norm2_.CollectParameters(out);
}

}  // namespace semtag::nn
