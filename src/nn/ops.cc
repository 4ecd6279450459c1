#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "la/kernels.h"

namespace semtag::nn {

namespace {

using internal::Node;

/// Shorthand: parents vector from variables.
std::vector<std::shared_ptr<Node>> Parents(
    std::initializer_list<const Variable*> vars) {
  std::vector<std::shared_ptr<Node>> out;
  out.reserve(vars.size());
  for (const Variable* v : vars) out.push_back(v->node());
  return out;
}

bool Wants(const Node* n, size_t i) {
  return n->parents[i]->requires_grad;
}

/// Copy of m with each row followed by three zero rows ([4*rows x cols]).
la::Matrix PadEachRowToPanel(const la::Matrix& m) {
  la::Matrix out(4 * m.rows(), m.cols());
  for (size_t r = 0; r < m.rows(); ++r) {
    std::copy(m.Row(r), m.Row(r) + m.cols(), out.Row(4 * r));
  }
  return out;
}

}  // namespace

Variable MatMul(const Variable& a, const Variable& b, BlockRows a_rows) {
  SEMTAG_CHECK(a.cols() == b.rows());
  la::Matrix out;
  la::MatMul(a.value(), b.value(), &out);
  const bool first_rows = a_rows == BlockRows::kFirst;
  return MakeOpNode(std::move(out), Parents({&a, &b}), [first_rows](Node* n) {
    const la::Matrix& g = n->grad;
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (Wants(n, 0)) {
      la::Matrix da;
      la::MatMulTransB(g, pb->value, &da);  // g * b^T
      pa->EnsureGrad()->Add(da);
    }
    if (Wants(n, 1)) {
      la::Matrix db;
      if (first_rows) {
        // Each row gets a 4-row k-panel of its own, as in the taller
        // product where the rows after it carry zero gradient.
        la::MatMulTransA(PadEachRowToPanel(pa->value), PadEachRowToPanel(g),
                         &db);
      } else {
        la::MatMulTransA(pa->value, g, &db);  // a^T * g
      }
      pb->EnsureGrad()->Add(db);
    }
  });
}

Variable MatMulBT(const Variable& a, const Variable& b) {
  SEMTAG_CHECK(a.cols() == b.cols());
  la::Matrix out;
  la::MatMulTransB(a.value(), b.value(), &out);
  return MakeOpNode(std::move(out), Parents({&a, &b}), [](Node* n) {
    const la::Matrix& g = n->grad;  // [m x n]
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (Wants(n, 0)) {
      la::Matrix da;
      la::MatMul(g, pb->value, &da);  // g * b
      pa->EnsureGrad()->Add(da);
    }
    if (Wants(n, 1)) {
      la::Matrix db;
      la::MatMulTransA(g, pa->value, &db);  // g^T * a
      pb->EnsureGrad()->Add(db);
    }
  });
}

Variable MultiHeadAttention(const Variable& qkv, const la::Matrix& mask,
                            size_t heads, float scale, BlockRows rows) {
  const size_t t = mask.cols();
  SEMTAG_CHECK(t > 0 && heads > 0 && mask.rows() == qkv.rows() &&
               qkv.rows() % t == 0 && qkv.cols() % (3 * heads) == 0);
  const size_t d = qkv.cols() / 3;
  const size_t hd = d / heads;
  const size_t blocks = qkv.rows() / t;
  // Query rows per sequence: sequence s's output rows are [s*q, (s+1)*q).
  const size_t q = rows == BlockRows::kFirst ? 1 : t;
  // Tile (sequence s, head h): its Q block starts at row s*t, column h*hd
  // of `m` (K and V follow d and 2d columns on), and its probabilities
  // live in rows [(s*heads + h)*q, +q) of `probs`.
  auto tile_at = [=](const la::Matrix& m, la::Matrix& probs, float* work,
                     size_t s, size_t h) {
    la::AttentionTile tile;
    tile.t = t;
    tile.rows = q;
    tile.hd = hd;
    tile.ld = 3 * d;
    tile.scale = scale;
    tile.q = m.Row(s * t) + h * hd;
    tile.k = tile.q + d;
    tile.v = tile.q + 2 * d;
    tile.probs = probs.Row((s * heads + h) * q);
    tile.work = work;
    return tile;
  };
  la::Matrix probs = la::Matrix::Uninitialized(blocks * heads * q, t);
  la::Matrix out = la::Matrix::Uninitialized(blocks * q, d);
  la::Matrix work =
      la::Matrix::Uninitialized(1, la::AttentionWorkFloats(t, hd));
  const la::KernelTable& kr = la::Kernels();
  for (size_t s = 0; s < blocks; ++s) {
    for (size_t h = 0; h < heads; ++h) {
      la::AttentionTile tile = tile_at(qkv.value(), probs, work.data(), s, h);
      tile.mask = mask.Row(s * t);
      kr.attention_forward(tile, out.Row(s * q) + h * hd, d);
    }
  }
  return MakeOpNode(
      std::move(out), Parents({&qkv}),
      [probs = std::move(probs), work = std::move(work), tile_at, blocks,
       heads, t, q, hd, d](Node* n) mutable {
        if (!Wants(n, 0)) return;
        Node* p = n->parents[0].get();
        la::Matrix* g = p->EnsureGrad();
        const la::KernelTable& kr = la::Kernels();
        for (size_t s = 0; s < blocks; ++s) {
          for (size_t h = 0; h < heads; ++h) {
            float* dq = g->Row(s * t) + h * hd;
            kr.attention_backward(tile_at(p->value, probs, work.data(), s, h),
                                  n->grad.Row(s * q) + h * hd, d, dq, dq + d,
                                  dq + 2 * d);
          }
        }
      });
}

Variable Add(const Variable& a, const Variable& b) {
  SEMTAG_CHECK(a.value().SameShape(b.value()));
  la::Matrix out = a.value();
  out.Add(b.value());
  return MakeOpNode(std::move(out), Parents({&a, &b}), [](Node* n) {
    for (size_t i = 0; i < 2; ++i) {
      if (Wants(n, i)) n->parents[i]->EnsureGrad()->Add(n->grad);
    }
  });
}

Variable Sub(const Variable& a, const Variable& b) {
  SEMTAG_CHECK(a.value().SameShape(b.value()));
  la::Matrix out = a.value();
  out.Sub(b.value());
  return MakeOpNode(std::move(out), Parents({&a, &b}), [](Node* n) {
    if (Wants(n, 0)) n->parents[0]->EnsureGrad()->Add(n->grad);
    if (Wants(n, 1)) n->parents[1]->EnsureGrad()->Axpy(-1.0f, n->grad);
  });
}

Variable Mul(const Variable& a, const Variable& b) {
  SEMTAG_CHECK(a.value().SameShape(b.value()));
  la::Matrix out = a.value();
  out.Mul(b.value());
  return MakeOpNode(std::move(out), Parents({&a, &b}), [](Node* n) {
    Node* pa = n->parents[0].get();
    Node* pb = n->parents[1].get();
    if (Wants(n, 0)) {
      la::Matrix da = n->grad;
      da.Mul(pb->value);
      pa->EnsureGrad()->Add(da);
    }
    if (Wants(n, 1)) {
      la::Matrix db = n->grad;
      db.Mul(pa->value);
      pb->EnsureGrad()->Add(db);
    }
  });
}

Variable ScalarMul(const Variable& a, float s) {
  la::Matrix out = a.value();
  out.Scale(s);
  return MakeOpNode(std::move(out), Parents({&a}), [s](Node* n) {
    if (Wants(n, 0)) n->parents[0]->EnsureGrad()->Axpy(s, n->grad);
  });
}

Variable AddConst(const Variable& a, const la::Matrix& c) {
  SEMTAG_CHECK(a.value().SameShape(c));
  la::Matrix out = a.value();
  out.Add(c);
  return MakeOpNode(std::move(out), Parents({&a}), [](Node* n) {
    if (Wants(n, 0)) n->parents[0]->EnsureGrad()->Add(n->grad);
  });
}

Variable AddRowBroadcast(const Variable& x, const Variable& row) {
  la::Matrix out = x.value();
  la::AddRowBroadcast(&out, row.value());
  return MakeOpNode(std::move(out), Parents({&x, &row}), [](Node* n) {
    if (Wants(n, 0)) n->parents[0]->EnsureGrad()->Add(n->grad);
    if (Wants(n, 1)) {
      n->parents[1]->EnsureGrad()->Add(la::SumRows(n->grad));
    }
  });
}

Variable AddBlockBroadcast(const Variable& x, const Variable& block) {
  const size_t t = block.rows();
  SEMTAG_CHECK(t > 0 && x.rows() % t == 0 && x.cols() == block.cols());
  la::Matrix out = x.value();
  const la::KernelTable& kr = la::Kernels();
  for (size_t r = 0; r < out.rows(); ++r) {
    kr.vadd(out.Row(r), block.value().Row(r % t), out.cols());
  }
  return MakeOpNode(std::move(out), Parents({&x, &block}), [t](Node* n) {
    if (Wants(n, 0)) n->parents[0]->EnsureGrad()->Add(n->grad);
    if (Wants(n, 1)) {
      la::Matrix* pg = n->parents[1]->EnsureGrad();
      for (size_t r = 0; r < n->grad.rows(); ++r) {
        const float* src = n->grad.Row(r);
        float* dst = pg->Row(r % t);
        for (size_t c = 0; c < n->grad.cols(); ++c) dst[c] += src[c];
      }
    }
  });
}

Variable Sigmoid(const Variable& a) {
  la::Matrix out = a.value();
  la::Kernels().vsigmoid(out.data(), out.size());
  return MakeOpNode(std::move(out), Parents({&a}), [](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t i = 0; i < n->value.size(); ++i) {
      const float y = n->value.data()[i];
      pg->data()[i] += n->grad.data()[i] * y * (1.0f - y);
    }
  });
}

Variable Tanh(const Variable& a) {
  la::Matrix out = a.value();
  la::Kernels().vtanh(out.data(), out.size());
  return MakeOpNode(std::move(out), Parents({&a}), [](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t i = 0; i < n->value.size(); ++i) {
      const float y = n->value.data()[i];
      pg->data()[i] += n->grad.data()[i] * (1.0f - y * y);
    }
  });
}

Variable Relu(const Variable& a) {
  la::Matrix out = a.value();
  la::Kernels().vrelu(out.data(), out.size());
  return MakeOpNode(std::move(out), Parents({&a}), [](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t i = 0; i < n->value.size(); ++i) {
      if (n->value.data()[i] > 0.0f) pg->data()[i] += n->grad.data()[i];
    }
  });
}

Variable Gelu(const Variable& a) {
  la::Matrix out = a.value();
  la::Kernels().vgelu(out.data(), out.size());
  return MakeOpNode(std::move(out), Parents({&a}), [](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    const la::Matrix& x = n->parents[0]->value;
    la::Matrix scratch = la::Matrix::Uninitialized(x.rows(), x.cols());
    la::GeluBackward(la::Kernels(), x.data(), n->grad.data(), x.size(),
                     scratch.data(), pg->data());
  });
}

Variable RowSoftmax(const Variable& a) {
  la::Matrix out = a.value();
  const la::KernelTable& kr = la::Kernels();
  for (size_t r = 0; r < out.rows(); ++r) {
    kr.softmax_row(out.Row(r), out.cols());
  }
  return MakeOpNode(std::move(out), Parents({&a}), [](Node* n) {
    if (!Wants(n, 0)) return;
    // dx = y * (g - (g . y)) row-wise.
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t r = 0; r < n->value.rows(); ++r) {
      const float* y = n->value.Row(r);
      const float* g = n->grad.Row(r);
      float dot = 0.0f;
      for (size_t c = 0; c < n->value.cols(); ++c) dot += y[c] * g[c];
      float* dst = pg->Row(r);
      for (size_t c = 0; c < n->value.cols(); ++c) {
        dst[c] += y[c] * (g[c] - dot);
      }
    }
  });
}

Variable Dropout(const Variable& a, double p, Rng* rng, bool training,
                 size_t row_stride) {
  if (!training || p <= 0.0) return a;
  // Inference paths pass rng == nullptr; reaching this line with one would
  // mean a training=true call on a path that must not mutate RNG state.
  SEMTAG_CHECK(rng != nullptr);
  SEMTAG_CHECK(p < 1.0 && row_stride >= 1);
  la::Matrix mask(a.rows(), a.cols());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - p));
  const size_t skipped = (row_stride - 1) * a.cols();
  for (size_t r = 0; r < mask.rows(); ++r) {
    float* m = mask.Row(r);
    for (size_t c = 0; c < mask.cols(); ++c) {
      m[c] = rng->Bernoulli(p) ? 0.0f : keep_scale;
    }
    for (size_t i = 0; i < skipped; ++i) rng->Bernoulli(p);
  }
  la::Matrix out = a.value();
  out.Mul(mask);
  return MakeOpNode(
      std::move(out), Parents({&a}), [mask = std::move(mask)](Node* n) {
        if (!Wants(n, 0)) return;
        la::Matrix dg = n->grad;
        dg.Mul(mask);
        n->parents[0]->EnsureGrad()->Add(dg);
      });
}

Variable SliceRows(const Variable& a, size_t r0, size_t r1) {
  SEMTAG_CHECK(r0 < r1 && r1 <= a.rows());
  la::Matrix out(r1 - r0, a.cols());
  for (size_t r = r0; r < r1; ++r) {
    std::copy(a.value().Row(r), a.value().Row(r) + a.cols(),
              out.Row(r - r0));
  }
  return MakeOpNode(std::move(out), Parents({&a}), [r0](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t r = 0; r < n->grad.rows(); ++r) {
      const float* src = n->grad.Row(r);
      float* dst = pg->Row(r0 + r);
      for (size_t c = 0; c < n->grad.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable SliceColsRange(const Variable& a, size_t c0, size_t c1) {
  SEMTAG_CHECK(c0 < c1 && c1 <= a.cols());
  la::Matrix out(a.rows(), c1 - c0);
  for (size_t r = 0; r < a.rows(); ++r) {
    std::copy(a.value().Row(r) + c0, a.value().Row(r) + c1, out.Row(r));
  }
  return MakeOpNode(std::move(out), Parents({&a}), [c0](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t r = 0; r < n->grad.rows(); ++r) {
      const float* src = n->grad.Row(r);
      float* dst = pg->Row(r) + c0;
      for (size_t c = 0; c < n->grad.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  SEMTAG_CHECK(!parts.empty());
  const size_t rows = parts[0].rows();
  size_t cols = 0;
  std::vector<std::shared_ptr<Node>> parents;
  for (const auto& p : parts) {
    SEMTAG_CHECK(p.rows() == rows);
    cols += p.cols();
    parents.push_back(p.node());
  }
  la::Matrix out(rows, cols);
  size_t offset = 0;
  for (const auto& p : parts) {
    for (size_t r = 0; r < rows; ++r) {
      std::copy(p.value().Row(r), p.value().Row(r) + p.cols(),
                out.Row(r) + offset);
    }
    offset += p.cols();
  }
  return MakeOpNode(std::move(out), std::move(parents), [](Node* n) {
    size_t offset = 0;
    for (size_t i = 0; i < n->parents.size(); ++i) {
      Node* p = n->parents[i].get();
      const size_t pc = p->value.cols();
      if (p->requires_grad) {
        la::Matrix* pg = p->EnsureGrad();
        for (size_t r = 0; r < n->grad.rows(); ++r) {
          const float* src = n->grad.Row(r) + offset;
          float* dst = pg->Row(r);
          for (size_t c = 0; c < pc; ++c) dst[c] += src[c];
        }
      }
      offset += pc;
    }
  });
}

Variable MaxPoolRows(const Variable& a, size_t blocks) {
  SEMTAG_CHECK(blocks >= 1 && a.rows() >= blocks &&
               a.rows() % blocks == 0);
  const size_t rows_per = a.rows() / blocks;
  const size_t C = a.cols();
  la::Matrix out(blocks, C);
  std::vector<uint32_t> argmax(blocks * C, 0);
  for (size_t blk = 0; blk < blocks; ++blk) {
    const size_t r0 = blk * rows_per;
    for (size_t c = 0; c < C; ++c) {
      float best = a.value()(r0, c);
      uint32_t best_r = static_cast<uint32_t>(r0);
      for (size_t r = r0 + 1; r < r0 + rows_per; ++r) {
        const float v = a.value()(r, c);
        if (v > best) {
          best = v;
          best_r = static_cast<uint32_t>(r);
        }
      }
      argmax[blk * C + c] = best_r;
      out(blk, c) = best;
    }
  }
  return MakeOpNode(std::move(out), Parents({&a}),
                    [argmax = std::move(argmax)](Node* n) {
                      if (!Wants(n, 0)) return;
                      la::Matrix* pg = n->parents[0]->EnsureGrad();
                      const size_t C = n->grad.cols();
                      for (size_t blk = 0; blk < n->grad.rows(); ++blk) {
                        for (size_t c = 0; c < C; ++c) {
                          (*pg)(argmax[blk * C + c], c) += n->grad(blk, c);
                        }
                      }
                    });
}

Variable MeanRows(const Variable& a) {
  SEMTAG_CHECK(a.rows() >= 1);
  la::Matrix out = la::SumRows(a.value());
  const float inv = 1.0f / static_cast<float>(a.rows());
  out.Scale(inv);
  return MakeOpNode(std::move(out), Parents({&a}), [inv](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t r = 0; r < pg->rows(); ++r) {
      const float* g = n->grad.Row(0);
      float* dst = pg->Row(r);
      for (size_t c = 0; c < pg->cols(); ++c) dst[c] += inv * g[c];
    }
  });
}

Variable EmbeddingLookup(const Variable& table,
                         const std::vector<int32_t>& ids) {
  const size_t d = table.cols();
  la::Matrix out(ids.size(), d);
  for (size_t i = 0; i < ids.size(); ++i) {
    SEMTAG_CHECK(ids[i] >= 0 &&
                 static_cast<size_t>(ids[i]) < table.rows());
    std::copy(table.value().Row(static_cast<size_t>(ids[i])),
              table.value().Row(static_cast<size_t>(ids[i])) + d,
              out.Row(i));
  }
  return MakeOpNode(std::move(out), Parents({&table}), [ids](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t i = 0; i < ids.size(); ++i) {
      const float* src = n->grad.Row(i);
      float* dst = pg->Row(static_cast<size_t>(ids[i]));
      for (size_t c = 0; c < n->grad.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable GatherRows(const Variable& x, const std::vector<int32_t>& rows) {
  la::Matrix out(rows.size(), x.cols());
  for (size_t i = 0; i < rows.size(); ++i) {
    SEMTAG_CHECK(rows[i] >= 0 && static_cast<size_t>(rows[i]) < x.rows());
    std::copy(x.value().Row(static_cast<size_t>(rows[i])),
              x.value().Row(static_cast<size_t>(rows[i])) + x.cols(),
              out.Row(i));
  }
  return MakeOpNode(std::move(out), Parents({&x}), [rows](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    for (size_t i = 0; i < rows.size(); ++i) {
      const float* src = n->grad.Row(i);
      float* dst = pg->Row(static_cast<size_t>(rows[i]));
      for (size_t c = 0; c < n->grad.cols(); ++c) dst[c] += src[c];
    }
  });
}

Variable Conv1d(const Variable& x, const Variable& w, const Variable& b,
                int width, size_t blocks) {
  SEMTAG_CHECK(blocks >= 1 && x.rows() % blocks == 0);
  const size_t L = x.rows() / blocks;
  const size_t d = x.cols();
  SEMTAG_CHECK(width >= 1 && L >= static_cast<size_t>(width));
  SEMTAG_CHECK(w.rows() == static_cast<size_t>(width) * d);
  SEMTAG_CHECK(b.rows() == 1 && b.cols() == w.cols());
  const size_t out_len = L - static_cast<size_t>(width) + 1;
  // im2col: row t of block blk = concat(x[t], ..., x[t+width-1]) within
  // that block — windows never straddle sequences. The filter is shared
  // across the batch so all B blocks ride one [B*out_len x width*d] GEMM.
  la::Matrix cols(blocks * out_len, static_cast<size_t>(width) * d);
  for (size_t blk = 0; blk < blocks; ++blk) {
    const size_t x0 = blk * L;
    for (size_t t = 0; t < out_len; ++t) {
      float* dst = cols.Row(blk * out_len + t);
      for (int k = 0; k < width; ++k) {
        std::copy(x.value().Row(x0 + t + static_cast<size_t>(k)),
                  x.value().Row(x0 + t + static_cast<size_t>(k)) + d,
                  dst + static_cast<size_t>(k) * d);
      }
    }
  }
  la::Matrix out;
  la::MatMul(cols, w.value(), &out);
  la::AddRowBroadcast(&out, b.value());
  return MakeOpNode(
      std::move(out), Parents({&x, &w, &b}),
      [cols = std::move(cols), width, d, blocks, out_len, L](Node* n) {
        const la::Matrix& g = n->grad;  // [B*out_len x F]
        Node* px = n->parents[0].get();
        Node* pw = n->parents[1].get();
        Node* pb = n->parents[2].get();
        if (pb->requires_grad) pb->EnsureGrad()->Add(la::SumRows(g));
        if (pw->requires_grad) {
          la::Matrix dw;
          la::MatMulTransA(cols, g, &dw);
          pw->EnsureGrad()->Add(dw);
        }
        if (px->requires_grad) {
          la::Matrix dcols;
          la::MatMulTransB(g, pw->value, &dcols);  // [B*out_len x width*d]
          la::Matrix* pg = px->EnsureGrad();
          for (size_t blk = 0; blk < blocks; ++blk) {
            const size_t x0 = blk * L;
            for (size_t t = 0; t < out_len; ++t) {
              const float* src = dcols.Row(blk * out_len + t);
              for (int k = 0; k < width; ++k) {
                float* dst = pg->Row(x0 + t + static_cast<size_t>(k));
                for (size_t c = 0; c < d; ++c) {
                  dst[c] += src[static_cast<size_t>(k) * d + c];
                }
              }
            }
          }
        }
      });
}

Variable LayerNorm(const Variable& x, const Variable& gain,
                   const Variable& bias, float eps) {
  const size_t C = x.cols();
  SEMTAG_CHECK(gain.rows() == 1 && gain.cols() == C);
  SEMTAG_CHECK(bias.rows() == 1 && bias.cols() == C);
  la::Matrix normalized(x.rows(), C);
  std::vector<float> inv_std(x.rows());
  const la::KernelTable& kr = la::Kernels();
  for (size_t r = 0; r < x.rows(); ++r) {
    inv_std[r] = kr.layernorm_row(normalized.Row(r), x.value().Row(r), C, eps);
  }
  la::Matrix out = normalized;
  for (size_t r = 0; r < out.rows(); ++r) {
    // out = normalized * gain + bias, rowwise (mul then add — identical
    // rounding to the former fused expression on non-FMA codegen).
    kr.hadamard(out.Row(r), gain.value().Row(0), C);
    kr.vadd(out.Row(r), bias.value().Row(0), C);
  }
  return MakeOpNode(
      std::move(out), Parents({&x, &gain, &bias}),
      [normalized = std::move(normalized),
       inv_std = std::move(inv_std)](Node* n) {
        const la::Matrix& g = n->grad;
        const size_t C = g.cols();
        Node* px = n->parents[0].get();
        Node* pgain = n->parents[1].get();
        Node* pbias = n->parents[2].get();
        if (pbias->requires_grad) pbias->EnsureGrad()->Add(la::SumRows(g));
        if (pgain->requires_grad) {
          la::Matrix gy = g;
          gy.Mul(normalized);
          pgain->EnsureGrad()->Add(la::SumRows(gy));
        }
        if (px->requires_grad) {
          la::Matrix* pg = px->EnsureGrad();
          const float* gain_row = pgain->value.Row(0);
          for (size_t r = 0; r < g.rows(); ++r) {
            const float* grow = g.Row(r);
            const float* yrow = normalized.Row(r);
            // ghat = g * gain (grad wrt normalized values).
            float mean_ghat = 0.0f;
            float mean_ghat_y = 0.0f;
            for (size_t c = 0; c < C; ++c) {
              const float gh = grow[c] * gain_row[c];
              mean_ghat += gh;
              mean_ghat_y += gh * yrow[c];
            }
            mean_ghat /= static_cast<float>(C);
            mean_ghat_y /= static_cast<float>(C);
            float* dst = pg->Row(r);
            for (size_t c = 0; c < C; ++c) {
              const float gh = grow[c] * gain_row[c];
              dst[c] +=
                  inv_std[r] * (gh - mean_ghat - yrow[c] * mean_ghat_y);
            }
          }
        }
      });
}

Variable SoftmaxCrossEntropy(const Variable& logits,
                             const std::vector<int32_t>& labels) {
  const size_t N = logits.rows();
  const size_t C = logits.cols();
  SEMTAG_CHECK(labels.size() == N && N > 0);
  // Probabilities stored for the backward pass.
  la::Matrix probs = logits.value();
  double total = 0.0;
  for (size_t r = 0; r < N; ++r) {
    float* row = probs.Row(r);
    float mx = row[0];
    for (size_t c = 1; c < C; ++c) mx = std::max(mx, row[c]);
    double sum = 0.0;
    for (size_t c = 0; c < C; ++c) {
      row[c] = std::exp(row[c] - mx);
      sum += row[c];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (size_t c = 0; c < C; ++c) row[c] *= inv;
    SEMTAG_CHECK(labels[r] >= 0 && static_cast<size_t>(labels[r]) < C);
    total -= std::log(
        std::max(1e-12f, row[static_cast<size_t>(labels[r])]));
  }
  la::Matrix loss(1, 1, static_cast<float>(total / static_cast<double>(N)));
  return MakeOpNode(
      std::move(loss), Parents({&logits}),
      [probs = std::move(probs), labels](Node* n) {
        if (!Wants(n, 0)) return;
        const float scale =
            n->grad(0, 0) / static_cast<float>(probs.rows());
        la::Matrix* pg = n->parents[0]->EnsureGrad();
        for (size_t r = 0; r < probs.rows(); ++r) {
          const float* p = probs.Row(r);
          float* dst = pg->Row(r);
          for (size_t c = 0; c < probs.cols(); ++c) {
            float d = p[c];
            if (static_cast<size_t>(labels[r]) == c) d -= 1.0f;
            dst[c] += scale * d;
          }
        }
      });
}

Variable SumToScalar(const Variable& a) {
  la::Matrix out(1, 1, a.value().Sum());
  return MakeOpNode(std::move(out), Parents({&a}), [](Node* n) {
    if (!Wants(n, 0)) return;
    la::Matrix* pg = n->parents[0]->EnsureGrad();
    const float g = n->grad(0, 0);
    for (size_t i = 0; i < pg->size(); ++i) pg->data()[i] += g;
  });
}

}  // namespace semtag::nn
