// GEMM kernel micro-benchmarks: the blocked/unrolled parallel kernels in
// la/matrix.cc against a frozen copy of the pre-threading seed kernel, so
// the perf trajectory is tracked in-repo from the first optimization PR
// onward. Run from the repo root:
//
//   ./build/bench/gemm_kernels             # GEMM suite -> BENCH_gemm.json
//   ./build/bench/gemm_kernels --kernels   # per-kernel GF/s per SIMD tier
//                                          #   -> BENCH_kernels.json
//   ./build/bench/gemm_kernels --smoke     # run every dispatched kernel
//                                          #   once per tier and exit (CI)
//
// (override the output with the usual --benchmark_out=...; a run narrowed
// by --benchmark_filter writes no file unless given one). Thread counts
// sweep 1/2/4/8 regardless of the host's core count — oversubscribed
// points are reported as-is, they tell you what threading costs when the
// hardware can't back it.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "la/buffer_pool.h"
#include "la/init.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/sparse.h"
#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/variable.h"

namespace semtag::la {
namespace {

/// Verbatim copy of the seed MatMul (ikj rank-1 updates with a zero-skip
/// branch, single thread) — the baseline every speedup claim is against.
void MatMulNaiveSeed(const Matrix& a, const Matrix& b, Matrix* out) {
  const size_t m = a.rows(), k = a.cols(), n = b.cols();
  *out = Matrix(m, n);
  for (size_t i = 0; i < m; ++i) {
    const float* arow = a.Row(i);
    float* orow = out->Row(i);
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      const float* brow = b.Row(kk);
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.Normal());
  }
  return m;
}

void SetFlops(benchmark::State& state, size_t n) {
  state.counters["flops"] = benchmark::Counter(
      static_cast<double>(state.iterations()) * 2.0 * static_cast<double>(n) *
          static_cast<double>(n) * static_cast<double>(n),
      benchmark::Counter::kIsRate);
}

void BM_MatMul_seed_naive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  Matrix out;
  for (auto _ : state) {
    MatMulNaiveSeed(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetFlops(state, n);
}
BENCHMARK(BM_MatMul_seed_naive)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Unit(benchmark::kMicrosecond);

void BM_MatMul(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SetGlobalPoolThreads(static_cast<int>(state.range(1)));
  const Matrix a = RandomMatrix(n, n, 1);
  const Matrix b = RandomMatrix(n, n, 2);
  Matrix out;
  for (auto _ : state) {
    MatMul(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetFlops(state, n);
}
BENCHMARK(BM_MatMul)
    ->ArgsProduct({{32, 64, 128, 256, 512}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_MatMulTransA(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SetGlobalPoolThreads(static_cast<int>(state.range(1)));
  const Matrix at = RandomMatrix(n, n, 3);
  const Matrix b = RandomMatrix(n, n, 4);
  Matrix out;
  for (auto _ : state) {
    MatMulTransA(at, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetFlops(state, n);
}
BENCHMARK(BM_MatMulTransA)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_MatMulTransB(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SetGlobalPoolThreads(static_cast<int>(state.range(1)));
  const Matrix a = RandomMatrix(n, n, 5);
  const Matrix bt = RandomMatrix(n, n, 6);
  Matrix out;
  for (auto _ : state) {
    MatMulTransB(a, bt, &out);
    benchmark::DoNotOptimize(out.data());
  }
  SetFlops(state, n);
}
BENCHMARK(BM_MatMulTransB)
    ->ArgsProduct({{256}, {1, 2, 4, 8}})
    ->ArgNames({"n", "threads"})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_Transpose(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(n, n, 7);
  for (auto _ : state) {
    Matrix t = a.Transposed();
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_Transpose)->Arg(256)->Arg(1024)->Unit(benchmark::kMicrosecond);

void BM_Dot(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomMatrix(1, n, 8);
  const Matrix b = RandomMatrix(1, n, 9);
  for (auto _ : state) {
    float d = Dot(a.Row(0), b.Row(0), n);
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_Dot)->Arg(1024)->Arg(65536);

// ---------------------------------------------------------------------------
// Per-kernel suite (--kernels): GF/s (or elements/s) for each dispatched
// kernel at every compiled-in SIMD tier, plus BufferPool allocations/step
// for a transformer training step. Registered at runtime so only tiers the
// host supports appear in BENCH_kernels.json.
// ---------------------------------------------------------------------------

std::vector<SimdLevel> AllAvailableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (SimdLevelAvailable(SimdLevel::kAvx2)) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// One working set shared by every kernel benchmark: vectors long enough
/// to stream (L2-resident), reinitialized per benchmark from a fixed seed.
struct KernelBenchData {
  static constexpr size_t kN = 16384;
  static constexpr size_t kNnz = 1024;
  Matrix a, b0, b1, b2, b3, out0, out1;
  std::vector<SparseEntry> entries;

  KernelBenchData() {
    Rng rng(31);
    a = RandomMatrix(1, kN, 41);
    b0 = RandomMatrix(1, kN, 42);
    b1 = RandomMatrix(1, kN, 43);
    b2 = RandomMatrix(1, kN, 44);
    b3 = RandomMatrix(1, kN, 45);
    out0 = RandomMatrix(1, kN, 46);
    out1 = RandomMatrix(1, kN, 47);
    entries.resize(kNnz);
    for (auto& e : entries) {
      e.index = static_cast<uint32_t>(rng.Uniform(kN));
      e.value = static_cast<float>(rng.Normal());
    }
  }
};

void SetRate(benchmark::State& state, const char* name, double per_iter) {
  state.counters[name] = benchmark::Counter(
      static_cast<double>(state.iterations()) * per_iter,
      benchmark::Counter::kIsRate);
}

void RegisterKernelBenches() {
  constexpr size_t kN = KernelBenchData::kN;
  constexpr size_t kNnz = KernelBenchData::kNnz;
  for (SimdLevel level : AllAvailableLevels()) {
    const KernelTable* kt = &KernelTableFor(level);
    const std::string tier = std::string("/") + SimdLevelName(level);

    benchmark::RegisterBenchmark(
        ("Kernel_gemm_update4" + tier).c_str(),
        [kt](benchmark::State& state) {
          KernelBenchData d;
          for (auto _ : state) {
            kt->gemm_update4(d.out0.data(), d.b0.data(), d.b1.data(),
                             d.b2.data(), d.b3.data(), 0.5f, -0.25f, 1.5f,
                             -0.125f, kN);
            benchmark::DoNotOptimize(d.out0.data());
          }
          SetRate(state, "flops", 8.0 * kN);
        });

    benchmark::RegisterBenchmark(
        ("Kernel_gemm_update4x2" + tier).c_str(),
        [kt](benchmark::State& state) {
          KernelBenchData d;
          const float a0[4] = {0.5f, -0.25f, 1.5f, -0.125f};
          const float a1[4] = {1.0f, 0.75f, -0.5f, 0.25f};
          for (auto _ : state) {
            kt->gemm_update4x2(d.out0.data(), d.out1.data(), d.b0.data(),
                               d.b1.data(), d.b2.data(), d.b3.data(), a0, a1,
                               kN);
            benchmark::DoNotOptimize(d.out0.data());
          }
          SetRate(state, "flops", 16.0 * kN);
        });

    benchmark::RegisterBenchmark(
        ("Kernel_axpy" + tier).c_str(), [kt](benchmark::State& state) {
          KernelBenchData d;
          for (auto _ : state) {
            kt->axpy(d.out0.data(), d.b0.data(), 1e-4f, kN);
            benchmark::DoNotOptimize(d.out0.data());
          }
          SetRate(state, "flops", 2.0 * kN);
        });

    benchmark::RegisterBenchmark(
        ("Kernel_dot" + tier).c_str(), [kt](benchmark::State& state) {
          KernelBenchData d;
          for (auto _ : state) {
            float v = kt->dot(d.a.data(), d.b0.data(), kN);
            benchmark::DoNotOptimize(v);
          }
          SetRate(state, "flops", 2.0 * kN);
        });

    benchmark::RegisterBenchmark(
        ("Kernel_dot4" + tier).c_str(), [kt](benchmark::State& state) {
          KernelBenchData d;
          float out[4];
          for (auto _ : state) {
            kt->dot4(d.a.data(), d.b0.data(), d.b1.data(), d.b2.data(),
                     d.b3.data(), kN, out);
            benchmark::DoNotOptimize(out[0]);
          }
          SetRate(state, "flops", 8.0 * kN);
        });

    benchmark::RegisterBenchmark(
        ("Kernel_softmax_row" + tier).c_str(),
        [kt](benchmark::State& state) {
          KernelBenchData d;
          for (auto _ : state) {
            std::memcpy(d.out0.data(), d.a.data(), kN * sizeof(float));
            kt->softmax_row(d.out0.data(), kN);
            benchmark::DoNotOptimize(d.out0.data());
          }
          SetRate(state, "elems", static_cast<double>(kN));
        });

    benchmark::RegisterBenchmark(
        ("Kernel_layernorm_row" + tier).c_str(),
        [kt](benchmark::State& state) {
          KernelBenchData d;
          for (auto _ : state) {
            float istd = kt->layernorm_row(d.out0.data(), d.a.data(), kN,
                                           1e-5f);
            benchmark::DoNotOptimize(istd);
          }
          SetRate(state, "elems", static_cast<double>(kN));
        });

    benchmark::RegisterBenchmark(
        ("Kernel_vexp" + tier).c_str(), [kt](benchmark::State& state) {
          KernelBenchData d;
          for (auto _ : state) {
            std::memcpy(d.out0.data(), d.a.data(), kN * sizeof(float));
            kt->vexp(d.out0.data(), kN);
            benchmark::DoNotOptimize(d.out0.data());
          }
          SetRate(state, "elems", static_cast<double>(kN));
        });

    benchmark::RegisterBenchmark(
        ("Kernel_vtanh" + tier).c_str(), [kt](benchmark::State& state) {
          KernelBenchData d;
          for (auto _ : state) {
            std::memcpy(d.out0.data(), d.a.data(), kN * sizeof(float));
            kt->vtanh(d.out0.data(), kN);
            benchmark::DoNotOptimize(d.out0.data());
          }
          SetRate(state, "elems", static_cast<double>(kN));
        });

    benchmark::RegisterBenchmark(
        ("Kernel_adam_update" + tier).c_str(),
        [kt](benchmark::State& state) {
          KernelBenchData d;
          Matrix m = RandomMatrix(1, kN, 48);
          Matrix v = RandomMatrix(1, kN, 49);
          for (float* p = v.data(); p < v.data() + kN; ++p) {
            *p = *p * *p;  // v must be non-negative
          }
          for (auto _ : state) {
            kt->adam_update(d.out0.data(), d.b0.data(), m.data(), v.data(),
                            kN, 1e-3f, 0.9f, 0.999f, 1e-8f, 0.1f, 0.001f);
            benchmark::DoNotOptimize(d.out0.data());
          }
          SetRate(state, "elems", static_cast<double>(kN));
        });

    benchmark::RegisterBenchmark(
        ("Kernel_sparse_dot" + tier).c_str(),
        [kt](benchmark::State& state) {
          KernelBenchData d;
          for (auto _ : state) {
            float v = kt->sparse_dot(d.entries.data(), kNnz, d.a.data());
            benchmark::DoNotOptimize(v);
          }
          SetRate(state, "flops", 2.0 * kNnz);
        });

  }

  // Allocations per training step: the zero-allocation acceptance metric,
  // recorded alongside the kernel rates. Steady state (after a warm-up)
  // must show allocs_per_step == 0.
  benchmark::RegisterBenchmark(
      "Kernel_TrainStepAllocs", [](benchmark::State& state) {
        Rng rng(7);
        nn::TransformerEncoderLayer layer(32, 4, 128, &rng);
        Matrix x(20, 32);
        GaussianInit(&x, &rng, 1.0f);
        Matrix mask(20, 20);
        std::vector<nn::Variable> params;
        layer.CollectParameters(&params);
        nn::Adam adam(params, 1e-3f);
        auto step = [&] {
          nn::Variable input(x, /*requires_grad=*/true);
          nn::Variable out = layer.Forward(input, mask, 0.0, &rng, true);
          nn::Backward(nn::SumToScalar(out));
          adam.Step();
        };
        for (int i = 0; i < 3; ++i) step();  // warm the pool
        const auto before = BufferPool::GetStats();
        uint64_t steps = 0;
        for (auto _ : state) {
          step();
          ++steps;
        }
        const auto after = BufferPool::GetStats();
        const double inv_steps = steps > 0 ? 1.0 / static_cast<double>(steps)
                                           : 0.0;
        state.counters["allocs_per_step"] =
            static_cast<double>(after.system_allocs - before.system_allocs) *
            inv_steps;
        state.counters["pool_hits_per_step"] =
            static_cast<double>(after.pool_hits - before.pool_hits) *
            inv_steps;
      });
}

// ---------------------------------------------------------------------------
// Smoke mode (--smoke): call every entry of every compiled-in kernel table
// once on tiny inputs. A crash or non-finite output fails CI; exit 0
// otherwise. Cheap enough to run under every dispatch env setting.
// ---------------------------------------------------------------------------

int RunSmoke() {
  std::printf("active SIMD level: %s\n",
              SimdLevelName(ActiveSimdLevel()));
  for (SimdLevel level : AllAvailableLevels()) {
    const KernelTable& kt = KernelTableFor(level);
    constexpr size_t kN = 37;  // odd: exercises every vector tail
    Matrix a = RandomMatrix(1, kN, 51), b0 = RandomMatrix(1, kN, 52);
    Matrix b1 = RandomMatrix(1, kN, 53), b2 = RandomMatrix(1, kN, 54);
    Matrix b3 = RandomMatrix(1, kN, 55), out0 = RandomMatrix(1, kN, 56);
    Matrix out1 = RandomMatrix(1, kN, 57);
    Matrix m = RandomMatrix(1, kN, 58), v = RandomMatrix(1, kN, 59);
    for (size_t i = 0; i < kN; ++i) v.data()[i] *= v.data()[i];
    const float a0[4] = {0.5f, -0.25f, 1.5f, -0.125f};
    const float a1[4] = {1.0f, 0.75f, -0.5f, 0.25f};
    float d4[4];
    std::vector<SparseEntry> entries(8);
    for (size_t i = 0; i < entries.size(); ++i) {
      entries[i] = {static_cast<uint32_t>(i * 4), 0.5f};
    }

    kt.gemm_update4(out0.data(), b0.data(), b1.data(), b2.data(), b3.data(),
                    a0[0], a0[1], a0[2], a0[3], kN);
    kt.gemm_update4x2(out0.data(), out1.data(), b0.data(), b1.data(),
                      b2.data(), b3.data(), a0, a1, kN);
    kt.axpy(out0.data(), b0.data(), 0.5f, kN);
    kt.dot4(a.data(), b0.data(), b1.data(), b2.data(), b3.data(), kN, d4);
    float acc = kt.dot(a.data(), b0.data(), kN);
    kt.scale(out0.data(), 0.99f, kN);
    kt.vadd(out0.data(), b0.data(), kN);
    kt.vsub(out0.data(), b1.data(), kN);
    kt.hadamard(out0.data(), b2.data(), kN);
    kt.vfill(out1.data(), 0.125f, kN);
    acc += static_cast<float>(kt.sum(a.data(), kN));
    acc += static_cast<float>(kt.sumsq(a.data(), kN));
    kt.softmax_row(out0.data(), kN);
    acc += kt.layernorm_row(out1.data(), a.data(), kN, 1e-5f);
    kt.vexp(out0.data(), kN);
    kt.vtanh(out0.data(), kN);
    kt.vsigmoid(out0.data(), kN);
    kt.vrelu(out0.data(), kN);
    kt.vgelu(out0.data(), kN);
    acc += kt.sparse_dot(entries.data(), entries.size(), a.data());
    kt.sparse_axpy(entries.data(), entries.size(), 0.5f, out1.data());
    kt.adam_update(out1.data(), b0.data(), m.data(), v.data(), kN, 1e-3f,
                   0.9f, 0.999f, 1e-8f, 0.1f, 0.001f);
    {
      std::vector<float> scratch(kN);
      GeluBackward(kt, a.data(), b0.data(), kN, scratch.data(), out1.data());
    }

    // Fused attention: one 7-position, 5-wide head tile (both odd, so
    // every padded-lane path runs), forward then backward into out0/out1.
    {
      constexpr size_t kT = 7, kHd = 5, kLd = 3 * kHd;
      Matrix qkv = RandomMatrix(kT, kLd, 60), grad(kT, kLd);
      Matrix mask(kT, kT), probs(kT, kT), heads(kT, kHd);
      for (size_t i = 0; i < kT; ++i) mask(i, kT - 1) = -1e9f;
      std::vector<float> work(AttentionWorkFloats(kT, kHd));
      AttentionTile tile;
      tile.t = kT;
      tile.rows = kT;
      tile.hd = kHd;
      tile.ld = kLd;
      tile.scale = 0.5f;
      tile.q = qkv.data();
      tile.k = qkv.data() + kHd;
      tile.v = qkv.data() + 2 * kHd;
      tile.mask = mask.data();
      tile.probs = probs.data();
      tile.work = work.data();
      kt.attention_forward(tile, heads.data(), kHd);
      kt.attention_backward(tile, heads.data(), kHd, grad.data(),
                            grad.data() + kHd, grad.data() + 2 * kHd);
      acc += heads.Sum() + grad.Sum();
    }

    bool finite = std::isfinite(acc);
    for (size_t i = 0; i < kN && finite; ++i) {
      finite = std::isfinite(out0.data()[i]) && std::isfinite(out1.data()[i]);
    }
    if (!finite) {
      std::printf("tier %s: FAILED (non-finite output)\n",
                  SimdLevelName(level));
      return 1;
    }
    std::printf("tier %s: ok\n", SimdLevelName(level));
  }
  return 0;
}

}  // namespace
}  // namespace semtag::la

int main(int argc, char** argv) {
  bool smoke = false, kernels = false;
  semtag::Flags flags("gemm_kernels");
  flags.Bool("smoke", &smoke, "run every kernel once per SIMD tier and exit");
  flags.Bool("kernels", &kernels,
             "run the per-kernel suite (BENCH_kernels.json) instead of the "
             "GEMM suite (BENCH_gemm.json)");
  std::vector<char*> args =
      semtag::bench::ParseBenchmarkArgs(argc, argv, &flags);
  if (smoke) return semtag::la::RunSmoke();
  if (kernels) semtag::la::RegisterKernelBenches();
  // The tracked files stay comparable across changes: each holds its
  // whole suite.
  return semtag::bench::RunBenchmarks(
      std::move(args), kernels ? "^Kernel_" : "^BM_",
      kernels ? "BENCH_kernels.json" : "BENCH_gemm.json");
}
