#include "la/kernels.h"

#include "common/logging.h"
#include "config/runtime_config.h"
#include "la/kernels_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::la {

namespace {

using kernel_detail::ScalarTable;

/// True when the AVX2 table is compiled in and this CPU runs AVX2 + FMA.
bool Avx2Runnable() {
#if defined(SEMTAG_LA_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
  return __builtin_cpu_supports("avx2") != 0 &&
         __builtin_cpu_supports("fma") != 0;
#else
  return false;
#endif
}

SimdLevel ClampToAvailable(SimdLevel want) {
  if (SimdLevelAvailable(want)) return want;
  SEMTAG_LOG(kWarning, "SIMD level %s unavailable on this build/CPU; falling back to scalar",
             SimdLevelName(want));
  return SimdLevel::kScalar;
}

SimdLevel SelectLevel() {
  const std::string& simd = GetRuntimeConfig().simd;
  if (simd == "scalar") return SimdLevel::kScalar;
  if (simd == "avx2") return ClampToAvailable(SimdLevel::kAvx2);
  return BestSupportedSimdLevel();
}

const KernelTable& TableForUnchecked(SimdLevel level) {
  switch (level) {
#if defined(SEMTAG_LA_HAVE_AVX2)
    case SimdLevel::kAvx2:
      return kernel_detail::Avx2Table();
#endif
    default:
      return ScalarTable();
  }
}

const KernelTable& SelectedTable() {
  static const KernelTable* table = [] {
    const SimdLevel level = SelectLevel();
    SEMTAG_LOG(kDebug, "kernel dispatch: %s (best supported: %s)",
               SimdLevelName(level), SimdLevelName(BestSupportedSimdLevel()));
    // Stamp the tier into the trace metadata too, so a chrome-trace
    // export identifies which kernel table produced it without anyone
    // having to capture stderr.
    obs::SetTraceMetadata("la/simd_tier", SimdLevelName(level));
    return &TableForUnchecked(level);
  }();
  return *table;
}

/// Snapshot collector: publishes the dispatched tier so a metrics dump
/// records which kernel table produced the numbers (0=scalar 2=avx2, plus
/// a name-keyed one-hot for greppability).
void CollectKernelMetrics() {
  const SimdLevel level = ActiveSimdLevel();
  obs::GetGauge("la/simd_tier").Set(static_cast<double>(static_cast<int>(level)));
  obs::GetGauge(std::string("la/simd_tier/") + SimdLevelName(level)).Set(1.0);
}

[[maybe_unused]] const bool g_kernel_collector =
    obs::RegisterCollector(CollectKernelMetrics);

}  // namespace

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kScalar:
      return "scalar";
    case SimdLevel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

void GeluBackward(const KernelTable& kt, const float* x, const float* g,
                  size_t n, float* scratch, float* dx) {
  // d/dx 0.5x(1 + tanh(u)), u = sqrt(2/pi)(x + 0.044715 x^3).
  constexpr float kC = 0.7978845608f;  // sqrt(2/pi)
  constexpr float kA = 0.044715f;
  for (size_t i = 0; i < n; ++i) {
    const float xi = x[i];
    scratch[i] = kC * (xi + kA * xi * xi * xi);
  }
  kt.vtanh(scratch, n);
  for (size_t i = 0; i < n; ++i) {
    const float xi = x[i];
    const float t = scratch[i];
    const float dinner = kC * (1.0f + 3.0f * kA * xi * xi);
    const float dy = 0.5f * (1.0f + t) + 0.5f * xi * (1.0f - t * t) * dinner;
    dx[i] += g[i] * dy;
  }
}

const KernelTable& Kernels() { return SelectedTable(); }

SimdLevel ActiveSimdLevel() { return SelectedTable().level; }

SimdLevel BestSupportedSimdLevel() {
  static const SimdLevel best = SimdLevelAvailable(SimdLevel::kAvx2)
                                    ? SimdLevel::kAvx2
                                    : SimdLevel::kScalar;
  return best;
}

bool SimdLevelAvailable(SimdLevel level) {
  return level == SimdLevel::kScalar ||
         (level == SimdLevel::kAvx2 && Avx2Runnable());
}

const KernelTable& KernelTableFor(SimdLevel level) {
  SEMTAG_CHECK(SimdLevelAvailable(level));
  return TableForUnchecked(level);
}

}  // namespace semtag::la
