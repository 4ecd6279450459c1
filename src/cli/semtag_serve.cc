// semtag_serve: long-lived online tagging daemon.
//
//   semtag_serve --dataset SUGG                      # cascade, auto pair
//   semtag_serve --dataset HOTEL --cascade SVM+LSTM  # pinned pair
//   semtag_serve --spec /path/model.spec             # CRC-sealed spec file
//   semtag_serve --model SVM --dataset SUGG --port 7421
//
// Trains (or loads) the initial model, binds the epoll front end, and
// serves the length-prefixed protocol (src/serve/protocol.h) until
// SIGTERM/SIGINT, which triggers a graceful drain: queued requests are
// scored and every pending response is written before exit. Runtime
// knobs: SEMTAG_SERVE_BATCH_CAP, SEMTAG_SERVE_QUEUE_CAP (or the flag twins
// below); the model tier composes with SEMTAG_QUANT / SEMTAG_DEEP_BATCH.
// Unrecognised flags are logged and ignored.
// Hot-swap: write a sealed spec (kSwap op or WriteModelSpecFile) and send
// its path with opcode 0x04 — scoring continues on the old model until the
// replacement is trained, then a pointer flip swaps it in.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "data/specs.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/replanner.h"
#include "serve/server.h"

namespace semtag {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: semtag_serve [flags]\n"
      "model (exactly one of --dataset / --spec):\n"
      "  --dataset NAME     train on this dataset spec (e.g. SUGG, HETER)\n"
      "  --records N        override the dataset's scaled record count\n"
      "  --model NAME       model family (default CASCADE)\n"
      "  --cascade P        cascade pair 'S+D', 'auto', or 'simple'\n"
      "  --budget PTS       cascade accuracy budget in points (default 0.5)\n"
      "  --seed N           training seed (default 0)\n"
      "  --spec FILE        load a CRC-sealed model spec file instead\n"
      "serving:\n"
      "  --host H           bind address (default 127.0.0.1)\n"
      "  --port N           bind port (default 0 = ephemeral, printed)\n"
      "  --batch-cap N      $SEMTAG_SERVE_BATCH_CAP (default 32)\n"
      "  --queue-cap N      $SEMTAG_SERVE_QUEUE_CAP (default 1024)\n"
      "  --max-conns N      connection limit (default 1024)\n"
      "  --replan           enable online re-planning ($SEMTAG_REPLAN;\n"
      "                     tune with SEMTAG_REPLAN_EPOCH/WINDOW/\n"
      "                     HYSTERESIS/DIRTY/PROFILE/PAIR/BUDGET/DIR)\n"
      "  --metrics[=path]   arm the obs registry / export snapshot\n"
      "  --trace[=path]     arm tracing / export spans\n");
  return 2;
}

/// The flags Usage() lists, less the obs pair HandleObsFlag consumes.
bool IsKnownFlag(const std::string& key) {
  for (const char* flag :
       {"help", "dataset", "records", "model", "cascade", "budget", "seed",
        "spec", "host", "port", "batch-cap", "queue-cap", "max-conns",
        "replan"}) {
    if (key == flag) return true;
  }
  return false;
}

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (obs::HandleObsFlag(arg)) continue;
    if (std::strncmp(arg, "--", 2) != 0) continue;
    const std::string key = arg + 2;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      flags[key] = argv[++i];
    } else {
      flags[key] = "true";
    }
    // Non-fatal, so old command lines keep working; a typo is visible.
    if (!IsKnownFlag(key)) {
      SEMTAG_LOG(kWarning, "ignoring unrecognised flag --%s", key.c_str());
      flags.erase(key);
    }
  }
  return flags;
}

bool FlagInt(const std::map<std::string, std::string>& flags,
             const std::string& key, int* out) {
  const auto it = flags.find(key);
  if (it == flags.end()) return true;
  int64_t v = 0;
  if (!ParseInt64(it->second, &v)) {
    std::fprintf(stderr, "--%s: not an integer: %s\n", key.c_str(),
                 it->second.c_str());
    return false;
  }
  *out = static_cast<int>(v);
  return true;
}

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kInfo);
  const auto flags = ParseFlags(argc, argv);
  if (flags.count("help") > 0) return Usage();

  // ---- initial model ----
  serve::ModelRegistry registry;
  serve::ModelSpec spec;
  std::string source;
  if (const auto it = flags.find("spec"); it != flags.end()) {
    auto loaded = serve::LoadModelSpecFile(it->second);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    spec = std::move(loaded).ValueOrDie();
    source = spec.model + " (spec " + it->second + ")";
  } else if (const auto ds = flags.find("dataset"); ds != flags.end()) {
    spec.dataset = ds->second;
    if (const auto m = flags.find("model"); m != flags.end()) {
      spec.model = m->second;
    }
    if (const auto c = flags.find("cascade"); c != flags.end()) {
      spec.cascade = c->second;
    }
    if (const auto b = flags.find("budget"); b != flags.end()) {
      if (!ParseDouble(b->second, &spec.budget_pts)) {
        std::fprintf(stderr, "--budget: not a number: %s\n",
                     b->second.c_str());
        return 2;
      }
    }
    int seed = 0;
    if (!FlagInt(flags, "records", &spec.records) ||
        !FlagInt(flags, "seed", &seed) || seed < 0) {
      return 2;
    }
    spec.seed = static_cast<uint64_t>(seed);
    source = spec.model + " (" + spec.dataset + ")";
  } else {
    std::fprintf(stderr, "need --dataset or --spec\n");
    return Usage();
  }

  SEMTAG_LOG(kInfo, "training initial model: %s", source.c_str());
  auto model = serve::BuildModelFromSpec(spec);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  const uint64_t version =
      registry.Install(std::move(model).ValueOrDie(), source);

  // ---- server ----
  serve::ServerOptions options;
  options.batching = serve::BatchingOptionsFromEnv();
  if (const auto it = flags.find("host"); it != flags.end()) {
    options.host = it->second;
  }
  if (!FlagInt(flags, "port", &options.port) ||
      !FlagInt(flags, "batch-cap", &options.batching.batch_cap) ||
      !FlagInt(flags, "queue-cap", &options.batching.queue_cap) ||
      !FlagInt(flags, "max-conns", &options.max_connections)) {
    return 2;
  }
  options.batching = options.batching.Resolved();
  options.watch_signals = true;

  // ---- online re-planning ----
  // Base options inherit the initial model's provenance (dataset, record
  // override, seed, budget), so every re-planned spec retrains from the
  // same corpus the daemon started on; SEMTAG_REPLAN_* env then overrides.
  serve::ReplanOptions replan_base;
  replan_base.dataset = spec.dataset;
  replan_base.records = spec.records;
  replan_base.cascade.seed = spec.seed;
  replan_base.cascade.budget_pts = spec.budget_pts;
  options.replan = serve::ReplanOptionsFromEnv(replan_base);
  if (flags.count("replan") > 0) options.replan.enabled = true;
  if (options.replan.enabled && spec.dataset.empty()) {
    SEMTAG_LOG(kWarning,
               "replan disabled: the initial model was loaded from a file "
               "checkpoint, so there is no dataset spec to retrain from");
    options.replan.enabled = false;
  }

  serve::Server server(&registry, options);
  if (options.replan.enabled) {
    // Seed the cleanliness proxy's reference vocabulary from the training
    // corpus, so OOV/churn measure drift away from what the served model
    // actually learned (not away from the first traffic epoch).
    auto ds = data::FindSpec(spec.dataset);
    if (ds.ok()) {
      data::DatasetSpec d = std::move(ds).ValueOrDie();
      if (spec.records > 0) d.scaled_records = spec.records;
      data::Dataset dataset = data::BuildDataset(d);
      auto [train, test] = dataset.Split(d.train_fraction);
      server.traffic_stats().SeedReferenceFromTexts(train.Texts());
    }
  }
  const Status st = server.Start();
  if (!st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }
  // Load generators and tests parse this line for the ephemeral port.
  std::printf("listening on port %d (model v%llu)\n", server.port(),
              static_cast<unsigned long long>(version));
  std::fflush(stdout);

  // The epoll loop owns shutdown (it watches the ShutdownSignal fd); main
  // just waits for it to drain.
  while (server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.Stop();
  const serve::ServerCounters counters = server.counters();
  std::printf("drained: %llu requests (%llu shed, %llu protocol errors), "
              "%llu swaps\n",
              static_cast<unsigned long long>(counters.requests),
              static_cast<unsigned long long>(counters.shed),
              static_cast<unsigned long long>(counters.protocol_errors),
              static_cast<unsigned long long>(counters.swaps_ok));
  return 0;
}

}  // namespace
}  // namespace semtag

int main(int argc, char** argv) { return semtag::Main(argc, argv); }
