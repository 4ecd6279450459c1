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
// scored and every pending response is written before exit. The model tier
// composes with SEMTAG_QUANT. An unknown flag or a bad value exits 2
// (`semtag_serve --help` lists the flags).
// Hot-swap: write a sealed spec (WriteModelSpecFile) into the replan spec
// dir (--spec-dir, default .) and send its name with opcode 0x04 —
// scoring continues on the old model until the replacement is trained,
// then a pointer flip swaps it in.

#include <chrono>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>

#include "common/flags.h"
#include "common/logging.h"
#include "core/cascade.h"
#include "data/specs.h"
#include "obs/metrics.h"
#include "serve/model_registry.h"
#include "serve/replanner.h"
#include "serve/server.h"

namespace semtag {
namespace {

int Main(int argc, char** argv) {
  SetLogLevel(LogLevel::kInfo);
  serve::ModelSpec spec;
  std::string spec_file, metrics, trace, replan_pair;
  int seed = 0, ignored_deadline_us = 0;
  serve::ServerOptions options;
  serve::ReplanOptions& replan = options.replan;
  Flags flags("semtag_serve");
  // Model: exactly one of --dataset / --spec.
  flags.String("dataset", &spec.dataset,
               "train on this dataset spec (e.g. SUGG, HETER)");
  flags.Number("records", &spec.records, 0, serve::kMaxSpecRecords,
               "override the dataset's scaled record count; 0 = keep it");
  flags.String("model", &spec.model, "model family");
  flags.String("cascade", &spec.cascade,
               "cascade pair 'S+D', 'auto', or 'simple'");
  flags.Number("budget", &spec.budget_pts, 0.0, 100.0,
               "cascade accuracy budget in F1 points");
  flags.Number("seed", &seed, 0, INT_MAX, "training seed");
  flags.String("spec", &spec_file,
               "load a CRC-sealed model spec file instead of --dataset");
  // Serving.
  flags.String("host", &options.host, "bind address");
  flags.Number("port", &options.port, 0, 65535,
               "bind port; 0 = ephemeral, printed");
  flags.Number("batch-cap", &options.batching.batch_cap, 1, INT_MAX,
               "max requests per batch");
  flags.Number("queue-cap", &options.batching.queue_cap, 1, INT_MAX,
               "admission-control queue bound");
  flags.Number("max-conns", &options.max_connections, 1, INT_MAX,
               "connection limit");
  flags.Number("deadline-us", &ignored_deadline_us, 0, INT_MAX,
               "ignored; perfbench's daemon command line is its last user");
  // Online re-planning (DESIGN.md "Online re-planning").
  serve::AddReplanFlags(&flags, &replan, &replan_pair);
  flags.String("metrics", &metrics,
               "arm the metrics registry; export its snapshot to this file");
  flags.String("trace", &trace, "arm tracing; export spans to this file");
  flags.ParseOrExit(argc, argv);
  if (!replan_pair.empty()) {
    // The pair hint pins which families the planner may deploy; auto_pair
    // stays on so the clean/dirty front-end flip still applies.
    const Status st = core::ParseCascadePair(
        replan_pair, &replan.cascade.simple, &replan.cascade.deep);
    if (!st.ok()) flags.Fail("replan-pair", st.message());
  }
  if (spec_file.empty() == spec.dataset.empty()) {
    flags.Fail("dataset", "give exactly one of --dataset and --spec");
  }
  obs::ArmExports(metrics, trace);

  // ---- initial model ----
  serve::ModelRegistry registry;
  std::string source = spec.model + " (" + spec.dataset + ")";
  if (!spec_file.empty()) {
    auto loaded = serve::LoadModelSpecFile(spec_file);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    spec = std::move(loaded).ValueOrDie();
    source = spec.model + " (spec " + spec_file + ")";
  } else {
    spec.seed = static_cast<uint64_t>(seed);
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
  options.watch_signals = true;
  // Re-planned specs retrain from the initial model's provenance (dataset,
  // record override, seed, budget): the corpus the daemon started on.
  replan.dataset = spec.dataset;
  replan.records = spec.records;
  replan.cascade.seed = spec.seed;
  replan.cascade.budget_pts = spec.budget_pts;
  if (replan.enabled && spec.dataset.empty()) {
    SEMTAG_LOG(kWarning,
               "replan disabled: the initial model was loaded from a file "
               "checkpoint, so there is no dataset spec to retrain from");
    replan.enabled = false;
  }

  serve::Server server(&registry, options);
  if (replan.enabled) {
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
