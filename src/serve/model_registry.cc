#include "serve/model_registry.h"

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/csv.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "core/cascade.h"
#include "data/specs.h"
#include "models/factory.h"
#include "models/simple/linear_model.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace semtag::serve {
namespace {

constexpr const char kSpecMagic[] = "semtag-model-spec-v1";

}  // namespace

Status WriteModelSpecFile(const std::string& path, const ModelSpec& spec) {
  std::string body;
  body += kSpecMagic;
  body += '\n';
  body += "model " + spec.model + "\n";
  if (!spec.dataset.empty()) body += "dataset " + spec.dataset + "\n";
  if (!spec.file.empty()) body += "file " + spec.file + "\n";
  if (spec.records > 0) body += StrFormat("records %d\n", spec.records);
  body += StrFormat("seed %llu\n",
                    static_cast<unsigned long long>(spec.seed));
  if (!spec.cascade.empty()) body += "cascade " + spec.cascade + "\n";
  body += StrFormat("budget %.17g\n", spec.budget_pts);
  body += StrFormat("crc %08x\n", Crc32(body));
  return WriteFileAtomic(path, body);
}

Result<ModelSpec> LoadModelSpecFile(const std::string& path) {
  auto content = ReadFileToString(path);
  if (!content.ok()) return content.status();
  std::string text = std::move(*content);
  if (FaultInjected(FaultPoint::kReadCorrupt, path) && !text.empty()) {
    text[text.size() / 2] ^= 0x40;  // injected bit-flip, caught by the CRC
  }
  // The seal is the last non-empty line: "crc <%08x>" over every byte
  // before it.
  const size_t crc_pos = text.rfind("crc ");
  const auto corrupt = [&](const std::string& reason) -> Status {
    (void)QuarantineFile(path, reason);
    return Status::InvalidArgument("model spec " + path + ": " + reason);
  };
  if (crc_pos == std::string::npos ||
      (crc_pos != 0 && text[crc_pos - 1] != '\n')) {
    return corrupt("missing crc seal");
  }
  const std::string crc_line =
      text.substr(crc_pos, text.find('\n', crc_pos) - crc_pos);
  uint32_t want = 0;
  {
    const std::vector<std::string> parts = Split(crc_line, ' ');
    char* end = nullptr;
    const unsigned long v =
        parts.size() == 2 ? std::strtoul(parts[1].c_str(), &end, 16) : 0;
    if (parts.size() != 2 || end == nullptr || *end != '\0' ||
        parts[1].empty() || v > UINT32_MAX) {
      return corrupt("unparseable crc seal");
    }
    want = static_cast<uint32_t>(v);
  }
  const uint32_t got = Crc32(text.substr(0, crc_pos));
  if (want != got) {
    return corrupt(StrFormat("crc mismatch (want %08x got %08x)", want, got));
  }
  // The seal held, so the content is exactly what the writer wrote; any
  // remaining problem is a semantic error in a well-formed file — report
  // it without quarantining (the file is not corrupt).
  const auto invalid = [&](const std::string& reason) -> Status {
    return Status::InvalidArgument("model spec " + path + ": " + reason);
  };
  ModelSpec spec;
  bool saw_magic = false;
  for (const std::string& line : Split(text.substr(0, crc_pos), '\n')) {
    if (line.empty()) continue;
    if (!saw_magic) {
      if (line != kSpecMagic) return corrupt("bad magic: " + line);
      saw_magic = true;
      continue;
    }
    const size_t space = line.find(' ');
    if (space == std::string::npos) return invalid("bad line: " + line);
    const std::string key = line.substr(0, space);
    const std::string value = line.substr(space + 1);
    int64_t n = 0;
    if (key == "model") {
      spec.model = value;
    } else if (key == "dataset") {
      spec.dataset = value;
    } else if (key == "file") {
      spec.file = value;
    } else if (key == "records") {
      if (!ParseInt64(value, &n) || n <= 0 || n > kMaxSpecRecords) {
        return invalid(StrFormat("records must be in [1, %d]: ",
                                 kMaxSpecRecords) +
                       value);
      }
      spec.records = static_cast<int>(n);
    } else if (key == "seed" && ParseInt64(value, &n) && n >= 0) {
      spec.seed = static_cast<uint64_t>(n);
    } else if (key == "cascade") {
      spec.cascade = value;
    } else if (key == "budget") {
      if (!ParseDouble(value, &spec.budget_pts)) {
        return invalid("bad budget: " + value);
      }
    } else {
      return invalid("unknown key: " + key);
    }
  }
  if (!saw_magic) return corrupt("empty spec");
  if (spec.dataset.empty() == spec.file.empty()) {
    return invalid("exactly one of dataset/file required");
  }
  return spec;
}

Result<std::unique_ptr<models::TaggingModel>> BuildModelFromSpec(
    const ModelSpec& spec, CancellationToken cancel) {
  if (!spec.file.empty()) {
    // Persisted checkpoints (semtag train --out): the simple families the
    // paper recommends for production retraining loops.
    auto loaded = models::LoadLinearModel(spec.file);
    if (!loaded.ok()) return loaded.status();
    std::unique_ptr<models::TaggingModel> model =
        std::move(loaded).ValueOrDie();
    if (model->name() != spec.model) {
      return Status::InvalidArgument(
          StrFormat("model type mismatch: %s holds %s, the spec asks for %s",
                    spec.file.c_str(), model->name().c_str(),
                    spec.model.c_str()));
    }
    return model;
  }
  auto dataset_spec = data::FindSpec(spec.dataset);
  if (!dataset_spec.ok()) return dataset_spec.status();
  data::DatasetSpec ds = std::move(dataset_spec).ValueOrDie();
  if (spec.records > 0) ds.scaled_records = spec.records;
  data::Dataset dataset = data::BuildDataset(ds);
  auto [train, test] = dataset.Split(ds.train_fraction);
  train.set_name(ds.name);

  std::unique_ptr<models::TaggingModel> model;
  if (spec.model == "CASCADE") {
    // The spec carries the whole policy and budget, so a swap is
    // reproducible from the spec alone.
    core::CascadeOptions options;
    options.budget_pts = spec.budget_pts;
    options.seed = spec.seed;
    const Status st = core::ApplyCascadePolicy(spec.cascade, &options);
    if (!st.ok()) return st;
    model = std::make_unique<core::Cascade>(options);
  } else {
    auto kind = models::ModelKindFromName(spec.model);
    if (!kind.ok()) return kind.status();
    model = models::CreateModelSeeded(kind.ValueOrDie(), spec.seed);
    if (model == nullptr) {
      return Status::Internal("factory returned null for " + spec.model);
    }
  }
  model->set_cancellation(std::move(cancel));
  const Status st = model->Train(train);
  if (!st.ok()) return st;
  return model;
}

uint64_t ModelRegistry::Install(std::unique_ptr<models::TaggingModel> model,
                                std::string source) {
  auto servable = std::make_shared<ServableModel>();
  servable->version = next_version_.fetch_add(1);
  servable->model = std::move(model);
  servable->source = std::move(source);
  const uint64_t version = servable->version;
  {
    std::lock_guard<std::mutex> lock(mu_);
    current_ = std::shared_ptr<const ServableModel>(std::move(servable));
  }
  SEMTAG_OBS_COUNT("serve/model_swaps", 1);
  SEMTAG_OBS_GAUGE_SET("serve/model_version", static_cast<double>(version));
  return version;
}

Result<uint64_t> ModelRegistry::SwapFromSpecFile(const std::string& path,
                                                 CancellationToken cancel) {
  FaultInjected(FaultPoint::kStall, path);  // holds a swap in flight (tests)
  auto spec = LoadModelSpecFile(path);
  if (!spec.ok()) return spec.status();
  auto model = BuildModelFromSpec(*spec, cancel);
  if (!model.ok()) return model.status();
  // Checkpoint loads never poll the token, and Train may end unpolled.
  if (cancel.cancelled()) return cancel.status();
  const std::string source = StrFormat(
      "%s (spec %s)", spec->model.c_str(), path.c_str());
  const uint64_t version =
      Install(std::move(model).ValueOrDie(), source);
  SEMTAG_LOG(kInfo, "hot-swapped model -> v%llu: %s",
             static_cast<unsigned long long>(version), source.c_str());
  return version;
}

std::shared_ptr<const ServableModel> ModelRegistry::Acquire() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

uint64_t ModelRegistry::version() const {
  const auto current = Acquire();
  return current == nullptr ? 0 : current->version;
}

SwapSlot::SwapSlot(ModelRegistry* registry, std::function<void()> wake)
    : registry_(registry), wake_(std::move(wake)) {}

SwapSlot::~SwapSlot() {
  Cancel();
  if (worker_.joinable()) worker_.join();
}

bool SwapSlot::Start(const std::string& path, Done done) {
  if (busy()) return false;
  done_ = std::move(done);
  cancel_ = CancellationToken::Manual();
  worker_ = std::thread([this, path, cancel = cancel_] {
    obs::TraceSpan span("serve/swap");
    result_ = registry_->SwapFromSpecFile(path, cancel);
    if (wake_) wake_();
  });
  return true;
}

void SwapSlot::Finish() {
  if (!busy()) return;
  worker_.join();
  const Result<uint64_t> result = std::move(*result_);
  result_.reset();
  const Done done = std::move(done_);
  done_ = nullptr;
  done(result);
}

}  // namespace semtag::serve
