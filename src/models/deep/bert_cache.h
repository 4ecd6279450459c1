#ifndef SEMTAG_MODELS_DEEP_BERT_CACHE_H_
#define SEMTAG_MODELS_DEEP_BERT_CACHE_H_

#include <functional>
#include <memory>
#include <string>

#include "models/deep/mini_bert.h"

namespace semtag::models {

/// The three pretrained-transformer variants the paper compares.
enum class BertVariant { kBert, kAlbert, kRoberta };

/// Display name ("BERT", "ALBERT", "ROBERTA").
const char* BertVariantName(BertVariant variant);

/// Directory used to persist pretrained checkpoints and experiment results
/// across processes (each bench binary is a separate process). The runtime
/// config's SEMTAG_CACHE_DIR, else $HOME/.cache/semtag, else
/// "./semtag_cache"; created on first use.
std::string CacheDir();

/// Fills `backbone` from `checkpoint` if it loads; otherwise runs
/// `pretrain` on it and saves the result there. A miss takes the
/// checkpoint's inter-process FileLock and retries the load before
/// pretraining, holding the lock through pretrain-and-save, so processes
/// that miss at once (ctest -j, concurrent benches) pretrain it once: the
/// rest wait on the lock and load. Returns true when the weights came from
/// disk. Counts bert_cache/disk_hits or bert_cache/pretrains.
bool LoadOrPretrain(const std::string& checkpoint, MiniBertBackbone* backbone,
                    const std::function<void(MiniBertBackbone*)>& pretrain);

/// Returns the shared pretrained backbone for a variant. The first call in
/// a process loads the checkpoint from CacheDir(); if absent, it generates
/// the synthetic wiki corpus, pretrains with MLM (tens of seconds), and
/// saves the checkpoint (LoadOrPretrain). Thread-safe: an internal mutex
/// serializes the load-or-pretrain step (parallel CV folds and experiment
/// cells hit this concurrently), and the returned reference is immutable
/// thereafter.
///
/// BERT/ALBERT/ROBERTA differ exactly as the real models do at this scale:
/// ALBERT shares encoder parameters across layers; ROBERTA pretrains longer
/// on more data (dynamic masking falls out of re-sampling masks per step).
const MiniBertBackbone& GetPretrainedBackbone(BertVariant variant);

}  // namespace semtag::models

#endif  // SEMTAG_MODELS_DEEP_BERT_CACHE_H_
