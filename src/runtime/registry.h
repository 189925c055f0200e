// Model registry: named, versioned, hot-swappable model snapshots.
//
// Serving separates a model's *bits* (immutable once trained) from the
// *traffic* flowing through it.  The registry holds each installed model
// as a shared_ptr<const ModelSnapshot>; scoring threads resolve a name
// to a handle once per request (a shared-lock map lookup plus a
// refcount bump) and then score lock-free.  Installing a new version is
// an atomic publish under the writer lock — in-flight batches keep the
// snapshot they resolved alive through their handle, so a hot swap
// never invalidates work already admitted (the classic RCU-by-
// shared_ptr serving pattern).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

#include "core/classifier.h"
#include "hw/rom_image.h"
#include "runtime/batch_scorer.h"

namespace ldafp::runtime {

/// One immutable servable model: identity + the exact classifier bits +
/// the batched evaluator built from them.
struct ModelSnapshot {
  std::string name;
  std::uint64_t version = 0;
  core::FixedClassifier classifier;
  BatchScorer scorer;

  ModelSnapshot(std::string model_name, std::uint64_t model_version,
                core::FixedClassifier clf)
      : name(std::move(model_name)),
        version(model_version),
        classifier(std::move(clf)),
        scorer(classifier) {}
};

/// Shared ownership handle scoring paths hold while they work.
using ModelHandle = std::shared_ptr<const ModelSnapshot>;

/// Identity row for list().
struct ModelInfo {
  std::string name;
  std::uint64_t latest_version = 0;
  std::size_t version_count = 0;
  std::size_t dim = 0;
  std::string format;  ///< "QK.F"
};

/// Thread-safe name/version keyed store of model snapshots.
class ModelRegistry {
 public:
  /// Installs a classifier under `name`, assigning the next version
  /// number (1 for a new name).  Returns the published handle.
  ModelHandle install(const std::string& name, core::FixedClassifier clf);

  /// Installs the classifier a weight-ROM image implements (the
  /// hardware handoff artifact doubles as the serving artifact).
  ModelHandle install(const std::string& name, const hw::RomImage& image,
                      fixed::RoundingMode mode =
                          fixed::RoundingMode::kNearestEven,
                      fixed::AccumulatorMode acc =
                          fixed::AccumulatorMode::kWide);

  /// Latest version of `name`; nullptr when absent.  Takes a view (the
  /// map compares heterogeneously) so the serve hot path resolves
  /// wire-decoded names without materializing a std::string.
  ModelHandle get(std::string_view name) const;

  /// Drops all versions of `name`.  In-flight handles stay valid; true
  /// when the name existed.
  bool remove(const std::string& name);

  /// Drops every version of `name` but the latest (OnlineRetrainer
  /// calls it after each install).  In-flight handles stay valid, and
  /// the next install still takes the next version number.  Returns
  /// how many were dropped.
  std::size_t prune(const std::string& name);

  /// One row per installed name.
  std::vector<ModelInfo> list() const;

  std::size_t size() const;

 private:
  mutable std::shared_mutex mu_;
  /// std::less<> enables find(string_view) without a temporary string.
  std::map<std::string, std::map<std::uint64_t, ModelHandle>, std::less<>>
      models_;
};

}  // namespace ldafp::runtime
