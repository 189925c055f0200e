#include "runtime/registry.h"

#include <iterator>
#include <mutex>
#include <utility>

namespace ldafp::runtime {

ModelHandle ModelRegistry::install(const std::string& name,
                                   core::FixedClassifier clf) {
  // Version assignment and publish share one writer critical section so
  // concurrent installs under the same name cannot collide; snapshot
  // construction is O(dim) copies, cheap enough to hold the lock.
  std::unique_lock lock(mu_);
  auto& versions = models_[name];
  const std::uint64_t version =
      versions.empty() ? 1 : versions.rbegin()->first + 1;
  auto snapshot =
      std::make_shared<const ModelSnapshot>(name, version, std::move(clf));
  versions[version] = snapshot;
  return snapshot;
}

ModelHandle ModelRegistry::install(const std::string& name,
                                   const hw::RomImage& image,
                                   fixed::RoundingMode mode,
                                   fixed::AccumulatorMode acc) {
  return install(name, image.classifier(mode, acc));
}

ModelHandle ModelRegistry::get(std::string_view name) const {
  std::shared_lock lock(mu_);
  const auto it = models_.find(name);
  if (it == models_.end() || it->second.empty()) return nullptr;
  return it->second.rbegin()->second;
}

bool ModelRegistry::remove(const std::string& name) {
  std::unique_lock lock(mu_);
  return models_.erase(name) > 0;
}

std::size_t ModelRegistry::prune(const std::string& name) {
  std::unique_lock lock(mu_);
  const auto it = models_.find(name);
  if (it == models_.end() || it->second.empty()) return 0;
  auto& versions = it->second;
  const std::size_t dropped = versions.size() - 1;
  versions.erase(versions.begin(), std::prev(versions.end()));
  return dropped;
}

std::vector<ModelInfo> ModelRegistry::list() const {
  std::shared_lock lock(mu_);
  std::vector<ModelInfo> out;
  out.reserve(models_.size());
  for (const auto& [name, versions] : models_) {
    if (versions.empty()) continue;
    const ModelHandle& latest = versions.rbegin()->second;
    ModelInfo info;
    info.name = name;
    info.latest_version = latest->version;
    info.version_count = versions.size();
    info.dim = latest->classifier.dim();
    info.format = latest->classifier.format().to_string();
    out.push_back(std::move(info));
  }
  return out;
}

std::size_t ModelRegistry::size() const {
  std::shared_lock lock(mu_);
  return models_.size();
}

}  // namespace ldafp::runtime
