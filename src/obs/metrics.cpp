#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace ldafp::obs {
namespace {

// Bucket keys are a positive double's bits shifted right so that the
// biased exponent and the top kSubBucketBits mantissa bits remain:
// consecutive keys are consecutive log-linear buckets.
constexpr int kKeyShift = 52 - Histogram::kSubBucketBits;
constexpr std::uint64_t kKeyLow =
    std::uint64_t{1023 + Histogram::kMinExponent} << Histogram::kSubBucketBits;
constexpr std::uint64_t kKeyHigh =
    std::uint64_t{1023 + Histogram::kMaxExponent} << Histogram::kSubBucketBits;

int bucket_index(double value) {
  if (!(value > 0.0)) return 0;  // zero, negative, NaN
  const std::uint64_t key = std::bit_cast<std::uint64_t>(value) >> kKeyShift;
  if (key < kKeyLow) return 0;
  if (key >= kKeyHigh) return Histogram::kBuckets - 1;
  return 1 + static_cast<int>(key - kKeyLow);
}

/// Exclusive upper edge of an in-range or underflow bucket.
double bucket_upper_edge(int i) {
  if (i == 0) return std::ldexp(1.0, Histogram::kMinExponent);
  const int k = i - 1;
  return std::ldexp(
      1.0 + static_cast<double>(k % Histogram::kSubBuckets + 1) /
                Histogram::kSubBuckets,
      Histogram::kMinExponent + k / Histogram::kSubBuckets);
}

std::uint64_t to_nanos(double value) {
  // The cap keeps the cast defined for values far past the top bucket.
  return value > 0.0 ? static_cast<std::uint64_t>(
                           std::min(value, 1e9) * 1e9 + 0.5)
                     : 0;
}

Labels sorted_labels(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

template <typename Value>
const Value* find_entry(const std::vector<Value>& entries,
                        const std::string& name, const Labels& labels) {
  const Labels sorted = sorted_labels(labels);
  for (const Value& v : entries) {
    if (v.name == name && v.labels == sorted) return &v;
  }
  return nullptr;
}

template <typename Value>
void sort_values(std::vector<Value>& values) {
  std::sort(values.begin(), values.end(),
            [](const Value& a, const Value& b) {
              if (a.name != b.name) return a.name < b.name;
              return a.labels < b.labels;
            });
}

}  // namespace

std::string metric_identity(const std::string& name, const Labels& labels) {
  if (labels.empty()) return name;
  const Labels sorted = sorted_labels(labels);
  std::string out = name;
  out += '{';
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) out += ',';
    out += sorted[i].first;
    out += '=';
    out += sorted[i].second;
  }
  out += '}';
  return out;
}

void Gauge::add(double v) noexcept {
  double seen = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(seen, seen + v,
                                       std::memory_order_relaxed)) {
  }
}

void Histogram::record(double value) noexcept {
  counts_[static_cast<std::size_t>(bucket_index(value))].fetch_add(
      1, std::memory_order_relaxed);
  if (!(value > 0.0)) return;
  sum_nanos_.fetch_add(to_nanos(value), std::memory_order_relaxed);
  const std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
  std::uint64_t seen = max_bits_.load(std::memory_order_relaxed);
  while (bits > seen && !max_bits_.compare_exchange_weak(
                            seen, bits, std::memory_order_relaxed)) {
  }
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.unit = unit_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snap.total_count += snap.counts[i];
  }
  snap.sum_seconds =
      static_cast<double>(sum_nanos_.load(std::memory_order_relaxed)) * 1e-9;
  snap.max_seconds =
      std::bit_cast<double>(max_bits_.load(std::memory_order_relaxed));
  return snap;
}

double Histogram::Snapshot::mean() const {
  return total_count == 0 ? 0.0
                          : sum_seconds / static_cast<double>(total_count);
}

double Histogram::Snapshot::quantile(double q) const {
  if (total_count == 0) return 0.0;
  if (q >= 1.0) return max_seconds;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::ceil(std::max(q, 0.0) * static_cast<double>(total_count))));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets - 1; ++i) {
    seen += counts[static_cast<std::size_t>(i)];
    if (seen >= rank) return std::min(bucket_upper_edge(i), max_seconds);
  }
  return max_seconds;  // overflow bucket: the max is the only bound
}

const MetricsSnapshot::CounterValue* MetricsSnapshot::find_counter(
    const std::string& name, const Labels& labels) const {
  return find_entry(counters, name, labels);
}

const MetricsSnapshot::GaugeValue* MetricsSnapshot::find_gauge(
    const std::string& name, const Labels& labels) const {
  return find_entry(gauges, name, labels);
}

const MetricsSnapshot::HistogramValue* MetricsSnapshot::find_histogram(
    const std::string& name, const Labels& labels) const {
  return find_entry(histograms, name, labels);
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name,
                                             const Labels& labels) const {
  const CounterValue* v = find_counter(name, labels);
  return v != nullptr ? v->value : 0;
}

double MetricsSnapshot::gauge_value(const std::string& name,
                                    const Labels& labels) const {
  const GaugeValue* v = find_gauge(name, labels);
  return v != nullptr ? v->value : 0.0;
}

template <typename Metric, typename Init>
Metric& MetricsRegistry::find_or_register(
    std::deque<Entry<Metric>>& entries, const std::string& name,
    Labels&& labels, Init init) {
  Labels sorted = sorted_labels(std::move(labels));
  std::lock_guard lock(mu_);
  for (Entry<Metric>& e : entries) {
    if (e.name == name && e.labels == sorted) return e.metric;
  }
  // Metrics are pinned (non-movable atomics), so the entry is built in
  // place and filled afterwards.
  Entry<Metric>& entry = entries.emplace_back();
  entry.name = name;
  entry.labels = std::move(sorted);
  init(entry.metric);
  return entry.metric;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return find_or_register(counters_, name, std::move(labels),
                          [](Counter&) {});
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return find_or_register(gauges_, name, std::move(labels), [](Gauge&) {});
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      Labels labels, Histogram::Unit unit) {
  Histogram& h = find_or_register(histograms_, name, std::move(labels),
                                  [unit](Histogram& n) { n.unit_ = unit; });
  if (h.unit() != unit) {
    throw std::invalid_argument("histogram " + name +
                                " already registered with another unit");
  }
  return h;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  {
    std::lock_guard lock(mu_);
    snap.counters.reserve(counters_.size());
    for (const Entry<Counter>& e : counters_) {
      snap.counters.push_back({e.name, e.labels, e.metric.load()});
    }
    snap.gauges.reserve(gauges_.size());
    for (const Entry<Gauge>& e : gauges_) {
      snap.gauges.push_back({e.name, e.labels, e.metric.load()});
    }
    snap.histograms.reserve(histograms_.size());
    for (const Entry<Histogram>& e : histograms_) {
      snap.histograms.push_back({e.name, e.labels, e.metric.snapshot()});
    }
  }
  sort_values(snap.counters);
  sort_values(snap.gauges);
  sort_values(snap.histograms);
  return snap;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

}  // namespace ldafp::obs
