// One metrics substrate for the whole system (DESIGN.md §11).
//
// MetricsRegistry is a registry of named, label-tagged counters, gauges,
// and histograms.  Registration (name lookup) takes a mutex and may
// allocate; it happens once, at setup time.  The returned handles are
// stable references whose hot-path operations are a few relaxed atomic
// instructions — no locks, no allocation — so solver workers, sweep
// trials, and serving threads all record into one registry without
// serializing.  Histogram is the system's only histogram: log-linear
// buckets indexed straight off the bits of the recorded double, each at
// most 3.125% wide, with a unit (seconds or ratio) declared at
// registration.
//
// Snapshots are plain value structs, deterministically sorted by metric
// name then labels, so tests assert on them directly; the exporters in
// obs/export.h render a snapshot as JSON (support::JsonWriter) or an
// aligned text table (support::TextTable).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace ldafp::obs {

/// Label set of one metric instance — "key=value" dimensions, e.g.
/// {{"dataset", "bci"}, {"w", "6"}}.  Order-insensitive: labels are
/// sorted by key at registration, so {{a,1},{b,2}} and {{b,2},{a,1}}
/// address the same instance.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// "name" or "name{k=v,k2=v2}" — the stable identity string used as the
/// export key and in table rows (labels in sorted-key order).
std::string metric_identity(const std::string& name, const Labels& labels);

/// Monotone event count.  Handles are created by MetricsRegistry and
/// live as long as the registry; increments are lock-free.
class Counter {
 public:
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  void increment() noexcept { add(1); }
  std::uint64_t load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Counter() = default;
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written (or accumulated) double value.  Lock-free.
class Gauge {
 public:
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }

  /// Accumulates into the gauge (CAS loop — atomic<double>::fetch_add
  /// codegen is spotty, same rationale as Histogram's integer nanos).
  void add(double v) noexcept;

  double load() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  friend class MetricsRegistry;
  Gauge() = default;
  std::atomic<double> value_{0.0};
};

/// Distribution of non-negative values in a fixed log-linear layout.
/// Each power of two in [2^kMinExponent, 2^kMaxExponent) splits into
/// kSubBuckets equal-width buckets, so a bucket is at most 1/kSubBuckets
/// (3.125%) of its lower edge wide; for seconds the range runs from
/// ~7.5 ns to 128 s.  Index 0 is the underflow bucket (below the range,
/// zero, negative, NaN) and the last index the overflow bucket.
class Histogram {
 public:
  /// What the recorded values measure; the exporters render seconds as
  /// durations and ratios as plain numbers.
  enum class Unit { kSeconds, kRatio };

  static constexpr int kSubBucketBits = 5;
  static constexpr int kSubBuckets = 1 << kSubBucketBits;
  static constexpr int kMinExponent = -27;
  static constexpr int kMaxExponent = 7;
  static constexpr int kBuckets =
      (kMaxExponent - kMinExponent) * kSubBuckets + 2;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  /// Lock-free, allocation-free; safe from any number of threads.  The
  /// bucket index is the double's biased exponent and top kSubBucketBits
  /// mantissa bits, read as one integer.
  void record(double value) noexcept;

  Unit unit() const noexcept { return unit_; }

  /// Immutable copy of the counters for aggregation off the hot path.
  struct Snapshot {
    Unit unit = Unit::kSeconds;
    std::array<std::uint64_t, kBuckets> counts{};
    std::uint64_t total_count = 0;
    /// Sum of the positive values, exact to 1e-9 of the unit (integer
    /// nanoseconds for seconds).
    double sum_seconds = 0.0;
    /// Largest value recorded, exactly; 0 until a positive value is.
    double max_seconds = 0.0;

    /// Mean recorded value (0 when empty).
    double mean() const;

    /// Upper edge of the bucket holding the q-quantile (q in [0,1]),
    /// capped at the observed max; q = 1 and the overflow bucket report
    /// the max itself.
    double quantile(double q) const;
  };

  /// Per-counter reads are atomic; cross-counter skew of a few
  /// in-flight records is acceptable for reporting.
  Snapshot snapshot() const;

 private:
  friend class MetricsRegistry;
  Histogram() = default;

  /// Written once at registration, under the registry mutex, before the
  /// handle is handed out.
  Unit unit_ = Unit::kSeconds;
  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  /// Integer nanos so plain fetch_add works on every toolchain.
  std::atomic<std::uint64_t> sum_nanos_{0};
  /// Bit pattern of the max: non-negative doubles order like their bits.
  std::atomic<std::uint64_t> max_bits_{0};
};

/// Immutable copy of every registered metric, taken off the hot path.
/// Entries are sorted by (name, labels), so two registries fed the same
/// deterministic workload export byte-identical snapshots.
struct MetricsSnapshot {
  struct CounterValue {
    std::string name;
    Labels labels;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    Labels labels;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    Labels labels;
    Histogram::Snapshot hist;
  };

  std::vector<CounterValue> counters;
  std::vector<GaugeValue> gauges;
  std::vector<HistogramValue> histograms;

  /// Lookup helpers for tests; null when the instance is absent.
  const CounterValue* find_counter(const std::string& name,
                                   const Labels& labels = {}) const;
  const GaugeValue* find_gauge(const std::string& name,
                               const Labels& labels = {}) const;
  const HistogramValue* find_histogram(const std::string& name,
                                       const Labels& labels = {}) const;

  /// Value accessors returning 0 for absent instances.
  std::uint64_t counter_value(const std::string& name,
                              const Labels& labels = {}) const;
  double gauge_value(const std::string& name,
                     const Labels& labels = {}) const;
};

/// The registry.  Handle creation is idempotent: asking twice for the
/// same (name, labels) returns the same handle, so independent
/// subsystems can share one instance by name alone.  Counters, gauges,
/// and histograms live in separate namespaces.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  // Handles point into the registry; it must stay put.
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  /// `unit` is fixed by the first registration; asking for the same
  /// instance with another unit throws std::invalid_argument.
  Histogram& histogram(const std::string& name, Labels labels = {},
                       Histogram::Unit unit = Histogram::Unit::kSeconds);

  /// Consistent-enough copy for reporting (same contract as
  /// Histogram::snapshot: per-metric reads are atomic, cross-metric
  /// skew of in-flight updates is acceptable).
  MetricsSnapshot snapshot() const;

  /// Number of registered metric instances across all kinds.
  std::size_t size() const;

 private:
  template <typename Metric>
  struct Entry {
    std::string name;
    Labels labels;
    Metric metric;
  };

  /// `init` runs on a newly registered metric, under the mutex.
  template <typename Metric, typename Init>
  Metric& find_or_register(std::deque<Entry<Metric>>& entries,
                           const std::string& name, Labels&& labels,
                           Init init);

  mutable std::mutex mu_;
  // Deques: registration never moves an already-handed-out handle.
  std::deque<Entry<Counter>> counters_;
  std::deque<Entry<Gauge>> gauges_;
  std::deque<Entry<Histogram>> histograms_;
};

}  // namespace ldafp::obs
