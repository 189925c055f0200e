// Batched evaluation of the W-bit MAC datapath: the one batch scorer.
//
// A BatchScorer snapshots a trained core::FixedClassifier into raw
// integer form once — weight words, threshold word, format constants,
// the vector kernel's DotPlan — then scores whole batches of feature
// vectors over a contiguous packed buffer.  Every tile a vector kernel
// of fixed/simd.h takes (full tiles of a defer_safe two's-complement
// plan on AVX2/NEON) runs there; every other row is gathered out of its
// tile and scored by fixed::Datapath::dot, the same scalar reference
// FixedClassifier::classify uses per sample.  So every label and
// projection is bit-identical to calling FixedClassifier::classify
// sample by sample on any backend and any datapath; the batch path only
// removes the per-call allocations, per-element format re-checks, and
// (where a vector kernel runs) the one-sample-at-a-time MAC.
// tests/runtime/batch_scorer_test.cpp and
// tests/runtime/simd_identity_test.cpp hold the cross-checks.
//
// Const methods are thread-safe: a scorer is immutable after
// construction, which is what lets every serving loop share one
// snapshot without locks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/classifier.h"
#include "fixed/datapath.h"
#include "fixed/dot.h"
#include "fixed/format.h"
#include "fixed/simd.h"
#include "linalg/vector.h"

namespace ldafp::runtime {

/// Feature vectors quantized into one contiguous AoSoA buffer of raw
/// QK.F words: tiles of fixed::simd::kLane samples, feature-major
/// within a tile, so one vector load reads the same feature of kLane
/// consecutive samples.  Partial trailing tiles are zero-padded.
/// Reused across scoring calls to keep the hot path allocation-free
/// once the buffer has grown to the working batch size.  Every writer
/// (pack_into, pack_from_f64_le, append_packed) goes through one row
/// writer, so they latch dim and lay out tiles identically.
struct PackedBatch {
  static constexpr std::size_t kLane = fixed::simd::kLane;

  std::size_t rows = 0;
  std::size_t dim = 0;  ///< latched from the first pack_into
  std::vector<std::int64_t> words;  ///< tiles() * dim * kLane raw words

  std::size_t tiles() const { return (rows + kLane - 1) / kLane; }
  /// Start of tile t: dim * kLane words, feature-major.
  const std::int64_t* tile(std::size_t t) const {
    return words.data() + t * dim * kLane;
  }
  /// Raw word of sample r, feature m (test/debug accessor).
  std::int64_t word(std::size_t r, std::size_t m) const {
    return words[((r / kLane) * dim + m) * kLane + (r % kLane)];
  }
  void clear() {
    rows = 0;
    dim = 0;
    words.clear();
  }

  /// Appends every row of `src` (already-quantized words — pure lane
  /// restriping, no re-quantization), latching dim from `src` when this
  /// batch is empty.  Throws InvalidArgumentError on a dim mismatch,
  /// leaving this batch unchanged.
  void append_packed(const PackedBatch& src);
};

/// One scored sample: the decision plus the W-bit projection word the
/// comparator saw (exact datapath bits, useful for margin/telemetry).
struct ScoreResult {
  core::Label label = core::Label::kClassA;
  std::int64_t projection_raw = 0;
};

/// Immutable batched evaluator of one on-chip classifier.
class BatchScorer {
 public:
  /// Snapshots the classifier's quantized words (no re-quantization —
  /// the exact bits are copied via FixedClassifier::weight_words),
  /// shares its datapath and, for two's-complement classifiers, builds
  /// the vector kernels' DotPlan once.  Other backends (LNS) have no
  /// plan and score every row through Datapath::dot.  Throws
  /// InvalidArgumentError when a two's-complement format exceeds the
  /// scoring datapath's integer envelope (W <= 31, K + 2F <= 62).
  explicit BatchScorer(const core::FixedClassifier& clf);

  /// The plan borrows weights_raw_'s buffer: a move carries the buffer
  /// along, a copy would leave the plan pointing into the source.
  BatchScorer(const BatchScorer&) = delete;
  BatchScorer& operator=(const BatchScorer&) = delete;
  BatchScorer(BatchScorer&&) = default;
  BatchScorer& operator=(BatchScorer&&) = default;

  std::size_t dim() const { return weights_raw_.size(); }
  const fixed::FixedFormat& format() const { return fmt_; }
  fixed::AccumulatorMode accumulator() const { return acc_; }
  /// The arithmetic backend this scorer replays.
  fixed::DatapathKind datapath_kind() const { return datapath_->kind(); }

  /// Quantizes `n` feature vectors (saturating, as the classifier's
  /// preprocessing prescribes) into `out`, appending after out.rows.
  /// The batch's dim is latched on the first pack; appending from a
  /// scorer of a different dim throws InvalidArgumentError, as does a
  /// per-sample dimension mismatch (checked before any row is packed).
  void pack_into(PackedBatch& out, const linalg::Vector* xs,
                 std::size_t n) const;

  /// Fresh packed batch from a sample list.
  PackedBatch pack(const std::vector<linalg::Vector>& xs) const;

  /// Zero-copy ingest: quantizes `n` samples straight from a
  /// little-endian f64 wire payload (n * dim() values, row-major — the
  /// protocol's request feature layout) into `out`, appending after
  /// out.rows.  Bit-identical to decoding the payload into doubles and
  /// calling pack_into (same cached quantizer; reading the IEEE-754 bit
  /// pattern is exact), asserted by the sweep in
  /// tests/runtime/batch_scorer_test.cpp and the mutation fuzz in
  /// tests/net/ingest_fuzz_test.cpp.  Returns false — leaving `out`
  /// exactly as if only the rows before the offender had been packed;
  /// callers should clear() — when a value is NaN, so hostile payloads
  /// surface as a request error at ingest instead of a crash in a
  /// scoring worker.
  bool pack_from_f64_le(PackedBatch& out, const std::uint8_t* payload,
                        std::size_t n) const;

  /// Scores every row of the batch into `out[0..rows)`.  `out` must
  /// have room for batch.rows results.  Allocates nothing: rows off the
  /// vector path are gathered into a per-thread row buffer that grows
  /// once to the largest dim the thread has scored.
  void score(const PackedBatch& batch, ScoreResult* out) const;

  /// Convenience: pack + score, returning one result per sample.
  std::vector<ScoreResult> score(const std::vector<linalg::Vector>& xs) const;

 private:
  /// The datapath's quantizer.  On the two's-complement backend this is
  /// fmt_.quantize_saturate(v, mode_) with the scale and limits cached
  /// (bit-identical: scaling by an exact power of two commutes with the
  /// rounding step; asserted in tests/runtime/batch_scorer_test.cpp);
  /// other backends delegate to Datapath::quantize.
  std::int64_t quantize(double v) const;

  /// The decision stage: the backend's comparator on the threshold
  /// word (signed order on the two's-complement backend, inlined).
  core::Label label(std::int64_t y) const {
    const bool a = twos_complement_ ? y >= threshold_raw_
                                    : datapath_->ge(y, threshold_raw_);
    return a ? core::Label::kClassA : core::Label::kClassB;
  }

  std::shared_ptr<const fixed::Datapath> datapath_;
  bool twos_complement_ = true;  ///< cached kind check for the hot path
  fixed::FixedFormat fmt_;
  fixed::RoundingMode mode_;
  fixed::AccumulatorMode acc_;
  std::vector<std::int64_t> weights_raw_;
  std::int64_t threshold_raw_ = 0;
  /// Vector kernel plan over weights_raw_ (two's complement only; the
  /// default plan of other backends is never defer_safe, so
  /// simd::score_tile declines it).
  fixed::simd::DotPlan plan_;
  // Cached quantizer constants.
  double q_scale_ = 1.0;  ///< 2^F, exact
  double q_min_ = 0.0;    ///< fmt_.min_value()
  double q_max_ = 0.0;    ///< fmt_.max_value()
  std::int64_t raw_min_ = 0;
  std::int64_t raw_max_ = 0;
};

}  // namespace ldafp::runtime
