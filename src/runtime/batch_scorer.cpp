#include "runtime/batch_scorer.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "support/error.h"
#include "support/wire.h"

namespace ldafp::runtime {

namespace simd = fixed::simd;

namespace {

constexpr std::size_t kLane = PackedBatch::kLane;

/// The one AoSoA row writer behind pack_into and pack_from_f64_le.
/// Latches `dim` on an empty batch (a cleared batch keeps its word
/// capacity but re-latches) or checks it against the rows already
/// there, then appends `n` rows.  Row r's words come from
/// `fill_row(r, col)`, which writes feature m to col[m * kLane] and
/// returns false to stop; the writer then drops that row's partial
/// words, so `out` holds exactly the rows before it.  A template, not a
/// std::function: packing a request writes thousands of words.
template <class FillRow>
bool append_rows(PackedBatch& out, std::size_t dim, std::size_t n,
                 FillRow&& fill_row) {
  if (out.rows == 0) {
    out.dim = dim;
    out.words.clear();
  } else {
    LDAFP_CHECK(out.dim == dim,
                "packed batch already holds rows of a different dim");
  }
  const std::size_t stride = dim * kLane;
  out.words.reserve(((out.rows + n + kLane - 1) / kLane) * stride);
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t row = out.rows;
    const bool new_tile = row % kLane == 0;
    if (new_tile) {
      // New zero-padded tile; padding lanes stay zero (harmless words
      // that the kernels may read but whose results are never used).
      out.words.resize(out.words.size() + stride, 0);
    }
    std::int64_t* col = out.words.data() + (row / kLane) * stride +
                        row % kLane;
    if (!fill_row(r, col)) {
      if (new_tile) {
        out.words.resize(out.words.size() - stride);
      } else {
        for (std::size_t m = 0; m < dim; ++m) col[m * kLane] = 0;
      }
      return false;
    }
    ++out.rows;
  }
  return true;
}

}  // namespace

BatchScorer::BatchScorer(const core::FixedClassifier& clf)
    : datapath_(clf.datapath_ptr()),
      twos_complement_(clf.datapath_kind() ==
                       fixed::DatapathKind::kTwosComplement),
      fmt_(clf.format()),
      mode_(clf.rounding()),
      acc_(clf.accumulator()),
      weights_raw_(clf.weight_words()),
      threshold_raw_(clf.threshold_raw()),
      q_scale_(std::ldexp(1.0, clf.format().frac_bits())),
      q_min_(clf.format().min_value()),
      q_max_(clf.format().max_value()),
      raw_min_(clf.format().raw_min()),
      raw_max_(clf.format().raw_max()) {
  if (twos_complement_) {
    // Also validates the integer-overflow envelope, once, at snapshot
    // time.
    plan_ = simd::make_plan(weights_raw_.data(), weights_raw_.size(), fmt_,
                            mode_, acc_);
  }
}

std::int64_t BatchScorer::quantize(double v) const {
  LDAFP_CHECK(!std::isnan(v), "cannot quantize NaN");
  if (!twos_complement_) return datapath_->quantize(v);
  // Mirrors FixedFormat::quantize_saturate with the constants hoisted
  // out of the per-element path.  v * 2^F is exact for in-range v (a
  // power-of-two scale only shifts the exponent), so the rounding step
  // sees the identical double ldexp would produce.
  if (v <= q_min_) return raw_min_;
  if (v >= q_max_) return raw_max_;
  const std::int64_t raw = fixed::round_real_to_int(v * q_scale_, mode_);
  if (raw < raw_min_) return raw_min_;
  if (raw > raw_max_) return raw_max_;
  return raw;
}

void BatchScorer::pack_into(PackedBatch& out, const linalg::Vector* xs,
                            std::size_t n) const {
  const std::size_t d = dim();
  for (std::size_t r = 0; r < n; ++r) {
    LDAFP_CHECK(xs[r].size() == d, "batch scorer dimension mismatch");
  }
  append_rows(out, d, n, [&](std::size_t r, std::int64_t* col) {
    for (std::size_t m = 0; m < d; ++m) col[m * kLane] = quantize(xs[r][m]);
    return true;
  });
}

PackedBatch BatchScorer::pack(const std::vector<linalg::Vector>& xs) const {
  PackedBatch batch;
  pack_into(batch, xs.data(), xs.size());
  return batch;
}

bool BatchScorer::pack_from_f64_le(PackedBatch& out,
                                   const std::uint8_t* payload,
                                   std::size_t n) const {
  const std::size_t d = dim();
  return append_rows(out, d, n, [&](std::size_t r, std::int64_t* col) {
    const std::uint8_t* p = payload + r * d * 8;
    for (std::size_t m = 0; m < d; ++m, p += 8) {
      // Exactly what WireReader::f64 yields: the LE u64 bit pattern
      // reinterpreted as IEEE-754 — so the value entering quantize() is
      // bit-identical to the decode-then-pack path.
      const double v = std::bit_cast<double>(support::get_u64le(p));
      if (std::isnan(v)) return false;  // reject at ingest, not in a worker
      col[m * kLane] = quantize(v);
    }
    return true;
  });
}

void BatchScorer::score(const PackedBatch& batch, ScoreResult* out) const {
  if (batch.rows == 0) return;
  const std::size_t d = dim();
  LDAFP_CHECK(batch.dim == d, "batch scorer dimension mismatch");
  // Gather buffer for rows off the vector path; grows once per thread,
  // so steady-state scoring allocates nothing on any backend.
  thread_local std::vector<std::int64_t> row;
  std::int64_t y[kLane];
  for (std::size_t t = 0; t < batch.tiles(); ++t) {
    const std::size_t base = t * kLane;
    const std::size_t lanes = std::min(kLane, batch.rows - base);
    const std::int64_t* tile = batch.tile(t);
    if (!simd::score_tile(plan_, tile, y, lanes)) {
      row.resize(d);
      for (std::size_t lane = 0; lane < lanes; ++lane) {
        for (std::size_t m = 0; m < d; ++m) row[m] = tile[m * kLane + lane];
        y[lane] = datapath_->dot(weights_raw_.data(), row.data(), d);
      }
    }
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      out[base + lane].projection_raw = y[lane];
      out[base + lane].label = label(y[lane]);
    }
  }
}

std::vector<ScoreResult> BatchScorer::score(
    const std::vector<linalg::Vector>& xs) const {
  const PackedBatch batch = pack(xs);
  std::vector<ScoreResult> out(batch.rows);
  score(batch, out.data());
  return out;
}

}  // namespace ldafp::runtime
