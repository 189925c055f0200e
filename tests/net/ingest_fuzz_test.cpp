// Deterministic mutation fuzz of the serve ingest path: frame decode
// (decode_request_view) followed by zero-copy packing
// (BatchScorer::pack_from_f64_le).  Valid score-request frames are
// mutated — bit flips, byte overwrites, special doubles written into
// feature slots, truncation, trailing junk and payload growth with a
// patched length — from a fixed support::Rng seed for a fixed iteration
// budget, so every run replays the same mutants (and ASan/UBSan see
// them all).  Every mutant must end in exactly one of:
//   * decode_request_view fails with a FrameError;
//   * an incomplete frame (kNeedMore) — only when the buffer really is
//     shorter than the frame it announces;
//   * a request the serve path answers before packing (wrong dim or no
//     samples: admission's kInvalidRequest);
//   * pack_from_f64_le packs exactly the words that decoding to doubles
//     and then pack_into produce — or returns false, which it must do
//     exactly when the payload holds a NaN, keeping only the rows before
//     it.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/protocol.h"
#include "runtime/batch_scorer.h"
#include "support/rng.h"
#include "support/wire.h"

namespace ldafp::net {
namespace {

using linalg::Vector;
using runtime::BatchScorer;
using runtime::PackedBatch;

constexpr std::uint16_t kDim = 5;
constexpr int kMutants = 4000;

core::FixedClassifier fuzz_classifier(fixed::DatapathKind kind) {
  const Vector w{0.75, -1.5, 0.25, 2.0, -0.125};
  return core::FixedClassifier(fixed::FixedFormat(3, 5), w, 0.5,
                               fixed::RoundingMode::kNearestEven,
                               fixed::AccumulatorMode::kWide, kind);
}

/// A double that stresses the quantizer and the NaN gate: quiet and
/// signalling NaNs with payloads, infinities, extremes, subnormals,
/// signed zero, and grid ties of Q3.5.
double special_double(support::Rng& rng) {
  switch (rng.uniform_int(0, 7)) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1:  // NaN with a random payload and sign
      return std::bit_cast<double>(0x7FF0000000000001ULL |
                                   (rng.next_u64() & 0x800FFFFFFFFFFFFFULL));
    case 2: return std::numeric_limits<double>::infinity();
    case 3: return -std::numeric_limits<double>::infinity();
    case 4: return std::numeric_limits<double>::max();
    case 5: return std::numeric_limits<double>::denorm_min();
    case 6: return -0.0;
    default: return (static_cast<double>(rng.uniform_int(-300, 300)) + 0.5) /
                    32.0;
  }
}

/// One valid request frame: 1..19 samples of kDim features, optionally
/// naming the model.
std::vector<std::uint8_t> seed_frame(support::Rng& rng) {
  ScoreRequest request;
  request.request_id = rng.next_u64();
  if (rng.bernoulli(0.5)) request.model.push_back('m');
  request.dim = kDim;
  const auto samples = rng.uniform_int(1, 19);
  for (std::int64_t i = 0; i < samples * kDim; ++i) {
    request.features.push_back(rng.uniform(-10.0, 10.0));
  }
  std::vector<std::uint8_t> frame;
  encode(frame, request);
  return frame;
}

void mutate(std::vector<std::uint8_t>& bytes, std::size_t payload_offset,
            support::Rng& rng) {
  if (bytes.empty()) return;  // truncated to nothing already
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  switch (rng.uniform_int(0, 5)) {
    case 0:  // flip one bit anywhere
      bytes[pick(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      return;
    case 1:  // overwrite one byte
      bytes[pick(bytes.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      return;
    case 2: {  // special double into an aligned feature slot
      if (bytes.size() < payload_offset + 8) return;  // truncated away
      const std::size_t slots = (bytes.size() - payload_offset) / 8;
      std::vector<std::uint8_t> value;
      support::put_f64le(value, special_double(rng));
      std::copy(value.begin(), value.end(),
                bytes.begin() + static_cast<std::ptrdiff_t>(
                                    payload_offset + 8 * pick(slots)));
      return;
    }
    case 3:  // truncate
      bytes.resize(pick(bytes.size()));
      return;
    case 4: {  // trailing junk after the frame
      const auto extra = rng.uniform_int(1, 32);
      for (std::int64_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
      return;
    }
    default: {  // grow the payload and patch frame_len to cover it
      if (bytes.size() < 4) return;
      const auto extra = rng.uniform_int(1, 24);
      for (std::int64_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
      }
      std::vector<std::uint8_t> len;
      support::put_u32le(len, static_cast<std::uint32_t>(bytes.size() - 4));
      std::copy(len.begin(), len.end(), bytes.begin());
      return;
    }
  }
}

struct Outcomes {
  int frame_errors = 0;
  int incomplete = 0;
  int admission = 0;
  int packed = 0;
  int nan_rejected = 0;
};

/// Packs a decoded request both ways onto a batch that already holds
/// `prefix` rows, so the shared row writer starts mid-tile too.
void check_pack(const BatchScorer& scorer, const PackedBatch& prefix,
                const ScoreRequestView& view, const ScoreRequest& decoded,
                Outcomes& outcomes) {
  std::vector<Vector> rows;
  std::size_t first_nan = view.sample_count;
  for (std::size_t r = 0; r < view.sample_count; ++r) {
    Vector x(kDim);
    for (std::size_t m = 0; m < kDim; ++m) {
      x[m] = decoded.features[r * kDim + m];
      if (std::isnan(x[m]) && first_nan == view.sample_count) first_nan = r;
    }
    rows.push_back(std::move(x));
  }
  const bool has_nan = first_nan < view.sample_count;

  PackedBatch wire = prefix;
  const bool ok =
      scorer.pack_from_f64_le(wire, view.features_le, view.sample_count);
  ASSERT_EQ(ok, !has_nan);
  PackedBatch reference = prefix;
  scorer.pack_into(reference, rows.data(), first_nan);
  ASSERT_EQ(wire.rows, reference.rows);
  ASSERT_EQ(wire.dim, reference.dim);
  ASSERT_EQ(wire.words, reference.words);
  if (!ok) {
    ++outcomes.nan_rejected;
    return;
  }
  ++outcomes.packed;
}

TEST(IngestFuzzTest, MutatedRequestFramesDecodeFailOrPackExactly) {
  support::Rng rng(0x1D6E57);
  const core::FixedClassifier twos =
      fuzz_classifier(fixed::DatapathKind::kTwosComplement);
  const core::FixedClassifier lns =
      fuzz_classifier(fixed::DatapathKind::kLns);
  const BatchScorer scorers[] = {BatchScorer(twos), BatchScorer(lns)};
  Outcomes outcomes;
  for (int i = 0; i < kMutants; ++i) {
    std::vector<std::uint8_t> bytes = seed_frame(rng);
    const std::size_t feature_bytes =
        8 * kDim * support::get_u16le(bytes.data() + 32);
    const std::size_t payload_offset = bytes.size() - feature_bytes;
    const auto mutations = rng.uniform_int(1, 3);
    for (std::int64_t k = 0; k < mutations; ++k) {
      mutate(bytes, payload_offset, rng);
    }
    SCOPED_TRACE("mutant " + std::to_string(i));

    ScoreRequestView view;
    std::size_t consumed = 0;
    FrameError error = FrameError::kNone;
    const DecodeState state = decode_request_view(
        bytes.data(), bytes.size(), kMaxFrameBytes, view, consumed, error);
    if (state == DecodeState::kError) {
      EXPECT_NE(error, FrameError::kNone);
      ++outcomes.frame_errors;
      continue;
    }
    if (state == DecodeState::kNeedMore) {
      EXPECT_EQ(consumed, 0u);
      if (bytes.size() >= 4) {
        EXPECT_LT(bytes.size(), 4 + std::size_t{support::get_u32le(
                                        bytes.data())});
      }
      ++outcomes.incomplete;
      continue;
    }
    // The copying decoder reads the same request.
    DecodedFrame frame;
    std::size_t frame_consumed = 0;
    FrameError frame_error = FrameError::kNone;
    ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), kMaxFrameBytes, frame,
                           frame_consumed, frame_error),
              DecodeState::kFrame);
    ASSERT_EQ(frame.type, MessageType::kScoreRequest);
    ASSERT_EQ(consumed, frame_consumed);
    ASSERT_LE(consumed, bytes.size());
    ASSERT_EQ(view.request_id, frame.request.request_id);
    ASSERT_EQ(view.dim, frame.request.dim);
    ASSERT_EQ(view.sample_count, frame.request.sample_count());
    if (view.dim != kDim || view.sample_count == 0) {
      ++outcomes.admission;
      continue;
    }
    for (const BatchScorer& scorer : scorers) {
      std::vector<Vector> prefix_rows;
      const auto prefix_count = rng.uniform_int(0, 9);
      for (std::int64_t r = 0; r < prefix_count; ++r) {
        Vector x(kDim);
        for (std::size_t m = 0; m < kDim; ++m) x[m] = rng.uniform(-4, 4);
        prefix_rows.push_back(std::move(x));
      }
      const PackedBatch prefix = scorer.pack(prefix_rows);
      check_pack(scorer, prefix, view, frame.request, outcomes);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  // The budget must actually reach every outcome, or the fuzz proves
  // less than it claims.
  EXPECT_GT(outcomes.frame_errors, 0);
  EXPECT_GT(outcomes.incomplete, 0);
  EXPECT_GT(outcomes.packed, 0);
  EXPECT_GT(outcomes.nan_rejected, 0);
}

}  // namespace
}  // namespace ldafp::net
