// Deterministic mutation fuzz of model::decode_model.  Valid version-1
// (two's-complement) and version-2 (LNS) model files are mutated — bit
// flips, byte overwrites, truncation, and patches of a section's
// payload_len or of the header's section_count — from a fixed
// support::Rng seed for a fixed number of mutants, so every run replays
// the same inputs (and ASan/UBSan see them all).  Half of the mutants get
// a recomputed CRC trailer, so the payload decoders see hostile bytes
// and not only the checksum gate.  Every mutant must end in exactly one
// of:
//   * a LoadError, with no model engaged;
//   * a model m with decode(encode(m)) == m: the same weight and
//     threshold words, format, rounding, accumulator, backend and
//     provenance (doubles compared bitwise, so NaN payloads count).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "model/model_io.h"
#include "support/crc32.h"
#include "support/rng.h"
#include "support/wire.h"

namespace ldafp::model {
namespace {

constexpr int kMutants = 6000;

/// A valid model: random format, dimension, words and provenance on
/// either backend (LNS files are version 2, two's complement version 1).
SavedModel seed_model(support::Rng& rng, fixed::DatapathKind kind) {
  const int k = static_cast<int>(rng.uniform_int(1, 4));
  // The LNS layout needs at least sign + 3 exponent bits.
  const bool lns = kind == fixed::DatapathKind::kLns;
  const int f_min = lns ? std::max(0, 4 - k) : 0;
  const int f = static_cast<int>(rng.uniform_int(f_min, 6));
  const fixed::FixedFormat fmt(k, f);
  const auto dim = static_cast<std::size_t>(rng.uniform_int(1, 6));
  linalg::Vector w(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    w[i] = rng.uniform(fmt.min_value(), fmt.max_value());
  }
  const fixed::RoundingMode modes[] = {
      fixed::RoundingMode::kNearestEven, fixed::RoundingMode::kNearestAway,
      fixed::RoundingMode::kTowardZero, fixed::RoundingMode::kFloor};
  SavedModel model{
      core::FixedClassifier(
          fmt, w, rng.uniform(fmt.min_value(), fmt.max_value()),
          modes[rng.uniform_int(0, 3)],
          rng.bernoulli(0.5) ? fixed::AccumulatorMode::kWide
                             : fixed::AccumulatorMode::kNarrow,
          kind),
      {}};
  TrainingProvenance& pv = model.provenance;
  pv.name = std::string(static_cast<std::size_t>(rng.uniform_int(0, 12)),
                        'a');
  pv.feature_scale = rng.uniform(0.0, 2.0);
  pv.rho = 0.9999;
  pv.cv_accuracy = rng.uniform(0.0, 1.0);
  pv.word_length = static_cast<std::uint32_t>(fmt.word_length());
  pv.nodes_processed = rng.next_u64();
  pv.model_version = static_cast<std::uint64_t>(rng.uniform_int(0, 9));
  return model;
}

/// Byte offsets of each section header, walked from the known layout of
/// an unmutated file.
std::vector<std::size_t> section_offsets(
    const std::vector<std::uint8_t>& bytes) {
  std::vector<std::size_t> out;
  const std::uint16_t count = support::get_u16le(bytes.data() + 6);
  std::size_t pos = kHeaderBytes;
  for (std::uint16_t s = 0; s < count; ++s) {
    out.push_back(pos);
    pos += kSectionHeaderBytes + support::get_u32le(bytes.data() + pos + 4);
  }
  return out;
}

void put_u32_at(std::vector<std::uint8_t>& bytes, std::size_t offset,
                std::uint32_t value) {
  std::vector<std::uint8_t> le;
  support::put_u32le(le, value);
  for (std::size_t i = 0; i < le.size() && offset + i < bytes.size(); ++i) {
    bytes[offset + i] = le[i];
  }
}

void mutate(std::vector<std::uint8_t>& bytes,
            const std::vector<std::size_t>& sections, support::Rng& rng) {
  if (bytes.empty()) return;  // truncated to nothing already
  const auto pick = [&](std::size_t size) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(size) - 1));
  };
  switch (rng.uniform_int(0, 4)) {
    case 0:  // flip one bit anywhere
      bytes[pick(bytes.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
      return;
    case 1:  // overwrite one byte
      bytes[pick(bytes.size())] =
          static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      return;
    case 2:  // truncate
      bytes.resize(pick(bytes.size()));
      return;
    case 3: {  // patch one section's payload_len
      const std::size_t len_at = sections[pick(sections.size())] + 4;
      if (len_at + 4 > bytes.size()) return;  // truncated away
      const std::uint32_t old = support::get_u32le(bytes.data() + len_at);
      std::uint32_t patched = 0;
      switch (rng.uniform_int(0, 3)) {
        case 0: patched = old + static_cast<std::uint32_t>(
                                    rng.uniform_int(1, 16)); break;
        case 1: patched = old - static_cast<std::uint32_t>(
                                    rng.uniform_int(1, 16)); break;
        case 2: patched = static_cast<std::uint32_t>(rng.next_u64()); break;
        default: patched = static_cast<std::uint32_t>(kMaxSectionBytes + 1);
      }
      put_u32_at(bytes, len_at, patched);
      return;
    }
    default: {  // patch section_count
      if (bytes.size() < kHeaderBytes) return;
      const std::uint16_t count =
          rng.bernoulli(0.5)
              ? static_cast<std::uint16_t>(rng.uniform_int(0, 5))
              : static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
      bytes[6] = static_cast<std::uint8_t>(count & 0xFF);
      bytes[7] = static_cast<std::uint8_t>(count >> 8);
      return;
    }
  }
}

/// Rewrites the CRC trailer over everything before it.
void refresh_crc(std::vector<std::uint8_t>& bytes) {
  if (bytes.size() < 4) return;
  const std::uint32_t crc = support::crc32(bytes.data(), bytes.size() - 4);
  bytes.resize(bytes.size() - 4);
  support::put_u32le(bytes, crc);
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_model(const SavedModel& a, const SavedModel& b) {
  const core::FixedClassifier& ca = a.classifier;
  const core::FixedClassifier& cb = b.classifier;
  const TrainingProvenance& pa = a.provenance;
  const TrainingProvenance& pb = b.provenance;
  return ca.format() == cb.format() && ca.rounding() == cb.rounding() &&
         ca.accumulator() == cb.accumulator() &&
         ca.datapath_kind() == cb.datapath_kind() &&
         ca.weight_words() == cb.weight_words() &&
         ca.threshold_raw() == cb.threshold_raw() && pa.name == pb.name &&
         same_bits(pa.feature_scale, pb.feature_scale) &&
         same_bits(pa.rho, pb.rho) && same_bits(pa.beta, pb.beta) &&
         same_bits(pa.cv_accuracy, pb.cv_accuracy) &&
         same_bits(pa.train_seconds, pb.train_seconds) &&
         same_bits(pa.cost, pb.cost) && same_bits(pa.gap, pb.gap) &&
         pa.word_length == pb.word_length &&
         pa.nodes_processed == pb.nodes_processed &&
         pa.relaxations == pb.relaxations &&
         pa.phase1_skips == pb.phase1_skips &&
         pa.newton_iterations == pb.newton_iterations &&
         pa.factorizations == pb.factorizations &&
         pa.model_version == pb.model_version;
}

TEST(ModelDecodeFuzzTest, MutatedFilesFailWithOneErrorOrRoundTrip) {
  support::Rng rng(0x5EED1DAF);
  int errors[static_cast<int>(LoadError::kIo) + 1] = {};
  int decoded_by_version[kFormatVersion + 1] = {};
  for (int i = 0; i < kMutants; ++i) {
    const fixed::DatapathKind kind =
        i % 2 == 0 ? fixed::DatapathKind::kTwosComplement
                   : fixed::DatapathKind::kLns;
    std::vector<std::uint8_t> bytes = encode_model(seed_model(rng, kind));
    const std::vector<std::size_t> sections = section_offsets(bytes);
    const auto mutations = rng.uniform_int(1, 3);
    for (std::int64_t m = 0; m < mutations; ++m) mutate(bytes, sections, rng);
    if (rng.bernoulli(0.5)) refresh_crc(bytes);
    SCOPED_TRACE("mutant " + std::to_string(i));

    const DecodeResult result = decode_model(bytes);
    if (!result.ok()) {
      ASSERT_FALSE(result.model.has_value()) << to_string(result.error);
      ++errors[static_cast<int>(result.error)];
      continue;
    }
    ASSERT_TRUE(result.model.has_value());
    const DecodeResult again = decode_model(encode_model(*result.model));
    ASSERT_TRUE(again.ok()) << to_string(again.error);
    ASSERT_TRUE(same_model(*again.model, *result.model));
    ++decoded_by_version[support::get_u16le(bytes.data() + 4)];
  }
  // The budget must reach every content-level outcome, or the fuzz
  // proves less than it claims: each error code a byte image can earn
  // (kIo needs a filesystem), and decoded mutants of both versions.
  for (const LoadError e :
       {LoadError::kBadMagic, LoadError::kBadVersion, LoadError::kBadCrc,
        LoadError::kTruncated, LoadError::kBadSection}) {
    EXPECT_GT(errors[static_cast<int>(e)], 0) << to_string(e);
  }
  EXPECT_GT(decoded_by_version[1], 0);
  EXPECT_GT(decoded_by_version[2], 0);
}

}  // namespace
}  // namespace ldafp::model
