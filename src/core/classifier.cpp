#include "core/classifier.h"

#include "support/error.h"

namespace ldafp::core {

LinearClassifier::LinearClassifier(linalg::Vector weights, double threshold)
    : weights_(std::move(weights)), threshold_(threshold) {
  LDAFP_CHECK(!weights_.empty(), "classifier needs at least one weight");
}

double LinearClassifier::project(const linalg::Vector& x) const {
  return linalg::dot(weights_, x);
}

Label LinearClassifier::classify(const linalg::Vector& x) const {
  return project(x) >= threshold_ ? Label::kClassA : Label::kClassB;
}

namespace {

std::vector<std::int64_t> quantize_words(const fixed::Datapath& dp,
                                         const linalg::Vector& weights) {
  LDAFP_CHECK(weights.size() > 0, "classifier needs at least one weight");
  std::vector<std::int64_t> words;
  words.reserve(weights.size());
  // Quantized with the classifier's rounding mode, exactly like the
  // threshold.  Trained weights are already on the backend's grid
  // (Eq. 13) and pass through bit-exactly under every mode; off-grid
  // weights land on the same word the ROM emitter and BatchScorer
  // snapshot, so all scoring paths stay in agreement.
  for (std::size_t m = 0; m < weights.size(); ++m) {
    words.push_back(dp.quantize(weights[m]));
  }
  return words;
}

}  // namespace

FixedClassifier::FixedClassifier(std::shared_ptr<const fixed::Datapath> dp,
                                 std::vector<std::int64_t> weight_words,
                                 std::int64_t threshold_word)
    : datapath_(std::move(dp)),
      weight_words_(std::move(weight_words)),
      threshold_word_(threshold_word) {
  LDAFP_CHECK(datapath_ != nullptr, "classifier needs a datapath");
  LDAFP_CHECK(!weight_words_.empty(), "classifier needs at least one weight");
}

FixedClassifier::FixedClassifier(fixed::FixedFormat fmt,
                                 const linalg::Vector& weights,
                                 double threshold, fixed::RoundingMode mode,
                                 fixed::AccumulatorMode acc,
                                 fixed::DatapathKind kind)
    : FixedClassifier(fixed::make_datapath(kind, fmt, mode, acc), weights,
                      threshold) {}

FixedClassifier::FixedClassifier(std::shared_ptr<const fixed::Datapath> dp,
                                 const linalg::Vector& weights,
                                 double threshold)
    : FixedClassifier(dp, quantize_words(*dp, weights),
                      dp->quantize(threshold)) {}

FixedClassifier FixedClassifier::from_raw_words(
    std::shared_ptr<const fixed::Datapath> datapath,
    std::vector<std::int64_t> weight_words, std::int64_t threshold_word) {
  return FixedClassifier(std::move(datapath), std::move(weight_words),
                         threshold_word);
}

linalg::Vector FixedClassifier::weights_real() const {
  linalg::Vector out(weight_words_.size());
  for (std::size_t m = 0; m < weight_words_.size(); ++m) {
    out[m] = datapath_->to_real(weight_words_[m]);
  }
  return out;
}

std::int64_t FixedClassifier::project_raw(const linalg::Vector& x,
                                          fixed::DotDiagnostics* diag) const {
  LDAFP_CHECK(x.size() == dim(), "project dimension mismatch");
  std::vector<std::int64_t> xq(x.size());
  for (std::size_t m = 0; m < x.size(); ++m) {
    xq[m] = datapath_->quantize(x[m]);
  }
  return datapath_->dot(weight_words_.data(), xq.data(), xq.size(), diag);
}

Label FixedClassifier::classify(const linalg::Vector& x,
                                fixed::DotDiagnostics* diag) const {
  const std::int64_t y = project_raw(x, diag);
  return datapath_->ge(y, threshold_word_) ? Label::kClassA : Label::kClassB;
}

}  // namespace ldafp::core
