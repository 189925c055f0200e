// Sans-I/O connection state machine: frame reassembly from arbitrary
// byte splits, pipelined response ordering, the per-request error
// taxonomy, and slow-client/protocol-error teardown — all without a
// socket (Connection with fd = -1, driven through ingest/pump and the
// output test hooks).
#include "net/conn.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <thread>
#include <vector>

#include "net/protocol.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "support/rng.h"

namespace ldafp::net {
namespace {

using linalg::Vector;

core::FixedClassifier test_classifier(std::size_t dim, support::Rng& rng) {
  const fixed::FixedFormat fmt(3, 5);
  Vector w(dim);
  for (std::size_t m = 0; m < dim; ++m) {
    w[m] = fmt.to_real(rng.uniform_int(fmt.raw_min(), fmt.raw_max()));
  }
  return core::FixedClassifier(fmt, w, 0.25);
}

class ConnTest : public ::testing::Test {
 protected:
  ConnTest() {
    support::Rng rng(7);
    model_ = registry_.install("m", test_classifier(kDim, rng));
    context_.engine = &engine_;
    context_.registry = &registry_;
    context_.metrics = &metrics_;
    context_.default_model = "m";
    context_.draining = &draining_;
  }

  ScoreRequest request(std::uint64_t id) const {
    ScoreRequest r;
    r.request_id = id;
    r.dim = kDim;
    for (std::size_t m = 0; m < kDim; ++m) {
      r.features.push_back(0.25 * static_cast<double>(m) -
                           0.125 * static_cast<double>(id % 7));
    }
    return r;
  }

  /// Drives the connection until every pending slot has completed or
  /// the deadline passes — routing engine completions the way the
  /// serving loop does (drain_completions), then pumping.
  void drain(Connection& conn, double seconds = 5.0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    while (conn.pending_count() > 0 && !conn.dead()) {
      loop_.drain_completions();
      conn.pump();
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "connection did not drain";
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  /// Decodes every complete response frame buffered in the connection's
  /// output, consuming the bytes like a socket would.
  std::vector<ScoreResponse> responses(Connection& conn) {
    std::vector<ScoreResponse> out;
    while (conn.unflushed_bytes() > 0) {
      DecodedFrame frame;
      std::size_t consumed = 0;
      FrameError error = FrameError::kNone;
      const DecodeState state =
          decode_frame(conn.output_data(), conn.unflushed_bytes(),
                       kMaxFrameBytes, frame, consumed, error);
      if (state != DecodeState::kFrame) break;
      EXPECT_EQ(frame.type, MessageType::kScoreResponse);
      out.push_back(frame.response);
      conn.consume_output(consumed);
    }
    return out;
  }

  static constexpr std::uint16_t kDim = 6;
  runtime::ModelRegistry registry_;
  runtime::ModelHandle model_;
  runtime::InferenceEngine engine_{{.workers = 2}};
  NetMetrics metrics_;
  std::atomic<bool> draining_{false};
  ServeContext context_;
  /// Completion routing + block pool, as one serving event loop owns it.
  LoopContext loop_;
};

TEST_F(ConnTest, SingleRequestScoresAgainstTheClassifier) {
  Connection conn(-1, &context_, &loop_);
  std::vector<std::uint8_t> wire;
  const ScoreRequest req = request(1);
  encode(wire, req);
  conn.ingest(wire.data(), wire.size());
  EXPECT_EQ(conn.pending_count(), 1u);
  drain(conn);

  const auto got = responses(conn);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[0].status, ResponseStatus::kOk);
  EXPECT_EQ(got[0].model_version, model_->version);
  ASSERT_EQ(got[0].results.size(), 1u);
  Vector x(std::vector<double>(req.features));
  EXPECT_EQ(got[0].results[0].label,
            static_cast<std::uint8_t>(model_->classifier.classify(x)));
  EXPECT_EQ(got[0].results[0].projection_raw,
            model_->classifier.project_raw(x));
  EXPECT_FALSE(conn.dead());
  EXPECT_FALSE(conn.close_after_flush());
}

TEST_F(ConnTest, ByteAtATimeIngestReassemblesTheFrame) {
  Connection conn(-1, &context_, &loop_);
  std::vector<std::uint8_t> wire;
  encode(wire, request(3));
  for (const std::uint8_t byte : wire) {
    EXPECT_FALSE(conn.dead());
    conn.ingest(&byte, 1);
  }
  drain(conn);
  const auto got = responses(conn);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].request_id, 3u);
  EXPECT_EQ(got[0].status, ResponseStatus::kOk);
}

TEST_F(ConnTest, SplitAtEveryOffsetDecodesIdentically) {
  std::vector<std::uint8_t> wire;
  encode(wire, request(5));
  for (std::size_t split = 1; split < wire.size(); ++split) {
    Connection conn(-1, &context_, &loop_);
    conn.ingest(wire.data(), split);
    EXPECT_EQ(conn.pending_count(), 0u) << "split " << split;
    conn.ingest(wire.data() + split, wire.size() - split);
    EXPECT_EQ(conn.pending_count(), 1u) << "split " << split;
    drain(conn);
    const auto got = responses(conn);
    ASSERT_EQ(got.size(), 1u) << "split " << split;
    EXPECT_EQ(got[0].status, ResponseStatus::kOk);
  }
}

TEST_F(ConnTest, PipelinedResponsesComeBackInRequestOrder) {
  Connection conn(-1, &context_, &loop_);
  constexpr std::uint64_t kCount = 32;
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= kCount; ++id) encode(wire, request(id));
  conn.ingest(wire.data(), wire.size());
  drain(conn);
  const auto got = responses(conn);
  ASSERT_EQ(got.size(), kCount);
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    EXPECT_EQ(got[id - 1].request_id, id);
    EXPECT_EQ(got[id - 1].status, ResponseStatus::kOk);
  }
}

TEST_F(ConnTest, MixedOutcomesPreserveOrderAndTheConnection) {
  Connection conn(-1, &context_, &loop_);
  std::vector<std::uint8_t> wire;
  encode(wire, request(1));
  ScoreRequest unknown = request(2);
  unknown.model = "no-such-model";
  encode(wire, unknown);
  ScoreRequest bad_dim = request(3);
  bad_dim.dim = kDim + 1;
  bad_dim.features.push_back(0.0);
  encode(wire, bad_dim);
  ScoreRequest bad_format = request(4);
  bad_format.expected_integer_bits = 7;
  bad_format.expected_frac_bits = 1;
  encode(wire, bad_format);
  encode(wire, request(5));

  conn.ingest(wire.data(), wire.size());
  drain(conn);
  const auto got = responses(conn);
  ASSERT_EQ(got.size(), 5u);
  EXPECT_EQ(got[0].status, ResponseStatus::kOk);
  EXPECT_EQ(got[1].status, ResponseStatus::kUnknownModel);
  EXPECT_EQ(got[2].status, ResponseStatus::kInvalidRequest);
  EXPECT_EQ(got[3].status, ResponseStatus::kFormatMismatch);
  EXPECT_EQ(got[4].status, ResponseStatus::kOk);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(got[id - 1].request_id, id);
  }
  // Per-request failures never condemn the stream.
  EXPECT_FALSE(conn.dead());
  EXPECT_FALSE(conn.close_after_flush());
  EXPECT_EQ(metrics_.rejected(ResponseStatus::kUnknownModel).load(), 1u);
  EXPECT_EQ(metrics_.rejected(ResponseStatus::kInvalidRequest).load(), 1u);
  EXPECT_EQ(metrics_.rejected(ResponseStatus::kFormatMismatch).load(), 1u);
}

TEST_F(ConnTest, DrainingAnswersShuttingDown) {
  Connection conn(-1, &context_, &loop_);
  draining_.store(true);
  std::vector<std::uint8_t> wire;
  encode(wire, request(1));
  conn.ingest(wire.data(), wire.size());
  drain(conn);
  const auto got = responses(conn);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, ResponseStatus::kShuttingDown);
}

TEST_F(ConnTest, MalformedFrameGetsTerminalProtocolError) {
  Connection conn(-1, &context_, &loop_);
  // A good request pipelined ahead of the garbage still completes.
  std::vector<std::uint8_t> wire;
  encode(wire, request(1));
  std::vector<std::uint8_t> garbage(wire);
  encode(garbage, request(2));
  garbage[wire.size() + 5] ^= 0xFF;  // corrupt the second frame's magic
  conn.ingest(garbage.data(), garbage.size());
  EXPECT_TRUE(conn.close_after_flush());
  drain(conn);

  const auto got = responses(conn);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[0].status, ResponseStatus::kOk);
  EXPECT_EQ(got[1].request_id, 0u);  // the bad frame's id never parsed
  EXPECT_EQ(got[1].status, ResponseStatus::kProtocolError);
  EXPECT_EQ(metrics_.protocol_errors.load(), 1u);
  EXPECT_TRUE(conn.finished());

  // Later bytes on the condemned stream are ignored, not dispatched.
  std::vector<std::uint8_t> more;
  encode(more, request(9));
  conn.ingest(more.data(), more.size());
  EXPECT_EQ(conn.pending_count(), 0u);
}

TEST_F(ConnTest, OversizedFrameIsTerminal) {
  ServeContext small = context_;
  small.max_frame_bytes = 256;
  Connection conn(-1, &small, &loop_);
  std::vector<std::uint8_t> wire;
  ScoreRequest big = request(1);
  for (int s = 0; s < 16; ++s) {
    for (std::size_t m = 0; m < kDim; ++m) big.features.push_back(0.5);
  }
  encode(wire, big);  // well-formed, but larger than this server allows
  conn.ingest(wire.data(), wire.size());
  EXPECT_TRUE(conn.close_after_flush());
  drain(conn);
  const auto got = responses(conn);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].status, ResponseStatus::kProtocolError);
}

TEST_F(ConnTest, SlowClientIsDisconnectedAtTheWriteBound) {
  ServeContext tight = context_;
  tight.max_write_buffer = 128;  // a few response frames
  Connection conn(-1, &tight, &loop_);
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= 16; ++id) encode(wire, request(id));
  conn.ingest(wire.data(), wire.size());
  // Never consume output: the unflushed responses cross the bound.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(5);
  while (!conn.dead() &&
         std::chrono::steady_clock::now() < deadline) {
    loop_.drain_completions();
    conn.pump();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  EXPECT_TRUE(conn.dead());
  EXPECT_EQ(metrics_.slow_client_disconnects.load(), 1u);
  EXPECT_TRUE(conn.finished());
}

// The head-of-line guarantee under adversarial completion order: the
// test intercepts the loop's completion queue, hands the scored blocks
// back to the connection in *reverse* submission order, and the
// responses still come out in request order.  The deep pipeline (4096
// pending slots) pins the O(1) sequence-indexed completion lookup: a
// front-to-back scan would cost O(k^2) to drain it.
TEST_F(ConnTest, OutOfOrderCompletionsStayHeadOfLineOrdered) {
  for (const std::uint64_t count : {std::uint64_t{8}, std::uint64_t{4096}}) {
    Connection conn(-1, &context_, &loop_);
    // Collect every scored block straight off the CompletionQueue,
    // bypassing drain_completions' routing.  Requests go in in chunks
    // the engine queue can hold, so none is answered kRejected.
    constexpr std::uint64_t kChunk = 256;
    std::vector<runtime::RequestBlock*> blocks;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    for (std::uint64_t first = 1; first <= count; first += kChunk) {
      std::vector<std::uint8_t> wire;
      const std::uint64_t last = std::min(count, first + kChunk - 1);
      for (std::uint64_t id = first; id <= last; ++id) {
        encode(wire, request(id));
      }
      conn.ingest(wire.data(), wire.size());
      ASSERT_EQ(conn.pending_count(), last);
      while (blocks.size() < last) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline);
        for (runtime::RequestBlock* b = loop_.completions->drain();
             b != nullptr;) {
          runtime::RequestBlock* next = b->next;
          b->next = nullptr;
          blocks.push_back(b);
          b = next;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }

    // Deliver in reverse: the tail request's completion lands first.
    for (auto it = blocks.rbegin(); it != blocks.rend(); ++it) {
      conn.on_completion(*it);
    }
    while (conn.pending_count() > 0) ASSERT_TRUE(conn.pump());

    const auto got = responses(conn);
    ASSERT_EQ(got.size(), count);
    for (std::uint64_t id = 1; id <= count; ++id) {
      EXPECT_EQ(got[id - 1].request_id, id);
      EXPECT_EQ(got[id - 1].status, ResponseStatus::kOk);
    }
  }
}

// A NaN feature is caught at ingest (pack_from_f64_le refuses it) and
// answered kInvalidRequest — a per-request failure, not a crash in a
// scoring worker and not a torn connection.
TEST_F(ConnTest, NaNFeatureAnswersInvalidRequestAndKeepsTheStream) {
  Connection conn(-1, &context_, &loop_);
  std::vector<std::uint8_t> wire;
  ScoreRequest poisoned = request(1);
  poisoned.features[2] = std::numeric_limits<double>::quiet_NaN();
  encode(wire, poisoned);
  encode(wire, request(2));
  conn.ingest(wire.data(), wire.size());
  drain(conn);
  const auto got = responses(conn);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[0].status, ResponseStatus::kInvalidRequest);
  EXPECT_EQ(got[1].request_id, 2u);
  EXPECT_EQ(got[1].status, ResponseStatus::kOk);
  EXPECT_FALSE(conn.dead());
  EXPECT_EQ(metrics_.rejected(ResponseStatus::kInvalidRequest).load(), 1u);
}

// Steady state allocates nothing: after the first round trip the block
// comes from (and returns to) the loop's freelist, so the live-block
// count stays flat across subsequent requests.
TEST_F(ConnTest, SteadyStateRecyclesBlocksThroughThePool) {
  Connection conn(-1, &context_, &loop_);
  std::vector<std::uint8_t> wire;
  encode(wire, request(1));
  conn.ingest(wire.data(), wire.size());
  drain(conn);
  (void)responses(conn);
  ASSERT_EQ(loop_.pool.free_count(), 1u);
  const std::int64_t live_after_warmup = runtime::RequestBlock::live();

  for (std::uint64_t id = 2; id <= 20; ++id) {
    std::vector<std::uint8_t> next;
    encode(next, request(id));
    conn.ingest(next.data(), next.size());
    drain(conn);
    (void)responses(conn);
    EXPECT_EQ(loop_.pool.free_count(), 1u);
    EXPECT_EQ(runtime::RequestBlock::live(), live_after_warmup);
  }
}

}  // namespace
}  // namespace ldafp::net
