// Sans-I/O connection state machine: frame reassembly from arbitrary
// byte splits, pipelined response ordering, the per-request error
// taxonomy, the serve-stage telescope, the steady-state allocation
// budget, and slow-client/protocol-error teardown — all without a
// network socket (Connection with fd = -1, driven through ingest and the
// output test hooks; the read shim's one-chunk rule runs over a
// socketpair).
#include "net/conn.h"

#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
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
  runtime::InferenceEngine engine_{{.workers = 1}};
  NetMetrics metrics_;
  std::atomic<bool> draining_{false};
  ServeContext context_;
  /// Scoring scratch, as one serving event loop owns it.
  LoopContext loop_;
};

TEST_F(ConnTest, SingleRequestScoresAgainstTheClassifier) {
  Connection conn(-1, &context_, &loop_);
  std::vector<std::uint8_t> wire;
  const ScoreRequest req = request(1);
  encode(wire, req);
  conn.ingest(wire.data(), wire.size());

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
    EXPECT_EQ(conn.unflushed_bytes(), 0u) << "split " << split;
    conn.ingest(wire.data() + split, wire.size() - split);
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
  EXPECT_EQ(conn.unflushed_bytes(), 0u);
  EXPECT_EQ(metrics_.accepted.load(), 1u);
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
  // Never consume output: the unflushed responses cross the bound.
  conn.ingest(wire.data(), wire.size());
  EXPECT_TRUE(conn.dead());
  EXPECT_EQ(metrics_.slow_client_disconnects.load(), 1u);
  EXPECT_TRUE(conn.finished());
}

// Head-of-line order with failures interleaved: a deep pipeline (4096
// requests, arriving in uneven chunks so frames straddle ingest calls)
// mixes requests that are scored with ones answered at once — unknown
// model, wrong dim, format mismatch, NaN payload — and every response
// still comes back in request order with its own status.
TEST_F(ConnTest, PipelineMixedWithImmediateFailuresStaysInRequestOrder) {
  constexpr std::uint64_t kCount = 4096;
  const auto expected_status = [](std::uint64_t id) {
    switch (id % 7) {
      case 1: return ResponseStatus::kUnknownModel;
      case 3: return ResponseStatus::kInvalidRequest;
      case 5: return ResponseStatus::kFormatMismatch;
      default: return id % 11 == 0 ? ResponseStatus::kInvalidRequest
                                   : ResponseStatus::kOk;
    }
  };
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    ScoreRequest r = request(id);
    switch (id % 7) {
      case 1: r.model = "no-such-model"; break;
      case 3:
        r.dim = kDim + 1;
        r.features.push_back(0.0);
        break;
      case 5:
        r.expected_integer_bits = 7;
        r.expected_frac_bits = 1;
        break;
      default:
        if (id % 11 == 0) {
          r.features[1] = std::numeric_limits<double>::quiet_NaN();
        }
    }
    encode(wire, r);
  }
  Connection conn(-1, &context_, &loop_);
  support::Rng rng(23);
  std::vector<ScoreResponse> got;
  for (std::size_t at = 0; at < wire.size();) {
    const std::size_t n = std::min<std::size_t>(
        wire.size() - at, 1 + static_cast<std::size_t>(
                                  rng.uniform_int(0, 4095)));
    conn.ingest(wire.data() + at, n);
    at += n;
    for (ScoreResponse& r : responses(conn)) got.push_back(std::move(r));
  }
  ASSERT_EQ(got.size(), kCount);
  std::uint64_t ok = 0;
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    ASSERT_EQ(got[id - 1].request_id, id);
    EXPECT_EQ(got[id - 1].status, expected_status(id)) << "id " << id;
    if (got[id - 1].status == ResponseStatus::kOk) {
      ++ok;
      EXPECT_EQ(got[id - 1].results.size(), 1u);
    }
  }
  EXPECT_EQ(metrics_.accepted.load(), ok);
  EXPECT_EQ(metrics_.responses_sent.load(), kCount);
  EXPECT_FALSE(conn.dead());
}

// Loop fairness at the socket shim: one readiness event reads one
// 64 KiB chunk, however much the peer has queued, so a pipelining client
// cannot hold its loop; the rest is served on later events, in order.
TEST_F(ConnTest, OnReadableReadsOneChunkPerReadinessEvent) {
  constexpr std::size_t kChunk = 64u * 1024;  // conn.cpp's read chunk
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, fds), 0);
  std::vector<std::uint8_t> frame;
  encode(frame, request(1));
  const std::size_t frame_size = frame.size();
  std::vector<std::uint8_t> wire;
  std::uint64_t count = 0;
  while (wire.size() < 8 * kChunk) encode(wire, request(++count));
  std::size_t written = 0;
  const auto send_more = [&] {
    while (written < wire.size()) {
      const ssize_t n = ::send(fds[1], wire.data() + written,
                               wire.size() - written, MSG_NOSIGNAL);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
  };
  send_more();
  ASSERT_GT(written, 2 * kChunk);  // more queued than one chunk holds

  Connection conn(fds[0], &context_, &loop_);
  conn.on_readable();
  std::vector<ScoreResponse> got = responses(conn);
  EXPECT_GT(got.size(), 0u);
  EXPECT_LE(got.size(), kChunk / frame_size);
  while (got.size() < count && !conn.dead()) {
    conn.on_readable();
    for (ScoreResponse& r : responses(conn)) got.push_back(std::move(r));
    send_more();
  }
  ASSERT_EQ(got.size(), count);
  for (std::uint64_t id = 1; id <= count; ++id) {
    EXPECT_EQ(got[id - 1].request_id, id);
  }
  ::close(fds[0]);
  ::close(fds[1]);
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
  const auto got = responses(conn);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].request_id, 1u);
  EXPECT_EQ(got[0].status, ResponseStatus::kInvalidRequest);
  EXPECT_EQ(got[1].request_id, 2u);
  EXPECT_EQ(got[1].status, ResponseStatus::kOk);
  EXPECT_FALSE(conn.dead());
  EXPECT_EQ(metrics_.rejected(ResponseStatus::kInvalidRequest).load(), 1u);
}

// The stage histograms telescope: decoded -> packed -> scored ->
// encoded are adjacent stamps, so the pack, score and encode means sum
// to the serve_latency mean.  Each record rounds to a whole nanosecond,
// which bounds the gap; failures (packed = scored) are included.
TEST_F(ConnTest, ServeStageMeansSumToServeLatencyMean) {
  Connection conn(-1, &context_, &loop_);
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= 300; ++id) {
    ScoreRequest r = request(id);
    if (id % 10 == 0) r.model = "no-such-model";
    encode(wire, r);
  }
  conn.ingest(wire.data(), wire.size());
  ASSERT_EQ(responses(conn).size(), 300u);

  const obs::MetricsSnapshot snap = metrics_.registry().snapshot();
  const auto mean_of = [&](const char* stage) {
    const auto* h =
        snap.find_histogram("net.serve_stage", {{"stage", stage}});
    EXPECT_NE(h, nullptr) << stage;
    if (h == nullptr) return 0.0;
    EXPECT_EQ(h->hist.total_count, 300u) << stage;
    return h->hist.mean();
  };
  const double staged =
      mean_of("pack") + mean_of("score") + mean_of("encode");
  const auto* total = snap.find_histogram("net.serve_latency");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->hist.total_count, 300u);
  EXPECT_GT(total->hist.mean(), 0.0);
  EXPECT_NEAR(staged, total->hist.mean(), 3e-9);
  EXPECT_GT(mean_of("score"), 0.0);
}

// Steady state allocates nothing: once the read, write, packed-batch and
// result buffers have grown to the working size, requests through
// Connection::ingest — scored or failed, whole or split across reads —
// never touch the heap.  Counted by this test binary's global operator
// new (below), so it runs in every build, the Debug allocation-counter
// CI leg included.
std::atomic<std::uint64_t> g_heap_allocs{0};

class ConnAllocCountTest : public ConnTest {};

TEST_F(ConnAllocCountTest, SteadyStateIngestAllocatesNothing) {
  Connection conn(-1, &context_, &loop_);
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= 64; ++id) {
    ScoreRequest r = request(id);
    if (id % 8 == 0) r.model = "no-such-model";
    encode(wire, r);
  }
  // Uneven reads so frames straddle ingest calls.
  const auto feed = [&] {
    for (std::size_t at = 0; at < wire.size(); at += 333) {
      conn.ingest(wire.data() + at,
                  std::min<std::size_t>(333, wire.size() - at));
      conn.consume_output(conn.unflushed_bytes());
    }
  };
  feed();  // warm-up: buffers grow to the working size
  const std::uint64_t accepted = metrics_.accepted.load();
  const std::uint64_t before = g_heap_allocs.load();
  for (int round = 0; round < 20; ++round) feed();
  EXPECT_EQ(g_heap_allocs.load() - before, 0u);
  EXPECT_EQ(metrics_.accepted.load() - accepted, 20u * 56u);
  EXPECT_FALSE(conn.dead());
}

}  // namespace
}  // namespace ldafp::net

// Counting replacements of the global allocation functions.  The array
// forms' defaults route through these; the aligned forms keep their own
// matching defaults (nothing on the serve path over-aligns).  Not
// inlined: gcc would otherwise pair its builtin operator new with the
// inlined free() and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void* operator new(std::size_t size) {
  ldafp::net::g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
