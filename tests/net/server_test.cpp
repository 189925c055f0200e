// End-to-end epoll server tests over real loopback sockets: scoring
// correctness against the classifier, pipelined ordering, multi-model
// routing and hot swap, a burst beyond any queue answered in full, loop
// fairness under a flooding client, the malformed-frame teardown, a
// start() that fails after bind without leaking an fd, and
// deterministic multi-threaded client traffic with exact metrics
// accounting (run under TSan via the `net` label).
#include "net/server.h"

#include <fcntl.h>
#include <sys/resource.h>

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/client.h"
#include "obs/metrics.h"
#include "obs/sink.h"
#include "runtime/engine.h"
#include "runtime/registry.h"
#include "support/error.h"
#include "support/rng.h"
#include "support/wire.h"

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

constexpr std::uint16_t kDim = 6;

ScoreRequest make_request(std::uint64_t id, const std::string& model = "") {
  ScoreRequest r;
  r.request_id = id;
  r.model = model;
  r.dim = kDim;
  for (std::size_t m = 0; m < kDim; ++m) {
    r.features.push_back(0.25 * static_cast<double>(m) -
                         0.125 * static_cast<double>(id % 7));
  }
  return r;
}

/// Server + engine + two installed models on an ephemeral loopback port.
class ServerTest : public ::testing::Test {
 protected:
  void start(std::size_t io_threads = 2) {
    build(io_threads);
    server_->start();
  }

  /// Constructs the server without starting it.
  void build(std::size_t io_threads) {
    support::Rng rng(11);
    alpha_ = registry_.install("alpha", test_classifier(kDim, rng));
    beta_ = registry_.install("beta", test_classifier(kDim, rng));
    sink_.metrics = &metrics_;
    engine_.emplace(runtime::EngineOptions{.sink = &sink_});
    ServerOptions options;
    options.port = 0;
    options.io_threads = io_threads;
    options.default_model = "alpha";
    options.engine = &*engine_;
    options.registry = &registry_;
    options.sink = &sink_;
    server_.emplace(std::move(options));
  }

  void TearDown() override {
    if (server_.has_value()) server_->stop();
    if (engine_.has_value()) engine_->shutdown();
  }

  Client connect() {
    return Client::connect_to("127.0.0.1", server_->port());
  }

  runtime::ModelRegistry registry_;
  runtime::ModelHandle alpha_;
  runtime::ModelHandle beta_;
  obs::MetricsRegistry metrics_;
  obs::Sink sink_;
  std::optional<runtime::InferenceEngine> engine_;
  std::optional<Server> server_;
};

TEST_F(ServerTest, RoundTripScoresBitExactly) {
  start();
  Client client = connect();
  const ScoreRequest request = make_request(1);
  const ScoreResponse response = client.call(request);
  EXPECT_EQ(response.request_id, 1u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  EXPECT_EQ(response.model_version, alpha_->version);
  EXPECT_EQ(response.model_integer_bits, 3);
  EXPECT_EQ(response.model_frac_bits, 5);
  ASSERT_EQ(response.results.size(), 1u);
  Vector x(std::vector<double>(request.features));
  EXPECT_EQ(response.results[0].label,
            static_cast<std::uint8_t>(alpha_->classifier.classify(x)));
  EXPECT_EQ(response.results[0].projection_raw,
            alpha_->classifier.project_raw(x));
}

TEST_F(ServerTest, MultiSampleBatchComesBackPerSample) {
  start();
  Client client = connect();
  ScoreRequest request = make_request(2);
  for (int extra = 0; extra < 3; ++extra) {
    for (std::size_t m = 0; m < kDim; ++m) {
      request.features.push_back(-0.5 + 0.25 * static_cast<double>(extra));
    }
  }
  const ScoreResponse response = client.call(request);
  ASSERT_EQ(response.status, ResponseStatus::kOk);
  ASSERT_EQ(response.results.size(), 4u);
  for (std::size_t s = 0; s < 4; ++s) {
    const auto* row = request.features.data() + s * kDim;
    Vector x(std::vector<double>(row, row + kDim));
    EXPECT_EQ(response.results[s].label,
              static_cast<std::uint8_t>(alpha_->classifier.classify(x)));
  }
}

TEST_F(ServerTest, PipelinedBurstKeepsRequestOrder) {
  start();
  Client client = connect();
  constexpr std::uint64_t kCount = 200;
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    client.send(make_request(id));
  }
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    const ScoreResponse response = client.recv();
    EXPECT_EQ(response.request_id, id);
    EXPECT_EQ(response.status, ResponseStatus::kOk);
  }
}

TEST_F(ServerTest, RoutesByModelNameAndRejectsUnknown) {
  start();
  Client client = connect();
  EXPECT_EQ(client.call(make_request(1, "alpha")).model_version,
            alpha_->version);
  EXPECT_EQ(client.call(make_request(2, "beta")).model_version,
            beta_->version);
  // Empty name falls back to the configured default.
  EXPECT_EQ(client.call(make_request(3)).model_version, alpha_->version);
  const ScoreResponse unknown = client.call(make_request(4, "gamma"));
  EXPECT_EQ(unknown.status, ResponseStatus::kUnknownModel);
  // The connection survives a per-request failure.
  EXPECT_EQ(client.call(make_request(5)).status, ResponseStatus::kOk);
}

TEST_F(ServerTest, HotSwapAppliesToSubsequentRequests) {
  start();
  Client client = connect();
  EXPECT_EQ(client.call(make_request(1, "alpha")).model_version,
            alpha_->version);
  support::Rng rng(77);
  const auto v2 = registry_.install("alpha", test_classifier(kDim, rng));
  const ScoreResponse after = client.call(make_request(2, "alpha"));
  EXPECT_EQ(after.model_version, v2->version);
  Vector x(std::vector<double>(make_request(2, "alpha").features));
  EXPECT_EQ(after.results[0].projection_raw,
            v2->classifier.project_raw(x));
}

// A pipelined burst four times the size of the engine queue that used
// to shed it (16) is answered in full: every request scores on the loop
// that read it, so there is no queue to fill and nothing is REJECTED.
TEST_F(ServerTest, PipelinedBurstBeyondTheOldQueueIsAnsweredInFull) {
  start(/*io_threads=*/1);
  Client client = connect();
  constexpr std::uint64_t kBurst = 64;
  std::vector<std::uint8_t> wire;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    encode(wire, make_request(id));
  }
  client.send_bytes(wire.data(), wire.size());

  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  for (std::uint64_t id = 1; id <= kBurst; ++id) {
    const ScoreResponse response = client.recv();
    EXPECT_EQ(response.request_id, id);
    if (response.status == ResponseStatus::kOk) {
      ++ok;
    } else {
      ++rejected;
    }
  }
  EXPECT_EQ(ok, kBurst);
  EXPECT_EQ(ok + rejected, kBurst);
  const obs::MetricsSnapshot snapshot = metrics_.snapshot();
  EXPECT_EQ(snapshot.counter_value("net.accepted"), ok);
  EXPECT_EQ(snapshot.counter_value("net.responses_sent"), kBurst);
  EXPECT_EQ(snapshot.counter_value("runtime.requests_completed"), ok);
}

// Loop fairness: one connection floods pipelined requests while a
// second sends one.  The loop reads one chunk per readiness event, so
// the second client is answered while the server is still working
// through the flood (a loop that read until EAGAIN would serve the
// whole flood first: the writer refills the socket faster than the loop
// scores).
TEST_F(ServerTest, FloodingClientDoesNotStarveAnother) {
  start(/*io_threads=*/1);
  constexpr std::uint64_t kFlood = 60000;
  std::vector<std::uint8_t> flood;
  for (std::uint64_t id = 1; id <= kFlood; ++id) {
    encode(flood, make_request(id));
  }
  Client flooder = connect();
  Client single = connect();
  const auto scored = [&] {
    return metrics_.snapshot().counter_value("net.accepted");
  };
  std::thread reader([&] {
    for (std::uint64_t id = 1; id <= kFlood; ++id) {
      EXPECT_EQ(flooder.recv().request_id, id);
    }
  });
  std::thread writer(
      [&] { flooder.send_bytes(flood.data(), flood.size()); });
  while (scored() == 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const ScoreResponse response = single.call(make_request(7));
  const std::uint64_t scored_then = scored();
  writer.join();
  reader.join();
  EXPECT_EQ(response.request_id, 7u);
  EXPECT_EQ(response.status, ResponseStatus::kOk);
  // The single request counts once; the flood was not finished.
  EXPECT_LT(scored_then, kFlood + 1);
  EXPECT_EQ(scored(), kFlood + 1);
}

TEST_F(ServerTest, MalformedFrameAnswersProtocolErrorThenCloses) {
  start();
  Client client = connect();
  std::vector<std::uint8_t> garbage;
  support::put_u32le(garbage, 64);          // plausible length
  support::put_u32le(garbage, 0xBADC0FFE);  // wrong magic
  garbage.resize(garbage.size() + 16, 0);
  client.send_bytes(garbage.data(), garbage.size());
  const ScoreResponse response = client.recv();
  EXPECT_EQ(response.request_id, 0u);
  EXPECT_EQ(response.status, ResponseStatus::kProtocolError);
  // The server tears the stream down after the terminal notice.
  EXPECT_THROW((void)client.recv(), IoError);
  EXPECT_TRUE(client.peer_closed());
  EXPECT_EQ(server_->metrics().protocol_errors.load(), 1u);
}

TEST_F(ServerTest, ConcurrentClientsAccountExactly) {
  start();
  constexpr std::size_t kClients = 8;
  constexpr std::uint64_t kPerClient = 150;
  std::vector<std::thread> threads;
  std::mutex mu;
  std::uint64_t ok = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client =
          Client::connect_to("127.0.0.1", server_->port());
      const std::string model = (c % 2 == 0) ? "alpha" : "beta";
      std::uint64_t local_ok = 0;
      for (std::uint64_t id = 1; id <= kPerClient; ++id) {
        const ScoreResponse response =
            client.call(make_request(id, model));
        EXPECT_EQ(response.request_id, id);
        if (response.status == ResponseStatus::kOk) ++local_ok;
      }
      std::lock_guard lock(mu);
      ok += local_ok;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(ok, kClients * kPerClient);
  server_->stop();
  const obs::MetricsSnapshot snapshot = metrics_.snapshot();
  EXPECT_EQ(snapshot.counter_value("net.accepted"), kClients * kPerClient);
  EXPECT_EQ(snapshot.counter_value("net.responses_sent"),
            kClients * kPerClient);
  EXPECT_EQ(snapshot.counter_value("net.connections_opened"), kClients);
  EXPECT_EQ(snapshot.counter_value("net.connections_closed"), kClients);
  EXPECT_EQ(snapshot.counter_value("net.protocol_errors"), 0u);
  ASSERT_NE(snapshot.find_histogram("net.serve_latency"), nullptr);
  EXPECT_EQ(snapshot.find_histogram("net.serve_latency")->hist.total_count,
            kClients * kPerClient);
}

TEST_F(ServerTest, StopDrainsAndIsIdempotent) {
  start();
  {
    Client client = connect();
    EXPECT_EQ(client.call(make_request(1)).status, ResponseStatus::kOk);
  }
  server_->stop();
  EXPECT_FALSE(server_->running());
  server_->stop();  // second stop is a no-op
  EXPECT_EQ(server_->connection_count(), 0u);
}

// The no-busy-poll invariant: a connected client that sends nothing
// leaves the loop asleep in epoll_wait — wakeups accrue at the idle-tick
// rate, not a zero-timeout spin.
TEST_F(ServerTest, IdleClientCausesOnlyIdleTickWakeups) {
  start(/*io_threads=*/1);
  Client client = connect();
  EXPECT_EQ(client.call(make_request(1)).status, ResponseStatus::kOk);
  const std::uint64_t before = server_->metrics().loop_wakeups.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  const std::uint64_t during =
      server_->metrics().loop_wakeups.load() - before;
  // One loop ticking at 200ms sees ~2 wakeups in 400ms; anything near
  // a spin would be thousands.  Generous margin for scheduler noise.
  EXPECT_LE(during, 20u);
  EXPECT_EQ(client.call(make_request(2)).status, ResponseStatus::kOk);
}

// And under real traffic, wakeups stay proportional to requests: a
// read event scores, encodes and flushes in one wakeup, so each request
// costs at most its read and one stuck-write wakeup.
TEST_F(ServerTest, LoopWakeupsProportionalToCompletions) {
  start(/*io_threads=*/1);
  Client client = connect();
  constexpr std::uint64_t kCount = 200;
  const std::uint64_t before = server_->metrics().loop_wakeups.load();
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    client.send(make_request(id));
  }
  for (std::uint64_t id = 1; id <= kCount; ++id) {
    EXPECT_EQ(client.recv().request_id, id);
  }
  const std::uint64_t used = server_->metrics().loop_wakeups.load() - before;
  // Plus idle-tick slack.  A zero-timeout poll would blow far past this.
  EXPECT_LE(used, 2 * kCount + 20);
}

/// Entries of /proc/self/fd: this process's open fds (the directory
/// handle that lists them included, in every count alike).
std::size_t open_fd_count() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++n;
  }
  return n;
}

/// The `k`-th lowest fd number not open in this process (k from 1).
int kth_free_fd(int k) {
  for (int fd = 0;; ++fd) {
    if (::fcntl(fd, F_GETFD) == -1 && errno == EBADF && --k == 0) return fd;
  }
}

// A start() that fails after bind must close every fd it opened and
// leave no loop running.  The lowered fd limit leaves room for the
// listener, the spare fd and the first loop's epoll and eventfd only, so
// the second loop's epoll_create1 fails with EMFILE.
TEST_F(ServerTest, StartFailureAfterBindClosesEveryFd) {
  build(/*io_threads=*/2);
  const std::size_t before = open_fd_count();
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit lowered = saved;
  lowered.rlim_cur = static_cast<rlim_t>(kth_free_fd(4) + 1);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  EXPECT_THROW(server_->start(), IoError);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(open_fd_count(), before);
}

TEST(ServerOptionsTest, ValidateCatchesMissingWiring) {
  ServerOptions options;
  EXPECT_FALSE(options.validate().ok());  // no engine/registry
  runtime::ModelRegistry registry;
  runtime::InferenceEngine engine;
  options.engine = &engine;
  options.registry = &registry;
  EXPECT_TRUE(options.validate().ok());
  options.io_threads = 0;
  EXPECT_FALSE(options.validate().ok());
  engine.shutdown();
}

}  // namespace
}  // namespace ldafp::net
