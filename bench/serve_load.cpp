// Million-request load harness for the ldafp_net serving front-end.
//
// Starts an in-process epoll server (loopback, ephemeral port) fronting
// two conventionally-trained fixed-point classifiers, then drives it
// through three phases:
//
//   closed  hundreds of connections, each pipelining a fixed window of
//           requests and sending one more per response — measures
//           saturated throughput and end-to-end latency.
//   open    paced senders at a target aggregate rate (arrivals
//           independent of completions) — measures latency at an
//           offered load instead of at saturation.
//   burst   a few connections each pipeline a burst well past any
//           queue size in one write — proves every request is answered
//           OK and in order: the loops score on the thread that read
//           the bytes, so overload shows as TCP flow control, not as
//           REJECTED responses or silent drops.
//
// Every response is verified: per-connection FIFO order (pipelining
// contract), model version/format routing, and the served label against
// the classifier evaluated locally — a million-request bit-identity
// check of the whole transport.  Latency records into ldafp_obs
// histograms ("load.latency{phase=...}", p50/p99/p999 in the export),
// and `--out FILE` writes the run as JSON in the BENCH_solver.json style:
// the host header, per-phase throughput, the server's serve-stage table
// (net.serve_stage{stage=pack|score|encode}), the client-side
// histograms, the server's full "net.* + runtime.*" snapshot, and the
// accounting block.  Exit status is non-zero unless accounting is
// exact: sent == ok + rejected, zero protocol errors, zero ordering or
// label mismatches, and the burst answered in full.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "report.h"
#include "core/format_policy.h"
#include "core/lda.h"
#include "data/synthetic.h"
#include "net/net.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "stats/normal.h"
#include "support/json.h"
#include "support/str.h"
#include "support/table.h"
#include "support/timer.h"

namespace {

using namespace ldafp;

struct Options {
  bool smoke = false;
  std::string out_path;  // empty: no JSON file
  std::size_t connections = 128;
  std::size_t requests_per_conn = 8192;  // 128 * 8192 = 1,048,576
  std::size_t window = 16;  // 128 * 16 = 2048 in flight < queue
  std::size_t open_connections = 64;
  std::size_t open_requests_per_conn = 800;
  double open_rate = 40000.0;  // aggregate req/s target
  std::size_t burst_connections = 4;
  std::size_t burst_per_conn = 1536;
  std::size_t io_threads = 2;
};

/// One servable model plus the probe set and locally-computed expected
/// labels every response is checked against.
struct ModelUnderTest {
  std::string name;
  std::uint16_t dim = 0;
  std::uint8_t integer_bits = 0;
  std::uint8_t frac_bits = 0;
  std::uint64_t version = 0;
  std::vector<std::vector<double>> probes;  ///< scaled feature rows
  std::vector<std::uint8_t> expected;       ///< classifier labels
};

/// Client-side outcome tally of one phase (merged across threads).
struct Tally {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;  ///< any non-ok response status
  std::uint64_t order_errors = 0;
  std::uint64_t label_errors = 0;
  std::uint64_t route_errors = 0;

  void merge(const Tally& other) {
    sent += other.sent;
    ok += other.ok;
    rejected += other.rejected;
    order_errors += other.order_errors;
    label_errors += other.label_errors;
    route_errors += other.route_errors;
  }
};

/// Trains a conventional quantized-LDA classifier at `word_length` bits
/// on the paper's synthetic task, installs it, and snapshots probes +
/// expected labels (what the wire must reproduce bit for bit).
ModelUnderTest install_model(runtime::ModelRegistry& registry,
                             const std::string& name, int word_length,
                             const data::LabeledDataset& dataset) {
  const double beta = stats::confidence_beta(0.9999);
  const core::TrainingSet raw = dataset.to_training_set();
  const core::FormatChoice choice =
      core::choose_format(raw, word_length, beta, 2);
  const core::TrainingSet scaled =
      core::scale_training_set(raw, choice.feature_scale);
  const core::LdaModel lda = core::fit_lda(scaled);
  const auto model_stats = core::fit_two_class_model(
      core::quantize_training_set(scaled, choice.format));
  const core::FixedClassifier clf =
      core::quantize_lda(lda, model_stats, beta, choice.format);
  const runtime::ModelHandle handle = registry.install(name, clf);

  ModelUnderTest model;
  model.name = name;
  model.dim = static_cast<std::uint16_t>(clf.dim());
  model.integer_bits =
      static_cast<std::uint8_t>(clf.format().integer_bits());
  model.frac_bits = static_cast<std::uint8_t>(clf.format().frac_bits());
  model.version = handle->version;
  const std::size_t probe_count = std::min<std::size_t>(dataset.size(), 64);
  for (std::size_t i = 0; i < probe_count; ++i) {
    linalg::Vector x = dataset.samples[i];
    x *= choice.feature_scale;
    std::vector<double> row(x.size());
    for (std::size_t j = 0; j < x.size(); ++j) row[j] = x[j];
    model.expected.push_back(
        static_cast<std::uint8_t>(clf.classify(x)));
    model.probes.push_back(std::move(row));
  }
  return model;
}

net::ScoreRequest make_request(const ModelUnderTest& model,
                               std::uint64_t id, std::size_t k) {
  net::ScoreRequest request;
  request.request_id = id;
  request.model = model.name;
  request.dim = model.dim;
  request.features = model.probes[k % model.probes.size()];
  return request;
}

/// Checks one response against the expectation FIFO; updates `tally`.
void check_response(const net::ScoreResponse& response,
                    const ModelUnderTest& model, std::uint64_t expected_id,
                    std::size_t k, Tally& tally) {
  if (response.request_id != expected_id) ++tally.order_errors;
  if (response.status == net::ResponseStatus::kOk) {
    ++tally.ok;
    if (response.model_version != model.version ||
        response.model_integer_bits != model.integer_bits ||
        response.model_frac_bits != model.frac_bits) {
      ++tally.route_errors;
    }
    if (response.results.size() != 1 ||
        response.results[0].label !=
            model.expected[k % model.expected.size()]) {
      ++tally.label_errors;
    }
  } else {
    ++tally.rejected;
  }
}

/// Closed loop: keep `window` requests in flight per connection.
Tally run_closed_loop(const std::string& host, std::uint16_t port,
                      const std::vector<ModelUnderTest>& models,
                      const Options& opts, obs::Histogram& latency) {
  Tally total;
  std::mutex merge_mu;
  std::vector<std::thread> threads;
  threads.reserve(opts.connections);
  for (std::size_t c = 0; c < opts.connections; ++c) {
    threads.emplace_back([&, c] {
      const ModelUnderTest& model = models[c % models.size()];
      net::Client client = net::Client::connect_to(host, port);
      Tally tally;
      std::deque<std::pair<std::uint64_t, support::WallTimer>> inflight;
      std::size_t sent = 0;
      std::size_t received = 0;
      std::vector<std::uint8_t> burst;
      while (received < opts.requests_per_conn) {
        // Encode the whole window refill into one buffer and write it
        // with a single syscall — the generator's job is to saturate
        // the server, not to burn its own CPU on per-frame write()s.
        burst.clear();
        while (sent < opts.requests_per_conn &&
               inflight.size() < opts.window) {
          net::encode(burst, make_request(model, sent + 1, sent));
          inflight.emplace_back(sent + 1, support::WallTimer());
          ++sent;
          ++tally.sent;
        }
        if (!burst.empty()) client.send_bytes(burst.data(), burst.size());
        const net::ScoreResponse response = client.recv();
        latency.record(inflight.front().second.seconds());
        check_response(response, model, inflight.front().first,
                       static_cast<std::size_t>(inflight.front().first - 1),
                       tally);
        inflight.pop_front();
        ++received;
      }
      std::lock_guard lock(merge_mu);
      total.merge(tally);
    });
  }
  for (std::thread& t : threads) t.join();
  return total;
}

/// Result of running the closed loop one or more times against one
/// server: every round's responses stay in the accounting tally, the
/// throughput kept is the best round's.
struct ClosedRuns {
  Tally tally;
  double seconds = 0.0;  ///< summed over rounds (phase wall time)
  double best_rps = 0.0;
};

/// Runs the closed loop `rounds` times back to back.  Full runs use two
/// rounds: on a loaded (or single-core) host one round's number is
/// mostly scheduler noise plus cold-start, and best-of-rounds keeps the
/// warm figure.
ClosedRuns run_closed_rounds(const std::string& host, std::uint16_t port,
                             const std::vector<ModelUnderTest>& models,
                             const Options& opts, std::size_t rounds,
                             obs::Histogram& latency) {
  ClosedRuns out;
  for (std::size_t r = 0; r < rounds; ++r) {
    support::WallTimer timer;
    const Tally round = run_closed_loop(host, port, models, opts, latency);
    const double seconds = timer.seconds();
    if (seconds > 0.0) {
      out.best_rps = std::max(
          out.best_rps, static_cast<double>(round.sent) / seconds);
    }
    out.seconds += seconds;
    out.tally.merge(round);
  }
  return out;
}

/// Open loop: sends are paced by the clock, independent of responses
/// (which are drained opportunistically and by a final blocking sweep).
Tally run_open_loop(const std::string& host, std::uint16_t port,
                    const std::vector<ModelUnderTest>& models,
                    const Options& opts, obs::Histogram& latency) {
  using clock = std::chrono::steady_clock;
  const auto interval = std::chrono::nanoseconds(static_cast<long long>(
      1e9 * static_cast<double>(opts.open_connections) / opts.open_rate));
  Tally total;
  std::mutex merge_mu;
  std::vector<std::thread> threads;
  threads.reserve(opts.open_connections);
  for (std::size_t c = 0; c < opts.open_connections; ++c) {
    threads.emplace_back([&, c] {
      const ModelUnderTest& model = models[c % models.size()];
      net::Client client = net::Client::connect_to(host, port);
      Tally tally;
      std::deque<std::pair<std::uint64_t, support::WallTimer>> inflight;
      const auto handle_response = [&](const net::ScoreResponse& r) {
        latency.record(inflight.front().second.seconds());
        check_response(r, model, inflight.front().first,
                       static_cast<std::size_t>(inflight.front().first - 1),
                       tally);
        inflight.pop_front();
      };
      auto next_send = clock::now();
      for (std::size_t k = 0; k < opts.open_requests_per_conn; ++k) {
        net::ScoreResponse response;
        while (client.try_recv(response)) handle_response(response);
        std::this_thread::sleep_until(next_send);
        next_send += interval;
        client.send(make_request(model, k + 1, k));
        inflight.emplace_back(k + 1, support::WallTimer());
        ++tally.sent;
      }
      while (!inflight.empty()) handle_response(client.recv());
      std::lock_guard lock(merge_mu);
      total.merge(tally);
    });
  }
  for (std::thread& t : threads) t.join();
  return total;
}

/// Burst: each connection writes its whole burst in one send, then
/// reads every response back, checking order and labels.
Tally run_burst(const std::string& host, std::uint16_t port,
                const std::vector<ModelUnderTest>& models,
                const Options& opts) {
  Tally total;
  std::mutex merge_mu;
  std::vector<std::thread> threads;
  threads.reserve(opts.burst_connections);
  for (std::size_t c = 0; c < opts.burst_connections; ++c) {
    threads.emplace_back([&, c] {
      const ModelUnderTest& model = models[c % models.size()];
      net::Client client = net::Client::connect_to(host, port);
      Tally tally;
      std::vector<std::uint8_t> burst;
      for (std::size_t k = 0; k < opts.burst_per_conn; ++k) {
        net::encode(burst, make_request(model, k + 1, k));
        ++tally.sent;
      }
      client.send_bytes(burst.data(), burst.size());
      for (std::size_t k = 0; k < opts.burst_per_conn; ++k) {
        check_response(client.recv(), model, k + 1, k, tally);
      }
      std::lock_guard lock(merge_mu);
      total.merge(tally);
    });
  }
  for (std::thread& t : threads) t.join();
  return total;
}

void write_phase(support::JsonWriter& json, const char* phase,
                 std::size_t connections, const Tally& tally,
                 double seconds) {
  json.begin_object();
  json.kv("phase", phase);
  json.kv("connections", static_cast<std::uint64_t>(connections));
  json.kv("sent", tally.sent);
  json.kv("ok", tally.ok);
  json.kv("rejected", tally.rejected);
  json.kv("order_errors", tally.order_errors);
  json.kv("label_errors", tally.label_errors);
  json.kv("route_errors", tally.route_errors);
  json.kv("seconds", seconds);
  json.kv("throughput_rps",
          seconds > 0.0 ? static_cast<double>(tally.sent) / seconds : 0.0);
  json.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const auto size_flag = [&](const char* name, std::size_t& out) {
      if (std::strcmp(argv[i], name) == 0 && i + 1 < argc) {
        out = static_cast<std::size_t>(std::atoll(argv[++i]));
        return true;
      }
      return false;
    };
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opts.smoke = true;
      opts.connections = 24;
      opts.requests_per_conn = 400;
      opts.window = 16;
      opts.open_connections = 8;
      opts.open_requests_per_conn = 100;
      opts.open_rate = 20000.0;
      opts.burst_per_conn = 512;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opts.out_path = argv[++i];
    } else if (std::strcmp(argv[i], "--open-rate") == 0 && i + 1 < argc) {
      opts.open_rate = std::atof(argv[++i]);
    } else if (size_flag("--connections", opts.connections) ||
               size_flag("--requests", opts.requests_per_conn) ||
               size_flag("--window", opts.window) ||
               size_flag("--open-connections", opts.open_connections) ||
               size_flag("--open-requests", opts.open_requests_per_conn) ||
               size_flag("--io-threads", opts.io_threads) ||
               size_flag("--burst", opts.burst_per_conn)) {
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--out FILE] [--connections C] "
                   "[--requests R] [--window W] [--open-connections C] "
                   "[--open-requests R] [--open-rate RPS] "
                   "[--io-threads N] [--burst R]\n",
                   argv[0]);
      return 2;
    }
  }
  // Deterministic models: two word lengths under distinct names, so
  // traffic exercises multi-model routing on every other connection.
  support::Rng rng(42);
  const data::LabeledDataset dataset = data::make_synthetic(1500, rng);
  runtime::ModelRegistry registry;
  std::vector<ModelUnderTest> models;
  models.push_back(install_model(registry, "synthetic-w6", 6, dataset));
  models.push_back(install_model(registry, "synthetic-w8", 8, dataset));

  // Server + engine share one metrics registry: the BENCH artifact's
  // "server_metrics" block is the full runtime.* + net.* snapshot.
  obs::MetricsRegistry server_metrics;
  obs::Sink server_sink;
  server_sink.metrics = &server_metrics;
  // The loops score through the engine's synchronous call; its worker
  // pool serves only the future adapter, which this bench never uses.
  runtime::EngineOptions engine_options;
  engine_options.workers = 1;
  engine_options.sink = &server_sink;
  runtime::InferenceEngine engine(engine_options);

  net::ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  server_options.io_threads = opts.io_threads;
  server_options.default_model = models[0].name;
  server_options.engine = &engine;
  server_options.registry = &registry;
  server_options.sink = &server_sink;
  net::Server server(server_options);
  server.start();
  const std::string host = server_options.host;
  const std::uint16_t port = server.port();
  std::printf("serve_load: %s:%u, %zu io threads\n", host.c_str(), port,
              opts.io_threads);

  obs::MetricsRegistry client_metrics;
  obs::Histogram& closed_latency = client_metrics.histogram(
      "load.latency", {{"phase", "closed"}});
  obs::Histogram& open_latency = client_metrics.histogram(
      "load.latency", {{"phase", "open"}});

  const std::size_t closed_rounds = opts.smoke ? 1 : 2;
  const ClosedRuns closed_runs = run_closed_rounds(
      host, port, models, opts, closed_rounds, closed_latency);
  const Tally& closed = closed_runs.tally;
  const double closed_seconds = closed_runs.seconds;

  support::WallTimer open_timer;
  const Tally open =
      run_open_loop(host, port, models, opts, open_latency);
  const double open_seconds = open_timer.seconds();

  support::WallTimer burst_timer;
  const Tally burst = run_burst(host, port, models, opts);
  const double burst_seconds = burst_timer.seconds();

  server.stop();
  engine.shutdown();

  // -- accounting: every request sent is accounted exactly once --
  Tally all;
  all.merge(closed);
  all.merge(open);
  all.merge(burst);
  const obs::MetricsSnapshot server_snapshot = engine.stats().snapshot();
  const std::uint64_t protocol_errors =
      server_snapshot.counter_value("net.protocol_errors");
  const std::uint64_t responses_sent =
      server_snapshot.counter_value("net.responses_sent");
  const bool exact = all.sent == all.ok + all.rejected &&
                     responses_sent == all.sent;
  const bool clean = all.order_errors == 0 && all.label_errors == 0 &&
                     all.route_errors == 0 && protocol_errors == 0;
  const bool burst_answered = burst.ok == burst.sent &&
                              burst.sent == opts.burst_connections *
                                                opts.burst_per_conn;

  const auto closed_hist = closed_latency.snapshot();
  const auto open_hist = open_latency.snapshot();
  support::TextTable table({"phase", "conns", "sent", "ok", "rejected",
                            "rps", "p50", "p99", "p999"});
  const auto row = [&](const char* phase, std::size_t conns,
                       const Tally& t, double seconds,
                       const obs::Histogram::Snapshot* hist) {
    table.add_row(
        {phase, std::to_string(conns), std::to_string(t.sent),
         std::to_string(t.ok), std::to_string(t.rejected),
         seconds > 0.0
             ? support::format_double(
                   static_cast<double>(t.sent) / seconds, 0)
             : "-",
         hist != nullptr
             ? support::format_double(hist->quantile(0.5) * 1e6, 1) + "us"
             : "-",
         hist != nullptr
             ? support::format_double(hist->quantile(0.99) * 1e6, 1) + "us"
             : "-",
         hist != nullptr
             ? support::format_double(hist->quantile(0.999) * 1e6, 1) +
                   "us"
             : "-"});
  };
  row("closed", opts.connections, closed, closed_seconds, &closed_hist);
  row("open", opts.open_connections, open, open_seconds, &open_hist);
  row("burst", opts.burst_connections, burst, burst_seconds, nullptr);
  std::printf("%s\n", table.to_string().c_str());
  const double closed_rps = closed_runs.best_rps;
  std::printf("accounting: sent %llu == ok %llu + rejected %llu : %s\n",
              static_cast<unsigned long long>(all.sent),
              static_cast<unsigned long long>(all.ok),
              static_cast<unsigned long long>(all.rejected),
              exact ? "exact" : "MISMATCH");
  std::printf("protocol errors %llu, order errors %llu, label errors "
              "%llu, route errors %llu, burst ok %llu of %llu\n",
              static_cast<unsigned long long>(protocol_errors),
              static_cast<unsigned long long>(all.order_errors),
              static_cast<unsigned long long>(all.label_errors),
              static_cast<unsigned long long>(all.route_errors),
              static_cast<unsigned long long>(burst.ok),
              static_cast<unsigned long long>(burst.sent));

  // Server-side stage table: mean microseconds per response of each
  // serve stage; the stamps telescope, so the stages sum to the total.
  const auto mean_us = [&](const char* name, const char* stage) {
    const auto* h = stage == nullptr
                        ? server_snapshot.find_histogram(name)
                        : server_snapshot.find_histogram(
                              name, {{"stage", stage}});
    return h == nullptr ? 0.0 : h->hist.mean() * 1e6;
  };
  const char* const stages[] = {"pack", "score", "encode"};
  support::TextTable stage_table({"stage", "mean"});
  for (const char* stage : stages) {
    stage_table.add_row(
        {stage,
         support::format_double(mean_us("net.serve_stage", stage), 3) +
             "us"});
  }
  stage_table.add_row(
      {"total",
       support::format_double(mean_us("net.serve_latency", nullptr), 3) +
           "us"});
  std::printf("%s\n", stage_table.to_string().c_str());

  std::ostringstream report;
  support::JsonWriter json(report);
  json.begin_object();
  json.kv("bench", "serve_load");
  json.kv("smoke", opts.smoke);
  bench::write_host_header(json);
  json.kv("io_threads", static_cast<std::uint64_t>(opts.io_threads));
  json.key("phases");
  json.begin_array();
  write_phase(json, "closed", opts.connections, closed, closed_seconds);
  write_phase(json, "open", opts.open_connections, open, open_seconds);
  write_phase(json, "burst", opts.burst_connections, burst,
              burst_seconds);
  json.end_array();
  json.kv("closed_rounds", static_cast<std::uint64_t>(closed_rounds));
  json.kv("closed_rps_best", closed_rps);
  json.key("serve_stage_mean_us");
  json.begin_object();
  for (const char* stage : stages) {
    json.kv(stage, mean_us("net.serve_stage", stage));
  }
  json.kv("total", mean_us("net.serve_latency", nullptr));
  json.end_object();
  // Occupancy of each scored request (fraction of max_batch filled) —
  // the CI smoke step exports this block.
  {
    const auto occupancy = engine.stats().batch_occupancy.snapshot();
    json.key("batch_occupancy");
    json.begin_object();
    json.kv("samples", occupancy.total_count);
    json.kv("p50", occupancy.quantile(0.5));
    json.kv("p90", occupancy.quantile(0.9));
    json.end_object();
  }
  json.key("client_metrics");
  obs::write_json(json, client_metrics.snapshot());
  json.key("server_metrics");
  obs::write_json(json, server_snapshot);
  json.key("accounting");
  json.begin_object();
  json.kv("sent", all.sent);
  json.kv("ok", all.ok);
  json.kv("rejected", all.rejected);
  json.kv("responses_sent", responses_sent);
  json.kv("protocol_errors", protocol_errors);
  json.kv("exact", exact);
  json.kv("clean", clean);
  json.kv("burst_answered", burst_answered);
  json.end_object();
  json.end_object();
  if (!bench::write_report(opts.out_path, report.str())) return 2;

  if (!exact || !clean || !burst_answered) {
    std::fprintf(stderr, "serve_load FAILED: exact=%d clean=%d "
                 "burst_answered=%d\n",
                 exact, clean, burst_answered);
    return 1;
  }
  return 0;
}
