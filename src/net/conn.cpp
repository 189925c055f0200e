#include "net/conn.h"

#include <sys/socket.h>

#include <cerrno>

#include "support/wire.h"

namespace ldafp::net {

namespace {
/// Socket read chunk; also the compaction threshold for the buffers.
constexpr std::size_t kIoChunk = 64u * 1024;

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
}  // namespace

Connection::Connection(int fd, const ServeContext* ctx, LoopContext* loop)
    : fd_(fd), ctx_(ctx), loop_(loop) {
  ctx_->metrics->connections_opened.increment();
}

void Connection::on_readable() {
  std::uint8_t chunk[kIoChunk];
  while (!dead_ && !close_after_flush_) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      ctx_->metrics->bytes_rx.add(static_cast<std::uint64_t>(n));
      ingest(chunk, static_cast<std::size_t>(n));
      return;
    }
    if (n == 0) {  // orderly EOF
      dead_ = true;
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    dead_ = true;  // ECONNRESET and friends
    return;
  }
}

void Connection::flush() {
  while (!dead_ && wpos_ < wbuf_.size()) {
    const ssize_t n = ::send(fd_, wbuf_.data() + wpos_,
                             wbuf_.size() - wpos_, MSG_NOSIGNAL);
    if (n > 0) {
      ctx_->metrics->bytes_tx.add(static_cast<std::uint64_t>(n));
      consume_output(static_cast<std::size_t>(n));
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    dead_ = true;  // client vanished mid-write
    return;
  }
}

void Connection::consume_output(std::size_t n) {
  wpos_ += n;
  if (wpos_ >= wbuf_.size()) {
    wbuf_.clear();
    wpos_ = 0;
  } else if (wpos_ >= kIoChunk) {
    wbuf_.erase(wbuf_.begin(),
                wbuf_.begin() + static_cast<std::ptrdiff_t>(wpos_));
    wpos_ = 0;
  }
}

void Connection::ingest(const std::uint8_t* data, std::size_t n) {
  if (dead_ || close_after_flush_) return;  // stream already condemned
  rbuf_.insert(rbuf_.end(), data, data + n);
  while (!dead_ && !close_after_flush_) {
    ScoreRequestView view;
    std::size_t consumed = 0;
    FrameError error = FrameError::kNone;
    const DecodeState state =
        decode_request_view(rbuf_.data() + rpos_, rbuf_.size() - rpos_,
                            ctx_->max_frame_bytes, view, consumed, error);
    if (state == DecodeState::kNeedMore) break;
    if (state == DecodeState::kError) {
      // The reason is visible to the peer only as the close.
      fail_protocol();
      return;
    }
    rpos_ += consumed;
    // The view aliases rbuf_; the request is scored and encoded before
    // handle_request returns, so nothing outlives the buffer.
    handle_request(view, Clock::now());
  }
  if (rpos_ == rbuf_.size()) {
    rbuf_.clear();
    rpos_ = 0;
  } else if (rpos_ >= kIoChunk) {
    rbuf_.erase(rbuf_.begin(),
                rbuf_.begin() + static_cast<std::ptrdiff_t>(rpos_));
    rpos_ = 0;
  }
}

ResponseStatus Connection::admission_check(const ScoreRequestView& request,
                                           runtime::ModelHandle& model) {
  const std::string_view name =
      request.model.empty() ? std::string_view(ctx_->default_model)
                            : request.model;
  model = ctx_->registry->get(name);
  if (model == nullptr) return ResponseStatus::kUnknownModel;
  if (request.sample_count == 0 || request.dim != model->classifier.dim()) {
    return ResponseStatus::kInvalidRequest;
  }
  const fixed::FixedFormat& fmt = model->classifier.format();
  if ((request.expected_integer_bits != 0 ||
       request.expected_frac_bits != 0) &&
      (request.expected_integer_bits != fmt.integer_bits() ||
       request.expected_frac_bits != fmt.frac_bits())) {
    return ResponseStatus::kFormatMismatch;
  }
  if (ctx_->draining != nullptr &&
      ctx_->draining->load(std::memory_order_acquire)) {
    return ResponseStatus::kShuttingDown;
  }
  return ResponseStatus::kOk;
}

void Connection::handle_request(const ScoreRequestView& request,
                                Clock::time_point decoded) {
  ScoreResponse response;
  response.request_id = request.request_id;
  runtime::ModelHandle model;
  response.status = admission_check(request, model);
  if (model != nullptr) {
    response.model_version = model->version;
    response.model_integer_bits = static_cast<std::uint8_t>(
        model->classifier.format().integer_bits());
    response.model_frac_bits =
        static_cast<std::uint8_t>(model->classifier.format().frac_bits());
  }
  if (response.status != ResponseStatus::kOk) {
    respond_now(response, decoded, Clock::now());
    return;
  }

  runtime::PackedBatch& batch = loop_->batch;
  batch.clear();
  if (!model->scorer.pack_from_f64_le(batch, request.features_le,
                                      request.sample_count)) {
    // NaN in the payload: a per-request failure, not a fault in the
    // quantizer.
    response.status = ResponseStatus::kInvalidRequest;
    respond_now(response, decoded, Clock::now());
    return;
  }
  const Clock::time_point packed = Clock::now();
  switch (ctx_->engine->score(model, batch, loop_->results)) {
    case runtime::SubmitStatus::kAccepted:
      break;
    case runtime::SubmitStatus::kShuttingDown:
      response.status = ResponseStatus::kShuttingDown;
      respond_now(response, decoded, packed);
      return;
    default:
      response.status = ResponseStatus::kInvalidRequest;
      respond_now(response, decoded, packed);
      return;
  }
  const Clock::time_point scored = Clock::now();
  ctx_->metrics->accepted.increment();

  // Stream the frame straight from the loop's result buffer — no
  // WireResult staging vector.
  const std::vector<runtime::ScoreResult>& results = loop_->results;
  const std::size_t prefix = begin_response_frame(
      wbuf_, response, static_cast<std::uint16_t>(results.size()));
  for (const runtime::ScoreResult& r : results) {
    support::put_u8(wbuf_, static_cast<std::uint8_t>(r.label));
    support::put_i64le(wbuf_, r.projection_raw);
  }
  finish_response_frame(wbuf_, prefix);
  finish_response(decoded, packed, scored);
}

void Connection::respond_now(const ScoreResponse& response,
                             Clock::time_point decoded,
                             Clock::time_point decided) {
  // Rejections are accounted at decision time, like acceptances, so
  // the sent == ok + rejected invariant holds even when the client
  // hangs up before reading its failure.
  if (response.status != ResponseStatus::kProtocolError) {
    ctx_->metrics->rejected(response.status).increment();
  }
  encode(wbuf_, response);
  finish_response(decoded, decided, decided);
}

void Connection::fail_protocol() {
  ctx_->metrics->protocol_errors.increment();
  // Terminal notice: request_id 0 (the offending frame's id may not
  // even have parsed), then close once it flushes.  Requests pipelined
  // ahead of the bad bytes were already answered.
  ScoreResponse response;
  response.request_id = 0;
  response.status = ResponseStatus::kProtocolError;
  const Clock::time_point now = Clock::now();
  respond_now(response, now, now);
  close_after_flush_ = true;
}

void Connection::finish_response(Clock::time_point decoded,
                                 Clock::time_point packed,
                                 Clock::time_point scored) {
  const Clock::time_point encoded = Clock::now();
  NetMetrics& metrics = *ctx_->metrics;
  metrics.responses_sent.increment();
  metrics.serve_stage_pack.record(seconds_between(decoded, packed));
  metrics.serve_stage_score.record(seconds_between(packed, scored));
  metrics.serve_stage_encode.record(seconds_between(scored, encoded));
  metrics.serve_latency.record(seconds_between(decoded, encoded));
  if (unflushed_bytes() > ctx_->max_write_buffer) {
    // The client is not draining its socket; cut it loose instead of
    // buffering without bound (the response just encoded is lost, which
    // is the documented slow-client contract).
    metrics.slow_client_disconnects.increment();
    dead_ = true;
  }
}

}  // namespace ldafp::net
