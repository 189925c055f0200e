#include "net/conn.h"

#include <sys/socket.h>

#include <cerrno>
#include <utility>

#include "support/wire.h"

namespace ldafp::net {

namespace {
/// Socket read chunk; also the compaction threshold for the buffers.
constexpr std::size_t kIoChunk = 64u * 1024;
}  // namespace

std::uint64_t LoopContext::adopt(Connection* conn) {
  const std::uint64_t id = next_conn_id++;
  conns.emplace(id, conn);
  return id;
}

void LoopContext::forget(std::uint64_t id) { conns.erase(id); }

std::size_t LoopContext::drain_completions() {
  std::size_t routed = 0;
  runtime::RequestBlock* block = completions->drain();
  while (block != nullptr) {
    runtime::RequestBlock* next = block->next;
    block->next = nullptr;
    const auto it = conns.find(block->conn_id);
    if (it != conns.end()) {
      it->second->on_completion(block);
    } else {
      // The submitter closed while its request was in flight; nobody
      // will encode this reply — straight back to the freelist.
      pool.recycle(block);
    }
    ++routed;
    block = next;
  }
  return routed;
}

Connection::Connection(int fd, const ServeContext* ctx, LoopContext* loop)
    : fd_(fd), ctx_(ctx), loop_(loop) {
  ctx_->metrics->connections_opened.increment();
  conn_id_ = loop_->adopt(this);
}

Connection::~Connection() {
  loop_->forget(conn_id_);
  for (Pending& pending : pending_) {
    if (pending.block != nullptr && pending.ready) {
      // Ready blocks are ours again; un-ready ones still belong to the
      // engine and recycle as orphans when their completion routes.
      loop_->pool.recycle(pending.block);
      pending.block = nullptr;
    }
  }
}

void Connection::on_readable() {
  std::uint8_t chunk[kIoChunk];
  while (!dead_ && !close_after_flush_) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      ctx_->metrics->bytes_rx.add(static_cast<std::uint64_t>(n));
      ingest(chunk, static_cast<std::size_t>(n));
      if (static_cast<std::size_t>(n) < sizeof(chunk)) return;
      continue;
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
  while (true) {
    ScoreRequestView view;
    std::size_t consumed = 0;
    FrameError error = FrameError::kNone;
    const DecodeState state =
        decode_request_view(rbuf_.data() + rpos_, rbuf_.size() - rpos_,
                            ctx_->max_frame_bytes, view, consumed, error);
    if (state == DecodeState::kNeedMore) break;
    if (state == DecodeState::kError) {
      fail_protocol(error);
      return;
    }
    rpos_ += consumed;
    // The view aliases rbuf_; handle_request quantizes the payload into
    // a packed block before returning, so nothing outlives the buffer.
    handle_request(view);
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

void Connection::handle_request(const ScoreRequestView& request) {
  runtime::ModelHandle model;
  const ResponseStatus check = admission_check(request, model);
  if (check != ResponseStatus::kOk) {
    enqueue_immediate(request.request_id, check, model);
    return;
  }

  runtime::RequestBlock* block = loop_->pool.acquire();
  block->model = model;
  if (!model->scorer.pack_from_f64_le(block->batch, request.features_le,
                                      request.sample_count)) {
    // NaN in the payload: reject at ingest — letting it through would
    // trip the quantizer's NaN check inside a scoring worker.
    block->batch.clear();
    loop_->pool.recycle(block);
    enqueue_immediate(request.request_id, ResponseStatus::kInvalidRequest,
                      model);
    return;
  }
  block->completions = loop_->completions;
  block->conn_id = conn_id_;
  block->seq = head_seq_ + pending_.size();
  const runtime::SubmitStatus status = ctx_->engine->submit(block);
  if (status == runtime::SubmitStatus::kAccepted) {
    ctx_->metrics->accepted.increment();
    Pending pending;
    pending.response.request_id = request.request_id;
    pending.response.status = ResponseStatus::kOk;
    pending.model = std::move(model);
    pending.block = block;
    pending_.push_back(std::move(pending));
    return;
  }
  loop_->pool.recycle(block);  // admission failed; ownership never left
  switch (status) {
    case runtime::SubmitStatus::kQueueFull:
      enqueue_immediate(request.request_id, ResponseStatus::kRejected,
                        model);
      return;
    case runtime::SubmitStatus::kShuttingDown:
      enqueue_immediate(request.request_id, ResponseStatus::kShuttingDown,
                        model);
      return;
    default:
      enqueue_immediate(request.request_id, ResponseStatus::kInvalidRequest,
                        model);
      return;
  }
}

void Connection::enqueue_immediate(std::uint64_t request_id,
                                   ResponseStatus status,
                                   const runtime::ModelHandle& model) {
  // Rejections are accounted at decision time, not flush time, so the
  // sent == ok + rejected invariant holds even when the client hangs up
  // before reading its failure.
  ctx_->metrics->rejected(status).increment();
  Pending pending;
  pending.immediate = true;
  pending.response.request_id = request_id;
  pending.response.status = status;
  if (model != nullptr) {
    pending.response.model_version = model->version;
    pending.response.model_integer_bits = static_cast<std::uint8_t>(
        model->classifier.format().integer_bits());
    pending.response.model_frac_bits =
        static_cast<std::uint8_t>(model->classifier.format().frac_bits());
  }
  pending_.push_back(std::move(pending));
}

void Connection::fail_protocol(FrameError error) {
  (void)error;  // reason is visible to the peer only as the close
  ctx_->metrics->protocol_errors.increment();
  // Terminal notice: request_id 0 (the offending frame's id may not
  // even have parsed), then close once it flushes.  Requests already
  // pipelined ahead of the bad bytes still complete first — they sit
  // earlier in the pending queue.
  Pending pending;
  pending.immediate = true;
  pending.response.request_id = 0;
  pending.response.status = ResponseStatus::kProtocolError;
  pending_.push_back(std::move(pending));
  close_after_flush_ = true;
}

void Connection::on_completion(runtime::RequestBlock* block) {
  // The block's sequence number names its slot; the pointer check
  // confirms the slot really is this block's.  Unsigned wrap sends a
  // seq below head_seq_ out of range too.
  const std::uint64_t index = block->seq - head_seq_;
  if (index < pending_.size() && pending_[index].block == block) {
    pending_[index].ready = true;
    return;
  }
  // No pending slot claims this block (the pipeline was torn down
  // around it); recycle rather than leak.
  loop_->pool.recycle(block);
}

bool Connection::pump() {
  bool encoded = false;
  while (!pending_.empty() && !dead_) {
    Pending& head = pending_.front();
    if (!head.immediate) {
      // The completion router flips `ready`; no polling.
      if (!head.ready) break;
      head.response.model_version = head.model->version;
      head.response.model_integer_bits = static_cast<std::uint8_t>(
          head.model->classifier.format().integer_bits());
      head.response.model_frac_bits = static_cast<std::uint8_t>(
          head.model->classifier.format().frac_bits());
    }
    encode_response(head);
    pending_.pop_front();
    ++head_seq_;
    encoded = true;
  }
  return encoded;
}

void Connection::encode_response(Pending& pending) {
  if (pending.block != nullptr) {
    // Stream the frame straight from the pooled block's results — no
    // WireResult staging vector.
    const std::vector<runtime::ScoreResult>& results =
        pending.block->results;
    const std::size_t prefix = begin_response_frame(
        wbuf_, pending.response,
        static_cast<std::uint16_t>(results.size()));
    for (const runtime::ScoreResult& r : results) {
      support::put_u8(wbuf_, static_cast<std::uint8_t>(r.label));
      support::put_i64le(wbuf_, r.projection_raw);
    }
    finish_response_frame(wbuf_, prefix);
    loop_->pool.recycle(pending.block);
    pending.block = nullptr;
  } else {
    encode(wbuf_, pending.response);
  }
  ctx_->metrics->responses_sent.increment();
  ctx_->metrics->serve_latency.record(pending.started.seconds());
  if (unflushed_bytes() > ctx_->max_write_buffer) {
    // The client is not draining its socket; cut it loose instead of
    // buffering without bound (the response just encoded is lost, which
    // is the documented slow-client contract).
    ctx_->metrics->slow_client_disconnects.increment();
    dead_ = true;
  }
}

}  // namespace ldafp::net
