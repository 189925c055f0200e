// The ldafp serving wire protocol (DESIGN.md §12).
//
// Frames are length-prefixed binary records, little-endian throughout
// (support/wire.h).  Every frame — request or response — carries the
// same 32-byte fixed header behind the u32 length prefix:
//
//   offset  size  field
//   0       4     frame_len      bytes that follow this field
//   4       4     magic          0x5046444C ("LDFP" on the wire)
//   8       2     version        protocol version, currently 1
//   10      1     type           1 = score request, 2 = score response
//   11      1     status         ResponseStatus (0 in requests)
//   12      8     request_id     client-chosen, echoed verbatim
//   20      8     model_version  0 in requests; served version in responses
//   28      1     integer_bits   FixedFormat tag (request: expected, 0 = any;
//   29      1     frac_bits       response: the served model's format)
//   30      1     model_len      request: model-name byte count; response 0
//   31      1     reserved       must be 0
//   32      2     sample_count   feature vectors in this request
//   34      2     dim            features per vector
//
// Request payload:  model_len name bytes, then sample_count*dim f64 LE
// features (row-major).  Response payload: sample_count records of
// { u8 label, i64 projection_raw } — the exact W-bit datapath bits the
// comparator saw, so clients can audit margins.
//
// Error taxonomy: *frame* errors (bad magic/version/length — the stream
// cannot be resynchronized) are terminal: the server answers with a
// status-only response (request_id 0) and closes.  *Request* errors
// (unknown model, dimension mismatch, backpressure) are per-request:
// the response carries the failure status and the connection lives on.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "fixed/format.h"
#include "support/error.h"

namespace ldafp::net {

/// "LDFP" when the u32 is written little-endian.
inline constexpr std::uint32_t kMagic = 0x5046444C;
inline constexpr std::uint16_t kProtocolVersion = 1;
/// Fixed header bytes counted by frame_len (excludes the prefix itself).
inline constexpr std::size_t kHeaderBytes = 32;
/// Bytes of length prefix + header before any payload.
inline constexpr std::size_t kFrameOverhead = 4 + kHeaderBytes;
/// Absolute ceiling on frame_len; servers may configure a lower one.
inline constexpr std::size_t kMaxFrameBytes = 1u << 20;

/// Frame type tag.
enum class MessageType : std::uint8_t {
  kScoreRequest = 1,
  kScoreResponse = 2,
};

/// Per-request (and terminal) outcome codes carried in responses.
enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  kRejected = 1,       ///< overload — retry later (the run-to-completion
                       ///< server never sends it; kept on the wire)
  kUnknownModel = 2,   ///< no such model in the registry
  kInvalidRequest = 3, ///< zero samples or dimension mismatch
  kFormatMismatch = 4, ///< expected FixedFormat tag != served model's
  kShuttingDown = 5,   ///< server draining; connection will close
  kProtocolError = 6,  ///< unrecoverable framing error; connection closes
  kInternalError = 7,
};

/// Short display name ("ok", "rejected", ...).
const char* to_string(ResponseStatus status);

/// Why a frame could not be decoded.
enum class FrameError : std::uint8_t {
  kNone = 0,
  kBadMagic,
  kBadVersion,
  kBadType,
  kOversized,       ///< frame_len exceeds the configured maximum
  kRuntFrame,       ///< frame_len too short to hold the header
  kLengthMismatch,  ///< frame_len disagrees with the counted payload
  kBadPayload,      ///< truncated/inconsistent payload fields
};

/// Short display name ("bad-magic", ...), used as a metrics label.
const char* to_string(FrameError error);

/// One scoring request: `model` may be empty to address the server's
/// default model; `expected` (word-length 0 = unset) lets a client pin
/// the FixedFormat it calibrated its features against.
struct ScoreRequest {
  std::uint64_t request_id = 0;
  std::string model;
  std::uint8_t expected_integer_bits = 0;  ///< 0 = any format accepted
  std::uint8_t expected_frac_bits = 0;
  std::uint16_t dim = 0;
  /// sample_count * dim values, row-major; sample_count is derived.
  std::vector<double> features;

  std::uint16_t sample_count() const {
    return dim == 0 ? 0
                    : static_cast<std::uint16_t>(features.size() / dim);
  }
};

/// One scored sample echoed to the client.
struct WireResult {
  std::uint8_t label = 0;
  std::int64_t projection_raw = 0;
};

/// Response to one ScoreRequest (results empty unless status == kOk).
struct ScoreResponse {
  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::kInternalError;
  std::uint64_t model_version = 0;
  std::uint8_t model_integer_bits = 0;
  std::uint8_t model_frac_bits = 0;
  std::vector<WireResult> results;
};

/// Appends one encoded request frame to `out`.  Throws
/// InvalidArgumentError when the request cannot be represented (model
/// name > 255 bytes, feature count not a multiple of dim, more than
/// 65535 samples, or a frame above kMaxFrameBytes).
void encode(std::vector<std::uint8_t>& out, const ScoreRequest& request);

/// Appends one encoded response frame to `out`.
void encode(std::vector<std::uint8_t>& out, const ScoreResponse& response);

/// Outcome of one decode attempt over a byte stream.
enum class DecodeState : std::uint8_t {
  kNeedMore,  ///< not enough buffered bytes yet; consumed == 0
  kFrame,     ///< one frame decoded; consumed == its total wire size
  kError,     ///< unrecoverable framing error (see FrameError)
};

/// Decoded view of either frame kind; exactly one side is populated,
/// according to `type`.
struct DecodedFrame {
  MessageType type = MessageType::kScoreRequest;
  ScoreRequest request;
  ScoreResponse response;
};

/// Incremental frame decoder: call with whatever prefix of the stream
/// is buffered.  Validates magic/version eagerly (a garbage stream is
/// rejected after 10 bytes, without waiting for a "frame" to complete)
/// and the payload exactly once the full frame is buffered.  On kFrame,
/// `consumed` is how many leading bytes to drop from the stream; on
/// kError the connection must be torn down — the stream cannot be
/// resynchronized.  `max_frame` caps frame_len (clamped to
/// kMaxFrameBytes).
DecodeState decode_frame(const std::uint8_t* data, std::size_t size,
                         std::size_t max_frame, DecodedFrame& out,
                         std::size_t& consumed, FrameError& error);

/// Borrowed view of one score-request frame: `model` and `features_le`
/// alias the caller's receive buffer and are valid only until it
/// mutates.  The serve path quantizes features straight from
/// `features_le` into packed tiles (BatchScorer::pack_from_f64_le)
/// without ever materializing a double[] copy.
struct ScoreRequestView {
  std::uint64_t request_id = 0;
  std::string_view model;
  std::uint8_t expected_integer_bits = 0;  ///< 0 = any format accepted
  std::uint8_t expected_frac_bits = 0;
  std::uint16_t sample_count = 0;
  std::uint16_t dim = 0;
  /// sample_count * dim f64 LE values, row-major, aliasing the stream.
  const std::uint8_t* features_le = nullptr;
};

/// Zero-copy request decoder: identical framing validation and state
/// machine as decode_frame, but only score-request frames decode (a
/// peer pushing response frames at a server fails kBadType, exactly as
/// the serving connection treats them) and the payload comes back as
/// views instead of copies.
DecodeState decode_request_view(const std::uint8_t* data, std::size_t size,
                                std::size_t max_frame, ScoreRequestView& out,
                                std::size_t& consumed, FrameError& error);

/// Streaming response encode for the serve hot path: appends the frame
/// prefix + header announcing `sample_count` result records (ignores
/// `response.results`), returning a token for finish_response_frame.
/// The caller appends exactly sample_count { u8 label,
/// i64 projection_raw } records (support::put_u8 / put_i64le) in
/// between, which lets pooled ScoreResults encode without materializing
/// WireResult rows.
std::size_t begin_response_frame(std::vector<std::uint8_t>& out,
                                 const ScoreResponse& response,
                                 std::uint16_t sample_count);

/// Patches the length prefix begun by begin_response_frame.
void finish_response_frame(std::vector<std::uint8_t>& out,
                           std::size_t prefix);

}  // namespace ldafp::net
