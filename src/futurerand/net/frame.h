// FRS: length-prefixed stream framing for FRW payloads over a byte stream
// (TCP or Unix domain sockets).
//
// The FRW wire format (core/wire.h) encodes self-contained batches; a byte
// stream needs one more layer to find batch boundaries across short reads
// and partial writes. An FRS frame is
//
//   [u32 payload length, little-endian][payload bytes]
//
// with the length validated against kFrsMaxPayload BEFORE any payload
// memory is reserved, so a hostile 4-byte header cannot make the receiver
// allocate gigabytes. A zero or oversized length is unrecoverable — the
// stream has lost sync — so FrameParser fails sticky with kDataLoss and
// the connection must be dropped.
//
// Three payload families ride inside frames, distinguished by their magic:
//
//   'F','R','W'  a batch (core/wire.h kinds; the service ingests 6/7; the
//                retired v1 kinds 1/2 fail the header check with kDataLoss,
//                so the worker answers kNack)
//   'F','R','A'  a reply: the receiver's per-batch verdict (ack / NACK /
//                overload / error) plus its ingest outcome counts, echoing
//                the per-connection sequence number of the batch it answers
//   'F','R','C'  a control request (checkpoint now / shutdown), acked with
//                a reply frame like any batch
//
// Corruption model: the frame header and reply/control payloads carry no
// checksum — the stream transport (TCP) is assumed byte-reliable, and the
// fault simulation corrupts the FRW payload before framing, exactly where
// a v2 batch's own FNV-1a trailer detects it (kDataLoss -> verdict kNack).
//
// docs/FORMATS.md §12 is the normative byte layout; the kFrs* constants
// below are kept in lockstep with it by scripts/check_format_spec.sh.
//
// Thread-safety: free functions are pure; FrameParser is not thread-safe
// (one parser per connection).

#ifndef FUTURERAND_NET_FRAME_H_
#define FUTURERAND_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "futurerand/common/result.h"

namespace futurerand::net {

/// Bytes of the frame length prefix (u32 little-endian).
inline constexpr size_t kFrameHeaderSize = 4;

/// Hard cap on a frame payload. A length header above this is rejected as
/// kDataLoss before any allocation happens.
inline constexpr uint32_t kFrsMaxPayload = 64u << 20;  // 64 MiB

/// Payload format versions and enum byte values (normative, append-only;
/// docs/FORMATS.md §12). The "// FRS" annotation is what
/// scripts/check_format_spec.sh keys on.
inline constexpr char kFrsReplyVersion = 1;       // FRS
inline constexpr char kFrsControlVersion = 1;     // FRS
inline constexpr char kFrsVerdictAck = 0;         // FRS
inline constexpr char kFrsVerdictNack = 1;        // FRS
inline constexpr char kFrsVerdictOverload = 2;    // FRS
inline constexpr char kFrsVerdictError = 3;       // FRS
inline constexpr char kFrsControlCheckpoint = 1;  // FRS
inline constexpr char kFrsControlShutdown = 2;    // FRS

/// What a frame payload is, decided from its 3-byte magic.
enum class PayloadType {
  kBatch,    // 'F','R','W' — core/wire.h framing
  kReply,    // 'F','R','A'
  kControl,  // 'F','R','C'
};

/// Classifies a payload by magic without decoding it. Fails with kDataLoss
/// on an unknown magic (the stream is delivering garbage) and
/// kInvalidArgument on input shorter than a magic.
Result<PayloadType> ClassifyPayload(std::string_view payload);

/// The receiver's per-batch verdict, one reply frame per batch/control
/// frame, in per-connection FIFO order.
enum class Verdict : uint8_t {
  kAck = kFrsVerdictAck,            // applied; outcome counts are valid
  kNack = kFrsVerdictNack,          // rejected as corrupt (kDataLoss):
                                    // retransmit the same pristine bytes
  kOverload = kFrsVerdictOverload,  // worker queue full, nothing consumed:
                                    // resend the SAME bytes later
  kError = kFrsVerdictError,        // rejected for a non-retryable reason
                                    // (status carries the code)
};

/// One reply payload: [F R A][version][verdict][varint seq]
/// [varint status code][varint applied][varint deduped]
/// [varint out_of_window].
struct Reply {
  Verdict verdict = Verdict::kAck;
  /// Echoes the 1-based per-connection sequence number of the frame this
  /// reply answers.
  uint64_t seq = 0;
  /// The receiver-side Status code behind a kNack/kError verdict
  /// (kDataLoss for every NACK); kOk for kAck and kOverload.
  StatusCode status = StatusCode::kOk;
  // The receiver's core::IngestOutcome for the answered batch. All zero
  // for kOverload (nothing was consumed) and for an atomically rejected
  // v2 batch.
  int64_t applied = 0;
  int64_t deduped = 0;
  int64_t out_of_window = 0;

  friend bool operator==(const Reply&, const Reply&) = default;
};

std::string EncodeReply(const Reply& reply);

/// Parses a reply payload; rejects bad magic/version/verdict (kDataLoss),
/// truncation, overlong varints and trailing bytes (kInvalidArgument).
Result<Reply> DecodeReply(std::string_view payload);

/// One control payload: [F R C][version][op].
enum class ControlOp : uint8_t {
  kCheckpoint = kFrsControlCheckpoint,  // checkpoint to the server's
                                        // configured path now
  kShutdown = kFrsControlShutdown,      // drain, final checkpoint, exit;
                                        // the ack is the last frame sent
};

std::string EncodeControl(ControlOp op);

/// Parses a control payload; same error contract as DecodeReply.
Result<ControlOp> DecodeControl(std::string_view payload);

/// Appends [u32 LE length][payload] to `*out`. Fails (appending nothing)
/// on an empty payload or one above kFrsMaxPayload — both unrepresentable
/// on a stream the peer will accept.
Status AppendFrame(std::string_view payload, std::string* out);

/// Incremental frame extractor for one stream direction. Feed whatever the
/// socket produced — any split, down to one byte at a time — and complete
/// payloads come out in order. A zero or oversized length header is
/// detected as soon as its 4 bytes have arrived, before any payload buffer
/// is reserved, and the parser fails sticky: every later Feed returns the
/// same kDataLoss, because a byte stream that framed garbage cannot be
/// resynchronized — close the connection.
class FrameParser {
 public:
  FrameParser() = default;
  /// `max_payload` tightens the oversize bound below kFrsMaxPayload
  /// (tests; a server enforcing a smaller batch cap).
  explicit FrameParser(uint32_t max_payload) : max_payload_(max_payload) {}

  /// Consumes `bytes`, appending every completed payload to `*frames`
  /// (which is NOT cleared — frames accumulate across calls).
  Status Feed(std::string_view bytes, std::vector<std::string>* frames);

  /// Bytes buffered toward the next incomplete frame (0 when aligned on a
  /// frame boundary).
  size_t buffered_bytes() const { return header_fill_ + payload_.size(); }

 private:
  Status error_;  // sticky; OK until the stream desyncs
  uint32_t max_payload_ = kFrsMaxPayload;
  unsigned char header_[kFrameHeaderSize] = {0};
  size_t header_fill_ = 0;   // header bytes collected so far
  bool in_payload_ = false;  // header complete, collecting payload_
  uint32_t expected_ = 0;    // payload length from the header
  std::string payload_;
};

}  // namespace futurerand::net

#endif  // FUTURERAND_NET_FRAME_H_
