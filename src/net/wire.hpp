// Framed binary wire format for the RPC engine.
//
// A frame is a fixed header decoded in place, followed by the request/response
// body packed directly with Node::pack — no envelope tree is built on either
// side:
//
//   offset  size       field
//   0       4          magic "SOM1"
//   4       1          kind (0 = request, 1 = response)
//   5       8          request id (little-endian)
//   13      4          rpc-name length L (little-endian; 0 for responses)
//   17      L          rpc-name bytes
//   17+L    R          reserved (zero) — models the Mercury/Margo protocol
//                      headers; see below
//   17+L+R  rest       body, Node::pack encoding
//
// The reserved region is sized so that a frame occupies exactly as many
// simulated bytes as the legacy envelope-Node encoding did (57 + L + body
// for requests, 45 + body for responses). The figure benches are calibrated
// against those byte counts — network transfer times, service ingest costs
// and bulk thresholds all key off payload size — so the zero-copy rewrite
// keeps the modeled bytes bit-for-bit identical and only removes host-side
// tree construction.
//
// Besides the header, this file holds the codecs of the two publish bodies
// that are written and read without a tree: the single-record soma.publish
// body (the exact Node::pack encoding of {ns, source, data[, t]}, encoded
// field by field and read in place, decoding only the record) and the
// soma.publish_batch body, which replication frames reuse. All of them store
// and read their integers and strings through common/bytes.hpp, the byte
// codec Node::pack uses too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "datamodel/node.hpp"

namespace soma::net::wire {

enum class Kind : std::uint8_t { kRequest = 0, kResponse = 1 };

/// magic + kind + request id + rpc-name length.
inline constexpr std::size_t kFixedHeaderBytes = 4 + 1 + 8 + 4;
/// Reserved bytes appended after the rpc name, per frame kind (keeps the
/// simulated frame size equal to the legacy envelope encoding).
inline constexpr std::size_t kReservedRequestBytes = 40;
inline constexpr std::size_t kReservedResponseBytes = 28;

[[nodiscard]] constexpr std::size_t reserved_bytes(Kind kind) {
  return kind == Kind::kRequest ? kReservedRequestBytes
                                : kReservedResponseBytes;
}

/// Exact frame size for an rpc name of `rpc_len` bytes and a body whose
/// Node::pack encoding occupies `body_size` bytes.
[[nodiscard]] constexpr std::size_t frame_size(Kind kind, std::size_t rpc_len,
                                               std::size_t body_size) {
  return kFixedHeaderBytes + rpc_len + reserved_bytes(kind) + body_size;
}

/// Decoded header. `rpc` views into the frame buffer (no copy); `body` is
/// the trailing Node::pack region, also viewing the frame buffer.
struct FrameHeader {
  Kind kind;
  std::uint64_t request_id;
  /// Retransmission counter, stored in the first reserved byte of request
  /// frames (always 0 for responses). The reserved region was zero-filled
  /// before retries existed, so attempt 0 — every frame of a fault-free run —
  /// keeps frames byte-identical to the pre-retry encoding.
  std::uint8_t attempt;
  std::string_view rpc;
  std::span<const std::byte> body;
};

/// Append the header (including the reserved region) to `out`; the caller
/// packs the body right behind it. `rpc` must be empty for responses.
void append_header(std::vector<std::byte>& out, Kind kind, std::uint64_t id,
                   std::string_view rpc);

/// Stamp the retransmission counter into an already-encoded request frame
/// (the retry path rewrites the counter without re-encoding the body).
/// Throws soma::LookupError if `frame` is not a well-formed request.
void set_request_attempt(std::vector<std::byte>& frame, std::uint8_t attempt);

/// Decode a frame header in place. Throws soma::LookupError on a truncated
/// frame, bad magic, or an unknown kind. The returned views are valid only
/// as long as `frame`'s storage is.
[[nodiscard]] FrameHeader decode_header(std::span<const std::byte> frame);

// ---------------------------------------------------------------------------
// Publish bodies
//
// A soma.publish body is the exact Node::pack encoding of the object
//
//   {"ns": string, "source": string, "data": <record>[, "t": int64]}
//
// with the fields in that order; "t" (the original publish time, nanos) is
// present only on a replayed publish. The client writes it straight behind
// the frame header and the service reads the envelope in place, so neither
// end builds an envelope Node: only the record is decoded.
// ---------------------------------------------------------------------------

/// Exact size of a publish body whose record packs to `data_size` bytes;
/// `replay` adds the "t" field.
[[nodiscard]] std::size_t publish_body_size(std::string_view ns,
                                            std::string_view source,
                                            std::size_t data_size,
                                            bool replay);

/// Append a publish body to `out` (behind an already-written header).
/// `data_size` must equal data.packed_size(); `t` is set on a replay.
void encode_publish_body(std::vector<std::byte>& out, std::string_view ns,
                         std::string_view source, const datamodel::Node& data,
                         std::size_t data_size, std::optional<std::int64_t> t);

/// Decoded publish body; the views are valid as long as the frame's storage
/// is (`data_bytes` views static storage when the body has no "data").
struct PublishBodyView {
  std::string_view ns;
  std::string_view source;
  datamodel::Node data;                   ///< the decoded record
  std::span<const std::byte> data_bytes;  ///< its encoding as it arrived
  std::optional<std::int64_t> t;          ///< set on a replayed publish
};

/// Decode a publish body (the `body` span of a decoded frame header) with
/// the outcome of Node::unpack followed by reading the fields: a repeated
/// field takes its last value, an unknown field is decoded and dropped, and
/// a body without "data" yields an empty record whose encoding is the 1-byte
/// empty tag. Throws soma::LookupError on malformed, truncated or trailing
/// bytes, a missing or non-string "ns" or "source", or a non-int64 "t".
[[nodiscard]] PublishBodyView decode_publish_body(
    std::span<const std::byte> body);

// ---------------------------------------------------------------------------
// Batch frames
//
// A batch body packs N publish records into one request frame, behind the
// ordinary frame header (rpc "soma.publish_batch"). Sources repeat heavily
// within one client's window — a monitor publishes the same hostname every
// tick — so source strings are stored once in a dictionary and referenced by
// index. Layout (all integers little-endian):
//
//   u32  ns_len, ns bytes               target namespace tag
//   u32  record count
//   u32  dictionary count
//   dictionary entries:  u32 len, bytes
//   records:             u32 source dict index
//                        i64 publish time (nanos)
//                        u32 payload len, Node::pack payload
// ---------------------------------------------------------------------------

/// Incremental batch-body encoder. Records are packed as they are added so
/// the coalescing layer can enforce a byte budget without a second pass;
/// `encode` only copies the already-packed region behind the frame header.
class BatchBodyWriter {
 public:
  explicit BatchBodyWriter(std::string ns);

  /// Pack one record. Returns the record count after the add.
  std::size_t add(const std::string& source, std::int64_t t_nanos,
                  const datamodel::Node& data);
  /// Add one record whose Node::pack encoding is `payload`, copied
  /// verbatim. Returns the record count after the add.
  std::size_t add_packed(const std::string& source, std::int64_t t_nanos,
                         std::span<const std::byte> payload);

  [[nodiscard]] std::size_t record_count() const { return count_; }
  /// Exact size of the encoded body in bytes.
  [[nodiscard]] std::size_t body_size() const;
  /// Append the body encoding to `out` (behind an already-written header).
  void encode(std::vector<std::byte>& out) const;

 private:
  /// Write one record's dictionary index, time and payload length; the
  /// caller appends the `payload_size` payload bytes behind them.
  void append_record_head(const std::string& source, std::int64_t t_nanos,
                          std::size_t payload_size);

  std::string ns_;
  std::vector<std::string> dict_;
  std::unordered_map<std::string, std::uint32_t> dict_index_;
  std::size_t dict_bytes_ = 0;
  std::vector<std::byte> records_;
  std::size_t count_ = 0;
};

/// One decoded record; `source` and `payload` view into the frame buffer.
struct BatchRecordView {
  std::string_view source;
  std::int64_t t_nanos = 0;
  std::span<const std::byte> payload;  ///< Node::pack encoding
};

/// Decoded batch body; views are valid as long as the frame's storage is.
struct BatchView {
  std::string_view ns;
  std::vector<BatchRecordView> records;
};

/// Decode a batch body (the `body` span of a decoded frame header). Throws
/// soma::LookupError on truncation, a count the body cannot hold, or a
/// dictionary index out of range.
[[nodiscard]] BatchView decode_batch_body(std::span<const std::byte> body);

}  // namespace soma::net::wire
