#include "net/wire.hpp"

#include <cstring>

#include "common/error.hpp"

namespace soma::net::wire {
namespace {

constexpr std::byte kMagic[4] = {std::byte{'S'}, std::byte{'O'},
                                 std::byte{'M'}, std::byte{'1'}};

void put_u32(std::byte* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

void put_u64(std::byte* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xff);
  }
}

std::uint32_t get_u32(const std::byte* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(const std::byte* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return v;
}

}  // namespace

void append_header(std::vector<std::byte>& out, Kind kind, std::uint64_t id,
                   std::string_view rpc) {
  const std::size_t header = kFixedHeaderBytes + rpc.size() +
                             reserved_bytes(kind);
  const std::size_t base = out.size();
  out.resize(base + header);  // reserved region zero-filled by resize
  std::byte* p = out.data() + base;
  std::memcpy(p, kMagic, sizeof(kMagic));
  p[4] = static_cast<std::byte>(kind);
  put_u64(p + 5, id);
  put_u32(p + 13, static_cast<std::uint32_t>(rpc.size()));
  if (!rpc.empty()) std::memcpy(p + kFixedHeaderBytes, rpc.data(), rpc.size());
}

void set_request_attempt(std::vector<std::byte>& frame, std::uint8_t attempt) {
  if (frame.size() < kFixedHeaderBytes) {
    throw soma::LookupError("wire: truncated frame header");
  }
  const std::byte* p = frame.data();
  if (static_cast<Kind>(p[4]) != Kind::kRequest) {
    throw soma::LookupError("wire: attempt counter on non-request frame");
  }
  const std::uint32_t rpc_len = get_u32(p + 13);
  const std::size_t offset = kFixedHeaderBytes + rpc_len;
  if (offset >= frame.size()) {
    throw soma::LookupError("wire: truncated frame");
  }
  frame[offset] = std::byte{attempt};
}

FrameHeader decode_header(std::span<const std::byte> frame) {
  if (frame.size() < kFixedHeaderBytes) {
    throw soma::LookupError("wire: truncated frame header");
  }
  const std::byte* p = frame.data();
  if (std::memcmp(p, kMagic, sizeof(kMagic)) != 0) {
    throw soma::LookupError("wire: bad frame magic");
  }
  const auto raw_kind = static_cast<std::uint8_t>(p[4]);
  if (raw_kind > static_cast<std::uint8_t>(Kind::kResponse)) {
    throw soma::LookupError("wire: unknown frame kind");
  }
  const Kind kind{raw_kind};
  const std::uint64_t id = get_u64(p + 5);
  const std::uint32_t rpc_len = get_u32(p + 13);
  const std::size_t body_offset =
      kFixedHeaderBytes + rpc_len + reserved_bytes(kind);
  if (rpc_len > frame.size() - kFixedHeaderBytes ||
      body_offset > frame.size()) {
    throw soma::LookupError("wire: truncated frame");
  }
  const std::uint8_t attempt =
      kind == Kind::kRequest
          ? static_cast<std::uint8_t>(p[kFixedHeaderBytes + rpc_len])
          : std::uint8_t{0};
  return FrameHeader{
      kind, id, attempt,
      std::string_view(reinterpret_cast<const char*>(p + kFixedHeaderBytes),
                       rpc_len),
      frame.subspan(body_offset)};
}

// ---------------------------------------------------------------------------
// Batch bodies
// ---------------------------------------------------------------------------

namespace {

void append_u32(std::vector<std::byte>& out, std::uint32_t v) {
  const std::size_t base = out.size();
  out.resize(base + 4);
  put_u32(out.data() + base, v);
}

void append_u64(std::vector<std::byte>& out, std::uint64_t v) {
  const std::size_t base = out.size();
  out.resize(base + 8);
  put_u64(out.data() + base, v);
}

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t size) {
  const std::size_t base = out.size();
  out.resize(base + size);
  if (size != 0) std::memcpy(out.data() + base, data, size);
}

/// Bounds-checked cursor over a batch body.
struct Reader {
  std::span<const std::byte> buffer;
  std::size_t offset = 0;

  void need(std::size_t n) const {
    if (offset + n > buffer.size()) {
      throw soma::LookupError("wire: truncated batch body");
    }
  }
  std::uint32_t u32() {
    need(4);
    const std::uint32_t v = get_u32(buffer.data() + offset);
    offset += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    const std::uint64_t v = get_u64(buffer.data() + offset);
    offset += 8;
    return v;
  }
  /// Reject an element count whose `min_bytes` per element cannot fit in
  /// the bytes left, so a reserve sized from it is bounded by the body.
  void fits(std::uint32_t count, std::size_t min_bytes) const {
    if (count > (buffer.size() - offset) / min_bytes) {
      throw soma::LookupError("wire: batch count exceeds body");
    }
  }
  std::string_view str(std::size_t n) {
    need(n);
    const auto* p = reinterpret_cast<const char*>(buffer.data() + offset);
    offset += n;
    return std::string_view(p, n);
  }
  std::span<const std::byte> bytes(std::size_t n) {
    need(n);
    const auto view = buffer.subspan(offset, n);
    offset += n;
    return view;
  }
};

}  // namespace

BatchBodyWriter::BatchBodyWriter(std::string ns) : ns_(std::move(ns)) {}

std::size_t BatchBodyWriter::add(const std::string& source,
                                 std::int64_t t_nanos,
                                 const datamodel::Node& data) {
  const auto [it, inserted] =
      dict_index_.emplace(source, static_cast<std::uint32_t>(dict_.size()));
  if (inserted) {
    dict_.push_back(source);
    dict_bytes_ += 4 + source.size();
  }
  append_u32(records_, it->second);
  append_u64(records_, static_cast<std::uint64_t>(t_nanos));
  append_u32(records_, static_cast<std::uint32_t>(data.packed_size()));
  data.pack(records_);
  return ++count_;
}

std::size_t BatchBodyWriter::body_size() const {
  // ns (len + bytes) + record count + dict count + dict + records.
  return 4 + ns_.size() + 4 + 4 + dict_bytes_ + records_.size();
}

void BatchBodyWriter::encode(std::vector<std::byte>& out) const {
  append_u32(out, static_cast<std::uint32_t>(ns_.size()));
  append_bytes(out, ns_.data(), ns_.size());
  append_u32(out, static_cast<std::uint32_t>(count_));
  append_u32(out, static_cast<std::uint32_t>(dict_.size()));
  for (const std::string& source : dict_) {
    append_u32(out, static_cast<std::uint32_t>(source.size()));
    append_bytes(out, source.data(), source.size());
  }
  append_bytes(out, records_.data(), records_.size());
}

BatchView decode_batch_body(std::span<const std::byte> body) {
  Reader reader{body};
  BatchView view;
  view.ns = reader.str(reader.u32());
  const std::uint32_t record_count = reader.u32();
  const std::uint32_t dict_count = reader.u32();
  // A dictionary entry takes at least its length (4 B), a record at least
  // its index, timestamp and payload length (16 B).
  reader.fits(dict_count, 4);
  std::vector<std::string_view> dict;
  dict.reserve(dict_count);
  for (std::uint32_t i = 0; i < dict_count; ++i) {
    dict.push_back(reader.str(reader.u32()));
  }
  reader.fits(record_count, 16);
  view.records.reserve(record_count);
  for (std::uint32_t i = 0; i < record_count; ++i) {
    BatchRecordView record;
    const std::uint32_t source_index = reader.u32();
    if (source_index >= dict.size()) {
      throw soma::LookupError("wire: batch source index out of range");
    }
    record.source = dict[source_index];
    record.t_nanos = static_cast<std::int64_t>(reader.u64());
    record.payload = reader.bytes(reader.u32());
    view.records.push_back(record);
  }
  return view;
}

}  // namespace soma::net::wire
