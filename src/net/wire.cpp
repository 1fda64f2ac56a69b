#include "net/wire.hpp"

#include <cstring>

#include "common/error.hpp"

namespace soma::net::wire {
namespace {

constexpr std::byte kMagic[4] = {std::byte{'S'}, std::byte{'O'},
                                 std::byte{'M'}, std::byte{'1'}};

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
// Publish and batch bodies
// ---------------------------------------------------------------------------

namespace {

using datamodel::PackTag;

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

/// Bounds-checked cursor over a publish or batch body.
struct Reader {
  std::span<const std::byte> buffer;
  std::size_t offset = 0;

  void need(std::size_t n) const {
    if (offset + n > buffer.size()) {
      throw soma::LookupError("wire: truncated body");
    }
  }
  [[nodiscard]] PackTag peek_tag() const {
    need(1);
    return static_cast<PackTag>(buffer[offset]);
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

// The envelope fields of a publish body, in encoding order.
constexpr std::string_view kNsField = "ns";
constexpr std::string_view kSourceField = "source";
constexpr std::string_view kDataField = "data";
constexpr std::string_view kTimeField = "t";

/// pack() encoding of an empty record: the body of a publish without "data".
constexpr std::byte kEmptyRecord[1] = {
    static_cast<std::byte>(PackTag::kEmpty)};

/// Encoded size of one object child: name (length + bytes), then value.
constexpr std::size_t field_size(std::string_view name,
                                 std::size_t value_size) {
  return 4 + name.size() + value_size;
}

constexpr std::size_t string_value_size(std::string_view value) {
  return 1 + 4 + value.size();
}

/// Object tag and child count.
constexpr std::size_t kObjectHeadBytes = 1 + 4;
/// Tag and 8-byte word of an int64 leaf.
constexpr std::size_t kInt64ValueBytes = 1 + 8;

std::byte* put_text(std::byte* p, std::string_view text) {
  put_u32(p, static_cast<std::uint32_t>(text.size()));
  if (!text.empty()) std::memcpy(p + 4, text.data(), text.size());
  return p + 4 + text.size();
}

std::byte* put_string_field(std::byte* p, std::string_view name,
                            std::string_view value) {
  p = put_text(p, name);
  *p++ = static_cast<std::byte>(PackTag::kString);
  return put_text(p, value);
}

}  // namespace

std::size_t publish_body_size(std::string_view ns, std::string_view source,
                              std::size_t data_size, bool replay) {
  std::size_t size = kObjectHeadBytes +
                     field_size(kNsField, string_value_size(ns)) +
                     field_size(kSourceField, string_value_size(source)) +
                     field_size(kDataField, data_size);
  if (replay) size += field_size(kTimeField, kInt64ValueBytes);
  return size;
}

void encode_publish_body(std::vector<std::byte>& out, std::string_view ns,
                         std::string_view source, const datamodel::Node& data,
                         std::size_t data_size,
                         std::optional<std::int64_t> t) {
  // Everything up to the record's name (a body with an empty-sized record
  // and no time), then the record packed in place, then the optional time.
  std::size_t at = out.size();
  out.resize(at + publish_body_size(ns, source, 0, false));
  std::byte* p = out.data() + at;
  *p++ = static_cast<std::byte>(PackTag::kObject);
  put_u32(p, t ? 4 : 3);
  p = put_string_field(p + 4, kNsField, ns);
  p = put_string_field(p, kSourceField, source);
  put_text(p, kDataField);
  data.pack(out, data_size);
  if (!t) return;
  at = out.size();
  out.resize(at + field_size(kTimeField, kInt64ValueBytes));
  p = put_text(out.data() + at, kTimeField);
  *p = static_cast<std::byte>(PackTag::kInt64);
  put_u64(p + 1, static_cast<std::uint64_t>(*t));
}

PublishBodyView decode_publish_body(std::span<const std::byte> body) {
  // Node::unpack would build the envelope and merge repeated names (each
  // keeps its last value); here every field overwrites its slot in turn,
  // which leaves the same last values. A field of the wrong type, or an
  // unknown one, is still decoded in full so that exactly the bodies
  // Node::unpack rejects are rejected.
  Reader reader{body};
  if (reader.peek_tag() != PackTag::kObject) {
    throw soma::LookupError("wire: publish body is not an object");
  }
  ++reader.offset;
  const std::uint32_t count = reader.u32();
  // Each child takes at least a name length and a tag (5 B).
  reader.fits(count, 5);

  // The envelope is the root (depth 0), so its fields sit at depth 1.
  constexpr std::size_t kFieldDepth = 1;
  std::optional<std::string_view> ns;
  std::optional<std::string_view> source;
  bool bad_time = false;
  PublishBodyView view;
  view.data_bytes = kEmptyRecord;
  const auto skip_value = [&reader, body] {
    (void)datamodel::Node::unpack_at(body, reader.offset, kFieldDepth);
  };
  const auto string_value = [&reader, &skip_value]()
      -> std::optional<std::string_view> {
    if (reader.peek_tag() != PackTag::kString) {
      skip_value();
      return std::nullopt;
    }
    ++reader.offset;
    return reader.str(reader.u32());
  };
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string_view name = reader.str(reader.u32());
    if (name == kNsField) {
      ns = string_value();
    } else if (name == kSourceField) {
      source = string_value();
    } else if (name == kDataField) {
      const std::size_t start = reader.offset;
      view.data = datamodel::Node::unpack_at(body, reader.offset, kFieldDepth);
      view.data_bytes = body.subspan(start, reader.offset - start);
    } else if (name == kTimeField) {
      bad_time = reader.peek_tag() != PackTag::kInt64;
      if (bad_time) {
        skip_value();
        view.t.reset();
      } else {
        ++reader.offset;
        view.t = static_cast<std::int64_t>(reader.u64());
      }
    } else {
      skip_value();
    }
  }
  if (reader.offset != body.size()) {
    throw soma::LookupError("wire: trailing bytes after publish body");
  }
  if (!ns || !source) {
    throw soma::LookupError(
        "wire: publish body needs string \"ns\" and \"source\" fields");
  }
  if (bad_time) throw soma::LookupError("wire: publish \"t\" is not int64");
  view.ns = *ns;
  view.source = *source;
  return view;
}

BatchBodyWriter::BatchBodyWriter(std::string ns) : ns_(std::move(ns)) {}

void BatchBodyWriter::append_record_head(const std::string& source,
                                         std::int64_t t_nanos,
                                         std::size_t payload_size) {
  const auto [it, inserted] =
      dict_index_.emplace(source, static_cast<std::uint32_t>(dict_.size()));
  if (inserted) {
    dict_.push_back(source);
    dict_bytes_ += 4 + source.size();
  }
  append_u32(records_, it->second);
  append_u64(records_, static_cast<std::uint64_t>(t_nanos));
  append_u32(records_, static_cast<std::uint32_t>(payload_size));
}

std::size_t BatchBodyWriter::add(const std::string& source,
                                 std::int64_t t_nanos,
                                 const datamodel::Node& data) {
  const std::size_t size = data.packed_size();
  append_record_head(source, t_nanos, size);
  data.pack(records_, size);
  return ++count_;
}

std::size_t BatchBodyWriter::add_packed(const std::string& source,
                                        std::int64_t t_nanos,
                                        std::span<const std::byte> payload) {
  append_record_head(source, t_nanos, payload.size());
  append_bytes(records_, payload.data(), payload.size());
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
