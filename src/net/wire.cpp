#include "net/wire.hpp"

#include <cstring>

#include "common/bytes.hpp"
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
  p = bytes::store_u64(p + 5, id);
  bytes::store_text(p, rpc);
}

void set_request_attempt(std::vector<std::byte>& frame, std::uint8_t attempt) {
  const FrameHeader header = decode_header(frame);
  if (header.kind != Kind::kRequest) {
    throw soma::LookupError("wire: attempt counter on non-request frame");
  }
  frame[kFixedHeaderBytes + header.rpc.size()] = std::byte{attempt};
}

FrameHeader decode_header(std::span<const std::byte> frame) {
  std::size_t offset = 0;
  bytes::ByteReader reader(frame, offset, "wire");
  if (std::memcmp(reader.bytes(sizeof(kMagic)).data(), kMagic,
                  sizeof(kMagic)) != 0) {
    throw soma::LookupError("wire: bad frame magic");
  }
  const std::uint8_t raw_kind = reader.u8();
  if (raw_kind > static_cast<std::uint8_t>(Kind::kResponse)) {
    throw soma::LookupError("wire: unknown frame kind");
  }
  const Kind kind{raw_kind};
  const std::uint64_t id = reader.u64();
  const std::string_view rpc = reader.text();
  const std::span<const std::byte> reserved =
      reader.bytes(reserved_bytes(kind));
  const std::uint8_t attempt = kind == Kind::kRequest
                                   ? static_cast<std::uint8_t>(reserved[0])
                                   : std::uint8_t{0};
  return FrameHeader{kind, id, attempt, rpc, frame.subspan(offset)};
}

// ---------------------------------------------------------------------------
// Publish and batch bodies
// ---------------------------------------------------------------------------

namespace {

using datamodel::PackTag;

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
/// A batch record's dictionary index, publish time and payload length.
constexpr std::size_t kRecordHeadBytes = 4 + 8 + 4;

std::byte* put_string_field(std::byte* p, std::string_view name,
                            std::string_view value) {
  p = bytes::store_text(p, name);
  *p++ = static_cast<std::byte>(PackTag::kString);
  return bytes::store_text(p, value);
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
  p = bytes::store_u32(p, t ? 4 : 3);
  p = put_string_field(p, kNsField, ns);
  p = put_string_field(p, kSourceField, source);
  bytes::store_text(p, kDataField);
  data.pack(out, data_size);
  if (!t) return;
  at = out.size();
  out.resize(at + field_size(kTimeField, kInt64ValueBytes));
  p = bytes::store_text(out.data() + at, kTimeField);
  *p = static_cast<std::byte>(PackTag::kInt64);
  bytes::store_u64(p + 1, static_cast<std::uint64_t>(*t));
}

PublishBodyView decode_publish_body(std::span<const std::byte> body) {
  // Node::unpack would build the envelope and merge repeated names (each
  // keeps its last value); here every field overwrites its slot in turn,
  // which leaves the same last values. A field of the wrong type, or an
  // unknown one, is still decoded in full so that exactly the bodies
  // Node::unpack rejects are rejected.
  std::size_t offset = 0;
  bytes::ByteReader reader(body, offset, "wire");
  if (static_cast<PackTag>(reader.u8()) != PackTag::kObject) {
    throw soma::LookupError("wire: publish body is not an object");
  }
  // Each child takes at least a name length and a tag (5 B).
  const std::uint32_t count = reader.count(5);

  // The envelope is the root (depth 0), so its fields sit at depth 1.
  constexpr std::size_t kFieldDepth = 1;
  std::optional<std::string_view> ns;
  std::optional<std::string_view> source;
  bool bad_time = false;
  PublishBodyView view;
  view.data_bytes = kEmptyRecord;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string_view name = reader.text();
    const std::size_t value_at = offset;
    const auto tag = static_cast<PackTag>(reader.u8());
    std::optional<std::string_view>* text_field =
        name == kNsField ? &ns : name == kSourceField ? &source : nullptr;
    if (text_field != nullptr && tag == PackTag::kString) {
      *text_field = reader.text();
    } else if (name == kTimeField && tag == PackTag::kInt64) {
      view.t = static_cast<std::int64_t>(reader.u64());
      bad_time = false;
    } else {
      // The record, or a field of the wrong type or an unknown name: decode
      // the whole value from its tag.
      offset = value_at;
      datamodel::Node value =
          datamodel::Node::unpack_at(body, offset, kFieldDepth);
      if (name == kDataField) {
        view.data = std::move(value);
        view.data_bytes = body.subspan(value_at, offset - value_at);
      } else if (text_field != nullptr) {
        text_field->reset();
      } else if (name == kTimeField) {
        view.t.reset();
        bad_time = true;
      }
    }
  }
  if (offset != body.size()) {
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
  const std::size_t at = records_.size();
  records_.resize(at + kRecordHeadBytes);
  std::byte* p = bytes::store_u32(records_.data() + at, it->second);
  p = bytes::store_u64(p, static_cast<std::uint64_t>(t_nanos));
  bytes::store_u32(p, static_cast<std::uint32_t>(payload_size));
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
  records_.insert(records_.end(), payload.begin(), payload.end());
  return ++count_;
}

std::size_t BatchBodyWriter::body_size() const {
  // ns (len + bytes) + record count + dict count + dict + records.
  return 4 + ns_.size() + 4 + 4 + dict_bytes_ + records_.size();
}

void BatchBodyWriter::encode(std::vector<std::byte>& out) const {
  const std::size_t at = out.size();
  out.resize(at + body_size());
  std::byte* p = bytes::store_text(out.data() + at, ns_);
  p = bytes::store_u32(p, static_cast<std::uint32_t>(count_));
  p = bytes::store_u32(p, static_cast<std::uint32_t>(dict_.size()));
  for (const std::string& source : dict_) p = bytes::store_text(p, source);
  if (!records_.empty()) std::memcpy(p, records_.data(), records_.size());
}

BatchView decode_batch_body(std::span<const std::byte> body) {
  std::size_t offset = 0;
  bytes::ByteReader reader(body, offset, "wire");
  BatchView view;
  view.ns = reader.text();
  // A record takes at least its head, a dictionary entry its length.
  const std::uint32_t record_count = reader.count(kRecordHeadBytes);
  const std::uint32_t dict_count = reader.count(4);
  std::vector<std::string_view> dict;
  dict.reserve(dict_count);
  for (std::uint32_t i = 0; i < dict_count; ++i) dict.push_back(reader.text());
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
