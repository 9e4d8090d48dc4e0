#include "net/message.h"

#include <cstring>

namespace fastpr::net {

namespace {

/// Little-endian serializer cursor over a pre-sized buffer (callers size
/// it with encoded_size(), so no bounds tracking is needed here).
struct Writer {
  uint8_t* p;

  template <typename T>
  void put(T value) {
    std::memcpy(p, &value, sizeof(T));
    p += sizeof(T);
  }

  void put_bytes(const void* src, size_t len) {
    if (len != 0) std::memcpy(p, src, len);
    p += len;
  }
};

/// Cursor-based reader; all reads bounds-checked.
class Reader {
 public:
  explicit Reader(std::span<const uint8_t> bytes) : bytes_(bytes) {}

  template <typename T>
  bool read(T& value) {
    if (pos_ + sizeof(T) > bytes_.size()) return false;
    std::memcpy(&value, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool read_bytes(PooledBuffer& out, size_t len) {
    if (pos_ + len > bytes_.size()) return false;
    out.assign(bytes_.data() + pos_, len);
    pos_ += len;
    return true;
  }

  bool read_string(std::string& out, size_t len) {
    if (pos_ + len > bytes_.size()) return false;
    out.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  std::span<const uint8_t> bytes_;
  size_t pos_ = 0;
};

/// Per-enumerator wire validation. Deliberately a default-less switch:
/// -Wswitch (and the msgtype-exhaustive rule of tools/fastpr_analyze)
/// forces the deserializer to learn about every new MessageType instead
/// of silently accepting or rejecting it via a magic numeric range.
bool valid_message_type(uint8_t raw) {
  switch (static_cast<MessageType>(raw)) {
    case MessageType::kRepairCmd:
    case MessageType::kFetchRequest:
    case MessageType::kDataPacket:
    case MessageType::kTaskDone:
    case MessageType::kTaskFailed:
    case MessageType::kShutdown:
    case MessageType::kPing:
    case MessageType::kPong:
    case MessageType::kCancelTask:
    case MessageType::kLeaseGrant:
    case MessageType::kPressureReport:
      return true;
  }
  return false;
}

constexpr size_t kFixedHeaderBytes =
    1 +                 // type
    4 + 4 +             // from, to
    8 +                 // task_id
    4 +                 // attempt
    8 + 8 + 4 + 8 +     // trace: trace_id, parent_span_id, origin_node,
                        //        origin_ts_us
    4 + 4 +             // chunk.stripe, chunk.index
    4 +                 // dst
    1 + 1 +             // shape, coefficient
    4 + 4 +             // packet_index, total_packets
    4 +                 // hop
    8 + 8 +             // chunk_bytes, packet_bytes
    4 + 4 + 4;          // sources count, error length, payload length

/// Writes exactly msg.encoded_size() bytes at `out`.
void write_message(uint8_t* out, const Message& msg) {
  Writer w{out};
  w.put<uint8_t>(static_cast<uint8_t>(msg.type));
  w.put<int32_t>(msg.from);
  w.put<int32_t>(msg.to);
  w.put<uint64_t>(msg.task_id);
  w.put<uint32_t>(msg.attempt);
  w.put<uint64_t>(msg.trace.trace_id);
  w.put<uint64_t>(msg.trace.parent_span_id);
  w.put<int32_t>(msg.trace.origin_node);
  w.put<int64_t>(msg.trace.origin_ts_us);
  w.put<int32_t>(msg.chunk.stripe);
  w.put<int32_t>(msg.chunk.index);
  w.put<int32_t>(msg.dst);
  w.put<uint8_t>(static_cast<uint8_t>(msg.shape));
  w.put<uint8_t>(msg.coefficient);
  w.put<uint32_t>(msg.packet_index);
  w.put<uint32_t>(msg.total_packets);
  w.put<uint32_t>(msg.hop);
  w.put<uint64_t>(msg.chunk_bytes);
  w.put<uint64_t>(msg.packet_bytes);
  w.put<uint32_t>(static_cast<uint32_t>(msg.sources.size()));
  w.put<uint32_t>(static_cast<uint32_t>(msg.error.size()));
  w.put<uint32_t>(static_cast<uint32_t>(msg.payload.size()));
  for (const auto& s : msg.sources) {
    w.put<int32_t>(s.node);
    w.put<int32_t>(s.chunk.stripe);
    w.put<int32_t>(s.chunk.index);
    w.put<uint8_t>(s.coefficient);
  }
  w.put_bytes(msg.error.data(), msg.error.size());
  w.put_bytes(msg.payload.data(), msg.payload.size());
}

}  // namespace

size_t Message::encoded_size() const {
  return kFixedHeaderBytes + sources.size() * (4 + 4 + 4 + 1) +
         error.size() + payload.size();
}

Message Message::clone() const {
  Message copy;
  copy.type = type;
  copy.from = from;
  copy.to = to;
  copy.task_id = task_id;
  copy.attempt = attempt;
  copy.trace = trace;
  copy.chunk = chunk;
  copy.dst = dst;
  copy.shape = shape;
  copy.coefficient = coefficient;
  copy.packet_index = packet_index;
  copy.total_packets = total_packets;
  copy.hop = hop;
  copy.chunk_bytes = chunk_bytes;
  copy.packet_bytes = packet_bytes;
  copy.sources = sources;
  copy.error = error;
  copy.payload = payload.clone();
  return copy;
}

std::vector<uint8_t> serialize(const Message& msg) {
  std::vector<uint8_t> out(msg.encoded_size());
  write_message(out.data(), msg);
  return out;
}

PooledBuffer serialize_pooled(const Message& msg) {
  PooledBuffer out = BufferPool::global()->acquire(msg.encoded_size());
  write_message(out.data(), msg);
  return out;
}

std::optional<Message> deserialize(std::span<const uint8_t> bytes) {
  Reader reader(bytes);
  Message msg;
  uint8_t type = 0, shape = 0;
  uint32_t num_sources = 0, error_len = 0, payload_len = 0;
  if (!reader.read(type) || !reader.read(msg.from) || !reader.read(msg.to) ||
      !reader.read(msg.task_id) || !reader.read(msg.attempt) ||
      !reader.read(msg.trace.trace_id) ||
      !reader.read(msg.trace.parent_span_id) ||
      !reader.read(msg.trace.origin_node) ||
      !reader.read(msg.trace.origin_ts_us) ||
      !reader.read(msg.chunk.stripe) ||
      !reader.read(msg.chunk.index) || !reader.read(msg.dst) ||
      !reader.read(shape) || !reader.read(msg.coefficient) ||
      !reader.read(msg.packet_index) || !reader.read(msg.total_packets) ||
      !reader.read(msg.hop) ||
      !reader.read(msg.chunk_bytes) || !reader.read(msg.packet_bytes) ||
      !reader.read(num_sources) || !reader.read(error_len) ||
      !reader.read(payload_len)) {
    return std::nullopt;
  }
  if (!valid_message_type(type)) return std::nullopt;
  msg.type = static_cast<MessageType>(type);
  if (shape > static_cast<uint8_t>(RepairShape::kChain)) return std::nullopt;
  msg.shape = static_cast<RepairShape>(shape);

  // Bound the declared sizes by the actual frame length before any
  // allocation — corrupted counts must not trigger huge resizes.
  const uint64_t declared = static_cast<uint64_t>(num_sources) * 13 +
                            error_len + payload_len;
  if (declared > bytes.size()) return std::nullopt;

  msg.sources.resize(num_sources);
  for (auto& s : msg.sources) {
    if (!reader.read(s.node) || !reader.read(s.chunk.stripe) ||
        !reader.read(s.chunk.index) || !reader.read(s.coefficient)) {
      return std::nullopt;
    }
  }
  if (!reader.read_string(msg.error, error_len)) return std::nullopt;
  if (!reader.read_bytes(msg.payload, payload_len)) return std::nullopt;
  if (!reader.exhausted()) return std::nullopt;
  return msg;
}

}  // namespace fastpr::net
