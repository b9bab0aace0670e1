#include "cluster/frame.h"

#include <cerrno>
#include <cstring>

#include "cluster/wire.h"
#include "common/net.h"
#include "trace/store/format.h"

namespace rod::cluster {

namespace {

using trace::store::Crc32;

std::span<const std::byte> AsBytes(std::string_view s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

/// "peer gone" vs "local error" from the failing read/write's errno (net
/// helpers preserve it; clean EOF sets it to 0).
Status TransportError(const char* what) {
  std::string msg = what;
  if (errno == 0) {
    msg += ": connection closed by peer";
  } else {
    msg += ": ";
    msg += std::strerror(errno);
  }
  return Status::Unavailable(std::move(msg));
}

}  // namespace

const char* MsgTypeName(MsgType type) {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kWelcome:
      return "welcome";
    case MsgType::kPlan:
      return "plan";
    case MsgType::kPlanAck:
      return "plan_ack";
    case MsgType::kStart:
      return "start";
    case MsgType::kHeartbeat:
      return "heartbeat";
    case MsgType::kTuples:
      return "tuples";
    case MsgType::kPause:
      return "pause";
    case MsgType::kPauseAck:
      return "pause_ack";
    case MsgType::kPlanDiff:
      return "plan_diff";
    case MsgType::kResume:
      return "resume";
    case MsgType::kFinish:
      return "finish";
    case MsgType::kFinalStats:
      return "final_stats";
    case MsgType::kShutdown:
      return "shutdown";
    case MsgType::kPing:
      return "ping";
    case MsgType::kPong:
      return "pong";
    case MsgType::kStatsReport:
      return "stats_report";
    case MsgType::kClockSync:
      return "clock_sync";
    case MsgType::kFreeze:
      return "freeze";
    case MsgType::kFrozenReport:
      return "frozen_report";
  }
  return "unknown";
}

std::string EncodeFrame(MsgType type, std::string_view payload) {
  WireWriter w;
  w(kFrameMagic, kFrameVersion, static_cast<uint8_t>(type),
    uint16_t{0},  // flags, reserved
    static_cast<uint32_t>(payload.size()), Crc32(AsBytes(payload)));
  w(Crc32(AsBytes(w.str())));
  std::string out = w.Take();
  out.reserve(kFrameHeaderBytes + payload.size());
  out.append(payload);
  return out;
}

Result<FrameHeader> DecodeFrameHeader(std::span<const std::byte> bytes,
                                      uint32_t max_payload) {
  if (bytes.size() < kFrameHeaderBytes) {
    return Status::InvalidArgument("frame header: need " +
                                   std::to_string(kFrameHeaderBytes) +
                                   " bytes, got " +
                                   std::to_string(bytes.size()));
  }
  WireReader r({reinterpret_cast<const char*>(bytes.data()),
                kFrameHeaderBytes});
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t type_byte = 0;
  uint16_t flags = 0;
  uint32_t header_crc = 0;
  FrameHeader header;
  r(magic, version, type_byte, flags, header.payload_len, header.payload_crc,
    header_crc);
  if (Crc32(bytes.first(16)) != header_crc) {
    return Status::DataLoss("frame header CRC mismatch");
  }
  if (magic != kFrameMagic) {
    return Status::InvalidArgument("frame magic mismatch (not a cluster "
                                   "frame stream)");
  }
  if (version != kFrameVersion) {
    return Status::InvalidArgument("unsupported frame version " +
                                   std::to_string(version));
  }
  if (type_byte < static_cast<uint8_t>(MsgType::kHello) ||
      type_byte > kMaxMsgType) {
    return Status::InvalidArgument("unknown message type " +
                                   std::to_string(type_byte));
  }
  header.type = static_cast<MsgType>(type_byte);
  if (header.payload_len > max_payload) {
    return Status::InvalidArgument(
        "frame payload of " + std::to_string(header.payload_len) +
        " bytes exceeds the cap of " + std::to_string(max_payload));
  }
  return header;
}

Status ValidateFramePayload(const FrameHeader& header,
                            std::string_view payload) {
  if (payload.size() != header.payload_len) {
    return Status::InvalidArgument("frame payload length mismatch");
  }
  if (Crc32(AsBytes(payload)) != header.payload_crc) {
    return Status::DataLoss("frame payload CRC mismatch (" +
                            std::string(MsgTypeName(header.type)) + ")");
  }
  return Status::OK();
}

Status WriteFrame(int fd, MsgType type, std::string_view payload) {
  const std::string frame = EncodeFrame(type, payload);
  errno = 0;
  if (!net::WriteAll(fd, frame.data(), frame.size())) {
    return TransportError("write frame");
  }
  return Status::OK();
}

Status ReadFrame(int fd, Frame* out, uint32_t max_payload) {
  std::byte header_bytes[kFrameHeaderBytes];
  errno = 0;
  if (!net::ReadExactly(fd, header_bytes, sizeof(header_bytes))) {
    return TransportError("read frame header");
  }
  auto header = DecodeFrameHeader(header_bytes, max_payload);
  if (!header.ok()) return header.status();

  std::string payload(header->payload_len, '\0');
  errno = 0;
  if (header->payload_len > 0 &&
      !net::ReadExactly(fd, payload.data(), payload.size())) {
    return TransportError("read frame payload");
  }
  ROD_RETURN_IF_ERROR(ValidateFramePayload(*header, payload));
  out->type = header->type;
  out->payload = std::move(payload);
  return Status::OK();
}

}  // namespace rod::cluster
