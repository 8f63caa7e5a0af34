#include "service/client.h"

#include <unistd.h>

#include <sstream>

#include "support/assert.h"

namespace simprof::service {

ServiceClient::ServiceClient(const std::string& socket_path) {
  fd_ = connect_unix(socket_path);
  const std::uint64_t id = ++next_request_id_;
  if (!write_frame(fd_, pack_message(MsgKind::kHello, id))) {
    ::close(fd_);
    throw ContractViolation("service client: hello send failed");
  }
  std::string payload;
  if (!read_frame(fd_, payload)) {
    ::close(fd_);
    throw ContractViolation("service client: daemon closed during handshake");
  }
  std::istringstream is(payload);
  BinaryReader r(is);
  const MessageHeader h = read_header(r);
  if (h.kind != MsgKind::kHelloAck || h.request_id != id) {
    ::close(fd_);
    throw ContractViolation("service client: bad handshake reply");
  }
}

ServiceClient::~ServiceClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::pair<Status, std::string> ServiceClient::call(
    MsgKind kind, const std::function<void(BinaryWriter&)>& body,
    std::string& result_body) {
  const std::uint64_t id = ++next_request_id_;
  if (!write_frame(fd_, pack_message(kind, id, body))) {
    return {Status::kInternalError, "send failed: daemon gone"};
  }
  std::string payload;
  while (read_frame(fd_, payload)) {
    std::istringstream is(payload);
    BinaryReader r(is);
    const MessageHeader h = read_header(r);
    if (h.kind != MsgKind::kResponse || h.request_id != id) continue;
    const auto status = static_cast<Status>(r.u32());
    std::string message = r.str();
    if (status == Status::kOk) {
      // Hand the remaining bytes to the typed reader.
      result_body = payload.substr(payload.size() - r.remaining());
    }
    return {status, std::move(message)};
  }
  return {Status::kInternalError, "daemon closed the connection"};
}

namespace {

template <typename Result>
Result parse_result(const std::string& body) {
  std::istringstream is(body);
  BinaryReader r(is);
  return Result::read(r);
}

}  // namespace

ServiceClient::ProfileReply ServiceClient::profile(const ProfileRequest& req) {
  ProfileReply reply;
  std::string body;
  std::tie(reply.status, reply.message) =
      call(MsgKind::kProfileRequest,
           [&](BinaryWriter& w) { req.write(w); }, body);
  if (reply.status == Status::kOk) {
    reply.result = parse_result<ProfileResult>(body);
  }
  return reply;
}

ServiceClient::SensitivityReply ServiceClient::sensitivity(
    const SensitivityRequest& req) {
  SensitivityReply reply;
  std::string body;
  std::tie(reply.status, reply.message) =
      call(MsgKind::kSensitivityRequest,
           [&](BinaryWriter& w) { req.write(w); }, body);
  if (reply.status == Status::kOk) {
    reply.result = parse_result<SensitivityResult>(body);
  }
  return reply;
}

ServiceClient::MeasureReply ServiceClient::measure(const MeasureRequest& req) {
  MeasureReply reply;
  std::string body;
  std::tie(reply.status, reply.message) =
      call(MsgKind::kMeasureRequest,
           [&](BinaryWriter& w) { req.write(w); }, body);
  if (reply.status == Status::kOk) {
    reply.result = parse_result<MeasureResultMsg>(body);
  }
  return reply;
}

StatsResult ServiceClient::stats() {
  std::string body;
  const auto [status, message] = call(MsgKind::kStatsRequest, {}, body);
  SIMPROF_EXPECTS(status == Status::kOk,
                  "service client: stats request failed");
  return parse_result<StatsResult>(body);
}

}  // namespace simprof::service
