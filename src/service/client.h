// Blocking client for the SimProf service daemon — one connection, one
// outstanding request at a time (the load generator drives its own
// pipelined connections directly on the protocol functions; this class is
// the simple call interface for tests and one-shot CLI use).
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "service/protocol.h"

namespace simprof::service {

class ServiceClient {
 public:
  /// Connects and performs the kHello handshake; throws ContractViolation
  /// if the daemon is unreachable or answers garbage.
  explicit ServiceClient(const std::string& socket_path);
  ~ServiceClient();

  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Final outcome of a request. `status != kOk` carries `message`; the
  /// typed result fields are only meaningful on kOk.
  struct ProfileReply {
    Status status = Status::kInternalError;
    std::string message;
    ProfileResult result;
  };
  struct SensitivityReply {
    Status status = Status::kInternalError;
    std::string message;
    SensitivityResult result;
  };
  struct MeasureReply {
    Status status = Status::kInternalError;
    std::string message;
    MeasureResultMsg result;
  };

  /// Send and block for the final response.
  ProfileReply profile(const ProfileRequest& req);
  SensitivityReply sensitivity(const SensitivityRequest& req);
  MeasureReply measure(const MeasureRequest& req);
  StatsResult stats();

 private:
  /// Sends `kind`+body, then reads frames until the matching kResponse.
  /// Returns (status, message) and leaves the result body in `result_body`.
  std::pair<Status, std::string> call(
      MsgKind kind, const std::function<void(BinaryWriter&)>& body,
      std::string& result_body);

  int fd_ = -1;
  std::uint64_t next_request_id_ = 0;
};

}  // namespace simprof::service
