#include "service/protocol.h"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>

#include "support/assert.h"

namespace simprof::service {

std::string_view to_string(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOverQuota: return "over_quota";
    case Status::kQueueFull: return "queue_full";
    case Status::kShuttingDown: return "shutting_down";
    case Status::kBadRequest: return "bad_request";
    case Status::kUnknownWorkload: return "unknown_workload";
    case Status::kInternalError: return "internal_error";
  }
  return "unknown";
}

bool is_rejection(Status s) {
  return s == Status::kOverQuota || s == Status::kQueueFull ||
         s == Status::kShuttingDown;
}

namespace {

// The one visitor behind every message's write and read: a field's C++ type
// picks its encoding.
void put(BinaryWriter& w, std::uint8_t v) { w.u8(v); }
void put(BinaryWriter& w, std::uint64_t v) { w.u64(v); }
void put(BinaryWriter& w, double v) { w.f64(v); }
void put(BinaryWriter& w, const std::string& v) { w.str(v); }
void put(BinaryWriter& w, const std::vector<std::uint64_t>& v) {
  w.vec_u64(v);
}
void put(BinaryWriter& w, const std::vector<double>& v) { w.vec_f64(v); }
void put(BinaryWriter& w, const std::vector<std::string>& v) {
  w.vec(v, [](BinaryWriter& w2, const std::string& e) { w2.str(e); });
}

void get(BinaryReader& r, std::uint8_t& v) { v = r.u8(); }
void get(BinaryReader& r, std::uint64_t& v) { v = r.u64(); }
void get(BinaryReader& r, double& v) { v = r.f64(); }
void get(BinaryReader& r, std::string& v) { v = r.str(); }
void get(BinaryReader& r, std::vector<std::uint64_t>& v) { v = r.vec_u64(); }
void get(BinaryReader& r, std::vector<double>& v) { v = r.vec_f64(); }
void get(BinaryReader& r, std::vector<std::string>& v) {
  v = r.vec<std::string>([](BinaryReader& r2) { return r2.str(); });
}

template <typename Msg>
void write_fields(const Msg& m, BinaryWriter& w) {
  Msg::fields(m, [&](const auto&... f) { (put(w, f), ...); });
}

template <typename Msg>
Msg read_fields(BinaryReader& r) {
  Msg m;
  Msg::fields(m, [&](auto&... f) { (get(r, f), ...); });
  return m;
}

}  // namespace

void ProfileRequest::write(BinaryWriter& w) const { write_fields(*this, w); }
ProfileRequest ProfileRequest::read(BinaryReader& r) {
  return read_fields<ProfileRequest>(r);
}

void ProfileResult::write(BinaryWriter& w) const { write_fields(*this, w); }
ProfileResult ProfileResult::read(BinaryReader& r) {
  return read_fields<ProfileResult>(r);
}

void SensitivityRequest::write(BinaryWriter& w) const {
  write_fields(*this, w);
}
SensitivityRequest SensitivityRequest::read(BinaryReader& r) {
  return read_fields<SensitivityRequest>(r);
}

void SensitivityResult::write(BinaryWriter& w) const { write_fields(*this, w); }
SensitivityResult SensitivityResult::read(BinaryReader& r) {
  return read_fields<SensitivityResult>(r);
}

void MeasureRequest::write(BinaryWriter& w) const { write_fields(*this, w); }
MeasureRequest MeasureRequest::read(BinaryReader& r) {
  return read_fields<MeasureRequest>(r);
}

void MeasureResultMsg::write(BinaryWriter& w) const { write_fields(*this, w); }
MeasureResultMsg MeasureResultMsg::read(BinaryReader& r) {
  return read_fields<MeasureResultMsg>(r);
}

void StatsResult::write(BinaryWriter& w) const { write_fields(*this, w); }
StatsResult StatsResult::read(BinaryReader& r) {
  return read_fields<StatsResult>(r);
}

std::string pack_message(MsgKind kind, std::uint64_t request_id,
                         const std::function<void(BinaryWriter&)>& body) {
  std::ostringstream os;
  BinaryWriter w(os);
  w.u32(kProtocolMagic);
  w.u32(kProtocolVersion);
  w.u32(static_cast<std::uint32_t>(kind));
  w.u64(request_id);
  if (body) body(w);
  return os.str();
}

std::string pack_response(std::uint64_t request_id, Status status,
                          const std::string& message,
                          const std::function<void(BinaryWriter&)>& result) {
  return pack_message(MsgKind::kResponse, request_id, [&](BinaryWriter& w) {
    w.u32(static_cast<std::uint32_t>(status));
    w.str(message);
    if (status == Status::kOk && result) result(w);
  });
}

MessageHeader read_header(BinaryReader& r) {
  if (r.u32() != kProtocolMagic) {
    throw SerializeError("service frame: bad magic");
  }
  const std::uint32_t version = r.u32();
  if (version != kProtocolVersion) {
    throw SerializeError("service frame: unsupported protocol version " +
                         std::to_string(version));
  }
  MessageHeader h;
  h.kind = static_cast<MsgKind>(r.u32());
  h.request_id = r.u64();
  return h;
}

namespace {

sockaddr_un make_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  SIMPROF_EXPECTS(path.size() < sizeof(addr.sun_path),
                  "unix socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

int listen_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  SIMPROF_EXPECTS(fd >= 0, "socket() failed");
  ::unlink(path.c_str());
  sockaddr_un addr = make_addr(path);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw ContractViolation("bind(" + path + ") failed: " +
                            std::strerror(err));
  }
  if (::listen(fd, 64) != 0) {
    const int err = errno;
    ::close(fd);
    throw ContractViolation("listen(" + path + ") failed: " +
                            std::strerror(err));
  }
  return fd;
}

int connect_unix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  SIMPROF_EXPECTS(fd >= 0, "socket() failed");
  sockaddr_un addr = make_addr(path);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const int err = errno;
    ::close(fd);
    throw ContractViolation("connect(" + path + ") failed: " +
                            std::strerror(err));
  }
  return fd;
}

namespace {

bool send_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t sent = ::send(fd, p, n, MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

/// 1 = got all bytes, 0 = clean EOF before the first byte, -1 = truncated.
int recv_all(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return got == 0 ? 0 : -1;
    }
    if (r == 0) return got == 0 ? 0 : -1;
    got += static_cast<std::size_t>(r);
  }
  return 1;
}

}  // namespace

bool write_frame(int fd, const std::string& payload) {
  std::uint64_t len = payload.size();
  if (!send_all(fd, &len, sizeof len)) return false;
  return send_all(fd, payload.data(), payload.size());
}

bool read_frame(int fd, std::string& payload) {
  std::uint64_t len = 0;
  const int r = recv_all(fd, &len, sizeof len);
  if (r == 0) return false;
  if (r < 0) throw SerializeError("service frame: truncated length prefix");
  if (len > kMaxFrameBytes) {
    throw SerializeError("service frame: oversized frame (" +
                         std::to_string(len) + " bytes)");
  }
  payload.resize(static_cast<std::size_t>(len));
  if (len > 0 && recv_all(fd, payload.data(), payload.size()) != 1) {
    throw SerializeError("service frame: truncated payload");
  }
  return true;
}

}  // namespace simprof::service
