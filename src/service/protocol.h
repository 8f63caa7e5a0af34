// Wire protocol of the SimProf service daemon (`simprof serve`).
//
// Transport: a Unix-domain stream socket carrying length-prefixed frames —
// a u64 little-endian payload length followed by that many payload bytes.
// Each payload is a message encoded with support::serialize primitives:
//
//   u32 magic 'SPRC' | u32 version | u32 kind | u64 request_id | body…
//
// Requests flow client → server; the server answers every request with
// exactly one kResponse frame echoing the request_id (status + message +
// kind-specific result body on kOk).
//
// Each message struct lists its fields once, in wire order, in a static
// fields(message, fn) that calls fn(field...); protocol.cc's one visitor
// writes and reads every message through it.
//
// Robustness: frames are bounded (kMaxFrameBytes) and decoded with the
// bounded BinaryReader, so a malformed or hostile peer can make a read
// throw SerializeError but can never drive an unbounded allocation. The
// server answers an undecodable-but-framed request with a typed
// kBadRequest response instead of hanging or dying.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "support/serialize.h"

namespace simprof::service {

inline constexpr std::uint32_t kProtocolMagic = 0x43525053;  // "SPRC"
/// v2: ProfileRequest carries the feature mode + estimator selectors (and
/// ProfileResult echoes them), so a client can pin the analysis
/// configuration per request. v3: the request's streaming fields and the
/// interim-selection frame are gone; any other version is answered
/// kBadRequest.
inline constexpr std::uint32_t kProtocolVersion = 3;
/// Frame payload cap — a profile blob for the largest lab run is well under
/// this; anything bigger is a corrupt or hostile length prefix.
inline constexpr std::uint64_t kMaxFrameBytes = 256ull << 20;

enum class MsgKind : std::uint32_t {
  kHello = 1,
  kHelloAck = 2,
  kProfileRequest = 3,
  kSensitivityRequest = 4,
  kMeasureRequest = 5,
  kStatsRequest = 6,
  kResponse = 8,  ///< 7 was v2's interim-selection frame
};

/// Typed outcome of a request. Everything except kOk is a *rejection or
/// failure the client can branch on* — over-quota callers get kOverQuota
/// back immediately, they are never left hanging.
enum class Status : std::uint32_t {
  kOk = 0,
  kOverQuota = 1,      ///< client exceeded its max in-flight quota
  kQueueFull = 2,      ///< server request queue at capacity
  kShuttingDown = 3,   ///< server is draining; retry elsewhere/later
  kBadRequest = 4,     ///< undecodable or semantically invalid request
  kUnknownWorkload = 5,
  kInternalError = 6,
};

std::string_view to_string(Status s);
bool is_rejection(Status s);

struct MessageHeader {
  MsgKind kind = MsgKind::kHello;
  std::uint64_t request_id = 0;
};

/// Profile request: run (workload, input, scale, seed) through the lab
/// (cached + single-flighted), optionally form phases and select `sample_n`
/// simulation points. `want_profile_bytes` returns the exact
/// ThreadProfile::save blob for bit-identity checks against the one-shot
/// CLI.
struct ProfileRequest {
  std::string workload;
  std::string input = "Google";
  double scale = 0.05;
  std::uint64_t seed = 42;
  std::uint8_t analyze = 1;
  std::uint64_t sample_n = 8;
  std::uint8_t want_profile_bytes = 0;
  /// features::FeatureMode for phase formation (v2). The oracle pass and
  /// its cache key are mode-independent — distinct modes over the same
  /// workload config still dedup into one lab run; only the analysis
  /// differs.
  std::uint8_t features = 0;
  /// core::Estimator wire value: 0 = Neyman, 1 = two-phase (v2).
  std::uint8_t estimator = 0;

  template <typename Self, typename Fn>
  static void fields(Self& m, Fn&& fn) {
    fn(m.workload, m.input, m.scale, m.seed, m.analyze, m.sample_n,
       m.want_profile_bytes, m.features, m.estimator);
  }
  void write(BinaryWriter& w) const;
  static ProfileRequest read(BinaryReader& r);
};

struct ProfileResult {
  std::uint8_t from_cache = 0;
  std::uint64_t units = 0;
  std::uint64_t methods = 0;
  double oracle_cpi = 0.0;
  std::uint64_t phase_count = 0;  ///< 0 when analyze was off
  double estimated_cpi = 0.0;
  double standard_error = 0.0;
  std::vector<std::uint64_t> selected_units;
  std::vector<double> weights;
  std::string profile_bytes;  ///< ThreadProfile::save blob (when requested)
  std::uint8_t features = 0;   ///< echo of the request's feature mode (v2)
  std::uint8_t estimator = 0;  ///< echo of the request's estimator (v2)

  template <typename Self, typename Fn>
  static void fields(Self& m, Fn&& fn) {
    fn(m.from_cache, m.units, m.methods, m.oracle_cpi, m.phase_count,
       m.estimated_cpi, m.standard_error, m.selected_units, m.weights,
       m.profile_bytes, m.features, m.estimator);
  }
  void write(BinaryWriter& w) const;
  static ProfileResult read(BinaryReader& r);
};

/// Input-sensitivity request: train on `workload`, classify each reference
/// workload's profile onto the trained phases (Algorithm 1).
struct SensitivityRequest {
  std::string workload;
  std::string input = "Google";
  double scale = 0.05;
  std::uint64_t seed = 42;
  std::vector<std::string> references;
  double threshold = 0.10;

  template <typename Self, typename Fn>
  static void fields(Self& m, Fn&& fn) {
    fn(m.workload, m.input, m.scale, m.seed, m.references, m.threshold);
  }
  void write(BinaryWriter& w) const;
  static SensitivityRequest read(BinaryReader& r);
};

struct SensitivityResult {
  std::uint64_t phases = 0;
  std::uint64_t sensitive = 0;

  template <typename Self, typename Fn>
  static void fields(Self& m, Fn&& fn) {
    fn(m.phases, m.sensitive);
  }
  void write(BinaryWriter& w) const;
  static SensitivityResult read(BinaryReader& r);
};

/// Measure a selected subset of sampling units (checkpoint fast path).
struct MeasureRequest {
  std::string workload;
  std::string input = "Google";
  double scale = 0.05;
  std::uint64_t seed = 42;
  std::vector<std::uint64_t> units;

  template <typename Self, typename Fn>
  static void fields(Self& m, Fn&& fn) {
    fn(m.workload, m.input, m.scale, m.seed, m.units);
  }
  void write(BinaryWriter& w) const;
  static MeasureRequest read(BinaryReader& r);
};

struct MeasureResultMsg {
  std::uint8_t used_checkpoints = 0;
  std::uint8_t fallback = 0;
  std::uint64_t checkpoints_restored = 0;
  std::vector<std::uint64_t> unit_ids;
  std::vector<double> cpis;

  template <typename Self, typename Fn>
  static void fields(Self& m, Fn&& fn) {
    fn(m.used_checkpoints, m.fallback, m.checkpoints_restored, m.unit_ids,
       m.cpis);
  }
  void write(BinaryWriter& w) const;
  static MeasureResultMsg read(BinaryReader& r);
};

/// Live server counters (kStatsRequest is answered inline, never queued).
struct StatsResult {
  std::uint64_t accepted = 0;
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t queue_depth = 0;
  std::uint64_t inflight = 0;
  std::uint64_t admission_level = 0;

  template <typename Self, typename Fn>
  static void fields(Self& m, Fn&& fn) {
    fn(m.accepted, m.rejected, m.completed, m.queue_depth, m.inflight,
       m.admission_level);
  }
  void write(BinaryWriter& w) const;
  static StatsResult read(BinaryReader& r);
};

/// Serialize one message: header + body written by `body` (may be null for
/// body-less kinds like kHello/kStatsRequest).
std::string pack_message(MsgKind kind, std::uint64_t request_id,
                         const std::function<void(BinaryWriter&)>& body = {});

/// Response payload helper: header + status + message + (on kOk) result.
std::string pack_response(std::uint64_t request_id, Status status,
                          const std::string& message,
                          const std::function<void(BinaryWriter&)>& result = {});

/// Parse and validate the header; the reader is left positioned at the
/// body. Throws SerializeError on bad magic/version.
MessageHeader read_header(BinaryReader& r);

// ---- socket plumbing (all fds are plain blocking stream sockets) ----

/// Bind + listen on `path` (an existing socket file is unlinked first).
/// Returns the listening fd; throws ContractViolation on failure.
int listen_unix(const std::string& path);

/// Connect to the daemon at `path`; throws ContractViolation on failure.
int connect_unix(const std::string& path);

/// Write one length-prefixed frame (EINTR-safe, SIGPIPE-suppressed).
/// Returns false if the peer is gone.
bool write_frame(int fd, const std::string& payload);

/// Read one length-prefixed frame into `payload`. Returns false on clean
/// EOF before a length prefix; throws SerializeError on a truncated or
/// oversized frame.
bool read_frame(int fd, std::string& payload);

}  // namespace simprof::service
