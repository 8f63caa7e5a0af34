#include "obs/json.h"

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "obs/log.h"
#include "obs/metrics.h"

namespace simprof::obs {
namespace {

// Registered at namespace scope (pre-main), never under the registry mutex —
// json_number is called from MetricsRegistry::to_json with that mutex held,
// so a lazy first-use lookup there would self-deadlock. Counter::add itself
// is lock-free.
Counter& g_nonfinite = metrics().counter("obs.json_nonfinite");

}  // namespace

void json_append_quoted(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_append_quoted(out, s);
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    // JSON cannot represent NaN/±inf; emit 0 but make the bad
    // instrumentation visible instead of silently absorbing it.
    g_nonfinite.increment();
    static std::atomic<bool> warned{false};
    if (!warned.exchange(true, std::memory_order_relaxed)) {
      SIMPROF_LOG(kWarn)
          << "json: non-finite number emitted as 0 (further occurrences "
             "counted in obs.json_nonfinite, logged once)";
    }
    return "0";
  }
  char buf[32];
  // %.17g round-trips doubles; trim to %g readability where exact.
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

std::string json_number(std::uint64_t v) { return std::to_string(v); }
std::string json_number(std::int64_t v) { return std::to_string(v); }

bool write_json_file(const std::string& path, std::string_view doc,
                     std::string_view what) {
  std::ofstream out(path, std::ios::trunc);
  out << doc;
  out.flush();
  if (!out) {
    SIMPROF_LOG(kError) << "cannot write " << what << ' ' << path;
    return false;
  }
  return true;
}

}  // namespace simprof::obs
