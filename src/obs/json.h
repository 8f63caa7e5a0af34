// Minimal JSON emission helpers shared by the metrics exporter, the
// Chrome-trace writer, the flight recorder and the run-ledger manifest, plus
// the one file writer all of them use. Emission only — the one
// obs component that *reads* JSON (`simprof report`, obs/report.h) carries
// its own small recursive-descent reader.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace simprof::obs {

/// Append `s` to `out` as a JSON string literal (quotes included), escaping
/// control characters, quotes and backslashes.
void json_append_quoted(std::string& out, std::string_view s);

/// `s` as a JSON string literal.
std::string json_quote(std::string_view s);

/// A double as a JSON number. NaN/±inf are not representable in JSON and
/// are emitted as 0 — but never silently: each occurrence bumps the
/// `obs.json_nonfinite` counter and the first one logs a kWarn line, so
/// broken instrumentation is visible in every metrics snapshot.
std::string json_number(double v);

std::string json_number(std::uint64_t v);
std::string json_number(std::int64_t v);

/// Write `doc` to `path`, truncating. On failure logs a kError line naming
/// `what` (e.g. "run manifest") and returns false.
bool write_json_file(const std::string& path, std::string_view doc,
                     std::string_view what);

}  // namespace simprof::obs
