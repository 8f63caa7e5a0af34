// Minimal binary (de)serialization used by the WorkloadLab profile cache.
//
// Format: little-endian fixed-width integers, doubles as IEEE-754 bits,
// strings/vectors length-prefixed with uint64. A magic+version header at the
// archive level is the caller's responsibility (ThreadProfile writes
// "SPRF" + version; see DESIGN.md §6d for the versioning policy).
//
// Robustness contract: BinaryReader treats its input as untrusted. Every
// length prefix is bounded by the bytes actually remaining in the stream
// before any allocation, so a corrupt or hostile archive can make a read
// fail with SerializeError but can never drive a multi-gigabyte reserve,
// an over-read, or UB. The fault-injection harness in src/verify drives
// this contract with seeded corruption (see `simprof verify`).
#pragma once

#include <cstdint>
#include <cstring>
#include <functional>
#include <iosfwd>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "support/assert.h"

namespace simprof {

/// Thrown on malformed, truncated, or otherwise corrupt archive bytes.
/// Derives ContractViolation so pre-existing catch sites and tests keep
/// working; new code should catch SerializeError to distinguish bad *input*
/// from a programming bug.
class SerializeError : public ContractViolation {
 public:
  explicit SerializeError(const std::string& what) : ContractViolation(what) {}
};

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(&out) {}
  /// Appends to `buf` in place, so an encoder that owns a reused buffer
  /// pays one copy per field and no stream or intermediate string.
  explicit BinaryWriter(std::string& buf) : buf_(&buf) {}

  void u8(std::uint8_t v) { raw(&v, 1); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void f64(double v) { raw(&v, sizeof v); }

  void str(const std::string& s) {
    u64(s.size());
    raw(s.data(), s.size());
  }

  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& write_one) {
    u64(v.size());
    for (const auto& e : v) write_one(*this, e);
  }

  void vec_u32(const std::vector<std::uint32_t>& v);
  void vec_u64(const std::vector<std::uint64_t>& v);
  void vec_f64(const std::vector<double>& v);

 private:
  void raw(const void* p, std::size_t n) {
    if (buf_ != nullptr) {
      raw_to_buffer(p, n);
      return;
    }
    out_->write(static_cast<const char*>(p), static_cast<std::streamsize>(n));
  }
  // Out of line, so the stream path above stays as small as it is without
  // a buffer mode at every inlined field write.
  void raw_to_buffer(const void* p, std::size_t n);

  std::ostream* out_ = nullptr;
  std::string* buf_ = nullptr;
};

class BinaryReader {
 public:
  /// Measures the stream once at construction (tellg/seekg round trip) so
  /// length prefixes can be validated against the bytes that actually exist.
  /// Non-seekable streams fall back to an unbounded budget — the per-element
  /// truncation check in raw() still catches over-reads, just after O(1)
  /// element reads instead of before the reserve.
  explicit BinaryReader(std::istream& in);
  /// Reads `bytes` in place; the caller keeps them alive while reading.
  explicit BinaryReader(std::string_view bytes) : mem_(bytes) {}

  std::uint8_t u8() { std::uint8_t v; raw(&v, 1); return v; }
  std::uint32_t u32() { std::uint32_t v; raw(&v, sizeof v); return v; }
  std::uint64_t u64() { std::uint64_t v; raw(&v, sizeof v); return v; }
  double f64() { double v; raw(&v, sizeof v); return v; }

  std::string str() {
    const auto n = checked_count(1, "string");
    std::string s(n, '\0');
    raw(s.data(), n);
    return s;
  }

  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& read_one) {
    // Unknown element encoding: bound by one byte per element, the smallest
    // any field encodes to; read_one's own raw() calls catch the rest.
    const auto n = checked_count(1, "vector");
    std::vector<T> v;
    v.reserve(n);
    for (std::size_t i = 0; i < n; ++i) v.push_back(read_one(*this));
    return v;
  }

  std::vector<std::uint32_t> vec_u32();
  std::vector<std::uint64_t> vec_u64();
  std::vector<double> vec_f64();

  bool ok() const { return in_ == nullptr || static_cast<bool>(*in_); }

  /// Bytes left before the end of the stream, or uint64 max if the stream
  /// is not seekable.
  std::uint64_t remaining() const;

 private:
  /// Reads a u64 element count and validates count·elem_size against
  /// remaining(); throws SerializeError("corrupt archive: ...") otherwise.
  std::size_t checked_count(std::size_t elem_size, const char* what);

  void raw(void* p, std::size_t n) {
    if (in_ == nullptr) {
      raw_from_memory(p, n);
      return;
    }
    in_->read(static_cast<char*>(p), static_cast<std::streamsize>(n));
    if (static_cast<std::size_t>(in_->gcount()) != n) {
      throw SerializeError("corrupt archive: truncated read");
    }
  }
  // Out of line, so the stream path above stays as small as it is without
  // a memory mode at every inlined field read.
  void raw_from_memory(void* p, std::size_t n);

  std::istream* in_ = nullptr;
  std::string_view mem_;  ///< unread bytes when reading from memory
  std::uint64_t end_ = std::numeric_limits<std::uint64_t>::max();
  bool seekable_ = false;
};

/// Atomic, durable publish of one file: `write` fills `<path>.tmp.<pid>`,
/// which is fsynced and renamed onto `path`, then the directory is fsynced.
/// A writer killed midway leaves only the temporary, never a partial file
/// under the published name; the pid suffix keeps separate processes off
/// each other's temporaries. Returns false (temporary removed) when the
/// temporary cannot be opened or the write comes up short. A failed rename
/// removes the temporary and throws std::filesystem::filesystem_error.
bool publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write);

}  // namespace simprof
