#include "support/serialize.h"

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>

namespace simprof {

// Fixed-width vectors move as one block transfer: the byte layout is
// identical to per-element writes (host is little-endian, the per-element
// path wrote raw bits too), but a 131072-entry LLC tag array costs one
// stream call instead of 131072 — checkpoint restore latency is the
// denominator of the measurement speedup (see core/checkpoint.h).
void BinaryWriter::vec_u32(const std::vector<std::uint32_t>& v) {
  u64(v.size());
  if (!v.empty()) raw(v.data(), v.size() * sizeof(std::uint32_t));
}

void BinaryWriter::vec_u64(const std::vector<std::uint64_t>& v) {
  u64(v.size());
  if (!v.empty()) raw(v.data(), v.size() * sizeof(std::uint64_t));
}

void BinaryWriter::vec_f64(const std::vector<double>& v) {
  u64(v.size());
  if (!v.empty()) raw(v.data(), v.size() * sizeof(double));
}

void BinaryWriter::raw_to_buffer(const void* p, std::size_t n) {
  buf_->append(static_cast<const char*>(p), n);
}

void BinaryReader::raw_from_memory(void* p, std::size_t n) {
  if (n > mem_.size()) {
    throw SerializeError("corrupt archive: truncated read");
  }
  if (n != 0) std::memcpy(p, mem_.data(), n);
  mem_.remove_prefix(n);
}

BinaryReader::BinaryReader(std::istream& in) : in_(&in) {
  const std::streampos cur = in_->tellg();
  if (cur == std::streampos(-1)) return;
  in_->seekg(0, std::ios::end);
  const std::streampos end = in_->tellg();
  in_->seekg(cur);
  if (end == std::streampos(-1) || !*in_) {
    in_->clear();
    in_->seekg(cur);
    return;
  }
  end_ = static_cast<std::uint64_t>(end);
  seekable_ = true;
}

std::uint64_t BinaryReader::remaining() const {
  if (in_ == nullptr) return mem_.size();
  if (!seekable_) return std::numeric_limits<std::uint64_t>::max();
  const std::streampos cur = in_->tellg();
  if (cur == std::streampos(-1)) return 0;
  const auto pos = static_cast<std::uint64_t>(cur);
  return pos >= end_ ? 0 : end_ - pos;
}

std::size_t BinaryReader::checked_count(std::size_t elem_size,
                                        const char* what) {
  const std::uint64_t n = u64();
  // Two bounds: a sanity cap against absurd prefixes even on non-seekable
  // streams, and the hard remaining-bytes budget on seekable ones. Both
  // fire *before* any allocation sized by n.
  if (n >= (1ULL << 32) ||
      n > remaining() / static_cast<std::uint64_t>(elem_size)) {
    throw SerializeError(std::string("corrupt archive: ") + what +
                         " length prefix exceeds remaining bytes");
  }
  return static_cast<std::size_t>(n);
}

std::vector<std::uint32_t> BinaryReader::vec_u32() {
  const auto n = checked_count(sizeof(std::uint32_t), "u32 vector");
  std::vector<std::uint32_t> v(n);
  if (n != 0) raw(v.data(), n * sizeof(std::uint32_t));
  return v;
}

std::vector<std::uint64_t> BinaryReader::vec_u64() {
  const auto n = checked_count(sizeof(std::uint64_t), "u64 vector");
  std::vector<std::uint64_t> v(n);
  if (n != 0) raw(v.data(), n * sizeof(std::uint64_t));
  return v;
}

std::vector<double> BinaryReader::vec_f64() {
  const auto n = checked_count(sizeof(double), "f64 vector");
  std::vector<double> v(n);
  if (n != 0) raw(v.data(), n * sizeof(double));
  return v;
}

namespace {
void fsync_path(const std::string& path, int flags) {
  if (const int fd = ::open(path.c_str(), flags); fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
}
}  // namespace

bool publish_file(const std::string& path,
                  const std::function<void(std::ostream&)>& write) {
  namespace fs = std::filesystem;
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::error_code ec;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    write(out);
    if (!out.flush()) {
      out.close();
      fs::remove(tmp, ec);
      return false;
    }
  }
  fsync_path(tmp, O_WRONLY);
  fs::rename(tmp, path, ec);
  if (ec) {
    const std::error_code rename_ec = ec;
    fs::remove(tmp, ec);
    throw fs::filesystem_error("cannot publish", tmp, path, rename_ec);
  }
  const fs::path dir = fs::path(path).parent_path();
  fsync_path(dir.empty() ? "." : dir.string(), O_RDONLY | O_DIRECTORY);
  return true;
}

}  // namespace simprof
