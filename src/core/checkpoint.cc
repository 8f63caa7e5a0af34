#include "core/checkpoint.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string_view>
#include <utility>

#include "obs/obs.h"
#include "support/assert.h"

namespace simprof::core {

namespace {

// Payload hash: four independent multiply-xor lanes over 8-byte words,
// then the leftover words and the zero-padded tail bytes, with the length
// folded in. Every mix step is a bijection in both its inputs, so a flipped
// bit in any word changes its lane and hence the result. Local because core
// cannot depend on src/verify; it only needs to be stable within the
// archive format version.
constexpr std::uint64_t kHashP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kHashP2 = 0xC2B2AE3D27D4EB4FULL;

std::uint64_t hash_mix(std::uint64_t acc, std::uint64_t word) {
  return std::rotl(acc ^ (word * kHashP2), 31) * kHashP1;
}

std::uint64_t load_word(const char* p) {
  std::uint64_t w;
  std::memcpy(&w, p, sizeof w);
  return w;
}

std::uint64_t payload_hash(std::string_view payload) {
  const char* p = payload.data();
  const std::size_t n = payload.size();
  std::uint64_t lane[4] = {kHashP1, kHashP2, ~kHashP1, ~kHashP2};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    for (int k = 0; k < 4; ++k) {
      lane[k] = hash_mix(lane[k], load_word(p + i + 8 * k));
    }
  }
  std::uint64_t h = n;
  for (const std::uint64_t l : lane) h = hash_mix(h, l);
  for (; i + 8 <= n; i += 8) h = hash_mix(h, load_word(p + i));
  if (i < n) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    h = hash_mix(h, tail);
  }
  // Murmur3's 64-bit finalizer (a bijection) spreads every bit.
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  h ^= h >> 33;
  return h;
}

void write_rng(BinaryWriter& w, const RngState& rng) {
  for (const std::uint64_t s : rng.s) w.u64(s);
  w.u8(rng.have_spare_gaussian ? 1 : 0);
  w.f64(rng.spare_gaussian);
}

RngState read_rng(BinaryReader& r) {
  RngState rng;
  for (std::uint64_t& s : rng.s) s = r.u64();
  rng.have_spare_gaussian = r.u8() != 0;
  rng.spare_gaussian = r.f64();
  return rng;
}

/// The state section of the payload: run identity + profiled thread +
/// profiled cache hierarchy, captured at the unit boundary the archive
/// restores to.
void encode_state(BinaryWriter& w, const exec::Cluster& cluster,
                  const std::string& cache_key, std::uint64_t unit_index) {
  const exec::ClusterConfig& cfg = cluster.config();
  const exec::ThreadState st =
      cluster.context(cfg.profiled_core).capture_state();

  w.str(cache_key);
  w.u64(unit_index);
  w.u64(cfg.unit_instrs);
  w.u32(cluster.num_cores());
  w.u32(cfg.profiled_core);

  write_pmu_counters(w, st.counters);
  w.f64(st.cycles_acc);
  w.u64(st.thread_id);
  write_rng(w, st.rng);
  w.u64(st.next_snapshot_at);
  w.u64(st.next_unit_at);
  write_pmu_counters(w, st.unit_start_counters);
  w.vec_u32(st.frames);

  cluster.memory().l1(cfg.profiled_core).save_state(w);
  cluster.memory().l2(cfg.profiled_core).save_state(w);
  cluster.memory().llc().save_state(w);
}

// Tape references are stored column-wise — one bulk u64 array of line
// addresses plus one byte-string of flag bits per op — so encode/decode is
// two block transfers per op instead of two stream reads per reference
// (restore latency is the denominator of the checkpoint speedup). The few
// boundary generator states follow the ops as a sparse (op index, state)
// list, so they cost nothing per op.
void write_tape(BinaryWriter& w, const CheckpointTape& tape) {
  std::vector<std::uint64_t> lines;
  std::string flags;
  std::uint64_t boundaries = 0;
  w.u64(tape.size());
  for (const TapeOp& op : tape) {
    if (op.boundary_rng) ++boundaries;
    w.u64(op.instrs);
    w.u32(op.llc_ways);
    w.vec_u32(op.frames);
    lines.clear();
    lines.reserve(op.refs.size());
    flags.clear();
    flags.reserve(op.refs.size());
    for (const hw::MemRef& ref : op.refs) {
      lines.push_back(ref.line);
      flags.push_back(static_cast<char>((ref.write ? 1 : 0) |
                                        (ref.prefetchable ? 2 : 0)));
    }
    w.vec_u64(lines);
    w.str(flags);
  }
  w.u64(boundaries);
  for (std::size_t i = 0; i < tape.size(); ++i) {
    if (!tape[i].boundary_rng) continue;
    w.u64(i);
    write_rng(w, *tape[i].boundary_rng);
  }
}

CheckpointTape read_tape(BinaryReader& r) {
  CheckpointTape tape(r.u64());
  for (TapeOp& op : tape) {
    op.instrs = r.u64();
    op.llc_ways = r.u32();
    op.frames = r.vec_u32();
    const std::vector<std::uint64_t> lines = r.vec_u64();
    const std::string flags = r.str();
    if (flags.size() != lines.size()) {
      throw CheckpointError("corrupt archive: tape ref columns disagree");
    }
    op.refs.resize(lines.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      // Replayed lines feed the caches, whose tags are 32-bit.
      if (lines[i] >= hw::kLineLimit) {
        throw CheckpointError("corrupt archive: tape line beyond the 32-bit "
                              "line space");
      }
      op.refs[i].line = lines[i];
      op.refs[i].write = (flags[i] & 1) != 0;
      op.refs[i].prefetchable = (flags[i] & 2) != 0;
    }
  }
  const std::uint64_t boundaries = r.u64();
  if (boundaries > tape.size()) {
    throw CheckpointError("corrupt archive: more boundary states than ops");
  }
  for (std::uint64_t n = 0; n < boundaries; ++n) {
    const std::uint64_t i = r.u64();
    if (i >= tape.size()) {
      throw CheckpointError("corrupt archive: boundary state past tape end");
    }
    tape[i].boundary_rng = read_rng(r);
  }
  return tape;
}

// An archive is encoded in one byte buffer: begin_archive reserves the
// header, the encoders append the payload behind it, and seal_archive fills
// the header in from the finished payload. The buffer is then written out
// once, as is.
constexpr std::size_t kArchiveHeaderBytes = 24;  // magic, version, hash, len

void begin_archive(std::string& buf) {
  buf.assign(kArchiveHeaderBytes, '\0');
}

void seal_archive(std::string& buf) {
  const std::string_view payload =
      std::string_view(buf).substr(kArchiveHeaderBytes);
  const std::uint64_t len = payload.size();
  const std::uint64_t hash = payload_hash(payload);
  char* h = buf.data();
  std::memcpy(h, &kCheckpointMagic, 4);
  std::memcpy(h + 4, &kCheckpointVersion, 4);
  std::memcpy(h + 8, &hash, 8);
  std::memcpy(h + 16, &len, 8);
}

}  // namespace

std::string checkpoint_file_name(std::uint64_t unit_index) {
  return "ckpt-u" + std::to_string(unit_index) + ".sckp";
}

void save_checkpoint(std::ostream& out, const exec::Cluster& cluster,
                     const std::string& cache_key, std::uint64_t unit_index,
                     const CheckpointTape& tape) {
  std::string buf;
  begin_archive(buf);
  BinaryWriter w(buf);
  encode_state(w, cluster, cache_key, unit_index);
  write_tape(w, tape);
  seal_archive(buf);
  out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
}

std::uint64_t load_checkpoint(std::istream& in, exec::Cluster& cluster,
                              const std::string& cache_key,
                              std::uint64_t expect_unit,
                              CheckpointTape* tape_out) {
  std::string payload;
  {
    BinaryReader r(in);
    if (r.u32() != kCheckpointMagic) {
      throw CheckpointError("not a checkpoint archive (bad magic)");
    }
    if (const auto v = r.u32(); v != kCheckpointVersion) {
      throw CheckpointError("unsupported checkpoint version " +
                            std::to_string(v));
    }
    const std::uint64_t expect_hash = r.u64();
    payload = r.str();
    if (payload_hash(payload) != expect_hash) {
      throw CheckpointError("corrupt archive: checkpoint payload hash "
                            "mismatch");
    }
  }

  BinaryReader r{std::string_view(payload)};

  if (r.str() != cache_key) {
    throw CheckpointError("checkpoint belongs to a different run");
  }
  const std::uint64_t unit_index = r.u64();
  if (unit_index != expect_unit) {
    throw CheckpointError("checkpoint is for unit " +
                          std::to_string(unit_index) + ", expected " +
                          std::to_string(expect_unit));
  }
  const exec::ClusterConfig& cfg = cluster.config();
  if (r.u64() != cfg.unit_instrs) {
    throw CheckpointError("checkpoint unit size mismatch");
  }
  if (r.u32() != cluster.num_cores() || r.u32() != cfg.profiled_core) {
    throw CheckpointError("checkpoint cluster geometry mismatch");
  }

  exec::ThreadState st;
  st.counters = read_pmu_counters(r);
  st.cycles_acc = r.f64();
  st.thread_id = r.u64();
  st.rng = read_rng(r);
  st.next_snapshot_at = r.u64();
  st.next_unit_at = r.u64();
  st.unit_start_counters = read_pmu_counters(r);
  st.frames = r.vec_u32();

  // Archive self-consistency: the saved position must be the boundary the
  // file name / caller claims. This is a property of the archive alone — the
  // live cluster's history is irrelevant under impose semantics.
  if (st.counters.instructions != unit_index * cfg.unit_instrs) {
    throw CheckpointError("checkpoint instruction position mismatch");
  }

  // Parse the caches and the tape into scratch copies first: load_state
  // throws on geometry mismatch, and a half-restored hierarchy must never be
  // left behind when we report failure.
  hw::Cache l1(cfg.memory.l1);
  hw::Cache l2(cfg.memory.l2);
  hw::Cache llc(cfg.memory.llc);
  l1.load_state(r);
  l2.load_state(r);
  llc.load_state(r);
  CheckpointTape tape = read_tape(r);

  exec::ExecutorContext& ctx = cluster.context(cfg.profiled_core);
  ctx.restore_state(st);
  cluster.memory().l1(cfg.profiled_core) = std::move(l1);
  cluster.memory().l2(cfg.profiled_core) = std::move(l2);
  cluster.memory().llc() = std::move(llc);
  if (tape_out != nullptr) *tape_out = std::move(tape);
  return payload.size();
}

CheckpointRecorder::CheckpointRecorder(std::string dir, std::string cache_key,
                                       std::uint64_t stride)
    : dir_(std::move(dir)), cache_key_(std::move(cache_key)),
      stride_(stride) {}

void CheckpointRecorder::on_unit_start(std::uint64_t unit_index,
                                       exec::ExecutorContext& ctx) {
  if (stride_ == 0 || unit_index % stride_ != 0) return;
  publish_window();
  // Open the next window: capture the state payload right now — this is the
  // governor sequence point, after the boundary's migration draw, which is
  // exactly where a replayer resumes — and buffer chunks until the window
  // closes at the next stride boundary (or finalize()).
  begin_archive(archive_);
  BinaryWriter w(archive_);
  encode_state(w, ctx.cluster(), cache_key_, unit_index);
  window_unit_ = unit_index;
  tape_.clear();
  window_open_ = true;
}

void CheckpointRecorder::on_chunk(std::uint64_t instrs,
                                  std::span<const hw::MemRef> refs,
                                  std::uint32_t llc_ways,
                                  std::span<const jvm::MethodId> frames) {
  if (!window_open_ || (instrs == 0 && refs.empty())) return;
  TapeOp op;
  op.instrs = instrs;
  op.llc_ways = llc_ways;
  op.frames.assign(frames.begin(), frames.end());
  op.refs.assign(refs.begin(), refs.end());
  tape_.push_back(std::move(op));
}

void CheckpointRecorder::on_boundary_rng(std::uint64_t unit_index,
                                         const RngState& rng) {
  // A stride boundary closes the window; the next archive's state section
  // carries the generator from there on.
  if (!window_open_ || tape_.empty() || unit_index % stride_ == 0) return;
  tape_.back().boundary_rng = rng;
}

void CheckpointRecorder::finalize() { publish_window(); }

void CheckpointRecorder::publish_window() {
  if (!window_open_) return;
  window_open_ = false;
  static obs::Counter& saves = obs::metrics().counter("ckpt.save");
  static obs::Counter& save_bytes = obs::metrics().counter("ckpt.save_bytes");
  obs::ObsSpan span("ckpt.save", {{"unit", window_unit_}});

  const std::string path =
      (std::filesystem::path(dir_) / checkpoint_file_name(window_unit_))
          .string();
  try {
    if (!dir_ready_) {
      std::filesystem::create_directories(dir_);
      dir_ready_ = true;
    }
    BinaryWriter w(archive_);
    write_tape(w, tape_);
    seal_archive(archive_);
    const bool published = publish_file(path, [&](std::ostream& out) {
      out.write(archive_.data(), static_cast<std::streamsize>(archive_.size()));
    });
    if (!published) {
      SIMPROF_LOG(kWarn) << "ckpt: cannot write " << path
                         << ", skipping checkpoint";
      return;
    }
    saves.increment();
    save_bytes.add(archive_.size());
    SIMPROF_LOG(kDebug) << "ckpt: saved unit " << window_unit_ << " ("
                        << tape_.size() << " tape ops) -> " << path;
  } catch (const std::filesystem::filesystem_error& e) {
    SIMPROF_LOG(kWarn) << "ckpt: save failed for unit " << window_unit_
                       << " (" << e.what()
                       << "), continuing without checkpoint";
  }
}

UnitRecordCollector::UnitRecordCollector(
    std::vector<std::uint64_t> target_units)
    : targets_(std::move(target_units)) {
  std::sort(targets_.begin(), targets_.end());
  targets_.erase(std::unique(targets_.begin(), targets_.end()),
                 targets_.end());
}

bool UnitRecordCollector::is_target(std::uint64_t u) const {
  return std::binary_search(targets_.begin(), targets_.end(), u);
}

void UnitRecordCollector::on_snapshot(std::span<const jvm::MethodId> stack) {
  // Snapshots only matter for units we will keep; warming units burn the
  // cache hierarchy in, not the histogram.
  if (!is_target(current_unit_)) return;
  for (const jvm::MethodId m : stack) ++current_histogram_[m];
}

void UnitRecordCollector::on_unit_boundary(const hw::PmuCounters& delta,
                                           const hw::MavBlock& mav) {
  if (is_target(current_unit_)) {
    records_.push_back(
        make_unit_record(current_unit_, delta, mav, current_histogram_));
  }
  current_histogram_.clear();
  ++current_unit_;
}

std::vector<UnitRecord> UnitRecordCollector::take_records() {
  std::vector<UnitRecord> out = std::move(records_);
  records_ = {};
  std::sort(out.begin(), out.end(),
            [](const UnitRecord& a, const UnitRecord& b) {
              return a.unit_id < b.unit_id;
            });
  return out;
}

CheckpointReplayer::CheckpointReplayer(std::string dir, std::string cache_key,
                                       std::vector<std::uint64_t> target_units)
    : UnitRecordCollector(std::move(target_units)), dir_(std::move(dir)),
      cache_key_(std::move(cache_key)) {
  // Discover the available archives. A scan failure (missing dir) just
  // means no checkpoints: the caller measures cold.
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    constexpr std::string_view prefix = "ckpt-u";
    constexpr std::string_view suffix = ".sckp";
    if (name.size() <= prefix.size() + suffix.size() ||
        name.compare(0, prefix.size(), prefix) != 0 ||
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
            0) {
      continue;
    }
    // Digits only, and in range: a stray name must not abort the scan.
    const char* first = name.data() + prefix.size();
    const char* last = name.data() + name.size() - suffix.size();
    std::uint64_t unit = 0;
    const auto [end_ptr, err] = std::from_chars(first, last, unit);
    if (err != std::errc{} || end_ptr != last) continue;
    available_.push_back(unit);
  }
  std::sort(available_.begin(), available_.end());
}

void CheckpointReplayer::replay(const exec::ClusterConfig& cc) {
  static obs::Counter& restore_ctr = obs::metrics().counter("ckpt.restore");
  static obs::Counter& restore_bytes =
      obs::metrics().counter("ckpt.restore_bytes");
  static obs::QuantileHistogram& restore_ms =
      obs::metrics().quantile_histogram("ckpt.restore_ms");

  exec::Cluster cluster(cc);
  cluster.set_profiling_hook(this);
  exec::ExecutorContext& ctx = cluster.context(cc.profiled_core);

  bool loaded = false;
  std::uint64_t loaded_unit = 0;
  CheckpointTape tape;
  std::size_t op_idx = 0;

  for (const std::uint64_t t : targets_) {
    auto it = std::upper_bound(available_.begin(), available_.end(), t);
    if (it == available_.begin()) {
      throw CheckpointError("no checkpoint archive at or before unit " +
                            std::to_string(t));
    }
    const std::uint64_t start = *std::prev(it);

    if (!loaded || loaded_unit != start) {
      obs::ObsSpan span("ckpt.restore", {{"unit", start}});
      const auto t0 = std::chrono::steady_clock::now();
      const std::string path =
          (std::filesystem::path(dir_) / checkpoint_file_name(start))
              .string();
      std::ifstream in(path, std::ios::binary);
      if (!in) {
        throw CheckpointError("checkpoint archive vanished: " + path);
      }
      const std::uint64_t before_ip = ctx.counters().instructions;
      const std::uint64_t bytes =
          load_checkpoint(in, cluster, cache_key_, start, &tape);
      const std::uint64_t after_ip = start * cc.unit_instrs;
      if (after_ip > before_ip) ff_instrs_ += after_ip - before_ip;
      ++restores_;
      restore_ctr.increment();
      restore_bytes.add(bytes);
      restore_ms.observe(std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
      loaded = true;
      loaded_unit = start;
      op_idx = 0;
      current_unit_ = start;
      SIMPROF_LOG(kDebug) << "ckpt: restored unit " << start << " <- " << path
                          << " (" << bytes << " payload bytes, "
                          << tape.size() << " tape ops)";
    }

    // Re-execute the window's op tape until the boundary closing unit `t`
    // fires. Chunks never span boundaries (execute() clips them), so op
    // granularity is exact, and stopping mid-window leaves valid state for
    // a later target in the same window.
    while (current_unit_ <= t && op_idx < tape.size()) {
      const TapeOp& op = tape[op_idx++];
      ctx.stack().restore_frames(op.frames);
      cluster.memory().llc().set_effective_ways(op.llc_ways);
      if (op.boundary_rng) ctx.rng().set_state(*op.boundary_rng);
      auto refs = hw::AccessStream::replay(op.refs);
      ctx.execute(op.instrs, refs);
    }

    if (current_unit_ <= t) {
      // Tape exhausted before unit `t` completed: either the run's trailing
      // partial unit (measured under the same rule as Cluster::finish), a
      // target past the end of the run (skipped, like the oracle pass
      // would), or — if archives exist past this window — a tape that should
      // have reached the next stride boundary but did not, i.e. archive
      // damage.
      const bool measured_tail =
          ctx.counters().instructions / cc.unit_instrs == t &&
          ctx.finish_partial_unit(*this);
      if (!measured_tail && available_.back() > loaded_unit) {
        throw CheckpointError("op tape in archive for unit " +
                              std::to_string(loaded_unit) +
                              " ends before unit " + std::to_string(t));
      }
    }
  }
}

ColdMeasurer::ColdMeasurer(std::vector<std::uint64_t> target_units)
    : UnitRecordCollector(std::move(target_units)) {}

void ColdMeasurer::on_unit_start(std::uint64_t unit_index,
                                 exec::ExecutorContext& ctx) {
  current_unit_ = unit_index;
  // Everything up to the last target runs detailed so each target unit sees
  // exactly the cache state the oracle pass saw; past it, nothing is
  // measured, so the profiled core stops.
  if (targets_.empty() || unit_index > targets_.back()) ctx.stop();
}

}  // namespace simprof::core
