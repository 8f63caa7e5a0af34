// MiniHadoop: the MapReduce engine substrate (Table I's "_hp" configs).
//
// Execution model differences from MiniSpark that the paper leans on:
//   * executor threads are per-task (YarnChild): the profiler merges the
//     threads running on one core into a single stream (Section III-A) —
//     the cluster's thread_per_task mode models exactly that;
//   * mappers buffer key-value output in MapOutputBuffer, quicksort it by
//     key and spill to disk through an (optionally compressed) IFile writer,
//     running the combiner over each sorted spill — Figure 15's map /
//     combine / sort phase trio;
//   * reducers shuffle-fetch map segments, k-way merge them and stream the
//     merged run through the user reduce function to HDFS.
//
// The paper's Hadoop tuning (bigger map buffer, map-output compression) is
// exposed in HadoopConfig and enabled by default.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/cluster.h"
#include "exec/kernels.h"
#include "jvm/call_stack.h"
#include "obs/obs.h"
#include "support/assert.h"
#include "support/sort.h"

namespace simprof::hadoop {

struct HadoopConfig {
  std::uint32_t num_reducers = 0;  ///< 0 → one per core
  std::uint64_t map_buffer_bytes = 8ull << 20;  ///< io.sort.mb (paper: raised)
  double spill_threshold = 0.8;                 ///< io.sort.spill.percent
  bool compress_map_output = true;              ///< paper optimization
  exec::KernelCosts costs;
};

/// Pre-interned Hadoop framework methods (shared by every job on a cluster).
struct HadoopMethods {
  explicit HadoopMethods(jvm::MethodRegistry& reg);

  jvm::MethodId yarn_child;
  jvm::MethodId map_task_run;
  jvm::MethodId record_reader;
  jvm::MethodId output_collect;
  jvm::MethodId sort_and_spill;
  jvm::MethodId quick_sort;
  jvm::MethodId combiner_run;
  jvm::MethodId ifile_append;
  jvm::MethodId codec_compress;
  jvm::MethodId merger_merge;
  jvm::MethodId reduce_task_run;
  jvm::MethodId shuffle_fetch;
  jvm::MethodId output_write;
};

/// One input split: real records plus the modeled HDFS byte size.
template <typename In>
struct InputSplit {
  std::vector<In> records;
  std::uint64_t bytes = 0;
};

/// Job description. `combine_fn` empty → no combiner (Sort, Grep).
/// `reduce_fn` folds the value group of one key into the output value.
template <typename In, typename K, typename V>
struct JobSpec {
  std::string job_name = "job";
  std::string mapper_name = "app.Mapper.map";
  std::string reducer_name = "app.Reducer.reduce";
  std::function<void(const In&, std::vector<std::pair<K, V>>&)> map_fn;
  std::function<V(const V&, const V&)> combine_fn;  // may be empty
  std::function<V(const K&, const std::vector<V>&)> reduce_fn;
  double map_instrs_per_record = 40;
  double map_instrs_per_emit = 12;
  double reduce_instrs_per_value = 14;
  double pair_bytes = 12;
};

template <typename In, typename K, typename V>
class MapReduceJob {
 public:
  MapReduceJob(exec::Cluster& cluster, HadoopConfig cfg,
               JobSpec<In, K, V> spec)
      : cluster_(cluster),
        cfg_(cfg),
        spec_(std::move(spec)),
        methods_(cluster.methods()),
        m_mapper_(cluster.methods().intern(spec_.mapper_name,
                                           jvm::OpKind::kMap)),
        m_reducer_(cluster.methods().intern(spec_.reducer_name,
                                            jvm::OpKind::kReduce)) {
    SIMPROF_EXPECTS(static_cast<bool>(spec_.map_fn), "job needs a map fn");
    SIMPROF_EXPECTS(static_cast<bool>(spec_.reduce_fn),
                    "job needs a reduce fn");
    if (cfg_.num_reducers == 0) cfg_.num_reducers = cluster.num_cores();
    buffer_region_ = cluster.address_space().allocate(cfg_.map_buffer_bytes);
    spill_region_ = cluster.address_space().allocate(1ull << 26);
    reduce_region_ = cluster.address_space().allocate(1ull << 26);
    output_region_ = cluster.address_space().allocate(1ull << 26);
  }

  /// Run the full job; returns the reduce output (key order within a
  /// reducer, reducers concatenated).
  std::vector<std::pair<K, V>> run(const std::vector<InputSplit<In>>& splits) {
    run_map_stage(splits);
    return run_reduce_stage();
  }

  std::uint32_t num_reducers() const { return cfg_.num_reducers; }
  std::uint64_t total_spills() const { return total_spills_; }

 private:
  using Pair = std::pair<K, V>;

  void run_map_stage(const std::vector<InputSplit<In>>& splits) {
    segments_.assign(cfg_.num_reducers,
                     std::vector<std::vector<Pair>>(splits.size()));
    cluster_.run_stage(
        spec_.job_name + "_map", splits.size(),
        [&](std::size_t s, exec::ExecutorContext& ctx) {
          map_task(s, splits[s], ctx);
        },
        /*thread_per_task=*/true);
  }

  /// Map task `task` writes only its own segments, segments_[·][task].
  void map_task(std::size_t task, const InputSplit<In>& split,
                exec::ExecutorContext& ctx) {
    jvm::MethodScope yarn(ctx.stack(), methods_.yarn_child);
    jvm::MethodScope mt(ctx.stack(), methods_.map_task_run);

    std::vector<Pair> buffer;
    std::vector<std::vector<Pair>> spills;  // sorted (+combined) runs
    std::uint64_t buffer_bytes = 0;
    const auto spill_at = static_cast<std::uint64_t>(
        cfg_.spill_threshold * static_cast<double>(cfg_.map_buffer_bytes));
    // The pairs a buffer holds when it spills. Reserving them spares the
    // doubling copies, and a spill that takes the buffer along (no
    // combiner) keeps no slack capacity.
    const auto pair_step = static_cast<std::uint64_t>(spec_.pair_bytes);
    const std::size_t full_buffer =
        pair_step == 0
            ? 0
            : static_cast<std::size_t>((spill_at + pair_step - 1) / pair_step);
    buffer.reserve(full_buffer);

    // Read + map cost is charged in record batches between spills, so the
    // simulated timeline interleaves map work with sortAndSpill bursts
    // exactly as a real mapper does (the reader runs under Mapper.run).
    const double bytes_per_record =
        split.records.empty()
            ? 0.0
            : static_cast<double>(split.bytes) /
                  static_cast<double>(split.records.size());
    std::uint64_t pending_records = 0;
    std::uint64_t pending_emits = 0;
    auto charge_map_work = [&] {
      if (pending_records == 0 && pending_emits == 0) return;
      jvm::MethodScope map_scope(ctx.stack(), m_mapper_);
      {
        jvm::MethodScope rr(ctx.stack(), methods_.record_reader);
        exec::scan_region(
            ctx, spill_region_,
            static_cast<std::uint64_t>(
                bytes_per_record * static_cast<double>(pending_records)),
            cfg_.costs.scan_instrs_per_byte);
      }
      const auto instrs = static_cast<std::uint64_t>(
          spec_.map_instrs_per_record * static_cast<double>(pending_records) +
          spec_.map_instrs_per_emit * static_cast<double>(pending_emits));
      jvm::MethodScope collect(ctx.stack(), methods_.output_collect);
      auto append = hw::AccessStream::strided(
          buffer_region_,
          std::min<std::uint64_t>(
              static_cast<std::uint64_t>(
                  spec_.pair_bytes * static_cast<double>(pending_emits)),
              cfg_.map_buffer_bytes),
          1, /*write=*/true);
      ctx.execute(instrs, append);
      pending_records = 0;
      pending_emits = 0;
    };

    std::vector<Pair> emitted;
    for (const In& rec : split.records) {
      emitted.clear();
      spec_.map_fn(rec, emitted);
      ++pending_records;
      pending_emits += emitted.size();
      for (auto& kv : emitted) {
        buffer.push_back(std::move(kv));
        buffer_bytes += static_cast<std::uint64_t>(spec_.pair_bytes);
        if (buffer_bytes >= spill_at) {
          charge_map_work();
          sort_and_spill(buffer, spills, buffer_bytes, ctx);
          buffer.reserve(full_buffer);
        }
      }
    }
    charge_map_work();
    if (!buffer.empty()) sort_and_spill(buffer, spills, buffer_bytes, ctx);

    // Merge spills (charged only if more than one) straight into this
    // task's per-reducer segments (hash partitioner).
    std::uint64_t merged_count = 0;
    for (const auto& sp : spills) merged_count += sp.size();
    if (spills.size() > 1) {
      jvm::MethodScope mg(ctx.stack(), methods_.merger_merge);
      exec::merge_runs(ctx, spill_region_,
                       static_cast<std::uint64_t>(
                           spec_.pair_bytes * static_cast<double>(merged_count)),
                       merged_count, static_cast<std::uint32_t>(spills.size()),
                       cfg_.costs);
    }
    const std::vector<std::span<const Pair>> runs(spills.begin(), spills.end());
    support::merge_by_key(runs, [&](const Pair& kv) {
      segments_[partition_of(kv.first)][task].push_back(kv);
    });
  }

  void sort_and_spill(std::vector<Pair>& buffer,
                      std::vector<std::vector<Pair>>& spills,
                      std::uint64_t& buffer_bytes,
                      exec::ExecutorContext& ctx) {
    jvm::MethodScope spill_scope(ctx.stack(), methods_.sort_and_spill);
    ++total_spills_;
    static obs::Counter& spill_count = obs::metrics().counter("hadoop.spills");
    spill_count.increment();
    // A stopped core carries no simulated cycle times; its span stays
    // unclosed and records nothing.
    const bool live = !ctx.stopped();
    obs::VirtualSpan spill_span(ctx.trace_lane(), "hadoop.sort_and_spill",
                                ctx.counters().cycles);
    // QuickSort over the buffered key-value index — recursive partition
    // passes with data-dependent sizes (Figure 15's high-CoV sort phase).
    {
      jvm::MethodScope qs(ctx.stack(), methods_.quick_sort);
      {
        obs::ObsSpan span("hadoop.sort_spill", {{"pairs", buffer.size()}});
        support::sort_by_key(buffer);
      }
      exec::quicksort_traffic(
          ctx, buffer_region_, buffer.size(),
          static_cast<std::uint32_t>(std::max(1.0, spec_.pair_bytes)),
          cfg_.costs);
    }
    // Combine adjacent same-key values over the sorted run.
    std::vector<Pair> run;
    if (spec_.combine_fn) {
      jvm::MethodScope comb(ctx.stack(), methods_.combiner_run);
      run.reserve(buffer.size() / 2 + 1);
      for (auto& kv : buffer) {
        if (!run.empty() && run.back().first == kv.first) {
          run.back().second = spec_.combine_fn(run.back().second, kv.second);
        } else {
          run.push_back(std::move(kv));
        }
      }
      exec::scan_region(ctx, buffer_region_,
                        static_cast<std::uint64_t>(
                            spec_.pair_bytes * static_cast<double>(buffer.size())),
                        0.9);
    } else {
      run = std::move(buffer);
      buffer = {};
    }
    // IFile append (+ compression when configured).
    {
      jvm::MethodScope io(ctx.stack(), methods_.ifile_append);
      if (cfg_.compress_map_output) {
        jvm::MethodScope codec(ctx.stack(), methods_.codec_compress);
        exec::write_stream(ctx, spill_region_,
                           static_cast<std::uint64_t>(
                               spec_.pair_bytes * static_cast<double>(run.size())),
                           /*compressed=*/true, cfg_.costs);
      } else {
        exec::write_stream(ctx, spill_region_,
                           static_cast<std::uint64_t>(
                               spec_.pair_bytes * static_cast<double>(run.size())),
                           /*compressed=*/false, cfg_.costs);
      }
    }
    if (live) {
      spill_span.close(ctx.counters().cycles,
                       {{"pairs", run.size()},
                        {"combined", static_cast<bool>(spec_.combine_fn)}});
    }
    spills.push_back(std::move(run));
    buffer.clear();
    buffer_bytes = 0;
  }

  std::vector<Pair> run_reduce_stage() {
    std::vector<std::vector<Pair>> outputs(cfg_.num_reducers);
    cluster_.run_stage(
        spec_.job_name + "_reduce", outputs.size(),
        [&](std::size_t r, exec::ExecutorContext& ctx) {
          outputs[r] = reduce_task(static_cast<std::uint32_t>(r), ctx);
        },
        /*thread_per_task=*/true);
    std::vector<Pair> all;
    for (auto& o : outputs) {
      all.insert(all.end(), std::make_move_iterator(o.begin()),
                 std::make_move_iterator(o.end()));
    }
    return all;
  }

  std::vector<Pair> reduce_task(std::uint32_t r, exec::ExecutorContext& ctx) {
    jvm::MethodScope yarn(ctx.stack(), methods_.yarn_child);
    jvm::MethodScope rt(ctx.stack(), methods_.reduce_task_run);

    // The map tasks' non-empty segments for this reducer, in map-task order.
    std::vector<std::span<const Pair>> runs;
    std::uint64_t total = 0;
    for (const auto& seg : segments_[r]) {
      if (seg.empty()) continue;
      runs.emplace_back(seg);
      total += seg.size();
    }
    const auto total_bytes = static_cast<std::uint64_t>(
        spec_.pair_bytes * static_cast<double>(total));

    // A stopped core carries no simulated cycle times; its spans stay
    // unclosed and record nothing.
    const bool live = !ctx.stopped();
    static obs::Counter& shuffle_bytes =
        obs::metrics().counter("hadoop.shuffle_bytes");
    shuffle_bytes.add(total_bytes);
    // Shuffle fetch: stream every segment (decompression cost folded into
    // the scan rate when compression is on).
    {
      jvm::MethodScope sh(ctx.stack(), methods_.shuffle_fetch);
      obs::VirtualSpan span(ctx.trace_lane(), "hadoop.shuffle_fetch",
                            ctx.counters().cycles);
      const double rate = cfg_.costs.scan_instrs_per_byte *
                          (cfg_.compress_map_output ? 1.6 : 1.0);
      exec::scan_region(ctx, reduce_region_, total_bytes, rate);
      if (live) {
        span.close(ctx.counters().cycles, {{"reducer", r},
                                           {"bytes", total_bytes},
                                           {"segments", runs.size()}});
      }
    }
    // Merge the sorted segments and fold each key's value group through the
    // reduce function as the merge streams by. The fold is a pure function
    // of the merged order, so running it before the reducer's costs are
    // charged changes nothing; it spares materialising the merged run.
    std::vector<Pair> out;
    {
      jvm::MethodScope mg(ctx.stack(), methods_.merger_merge);
      obs::VirtualSpan span(ctx.trace_lane(), "hadoop.merge",
                            ctx.counters().cycles);
      std::vector<V> group;
      K key{};
      support::merge_by_key(runs, [&](const Pair& kv) {
        if (!group.empty() && !(kv.first == key)) {
          out.emplace_back(key, spec_.reduce_fn(key, group));
          group.clear();
        }
        if (group.empty()) key = kv.first;
        group.push_back(kv.second);
      });
      if (!group.empty()) out.emplace_back(key, spec_.reduce_fn(key, group));
      exec::merge_runs(ctx, reduce_region_, total_bytes, total,
                       static_cast<std::uint32_t>(
                           std::max<std::size_t>(runs.size(), 1)),
                       cfg_.costs);
      if (live) {
        span.close(ctx.counters().cycles,
                   {{"reducer", r}, {"pairs", total}, {"runs", runs.size()}});
      }
    }
    segments_[r] = {};  // fully consumed
    // Charge the reduce; write output to HDFS.
    {
      jvm::MethodScope red(ctx.stack(), m_reducer_);
      // Value groups arrive key-clustered but the original insertion order
      // is scattered: charge random gathers over the merged region.
      exec::hash_aggregate(ctx, reduce_region_,
                           std::max<std::uint64_t>(total_bytes, 64), total,
                           0.35, cfg_.costs);
      ctx.compute(static_cast<std::uint64_t>(
          spec_.reduce_instrs_per_value * static_cast<double>(total)));
    }
    {
      jvm::MethodScope io(ctx.stack(), methods_.output_write);
      exec::write_stream(ctx, output_region_,
                         static_cast<std::uint64_t>(
                             spec_.pair_bytes * static_cast<double>(out.size())),
                         /*compressed=*/false, cfg_.costs);
    }
    return out;
  }

  std::uint32_t partition_of(const K& key) const {
    std::uint64_t z =
        (static_cast<std::uint64_t>(key) + 1) * 0x9e3779b97f4a7c15ULL;
    z ^= z >> 31;
    return static_cast<std::uint32_t>(z % cfg_.num_reducers);
  }

  exec::Cluster& cluster_;
  HadoopConfig cfg_;
  JobSpec<In, K, V> spec_;
  HadoopMethods methods_;
  jvm::MethodId m_mapper_;
  jvm::MethodId m_reducer_;
  /// segments_[r][m]: map task m's output for reducer r, sorted by key.
  std::vector<std::vector<std::vector<Pair>>> segments_;
  std::uint64_t buffer_region_ = 0;
  std::uint64_t spill_region_ = 0;
  std::uint64_t reduce_region_ = 0;
  std::uint64_t output_region_ = 0;
  std::uint64_t total_spills_ = 0;
};

/// Split a record vector into `num_splits` InputSplits with modeled bytes.
template <typename In>
std::vector<InputSplit<In>> make_splits(const std::vector<In>& records,
                                        std::size_t num_splits,
                                        double bytes_per_record) {
  SIMPROF_EXPECTS(num_splits > 0, "need at least one split");
  std::vector<InputSplit<In>> splits;
  const std::size_t per = (records.size() + num_splits - 1) / num_splits;
  for (std::size_t start = 0; start < records.size(); start += per) {
    const std::size_t end = std::min(records.size(), start + per);
    InputSplit<In> s;
    s.records.assign(records.begin() + static_cast<std::ptrdiff_t>(start),
                     records.begin() + static_cast<std::ptrdiff_t>(end));
    s.bytes = static_cast<std::uint64_t>(
        bytes_per_record * static_cast<double>(end - start));
    splits.push_back(std::move(s));
  }
  return splits;
}

}  // namespace simprof::hadoop
