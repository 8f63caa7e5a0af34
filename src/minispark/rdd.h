// MiniSpark RDD layer: lazy lineage, narrow transformation pipelining, and
// shuffle-boundary stage splitting — the programming model of the paper's
// Figure 1.
//
// Functional semantics are real (collect() returns the actual records);
// simulated cost is charged alongside: source scans stream their input
// regions through the cache model, per-element instruction budgets cover the
// user lambdas, map-side combiners generate growing-hash-table traffic, and
// shuffles serialize/deserialize through simulated spill regions.
//
// Template instantiations are intentionally few (the six workloads use a
// handful of K/V combinations), so keeping this header-only is cheap.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "data/text.h"
#include "exec/kernels.h"
#include "exec/pipeline.h"
#include "jvm/call_stack.h"
#include "minispark/combiner.h"
#include "minispark/spark_context.h"
#include "obs/obs.h"
#include "support/assert.h"
#include "support/sort.h"

namespace simprof::spark {

template <typename T>
class RDD;
template <typename T>
using RddPtr = std::shared_ptr<RDD<T>>;

/// Per-operation cost hints supplied by the workload author.
struct OpCost {
  double instrs_per_element = 20;  ///< user-fn body
  double record_bytes = 12;        ///< serialized element size (shuffle/IO)
  double aux_bytes_per_element = 0;  ///< auxiliary random-access state
};

class RDDBase {
 public:
  explicit RDDBase(SparkContext& sc) : sc_(sc), id_(sc.next_rdd_id()) {}
  virtual ~RDDBase() = default;

  RDDBase(const RDDBase&) = delete;
  RDDBase& operator=(const RDDBase&) = delete;

  virtual std::size_t num_partitions() const = 0;

  /// Run every shuffle map stage this RDD's partitions read that has not
  /// run yet, ancestors first: a narrow RDD forwards to its parent, and a
  /// shuffled RDD runs its own map stage once.
  virtual void materialize() = 0;

  SparkContext& context() const { return sc_; }
  int id() const { return id_; }

 protected:
  SparkContext& sc_;
  int id_;
};

template <typename T>
class RDD : public RDDBase {
 public:
  using element_type = T;
  using RDDBase::RDDBase;

  /// Compute partition p inside a task running on `ctx`. Charges simulated
  /// cost as a side effect and returns the real records.
  virtual std::vector<T> compute(std::size_t p,
                                 exec::ExecutorContext& ctx) = 0;
};

namespace detail {

inline std::uint32_t hash_to_partition(std::uint64_t key,
                                       std::size_t partitions) {
  std::uint64_t z = (key + 1) * 0x9e3779b97f4a7c15ULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z % partitions);
}

/// The batcher every RDD compute charges through. Partitions are only ever
/// computed by the shuffle-map and result tasks below, each inside a
/// PipelineScope, so one is always attached.
inline exec::PipelineBatcher& batcher(exec::ExecutorContext& ctx) {
  exec::PipelineBatcher* b = ctx.batcher();
  SIMPROF_EXPECTS(b != nullptr, "RDD compute outside a PipelineScope");
  return *b;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------------

/// In-memory partitioned source (sc.parallelize). Reading a partition scans
/// its simulated region (deserialization cost), like a cached RDD block.
template <typename T>
class ParallelizeRDD final : public RDD<T> {
 public:
  ParallelizeRDD(SparkContext& sc, std::vector<std::vector<T>> partitions,
                 double bytes_per_element, std::string name)
      : RDD<T>(sc),
        partitions_(std::move(partitions)),
        bytes_per_element_(bytes_per_element),
        name_(std::move(name)),
        read_method_(sc.cluster().methods().intern(
            "org.apache.spark.rdd.ParallelCollectionRDD.compute[" + name_ + "]",
            jvm::OpKind::kIo)) {
    regions_.reserve(partitions_.size());
    for (const auto& p : partitions_) {
      const auto bytes = static_cast<std::uint64_t>(
          bytes_per_element_ * static_cast<double>(p.size())) + 64;
      regions_.push_back(sc.cluster().address_space().allocate(bytes));
    }
  }

  std::size_t num_partitions() const override { return partitions_.size(); }

  void materialize() override {}

  std::vector<T> compute(std::size_t p, exec::ExecutorContext& ctx) override {
    SIMPROF_EXPECTS(p < partitions_.size(), "partition out of range");
    const auto bytes = static_cast<std::uint64_t>(
        bytes_per_element_ * static_cast<double>(partitions_[p].size()));
    const double rate = this->sc_.costs().scan_instrs_per_byte * 0.4;
    detail::batcher(ctx).add(
        read_method_,
        static_cast<std::uint64_t>(rate * static_cast<double>(bytes)),
        hw::AccessStream::strided(regions_[p], bytes));
    return partitions_[p];
  }

  std::uint64_t region(std::size_t p) const { return regions_[p]; }

 private:
  std::vector<std::vector<T>> partitions_;
  double bytes_per_element_;
  std::string name_;
  jvm::MethodId read_method_;
  std::vector<std::uint64_t> regions_;
};

/// HDFS text source: partitions a corpus's documents into splits; computing
/// a partition streams the split's bytes (HadoopRDD read + line record
/// parsing) and yields document ids.
class TextFileRDD final : public RDD<std::uint64_t> {
 public:
  TextFileRDD(SparkContext& sc, const data::TextCorpus& corpus,
              std::size_t num_splits)
      : RDD<std::uint64_t>(sc), corpus_(&corpus) {
    SIMPROF_EXPECTS(num_splits > 0, "need at least one split");
    const std::size_t docs = corpus.num_docs();
    const std::size_t per = (docs + num_splits - 1) / num_splits;
    for (std::size_t start = 0; start < docs; start += per) {
      const std::size_t end = std::min(docs, start + per);
      std::uint64_t bytes = 0;
      for (std::size_t d = start; d < end; ++d) {
        for (data::WordId w : corpus.doc(d)) {
          bytes += data::TextCorpus::word_bytes(w);
        }
      }
      splits_.push_back(Split{start, end, bytes,
                              sc.cluster().address_space().allocate(bytes)});
    }
  }

  std::size_t num_partitions() const override { return splits_.size(); }

  void materialize() override {}

  std::vector<std::uint64_t> compute(std::size_t p,
                                     exec::ExecutorContext& ctx) override {
    SIMPROF_EXPECTS(p < splits_.size(), "split out of range");
    const Split& s = splits_[p];
    const double rate = sc_.costs().scan_instrs_per_byte;
    detail::batcher(ctx).add(
        sc_.methods().hadoop_rdd_read,
        static_cast<std::uint64_t>(rate * static_cast<double>(s.bytes)),
        hw::AccessStream::strided(s.region, s.bytes));
    std::vector<std::uint64_t> docs;
    docs.reserve(s.doc_end - s.doc_begin);
    for (std::size_t d = s.doc_begin; d < s.doc_end; ++d) docs.push_back(d);
    return docs;
  }

  const data::TextCorpus& corpus() const { return *corpus_; }
  std::uint64_t split_bytes(std::size_t p) const { return splits_[p].bytes; }

 private:
  struct Split {
    std::size_t doc_begin = 0;
    std::size_t doc_end = 0;
    std::uint64_t bytes = 0;
    std::uint64_t region = 0;
  };
  const data::TextCorpus* corpus_;
  std::vector<Split> splits_;
};

// ---------------------------------------------------------------------------
// Narrow transformations (pipelined within a stage)
// ---------------------------------------------------------------------------

/// `Fn` is the per-record function's type: the factories below deduce it,
/// so the record loop calls it directly rather than through std::function.
template <typename U, typename T, typename Fn>
class FlatMapRDD final : public RDD<U> {
 public:
  FlatMapRDD(RddPtr<T> parent, std::string name, jvm::OpKind kind,
             OpCost cost, Fn fn)
      : RDD<U>(parent->context()),
        parent_(std::move(parent)),
        cost_(cost),
        fn_(std::move(fn)),
        method_(this->sc_.cluster().methods().intern(name, kind)) {
    if (cost_.aux_bytes_per_element > 0) {
      aux_region_ = this->sc_.cluster().address_space().allocate(
          1 << 22);  // 4 MiB auxiliary state region
    }
  }

  std::size_t num_partitions() const override {
    return parent_->num_partitions();
  }

  void materialize() override { parent_->materialize(); }

  std::vector<U> compute(std::size_t p, exec::ExecutorContext& ctx) override {
    // Narrow transformations are iterator-pipelined in Spark: the consumer's
    // frame sits above the producer's on the stack (the consumer pulls), and
    // producer/consumer work interleaves at record granularity. The
    // parent's deferred items are prefixed with this operator's frame and
    // the task's batcher flushes everything in interleaved slices —
    // pipelined operations fuse into one phase, as in the paper's Figure 14.
    exec::PipelineBatcher& b = detail::batcher(ctx);
    std::vector<T> in;
    {
      exec::PipelineFrame pframe(&b, method_);
      jvm::MethodScope scope(ctx.stack(), method_);
      in = parent_->compute(p, ctx);
    }
    std::vector<U> out;
    out.reserve(in.size());
    for (const T& e : in) fn_(e, out);
    const auto instrs = static_cast<std::uint64_t>(
        cost_.instrs_per_element * static_cast<double>(in.size()) +
        0.5 * cost_.instrs_per_element * static_cast<double>(out.size()));
    hw::AccessStream aux;
    if (cost_.aux_bytes_per_element > 0) {
      aux = hw::AccessStream::random(
          aux_region_, 1 << 22,
          static_cast<std::uint64_t>(cost_.aux_bytes_per_element *
                                     static_cast<double>(in.size()) / 64.0) +
              1,
          ctx.rng());
    }
    b.add(method_, instrs, aux);
    return out;
  }

 private:
  RddPtr<T> parent_;
  OpCost cost_;
  Fn fn_;
  jvm::MethodId method_;
  std::uint64_t aux_region_ = 0;
};

// ---------------------------------------------------------------------------
// Shuffled RDDs
// ---------------------------------------------------------------------------

/// The map side every shuffle shares (Spark's ShuffleMapStage): one map task
/// per parent partition, run once, before anything reads the shuffle. The
/// stage allocates the subclass's simulated regions before its first task.
/// Map task m writes only its own output slots, runs_[r][m] for each reduce
/// partition r, and reduce partition r reads runs(r) in map-task order, as
/// Spark reads its per-map shuffle files.
template <typename K, typename V>
class ShuffledRDD : public RDD<std::pair<K, V>> {
 public:
  using Pair = std::pair<K, V>;

  std::size_t num_partitions() const final { return partitions_; }

  void materialize() final {
    if (materialized_) return;
    parent_->materialize();
    const std::size_t map_tasks = parent_->num_partitions();
    runs_.assign(partitions_, std::vector<std::vector<Pair>>(map_tasks));
    allocate_regions();
    this->sc_.run_stage(stage_name_, /*shuffle_map=*/true, map_tasks,
                        [this](std::size_t m, exec::ExecutorContext& ctx) {
                          map_task(m, ctx);
                        });
    materialized_ = true;
  }

 protected:
  ShuffledRDD(RddPtr<Pair> parent, std::size_t partitions,
              std::string_view stage_prefix, OpCost cost)
      : RDD<Pair>(parent->context()),
        parent_(std::move(parent)),
        partitions_(partitions),
        cost_(cost),
        stage_name_(std::string(stage_prefix) +
                    std::to_string(this->sc_.next_shuffle_id())) {
    SIMPROF_EXPECTS(partitions_ > 0, "need at least one reduce partition");
  }

  virtual void allocate_regions() = 0;
  /// Compute parent partition m and write its records to runs_[·][m].
  virtual void map_task(std::size_t m, exec::ExecutorContext& ctx) = 0;

  /// Reduce partition r's map outputs, in map-task order, and their total
  /// record count.
  const std::vector<std::vector<Pair>>& runs(std::size_t r,
                                             std::uint64_t& records) const {
    SIMPROF_EXPECTS(materialized_, "reduce side before map stage");
    SIMPROF_EXPECTS(r < partitions_, "partition out of range");
    records = 0;
    for (const auto& run : runs_[r]) records += run.size();
    return runs_[r];
  }

  RddPtr<Pair> parent_;
  std::size_t partitions_;
  OpCost cost_;
  std::vector<std::vector<std::vector<Pair>>> runs_;  // [reduce][map task]

 private:
  std::string stage_name_;
  bool materialized_ = false;
};

/// reduceByKey with Spark's map-side combine (Aggregator.combineValuesByKey):
/// the map stage builds a per-task hash map whose region grows as distinct
/// keys accumulate — the tightly coupled map+reduce+IO phase of Figure 14.
/// `CombineFn` is the fold's type, deduced by reduce_by_key.
template <typename K, typename V, typename CombineFn>
class ReduceByKeyRDD final : public ShuffledRDD<K, V> {
 public:
  using Pair = std::pair<K, V>;

  ReduceByKeyRDD(RddPtr<Pair> parent, CombineFn combine,
                 std::size_t num_partitions, OpCost cost)
      : ShuffledRDD<K, V>(std::move(parent), num_partitions, "shuffle_", cost),
        combine_(std::move(combine)) {}

  std::vector<Pair> compute(std::size_t p,
                            exec::ExecutorContext& ctx) override {
    std::uint64_t total = 0;
    const auto& runs = this->runs(p, total);
    SparkMethods& m = this->sc_.methods();
    const auto& costs = this->sc_.costs();

    // Fetch + deserialize + merge: the reader feeds the combiner iterator,
    // so both defer and flush interleaved — one reduce-side phase, not two.
    exec::PipelineBatcher& b = detail::batcher(ctx);
    const auto bytes = static_cast<std::uint64_t>(
        this->cost_.record_bytes * static_cast<double>(total));
    const auto read_instrs = static_cast<std::uint64_t>(
        costs.scan_instrs_per_byte * static_cast<double>(bytes));
    static obs::Counter& read_bytes_metric =
        obs::metrics().counter("spark.shuffle_read_bytes");
    read_bytes_metric.add(bytes);
    const std::uint64_t read_base = shuffle_region_ + p * region_stride_;
    b.add(m.shuffle_read, read_instrs,
          hw::AccessStream::strided(read_base, bytes));
    // Merge combiners into the final per-key map.
    FlatCombiner<K, V> merged(total);
    auto charge_merge = [&](std::uint64_t elements) {
      if (elements == 0) return;
      b.add(m.combine_combiners, exec::hash_aggregate_instrs(elements, costs),
            exec::hash_aggregate_stream(ctx.rng(), reduce_region_,
                                        merged.size() * kEntryBytes,
                                        elements, 0.35, costs));
    };
    std::uint64_t processed = 0;
    for (const auto& run : runs) {
      for (const auto& [k, v] : run) {
        merged.add(k, v, combine_);
        if (++processed % kBlock == 0) charge_merge(kBlock);
      }
    }
    charge_merge(processed % kBlock);
    return merged.drain();
  }

 private:
  static constexpr std::uint64_t kBlock = 4096;
  static constexpr std::uint64_t kEntryBytes = 32;

  void allocate_regions() override {
    hw::AddressSpace& space = this->sc_.cluster().address_space();
    map_region_ = space.allocate(1ULL << 26);
    reduce_region_ = space.allocate(1ULL << 26);
    region_stride_ = (1ULL << 26) / this->partitions_;
    shuffle_region_ = space.allocate(1ULL << 26);
  }

  void map_task(std::size_t p, exec::ExecutorContext& ctx) override {
    SparkMethods& m = this->sc_.methods();
    const auto& costs = this->sc_.costs();

    // The Aggregator pulls records straight out of the pipelined parent
    // iterator, so the whole upstream computation runs underneath the
    // combineValuesByKey frame and interleaves with the hash probes — the
    // tightly coupled map+reduce+IO phase the paper observes for wc_sp.
    exec::PipelineScope pipeline(ctx);
    exec::PipelineBatcher* b = ctx.batcher();
    std::vector<Pair> in;
    {
      exec::PipelineFrame pframe(b, m.combine_values);
      in = this->parent_->compute(p, ctx);
    }

    FlatCombiner<K, V> combiner(in.size() / 4 + 16);
    std::uint64_t processed = 0;
    auto defer_hash = [&](std::uint64_t elements) {
      if (elements == 0) return;
      // Hot keys (low Zipf ranks) stay cache-resident: skewed probes over
      // the hash region at its size when this block ran.
      b->add(m.combine_values, exec::hash_aggregate_instrs(elements, costs),
             exec::hash_aggregate_stream(ctx.rng(), map_region_,
                                         combiner.size() * kEntryBytes,
                                         elements, 0.80, costs));
    };
    for (const auto& [k, v] : in) {
      combiner.add(k, v, combine_);
      if (++processed % kBlock == 0) defer_hash(kBlock);
    }
    defer_hash(processed % kBlock);
    const std::vector<Pair> combined = combiner.drain();
    pipeline.finish();  // charge the coupled read+map+combine mixture

    // Partition and write the shuffle output.
    jvm::MethodScope write(ctx.stack(), m.shuffle_write);
    // A stopped core carries no simulated cycle times — closing a span on
    // it would plot stale bounds in the trace, so it stays unclosed.
    const bool live = !ctx.stopped();
    obs::VirtualSpan write_span(ctx.trace_lane(), "spark.shuffle_write",
                                ctx.counters().cycles);
    for (const Pair& kv : combined) {
      const std::uint32_t r = detail::hash_to_partition(
          static_cast<std::uint64_t>(kv.first), this->partitions_);
      this->runs_[r][p].push_back(kv);
    }
    const auto bytes = static_cast<std::uint64_t>(
        this->cost_.record_bytes * static_cast<double>(combined.size()));
    static obs::Counter& write_bytes_metric =
        obs::metrics().counter("spark.shuffle_write_bytes");
    write_bytes_metric.add(bytes);
    {
      jvm::MethodScope ser(ctx.stack(), m.serialize);
      exec::write_stream(ctx, map_region_ + (1ULL << 25), bytes,
                         /*compressed=*/false, costs);
    }
    if (live) {
      write_span.close(ctx.counters().cycles, {{"partition", p},
                                               {"records", combined.size()},
                                               {"bytes", bytes}});
    }
  }

  CombineFn combine_;
  std::uint64_t map_region_ = 0;
  std::uint64_t reduce_region_ = 0;
  std::uint64_t shuffle_region_ = 0;
  std::uint64_t region_stride_ = 1;
};

/// sortByKey: range partitioning on the map side, per-partition quicksort on
/// the reduce side (ExternalSorter). The recursive partition passes of the
/// sort produce the high intra-phase CPI variance discussed in III-B.1.
template <typename K, typename V>
class SortByKeyRDD final : public ShuffledRDD<K, V> {
 public:
  using Pair = std::pair<K, V>;
  using RankFn = std::function<double(const K&)>;  ///< key → [0, 1)

  SortByKeyRDD(RddPtr<Pair> parent, RankFn rank, std::size_t num_partitions,
               OpCost cost)
      : ShuffledRDD<K, V>(std::move(parent), num_partitions, "sort_shuffle_",
                          cost),
        rank_(std::move(rank)) {}

  std::vector<Pair> compute(std::size_t p,
                            exec::ExecutorContext& ctx) override {
    std::uint64_t total = 0;
    const auto& runs = this->runs(p, total);
    SparkMethods& m = this->sc_.methods();
    const auto& costs = this->sc_.costs();
    {
      jvm::MethodScope read(ctx.stack(), m.shuffle_read);
      exec::scan_region(ctx, sort_region_,
                        static_cast<std::uint64_t>(this->cost_.record_bytes *
                                                   static_cast<double>(total)),
                        costs.scan_instrs_per_byte);
    }
    std::vector<Pair> all;
    {
      jvm::MethodScope sorter(ctx.stack(), m.external_sort);
      all = sorted_by_rank(runs, total);
      exec::quicksort_traffic(
          ctx, sort_region_, all.size(),
          static_cast<std::uint32_t>(std::max(1.0, this->cost_.record_bytes)),
          costs);
    }
    return all;
  }

 private:
  void allocate_regions() override {
    hw::AddressSpace& space = this->sc_.cluster().address_space();
    sort_region_ = space.allocate(1ULL << 26);
    write_region_ = space.allocate(1ULL << 26);
  }

  /// The `total` records of `runs`, concatenated and then stably sorted by
  /// the rank of their keys. rank_ runs once per record; the radix kernel
  /// sorts record positions by rank key (the order of std::stable_sort by
  /// rank), and the records are gathered from the runs in that order.
  std::vector<Pair> sorted_by_rank(const std::vector<std::vector<Pair>>& runs,
                                   std::uint64_t total) const {
    SIMPROF_EXPECTS(total < 0xffffffffu, "sort partition too large");
    std::vector<std::uint64_t> keys;  // per record, in concatenation order
    keys.reserve(total);
    std::vector<std::size_t> run_end;
    for (const auto& run : runs) {
      for (const Pair& kv : run) {
        const double r = rank_(kv.first);
        SIMPROF_EXPECTS(r >= 0.0, "sortByKey rank outside [0, 1)");
        keys.push_back(support::nonnegative_double_key(r));
      }
      run_end.push_back(keys.size());
    }
    std::vector<std::uint32_t> order(total);
    for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    support::radix_sort(order, [&](std::uint32_t i) { return keys[i]; });
    std::vector<std::uint64_t>().swap(keys);
    std::vector<Pair> out;
    out.reserve(order.size());
    for (const std::uint32_t i : order) {
      // The first run ending past i holds it; empty runs end where the
      // run before them does, so upper_bound steps over them.
      const std::size_t r = static_cast<std::size_t>(
          std::upper_bound(run_end.begin(), run_end.end(), i) -
          run_end.begin());
      out.push_back(runs[r][i - (r == 0 ? 0 : run_end[r - 1])]);
    }
    return out;
  }

  void map_task(std::size_t p, exec::ExecutorContext& ctx) override {
    SparkMethods& m = this->sc_.methods();
    const auto& costs = this->sc_.costs();
    // The sort-shuffle writer drives the pipelined parent iterator.
    exec::PipelineScope pipeline(ctx);
    std::vector<Pair> in;
    {
      exec::PipelineFrame pframe(ctx.batcher(), m.shuffle_write);
      in = this->parent_->compute(p, ctx);
    }
    pipeline.finish();
    jvm::MethodScope write(ctx.stack(), m.shuffle_write);
    const auto partitions = static_cast<double>(this->partitions_);
    for (const auto& kv : in) {
      const double r = std::clamp(rank_(kv.first), 0.0, 1.0 - 1e-12);
      this->runs_[static_cast<std::size_t>(r * partitions)][p].push_back(kv);
    }
    const auto bytes = static_cast<std::uint64_t>(
        this->cost_.record_bytes * static_cast<double>(in.size()));
    jvm::MethodScope ser(ctx.stack(), m.serialize);
    exec::write_stream(ctx, write_region_, bytes, /*compressed=*/false, costs);
  }

  RankFn rank_;
  std::uint64_t sort_region_ = 0;
  std::uint64_t write_region_ = 0;
};

// ---------------------------------------------------------------------------
// Transformation factories (the user-facing API)
// ---------------------------------------------------------------------------

template <typename U, typename Rdd, typename F>
RddPtr<U> flat_map(std::shared_ptr<Rdd> parent, std::string name,
                   jvm::OpKind kind, OpCost cost, F fn) {
  using T = typename Rdd::element_type;
  return std::make_shared<FlatMapRDD<U, T, F>>(
      RddPtr<T>(std::move(parent)), std::move(name), kind, cost,
      std::move(fn));
}

template <typename U, typename Rdd, typename F>
RddPtr<U> map(std::shared_ptr<Rdd> parent, std::string name, jvm::OpKind kind,
              OpCost cost, F fn) {
  using T = typename Rdd::element_type;
  return flat_map<U>(std::move(parent), std::move(name), kind, cost,
                     [fn = std::move(fn)](const T& e, std::vector<U>& out) {
                       out.push_back(fn(e));
                     });
}

template <typename Rdd, typename F>
auto filter(std::shared_ptr<Rdd> parent, std::string name, jvm::OpKind kind,
            OpCost cost, F pred) {
  using T = typename Rdd::element_type;
  return flat_map<T>(std::move(parent), std::move(name), kind, cost,
                     [pred = std::move(pred)](const T& e, std::vector<T>& out) {
                       if (pred(e)) out.push_back(e);
                     });
}

template <typename Rdd, typename F>
auto reduce_by_key(std::shared_ptr<Rdd> parent, F fn, std::size_t partitions,
                   OpCost cost) {
  using Pair = typename Rdd::element_type;
  using K = typename Pair::first_type;
  using V = typename Pair::second_type;
  return std::static_pointer_cast<RDD<Pair>>(
      std::make_shared<ReduceByKeyRDD<K, V, F>>(
          RddPtr<Pair>(std::move(parent)), std::move(fn), partitions, cost));
}

template <typename Rdd, typename R>
auto sort_by_key(std::shared_ptr<Rdd> parent, R rank, std::size_t partitions,
                 OpCost cost) {
  using Pair = typename Rdd::element_type;
  using K = typename Pair::first_type;
  using V = typename Pair::second_type;
  return std::static_pointer_cast<RDD<Pair>>(
      std::make_shared<SortByKeyRDD<K, V>>(
          RddPtr<Pair>(std::move(parent)),
          typename SortByKeyRDD<K, V>::RankFn(std::move(rank)), partitions,
          cost));
}

// ---------------------------------------------------------------------------
// Actions (trigger job execution)
// ---------------------------------------------------------------------------

/// Run the job and gather every partition's records on the driver.
template <typename T>
std::vector<T> collect(const RddPtr<T>& rdd) {
  rdd->materialize();
  std::vector<std::vector<T>> results(rdd->num_partitions());
  rdd->context().run_stage(
      "collect", /*shuffle_map=*/false, results.size(),
      [&](std::size_t p, exec::ExecutorContext& ctx) {
        exec::PipelineScope pipeline(ctx);
        results[p] = rdd->compute(p, ctx);
      });
  std::vector<T> out;
  for (auto& r : results) {
    out.insert(out.end(), std::make_move_iterator(r.begin()),
               std::make_move_iterator(r.end()));
  }
  return out;
}

/// Run the job and write each partition to simulated HDFS; returns the
/// record count. `record_bytes` sizes the output traffic.
template <typename T>
std::uint64_t save_as_text_file(const RddPtr<T>& rdd, double record_bytes) {
  rdd->materialize();
  SparkContext& sc = rdd->context();
  const std::uint64_t out_region =
      sc.cluster().address_space().allocate(1ULL << 26);
  std::vector<std::uint64_t> counts(rdd->num_partitions(), 0);
  sc.run_stage(
      "saveAsTextFile", /*shuffle_map=*/false, counts.size(),
      [&](std::size_t p, exec::ExecutorContext& ctx) {
        exec::PipelineScope pipeline(ctx);
        const std::vector<T> data = rdd->compute(p, ctx);
        pipeline.finish();
        counts[p] = data.size();
        jvm::MethodScope io(ctx.stack(), sc.methods().hdfs_write);
        exec::write_stream(
            ctx, out_region,
            static_cast<std::uint64_t>(record_bytes *
                                       static_cast<double>(data.size())),
            /*compressed=*/false, sc.costs());
      });
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts) total += c;
  return total;
}

}  // namespace simprof::spark
