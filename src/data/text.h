// Synthetic text corpora — the BigDataBench data-synthesizer stand-in for
// the micro-benchmarks and NaiveBayes (Table I: "10G text", scaled here).
//
// Words are dense integer ids drawn from a Zipfian vocabulary; documents are
// variable-length word sequences. Byte sizes are modeled (word length is a
// deterministic function of the id) so the engines can size IO buffers and
// memory regions realistically without storing strings.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "support/rng.h"

namespace simprof::data {

using WordId = std::uint32_t;

struct TextConfig {
  std::uint64_t num_words = 1 << 22;   ///< total words in the corpus
  std::uint32_t vocabulary = 1 << 17;  ///< distinct words
  double zipf_skew = 1.05;             ///< word-frequency skew
  std::uint32_t mean_doc_words = 200;  ///< documents ≈ lines/records
  std::uint64_t seed = 7;
  /// Class label count for NaiveBayes corpora (labels shift the word
  /// distribution per class); 0 disables labels.
  std::uint32_t num_classes = 0;
  auto operator<=>(const TextConfig&) const = default;
};

class TextCorpus {
 public:
  /// Synthesize per config (deterministic in config.seed).
  static TextCorpus synthesize(const TextConfig& cfg);

  /// Memoized synthesis (support::SingleFlight, keyed by the config): runs
  /// of one config that overlap or follow each other share one instance.
  static std::shared_ptr<const TextCorpus> synthesize_shared(
      const TextConfig& cfg);

  std::span<const WordId> words() const { return words_; }
  /// doc_offsets()[i]..doc_offsets()[i+1] delimit document i in words().
  std::span<const std::uint64_t> doc_offsets() const { return doc_offsets_; }
  std::size_t num_docs() const { return doc_offsets_.size() - 1; }
  std::span<const WordId> doc(std::size_t i) const;

  /// Class label of document i (0 when the corpus is unlabeled).
  std::uint32_t label(std::size_t i) const;

  std::uint32_t vocabulary() const { return cfg_.vocabulary; }
  const TextConfig& config() const { return cfg_; }

  /// Modeled on-disk byte length of a word (id-deterministic, 3..12 chars
  /// plus separator).
  static std::uint32_t word_bytes(WordId w);

  /// Modeled total byte size of the corpus.
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  TextConfig cfg_;
  std::vector<WordId> words_;
  std::vector<std::uint64_t> doc_offsets_;
  std::vector<std::uint32_t> labels_;
  std::uint64_t total_bytes_ = 0;
};

}  // namespace simprof::data
