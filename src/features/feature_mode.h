// Memory-access-vector (MAV) feature blocks and the feature-mode vocabulary
// shared by every consumer of the sparse feature pipeline.
//
// The oracle pass attaches one hw::MavBlock to every sampling unit (reuse-
// distance histogram + per-level access mix, see hw/mav.h). This library
// turns those raw counters into feature columns that plug into the existing
// CSR pipeline (the feature-matrix builders of core/phase.h) under three
// modes:
//
//   kFreq      — method-frequency features only: bitwise the historical
//                layout and values, so every pre-MAV profile, model and test
//                stays byte-identical.
//   kMav       — MAV features only (kMavDim columns): reuse buckets then
//                level slots, each histogram block normalized by its own
//                total so blocks carry equal mass regardless of access count.
//   kCombined  — MAV columns first at [0, kMavDim), method columns shifted
//                up by kMavDim, so the MAV block keeps fixed column ids
//                whatever the method count. Top-K selection orders the
//                kept features (and breaks score ties) by column id, so
//                this layout is part of every combined model's bytes and
//                stays as it is.
//
// Per-entry values are chosen so that L1-row-normalization commutes with
// column selection: renormalizing any selected subset of a row equals
// renormalizing the same subset of the raw entries. That invariance is what
// lets vectorize_unit / vectorize_units accumulate raw per-entry values and
// renormalize over the selected features only, in every mode.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hw/mav.h"

namespace simprof::features {

enum class FeatureMode : std::uint8_t {
  kFreq = 0,      ///< method frequencies only (historical layout)
  kMav = 1,       ///< memory-access vectors only
  kCombined = 2,  ///< MAV block first, then method frequencies
};

/// "freq" / "mav" / "combined".
std::string_view to_string(FeatureMode mode);

/// Inverse of to_string; nullopt for unknown names.
std::optional<FeatureMode> parse_feature_mode(std::string_view name);

/// Total feature columns for a mode over a `num_methods`-method table.
std::size_t feature_space_cols(FeatureMode mode, std::size_t num_methods);

/// Column where method features start: 0 under kFreq, hw::kMavDim under
/// kCombined, and one-past-the-end (hw::kMavDim) under kMav, whose space
/// holds no method columns at all.
std::size_t method_col_offset(FeatureMode mode);

/// Canonical name of MAV column `index` in [0, hw::kMavDim):
/// "mav.reuse.b<k>" for the reuse-distance buckets, then "mav.level.l<k>"
/// for the access-level slots. Names are the stable feature identity across
/// profiles, exactly like method names.
const std::string& mav_feature_name(std::size_t index);

/// Inverse of mav_feature_name; nullopt for anything else (method names).
std::optional<std::size_t> mav_feature_index(std::string_view name);

/// Append the block-normalized entries of `mav` at columns
/// base_col + [0, hw::kMavDim) in ascending column order: each histogram
/// block (reuse, then level) is divided by its own total, so a unit's MAV
/// contributes mass 1 per non-empty block no matter how many accesses it
/// made. Zero counts (and entire zero blocks, e.g. compute-only units)
/// append nothing — the rows stay sparse.
void append_mav_entries(const hw::MavBlock& mav, std::uint32_t base_col,
                        std::vector<std::uint32_t>& cols,
                        std::vector<double>& vals);

}  // namespace simprof::features
