#pragma once

/// \file stats.h
/// Statistics collector for the cost-based query planner: per-component-table
/// row counts, per-numeric-field min/max + equi-width histograms, and spatial
/// density summaries (entity count, bbox, estimated neighbors at a reference
/// radius) for Vec3 fields. The planner estimates predicate selectivity and
/// proximity-join fan-out from these instead of touching the tables at plan
/// time.
///
/// Stats are a snapshot: Analyze() scans every existing table and bumps the
/// epoch; Drifted()/MaybeRefresh() implement the incremental policy (cheap
/// row-count comparison each tick, full re-analyze only once sizes drift past
/// a threshold). Plans are cached against the epoch, so replanning is free
/// until a refresh actually happens.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/geometry.h"
#include "core/query.h"
#include "core/world.h"

namespace gamedb::planner {

/// Distribution summary of one numeric field: min/max plus an equi-width
/// histogram over [min, max].
struct FieldStats {
  size_t rows = 0;      ///< rows with a numeric value for this field
  double min = 0.0;
  double max = 0.0;
  bool integral = true;  ///< every observed value was a whole number
  bool has_nan = false;  ///< a NaN was observed (disables index planning)
  std::vector<uint32_t> buckets;  ///< equi-width counts over [min, max]

  /// Estimated fraction of rows satisfying `value op rhs` (in [0, 1]).
  /// Uniform-within-bucket interpolation; equality on integral fields
  /// assumes distinct values are the whole numbers in the bucket span.
  double EstimateSelectivity(CmpOp op, double rhs) const;
};

/// Density summary of one Vec3 field, built from a one-pass uniform hash of
/// positions into cells of side `ref_radius`. `avg_cell_cooccupants` is the
/// expected number of *other* entities sharing a cell with a random entity —
/// a clustering-aware local density measure (uniform data gives ~n·r^d /
/// volume; clustered data reports the density entities actually see).
struct SpatialFieldStats {
  size_t rows = 0;
  Aabb bbox;
  float ref_radius = 10.0f;
  double avg_cell_cooccupants = 0.0;
  int dims = 3;  ///< 2 when one bbox axis is degenerate (planar worlds)

  /// Estimated number of neighbors within `radius` of a random entity
  /// (excluding itself). Scales the cell co-occupancy to a sphere/disc of
  /// the requested radius.
  double EstimateNeighbors(float radius) const;
};

/// Statistics for one component table.
struct TableStats {
  uint32_t type_id = 0;
  size_t rows = 0;  ///< row count at analyze time
  /// Keyed by field name; numeric fields only.
  std::unordered_map<std::string, FieldStats> fields;
  /// Keyed by field name; Vec3 fields only.
  std::unordered_map<std::string, SpatialFieldStats> spatial;
};

/// Options for WorldStats.
struct StatsOptions {
  size_t histogram_buckets = 16;
  /// Cell side for the spatial density pass; pick near the typical query
  /// radius (the e01/e02 workloads use 10).
  float ref_radius = 10.0f;
};

/// Snapshot statistics over every existing component table of a World.
///
/// Thread safety: Analyze/MaybeRefresh mutate and must not run concurrently
/// with readers; the planner calls them only from sequential phases (e.g.
/// before the ScriptHost query phase fans out).
class WorldStats {
 public:
  explicit WorldStats(StatsOptions options = {}) : options_(options) {}

  /// Full rebuild: scans every existing table; bumps epoch().
  void Analyze(const World& world);

  /// True when any table's current row count has drifted from the analyzed
  /// count by more than `threshold` (relative), or a table appeared/grew
  /// from nothing.
  bool Drifted(const World& world, double threshold) const;

  /// Re-analyzes if Drifted(); returns whether a refresh happened.
  bool MaybeRefresh(const World& world, double threshold);

  /// Monotonic snapshot version; bumped by every Analyze. Plans cache
  /// against this.
  uint64_t epoch() const { return epoch_; }

  /// Stats for a table, or nullptr when it was absent at analyze time.
  const TableStats* Table(uint32_t type_id) const;
  /// Field stats, or nullptr (unknown table/field or non-numeric field).
  const FieldStats* Field(uint32_t type_id, const std::string& field) const;
  /// Spatial stats, or nullptr (unknown table/field or non-Vec3 field).
  const SpatialFieldStats* Spatial(uint32_t type_id,
                                   const std::string& field) const;

  /// Estimated rows of a table: analyzed count, 0 when never seen.
  double EstimateRows(uint32_t type_id) const;

  const StatsOptions& options() const { return options_; }

  /// One line per analyzed table (EXPLAIN and diagnostics).
  std::string ToString() const;

 private:
  StatsOptions options_;
  uint64_t epoch_ = 0;
  std::unordered_map<uint32_t, TableStats> tables_;
};

}  // namespace gamedb::planner
