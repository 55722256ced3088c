#include "planner/stats.h"

#include <algorithm>
#include <cmath>

namespace gamedb::planner {

namespace {

/// Portion of bucket `b` (of `n` equal-width buckets over [min,max]) that
/// lies strictly below `x`, in [0,1].
double BucketFractionBelow(double bucket_lo, double bucket_hi, double x) {
  if (x <= bucket_lo) return 0.0;
  if (x >= bucket_hi) return 1.0;
  double w = bucket_hi - bucket_lo;
  return w > 0.0 ? (x - bucket_lo) / w : 0.0;
}

/// The entries of a hash map in key order, so text built from them does
/// not depend on the map's insertion history.
template <typename Map>
std::vector<const typename Map::value_type*> SortedByKey(const Map& map) {
  std::vector<const typename Map::value_type*> out;
  out.reserve(map.size());
  for (const auto& entry : map) out.push_back(&entry);
  std::sort(out.begin(), out.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return out;
}

}  // namespace

double FieldStats::EstimateSelectivity(CmpOp op, double rhs) const {
  if (rows == 0) return 0.0;
  if (std::isnan(rhs)) {
    // NaN compares false under every ordered op and ==; != is the inverse.
    return op == CmpOp::kNe ? 1.0 : 0.0;
  }
  double width = max - min;
  if (buckets.empty() || width <= 0.0) {
    // Single-valued (or unanalyzed) column: exact comparison against `min`.
    bool holds = CompareFieldValues(FieldValue(min), op, FieldValue(rhs));
    return holds ? 1.0 : 0.0;
  }
  const double n = static_cast<double>(rows);
  const double bucket_width = width / static_cast<double>(buckets.size());

  // Fraction of rows strictly below rhs (uniform within bucket).
  double below = 0.0;
  for (size_t b = 0; b < buckets.size(); ++b) {
    double lo = min + bucket_width * static_cast<double>(b);
    double hi = lo + bucket_width;
    below += static_cast<double>(buckets[b]) *
             BucketFractionBelow(lo, hi, rhs);
  }
  below /= n;

  // Fraction equal to rhs: 0 outside range; inside, integral columns have
  // ~`width` distinct values, continuous ones effectively none — use one
  // bucket-row's worth as a floor so Eq never estimates exactly zero inside
  // the observed range.
  double eq = 0.0;
  if (rhs >= min && rhs <= max) {
    size_t b = std::min(buckets.size() - 1,
                        static_cast<size_t>((rhs - min) / bucket_width));
    double bucket_frac = static_cast<double>(buckets[b]) / n;
    double distinct_per_bucket =
        integral ? std::max(1.0, std::floor(bucket_width) + 1.0)
                 : static_cast<double>(std::max<size_t>(buckets[b], 1));
    eq = bucket_frac / distinct_per_bucket;
  }

  double sel = 0.0;
  switch (op) {
    case CmpOp::kEq:
      sel = eq;
      break;
    case CmpOp::kNe:
      sel = 1.0 - eq;
      break;
    case CmpOp::kLt:
      sel = below;
      break;
    case CmpOp::kLe:
      sel = below + eq;
      break;
    case CmpOp::kGt:
      sel = 1.0 - below - eq;
      break;
    case CmpOp::kGe:
      sel = 1.0 - below;
      break;
  }
  return std::clamp(sel, 0.0, 1.0);
}

double SpatialFieldStats::EstimateNeighbors(float radius) const {
  if (rows < 2 || ref_radius <= 0.0f) return 0.0;
  // avg_cell_cooccupants counts co-occupants of a cube/square cell of side
  // ref_radius; scale to a sphere/disc of the requested radius. The shape
  // factor is vol(sphere r) / vol(cube ref): 2D π r² / ref², 3D (4π/3) r³ /
  // ref³.
  double ratio = static_cast<double>(radius) / ref_radius;
  double shape = dims == 2 ? 3.14159265358979 * ratio * ratio
                           : 4.18879020478639 * ratio * ratio * ratio;
  return avg_cell_cooccupants * shape;
}

void WorldStats::Analyze(const World& world) {
  tables_.clear();
  const size_t nbuckets = std::max<size_t>(1, options_.histogram_buckets);

  world.ForEachStore([&](const TypeInfo& info, const ComponentStore& store) {
    TableStats ts;
    ts.type_id = info.id();
    ts.rows = store.Size();

    for (const FieldInfo& field : info.fields()) {
      const bool is_vec3 = field.type() == FieldType::kVec3;
      const bool is_numeric =
          !is_vec3 && field.type() != FieldType::kString &&
          field.type() != FieldType::kEntity;
      if (!is_vec3 && !is_numeric) continue;

      if (is_numeric) {
        FieldStats fs;
        std::vector<double> values;
        values.reserve(store.Size());
        for (size_t i = 0; i < store.Size(); ++i) {
          double v = 0.0;
          if (!FieldValueAsNumber(field.Get(store.ValueAt(i)), &v)) continue;
          if (std::isnan(v)) {
            fs.has_nan = true;
            continue;
          }
          if (values.empty() || v < fs.min) fs.min = v;
          if (values.empty() || v > fs.max) fs.max = v;
          if (v != std::floor(v)) fs.integral = false;
          values.push_back(v);
        }
        fs.rows = values.size();
        double width = fs.max - fs.min;
        if (!values.empty() && width > 0.0) {
          fs.buckets.assign(nbuckets, 0);
          for (double v : values) {
            size_t b = std::min(
                nbuckets - 1,
                static_cast<size_t>((v - fs.min) / width *
                                    static_cast<double>(nbuckets)));
            ++fs.buckets[b];
          }
        }
        ts.fields.emplace(field.name(), std::move(fs));
      } else {
        SpatialFieldStats ss;
        ss.ref_radius = options_.ref_radius;
        // One-pass density: hash positions into cells of side ref_radius;
        // E[co-occupants] = Σ n_c² / n − 1 (clustering-aware).
        std::unordered_map<uint64_t, uint32_t> cells;
        const float inv = 1.0f / std::max(1e-6f, ss.ref_radius);
        for (size_t i = 0; i < store.Size(); ++i) {
          FieldValue v = field.Get(store.ValueAt(i));
          const Vec3* p = std::get_if<Vec3>(&v);
          if (p == nullptr) continue;
          // Skip degenerate positions: NaN/inf (physics blowups the query
          // layer tolerates — they simply never match) would poison the
          // bbox, and the float→int cell cast below is UB out of int32
          // range.
          auto in_range = [&](float c) {
            return std::isfinite(c) && std::fabs(c * inv) < 1e9f;
          };
          if (!in_range(p->x) || !in_range(p->y) || !in_range(p->z)) {
            continue;
          }
          ss.bbox = ss.bbox.Union(Aabb::FromPoint(*p));
          auto cell = [&](float c) {
            return static_cast<uint64_t>(
                static_cast<uint32_t>(static_cast<int32_t>(
                    std::floor(c * inv))));
          };
          uint64_t key = cell(p->x) * 0x9E3779B97F4A7C15ull ^
                         cell(p->y) * 0xC2B2AE3D27D4EB4Full ^
                         cell(p->z) * 0x165667B19E3779F9ull;
          ++cells[key];
          ++ss.rows;
        }
        if (ss.rows > 0) {
          double sq = 0.0;
          for (const auto& [key, count] : cells) {
            sq += static_cast<double>(count) * static_cast<double>(count);
          }
          ss.avg_cell_cooccupants =
              std::max(0.0, sq / static_cast<double>(ss.rows) - 1.0);
          Vec3 e = ss.bbox.Extent();
          float max_extent = std::max({e.x, e.y, e.z});
          int degenerate = 0;
          for (float axis : {e.x, e.y, e.z}) {
            if (axis < 1e-3f * std::max(1.0f, max_extent)) ++degenerate;
          }
          ss.dims = degenerate >= 1 ? 2 : 3;
        }
        ts.spatial.emplace(field.name(), std::move(ss));
      }
    }
    tables_.emplace(info.id(), std::move(ts));
  });
  ++epoch_;
}

bool WorldStats::Drifted(const World& world, double threshold) const {
  bool drifted = false;
  size_t seen = 0;
  world.ForEachStore([&](const TypeInfo& info, const ComponentStore& store) {
    ++seen;
    auto it = tables_.find(info.id());
    if (it == tables_.end()) {
      if (store.Size() > 0) drifted = true;  // table appeared with rows
      return;
    }
    double analyzed = static_cast<double>(it->second.rows);
    double cur = static_cast<double>(store.Size());
    if (std::abs(cur - analyzed) > threshold * std::max(1.0, analyzed)) {
      drifted = true;
    }
  });
  // Never analyzed at all but the world has tables.
  if (epoch_ == 0 && seen > 0) drifted = true;
  return drifted;
}

bool WorldStats::MaybeRefresh(const World& world, double threshold) {
  if (!Drifted(world, threshold)) return false;
  Analyze(world);
  return true;
}

const TableStats* WorldStats::Table(uint32_t type_id) const {
  auto it = tables_.find(type_id);
  return it == tables_.end() ? nullptr : &it->second;
}

const FieldStats* WorldStats::Field(uint32_t type_id,
                                    const std::string& field) const {
  const TableStats* t = Table(type_id);
  if (t == nullptr) return nullptr;
  auto it = t->fields.find(field);
  return it == t->fields.end() ? nullptr : &it->second;
}

const SpatialFieldStats* WorldStats::Spatial(uint32_t type_id,
                                             const std::string& field) const {
  const TableStats* t = Table(type_id);
  if (t == nullptr) return nullptr;
  auto it = t->spatial.find(field);
  return it == t->spatial.end() ? nullptr : &it->second;
}

double WorldStats::EstimateRows(uint32_t type_id) const {
  const TableStats* t = Table(type_id);
  return t == nullptr ? 0.0 : static_cast<double>(t->rows);
}

std::string WorldStats::ToString() const {
  const TypeRegistry& reg = TypeRegistry::Global();
  std::string out =
      "stats epoch " + std::to_string(epoch_) + ":\n";
  // Tables in type-id order, fields by name.
  for (const auto* table : SortedByKey(tables_)) {
    const auto& [id, ts] = *table;
    const TypeInfo* info = reg.Find(id);
    out += "  " + (info ? info->name() : std::to_string(id)) + ": " +
           std::to_string(ts.rows) + " rows";
    for (const auto* field : SortedByKey(ts.fields)) {
      const auto& [name, fs] = *field;
      out += ", " + name + "=[" + std::to_string(fs.min) + "," +
             std::to_string(fs.max) + "]";
    }
    for (const auto* field : SortedByKey(ts.spatial)) {
      const auto& [name, ss] = *field;
      out += ", " + name + ": ~" +
             std::to_string(ss.EstimateNeighbors(ss.ref_radius)) +
             " neighbors@r=" + std::to_string(ss.ref_radius);
    }
    out += "\n";
  }
  return out;
}

}  // namespace gamedb::planner
