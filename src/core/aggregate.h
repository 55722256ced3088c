#pragma once

/// \file aggregate.h
/// Incrementally-maintained aggregate indexes over component tables.
///
/// This is the database trick the tutorial attributes to the SGL line of
/// work [11, 13]: instead of scripts recomputing "total hp of every unit"
/// by iterating every entity every frame (Ω(n) per reader, Ω(n²) overall),
/// the engine maintains the aggregate at O(1)/O(log n) per tracked write.
/// Benchmarked in E1 and E10.
///
/// Each aggregate reads its table's change log (core/change_log.h) through
/// its own cursor, opened in the constructor and closed in the destructor.
/// Before every read it re-folds each row that a record since the previous
/// read names: it takes back the contribution it last folded for that
/// entity slot, then folds the row's current value if the row still
/// exists. That is a LiveView's stateless re-evaluation applied to a fold,
/// so Set, Patch, PatchRaw, Touch and Erase are all ordinary tracked
/// updates, and a Touch publishes the untracked writes before it. Writes
/// that bypass tracking (GetMutableUntracked without Touch) stay invisible
/// — that contract is what E1 measures the value of.
///
/// A row whose projection is NaN contributes nothing (no sum term, no
/// count, no extremum) until a tracked write makes it a number again.
///
/// Reads are non-const, sequential-phase calls, like ViewCatalog::Maintain:
/// never read an aggregate concurrently with a write or with another read.
/// An aggregate that is never read keeps its table's log growing, as any
/// open cursor does. An aggregate must not outlive its World.

#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <vector>

#include "common/macros.h"
#include "core/change_log.h"
#include "core/sparse_set.h"
#include "core/world.h"

namespace gamedb {

/// Exact running sum/count with O(1) add/remove. Used standalone and as the
/// building block of the maintained aggregates.
struct RunningSum {
  double sum = 0.0;
  int64_t count = 0;

  void Add(double v) {
    sum += v;
    ++count;
  }
  void Remove(double v) {
    sum -= v;
    --count;
    GAMEDB_DCHECK(count >= 0);
  }
  double Average() const { return count == 0 ? 0.0 : sum / count; }
};

namespace internal {

/// What one entity slot last folded into an aggregate (NaN value: none).
/// A slot holds one live entity at a time, and the log lists a slot's
/// removal before its reuse, so indexing by EntityId::index cannot alias.
struct Contribution {
  double value = std::numeric_limits<double>::quiet_NaN();
  int64_t group = 0;  ///< GroupedSumAggregate's key
};

/// The change-log plumbing the aggregates share. `Derived` supplies
/// Project(const T&) -> Contribution, and Add/Remove(const Contribution&),
/// which only ever see non-NaN contributions.
template <typename Derived, typename T>
class ChangeFold {
 public:
  GAMEDB_DISALLOW_COPY(ChangeFold);

 protected:
  explicit ChangeFold(World& world)
      : table_(world.Table<T>()), cursor_(table_.changes().Open()) {}
  ~ChangeFold() { table_.changes().Close(cursor_); }

  /// Folds every current row; each derived constructor calls it once.
  void FoldAll() {
    for (EntityId e : table_.entities()) Refold(e);
  }

  /// Re-folds each row a record since the previous call names.
  void CatchUp() {
    table_.changes().ForEachRecord(
        cursor_, [this](EntityId e, ChangeKind) { Refold(e); });
  }

 private:
  void Refold(EntityId e) {
    if (e.index >= slots_.size()) slots_.resize(e.index + 1);
    Contribution& c = slots_[e.index];
    Derived& self = static_cast<Derived&>(*this);
    if (!std::isnan(c.value)) self.Remove(c);
    c = Contribution{};
    if (const T* row = table_.Get(e)) c = self.Project(*row);
    if (!std::isnan(c.value)) self.Add(c);
  }

  SparseSet<T>& table_;
  ChangeLog::Cursor cursor_;
  std::vector<Contribution> slots_;
};

}  // namespace internal

/// Maintained SUM/COUNT/AVG over a numeric projection of component T.
/// O(1) per tracked write, paid at the next read.
template <typename T>
class SumAggregate : private internal::ChangeFold<SumAggregate<T>, T> {
 public:
  using Projection = std::function<double(const T&)>;

  SumAggregate(World& world, Projection proj)
      : internal::ChangeFold<SumAggregate, T>(world), proj_(std::move(proj)) {
    this->FoldAll();
  }

  double sum() {
    this->CatchUp();
    return state_.sum;
  }
  int64_t count() {
    this->CatchUp();
    return state_.count;
  }
  double average() {
    this->CatchUp();
    return state_.Average();
  }

 private:
  friend internal::ChangeFold<SumAggregate, T>;

  internal::Contribution Project(const T& row) const { return {proj_(row)}; }
  void Add(const internal::Contribution& c) { state_.Add(c.value); }
  void Remove(const internal::Contribution& c) { state_.Remove(c.value); }

  Projection proj_;
  RunningSum state_;
};

/// Maintained MIN/MAX over a numeric projection of component T, exact under
/// removal (multiset-backed, O(log n) per tracked write).
template <typename T>
class ExtremaAggregate : private internal::ChangeFold<ExtremaAggregate<T>, T> {
 public:
  using Projection = std::function<double(const T&)>;

  ExtremaAggregate(World& world, Projection proj)
      : internal::ChangeFold<ExtremaAggregate, T>(world),
        proj_(std::move(proj)) {
    this->FoldAll();
  }

  bool empty() {
    this->CatchUp();
    return values_.empty();
  }
  /// Smallest / largest projected value; callers must check empty() first.
  double min() {
    this->CatchUp();
    GAMEDB_DCHECK(!values_.empty());
    return *values_.begin();
  }
  double max() {
    this->CatchUp();
    GAMEDB_DCHECK(!values_.empty());
    return *values_.rbegin();
  }

 private:
  friend internal::ChangeFold<ExtremaAggregate, T>;

  internal::Contribution Project(const T& row) const { return {proj_(row)}; }
  void Add(const internal::Contribution& c) { values_.insert(c.value); }
  void Remove(const internal::Contribution& c) {
    auto it = values_.find(c.value);
    GAMEDB_DCHECK(it != values_.end());
    values_.erase(it);
  }

  Projection proj_;
  std::multiset<double> values_;
};

/// Maintained per-group SUM/COUNT: GROUP BY key(component) with an int64
/// grouping key read from the aggregated row itself (Actor::account_id,
/// say).
///
/// The group key must be derivable from the component value alone so that
/// updates can move a row between groups. A key stored in another
/// component cannot group this one: a faction kept in `Faction` cannot key
/// a grouped `Health` sum, because a write to `Faction` is never seen here.
template <typename T>
class GroupedSumAggregate
    : private internal::ChangeFold<GroupedSumAggregate<T>, T> {
 public:
  using Projection = std::function<double(const T&)>;
  using KeyFn = std::function<int64_t(const T&)>;

  GroupedSumAggregate(World& world, KeyFn key, Projection proj)
      : internal::ChangeFold<GroupedSumAggregate, T>(world),
        key_(std::move(key)),
        proj_(std::move(proj)) {
    this->FoldAll();
  }

  /// Sum for `group`; 0 for absent groups.
  double SumOf(int64_t group) {
    this->CatchUp();
    auto it = groups_.find(group);
    return it == groups_.end() ? 0.0 : it->second.sum;
  }
  int64_t CountOf(int64_t group) {
    this->CatchUp();
    auto it = groups_.find(group);
    return it == groups_.end() ? 0 : it->second.count;
  }
  size_t group_count() {
    this->CatchUp();
    return groups_.size();
  }

  /// Iterates groups: fn(key, sum, count).
  void ForEachGroup(const std::function<void(int64_t, double, int64_t)>& fn) {
    this->CatchUp();
    for (const auto& [k, rs] : groups_) fn(k, rs.sum, rs.count);
  }

 private:
  friend internal::ChangeFold<GroupedSumAggregate, T>;

  internal::Contribution Project(const T& row) const {
    return {proj_(row), key_(row)};
  }
  void Add(const internal::Contribution& c) {
    groups_[c.group].Add(c.value);
  }
  void Remove(const internal::Contribution& c) {
    auto it = groups_.find(c.group);
    GAMEDB_DCHECK(it != groups_.end());
    it->second.Remove(c.value);
    if (it->second.count == 0) groups_.erase(it);
  }

  KeyFn key_;
  Projection proj_;
  std::map<int64_t, RunningSum> groups_;
};

}  // namespace gamedb
