#include "core/change_log.h"

#include <algorithm>

#include "common/macros.h"

namespace gamedb {

ChangeLog::Cursor ChangeLog::Open() {
  auto slot = std::find(cursors_.begin(), cursors_.end(), kClosed);
  if (slot == cursors_.end()) slot = cursors_.insert(slot, kClosed);
  *slot = base_ + records_.size();
  return static_cast<Cursor>(slot - cursors_.begin());
}

void ChangeLog::Close(Cursor cursor) {
  GAMEDB_DCHECK(cursor < cursors_.size() && cursors_[cursor] != kClosed);
  cursors_[cursor] = kClosed;
  // Trailing free slots go, so cursors_ is empty exactly when none is open.
  while (!cursors_.empty() && cursors_.back() == kClosed) cursors_.pop_back();
  DropRead();
}

void ChangeLog::Read(Cursor cursor, ChangeSet* out) {
  out->Clear();
  const size_t first = cursors_[cursor] - base_;
  if (first == records_.size()) return;
  net_.clear();
  order_.clear();
  net_.reserve(records_.size() - first);
  for (size_t i = first; i < records_.size(); ++i) {
    const auto& [e, kind] = records_[i];
    auto [it, inserted] = net_.try_emplace(e.Raw());
    NetState& s = it->second;
    if (inserted) {
      order_.push_back(e);
      // The first record tells us the window-start state: a row can only
      // be added if absent, and only updated/removed if present.
      s.existed_at_start = kind != ChangeKind::kAdd;
    }
    s.present = kind != ChangeKind::kRemove;
    // Removed then re-added: the row existed at window start and exists
    // now, but its value may differ — net update.
    s.updated |= kind == ChangeKind::kUpdate ||
                 (kind == ChangeKind::kAdd && s.existed_at_start);
  }
  for (EntityId e : order_) {
    const NetState& s = net_[e.Raw()];
    if (s.existed_at_start && !s.present) {
      out->removed.push_back(e);
    } else if (!s.existed_at_start && s.present) {
      out->added.push_back(e);
    } else if (s.existed_at_start && s.present && s.updated) {
      out->updated.push_back(e);
    }
    // !existed && !present: added and removed within the window — no net
    // change, nothing reported.
  }
  Advance(cursor);
}

}  // namespace gamedb
