#include "views/maintainer.h"

#include <algorithm>


namespace gamedb::views {

ViewCatalog::~ViewCatalog() {
  for (uint32_t id : captured_) {
    ComponentStore* store = world_->StoreById(id);
    if (store != nullptr) store->DisableChangeCapture();
  }
}

Result<LiveView*> ViewCatalog::Register(ViewDef def) {
  if (Find(def.name) != nullptr) {
    return Status::InvalidArgument("duplicate view name: " + def.name);
  }
  std::unique_ptr<LiveView> view(
      new LiveView(world_, planner_, std::move(def)));
  GAMEDB_RETURN_NOT_OK(view->Resolve());
  // Dependency tables exist from here on (StoreById creates them), so the
  // view's Matches and a fresh DynamicQuery agree on store lookups.
  std::vector<uint32_t> newly_captured;
  for (uint32_t id : view->dependencies()) {
    ComponentStore* store = world_->StoreById(id);
    GAMEDB_CHECK(store != nullptr);  // Resolve validated the type id
    store->EnableChangeCapture();
    if (captured_set_.insert(id).second) {
      captured_.push_back(id);
      newly_captured.push_back(id);
    }
  }
  view->CacheStores();  // stores exist now; Matches resolves them once
  Status populated = view->Repopulate();
  if (!populated.ok()) {
    // Honor the "unchanged on failure" contract: stop capturing tables no
    // registered view depends on.
    for (uint32_t id : newly_captured) {
      world_->StoreById(id)->DisableChangeCapture();
      captured_set_.erase(id);
      captured_.erase(
          std::remove(captured_.begin(), captured_.end(), id),
          captured_.end());
    }
    return populated;
  }
  for (uint32_t id : view->dependencies()) {
    by_table_[id].push_back(view.get());
  }
  by_name_.emplace(view->name(), view.get());
  views_.push_back(std::move(view));
  return views_.back().get();
}

LiveView* ViewCatalog::Find(const std::string& name) {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

const LiveView* ViewCatalog::Find(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : it->second;
}

bool ViewCatalog::Unregister(const std::string& name) {
  LiveView* view = Find(name);
  if (view == nullptr) return false;
  // `name` may reference the view's own name (SyncServer passes
  // view->name()); erase by iterator before the view can be destroyed.
  by_name_.erase(by_name_.find(name));
  for (uint32_t id : view->dependencies()) {
    auto it = by_table_.find(id);
    if (it == by_table_.end()) continue;
    it->second.erase(
        std::remove(it->second.begin(), it->second.end(), view),
        it->second.end());
  }
  views_.erase(std::remove_if(views_.begin(), views_.end(),
                              [&](const std::unique_ptr<LiveView>& v) {
                                return v.get() == view;
                              }),
               views_.end());
  return true;
}

void ViewCatalog::SetTelemetry(const telemetry::TelemetrySink& sink) {
  if (sink.metrics != nullptr) {
    m_rounds_ = sink.metrics->GetCounter("views.rounds");
    m_tables_flushed_ = sink.metrics->GetCounter("views.tables_flushed");
    m_change_records_ = sink.metrics->GetCounter("views.change_records");
  }
}

void ViewCatalog::Maintain() {
  const uint64_t changes_before = stats_.change_records;
  const uint64_t flushed_before = stats_.tables_flushed;
  ++stats_.rounds;
  for (uint32_t id : captured_) {
    ComponentStore* store = world_->StoreById(id);
    store->FlushChanges(&scratch_);
    if (scratch_.Empty()) continue;
    ++stats_.tables_flushed;
    stats_.change_records += scratch_.TotalChanges();
    auto it = by_table_.find(id);
    if (it == by_table_.end()) continue;
    for (LiveView* v : it->second) {
      // Everything is a candidate; re-evaluation is stateless, so routing
      // a removal to a non-member (or an add that also satisfies another
      // view's predicate) costs one cheap match check, never corruption.
      for (EntityId e : scratch_.added) v->MarkCandidate(e);
      for (EntityId e : scratch_.removed) v->MarkCandidate(e);
      for (EntityId e : scratch_.updated) v->MarkCandidate(e);
    }
  }
  for (auto& v : views_) v->ApplyCandidates();
  if (m_rounds_ != nullptr) {
    m_rounds_->Increment();
    m_tables_flushed_->Add(stats_.tables_flushed - flushed_before);
    m_change_records_->Add(stats_.change_records - changes_before);
  }
}

}  // namespace gamedb::views
