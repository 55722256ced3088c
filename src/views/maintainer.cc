#include "views/maintainer.h"

#include <algorithm>

namespace gamedb::views {

ViewCatalog::~ViewCatalog() {
  for (const Table& t : tables_) {
    world_->StoreById(t.type_id)->changes().Close(t.cursor);
  }
}

Result<LiveView*> ViewCatalog::Register(ViewDef def) {
  if (Find(def.name) != nullptr) {
    return Status::InvalidArgument("duplicate view name: " + def.name);
  }
  std::unique_ptr<LiveView> view(
      new LiveView(world_, planner_, std::move(def)));
  GAMEDB_RETURN_NOT_OK(view->Resolve());
  const std::vector<uint32_t>& deps = view->dependencies();
  const size_t tables_before = tables_.size();
  for (uint32_t id : deps) {
    ComponentStore* store = world_->StoreById(id);
    GAMEDB_CHECK(store != nullptr);  // Resolve validated the type id
    if (std::none_of(tables_.begin(), tables_.end(),
                     [id](const Table& t) { return t.type_id == id; })) {
      tables_.push_back(Table{id, store->changes().Open(), {}});
    }
  }
  Status populated = view->Populate();
  if (!populated.ok()) {
    // Honor the "unchanged on failure" contract: close only the cursors
    // this call opened.
    for (size_t i = tables_before; i < tables_.size(); ++i) {
      world_->StoreById(tables_[i].type_id)->changes().Close(
          tables_[i].cursor);
    }
    tables_.resize(tables_before);
    return populated;
  }
  for (Table& t : tables_) {
    if (std::find(deps.begin(), deps.end(), t.type_id) != deps.end()) {
      t.views.push_back(view.get());
    }
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
  for (const Table& t : tables_) {
    world_->StoreById(t.type_id)->changes().Read(t.cursor, &scratch_);
    if (scratch_.Empty()) continue;
    ++stats_.tables_flushed;
    stats_.change_records += scratch_.TotalChanges();
    for (LiveView* v : t.views) {
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
