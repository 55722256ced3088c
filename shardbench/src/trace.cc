#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <map>

#include "bench.h"

namespace shardbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void SpanRecorder::Begin(const char* name) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  open_.push_back(static_cast<int32_t>(spans_.size()));
  spans_.push_back(Span{name, NowNs(), 0, parent, tick_});
}

void SpanRecorder::End() {
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

uint64_t SpanTotals::SelfNs(const std::string& name) const {
  for (const auto& [n, ns] : self_ns) {
    if (n == name) return ns;
  }
  return 0;
}

namespace {

uint64_t Duration(const Span& s) { return s.end_ns - s.start_ns; }

/// Σ durations of each span's direct children.
std::vector<uint64_t> ChildNs(const std::vector<Span>& spans) {
  std::vector<uint64_t> child(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[s.parent] += Duration(s);
  }
  return child;
}

/// Index of each span's root.
std::vector<size_t> Roots(const std::vector<Span>& spans) {
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    root[i] = spans[i].parent < 0 ? i : root[spans[i].parent];
  }
  return root;
}

}  // namespace

Status CheckSpans(const std::vector<Span>& spans) {
  std::vector<uint64_t> last_child_end(spans.size(), 0);
  uint64_t last_root_end = 0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string where = std::string(s.name) + " (span " +
                              std::to_string(i) + ", tick " +
                              std::to_string(s.tick) + ")";
    if (s.end_ns < s.start_ns) {
      return Status::Corruption("span never ended: " + where);
    }
    uint64_t* prev_end = &last_root_end;
    if (s.parent >= 0) {
      if (static_cast<size_t>(s.parent) >= i) {
        return Status::Corruption("parent recorded after child: " + where);
      }
      const Span& p = spans[s.parent];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) {
        return Status::Corruption("span outside its parent: " + where);
      }
      if (s.tick != p.tick) {
        return Status::Corruption("tick id differs from parent: " + where);
      }
      prev_end = &last_child_end[s.parent];
    }
    if (s.start_ns < *prev_end) {
      return Status::Corruption("span overlaps its previous sibling: " +
                                where);
    }
    *prev_end = s.end_ns;
  }
  // Span-sum identity: per root, the self times of the whole tree add up
  // to the root's duration.
  const std::vector<uint64_t> child = ChildNs(spans);
  const std::vector<size_t> root = Roots(spans);
  std::vector<uint64_t> tree_self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    tree_self[root[i]] += Duration(spans[i]) - child[i];
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent < 0 && tree_self[i] != Duration(spans[i])) {
      return Status::Corruption("self times do not add up to root span " +
                                std::to_string(i));
    }
  }
  return Status::OK();
}

SpanTotals Aggregate(const std::vector<Span>& spans, const char* root_name) {
  const std::vector<uint64_t> child = ChildNs(spans);
  const std::vector<size_t> root = Roots(spans);
  std::map<std::string, uint64_t> self;
  SpanTotals out;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[root[i]].name) != root_name) continue;
    if (spans[i].parent < 0) {
      ++out.roots;
      out.root_ns += Duration(spans[i]);
    }
    self[spans[i].name] += Duration(spans[i]) - child[i];
  }
  out.self_ns.assign(self.begin(), self.end());
  return out;
}

Status WriteTrace(const std::vector<Span>& spans, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return Status::IOError("cannot write trace " + path);
  const uint64_t t0 = spans.empty() ? 0 : spans.front().start_ns;
  std::fputs("{\"traceEvents\":[", f);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRId32 ",\"tick\":%" PRIu32 "}}",
                 i == 0 ? "" : ",", s.name, (s.start_ns - t0) / 1e3,
                 Duration(s) / 1e3, i, s.parent, s.tick);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0 ? Status::OK()
                             : Status::IOError("cannot write trace " + path);
}

}  // namespace shardbench
