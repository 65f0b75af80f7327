#include "trace.h"

#include <cstdio>
#include <stdexcept>

namespace perfbench {

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].end - spans[i].start;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint32_t p = spans[i].parent;
    if (p == Span::kNoParent) continue;
    if (p >= i) throw std::logic_error("span parent must precede its child");
    self[p] -= spans[i].end - spans[i].start;
  }
  return self;
}

Tracer::Tracer(bool enabled, std::size_t keep_cap)
    : enabled_(enabled), keep_cap_(keep_cap), origin_(Clock::now()) {}

void Tracer::set_enabled(bool on) {
  if (!stack_.empty()) throw std::logic_error("set_enabled with open spans");
  enabled_ = on;
}

std::uint32_t Tracer::intern(std::string_view name) {
  const std::string key(name);
  auto it = ids_.find(key);
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.push_back(key);
  ids_.emplace(key, id);
  stats_.emplace_back();
  return id;
}

std::uint32_t Tracer::open(std::uint32_t name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? Span::kNoParent : stack_.back();
  s.start = now();
  const auto idx = static_cast<std::uint32_t>(tree_.size());
  tree_.push_back(s);
  stack_.push_back(idx);
  return idx;
}

void Tracer::close(std::uint32_t span) {
  if (stack_.empty() || stack_.back() != span) {
    throw std::logic_error("spans must close in LIFO order");
  }
  tree_[span].end = now();
  stack_.pop_back();
  if (stack_.empty()) fold();
}

void Tracer::fold() {
  const std::vector<double> self = self_times(tree_);
  const auto base = static_cast<std::uint32_t>(kept_.size());
  const bool keep = kept_.size() + tree_.size() <= keep_cap_;
  for (std::size_t i = 0; i < tree_.size(); ++i) {
    const Span& s = tree_[i];
    SpanStats& st = stats_[s.name];
    const double dur = s.end - s.start;
    ++st.count;
    st.total_s += dur;
    st.self_s += self[i];
    st.durations_us.push_back(static_cast<float>(dur * 1e6));
    if (keep) {
      Span k = s;
      if (k.parent != Span::kNoParent) k.parent += base;
      kept_.push_back(k);
    }
  }
  if (!keep) dropped_ += tree_.size();
  tree_.clear();
}

const SpanStats& Tracer::stats(std::string_view name) const {
  static const SpanStats kEmpty;
  auto it = ids_.find(std::string(name));
  return it == ids_.end() ? kEmpty : stats_[it->second];
}

double Tracer::total_self_s(const std::vector<std::string>& skip) const {
  double sum = 0.0;
  for (std::size_t id = 0; id < names_.size(); ++id) {
    bool skipped = false;
    for (const std::string& s : skip) skipped = skipped || s == names_[id];
    if (!skipped) sum += stats_[id].self_s;
  }
  return sum;
}

void Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::fprintf(f, "{\"aggregates\":{");
  bool first = true;
  for (std::size_t id = 0; id < names_.size(); ++id) {
    const SpanStats& st = stats_[id];
    if (st.count == 0) continue;
    std::fprintf(f, "%s\"%s\":{\"count\":%llu,\"total_s\":%.9g,\"self_s\":%.9g}",
                 first ? "" : ",", names_[id].c_str(),
                 static_cast<unsigned long long>(st.count), st.total_s, st.self_s);
    first = false;
  }
  std::fprintf(f, "},\"dropped_spans\":%llu,\"spans\":[\n",
               static_cast<unsigned long long>(dropped_));
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    std::fprintf(f, "%s{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,\"parent\":%lld}\n",
                 i == 0 ? "" : ",", names_[s.name].c_str(), s.start, s.end,
                 s.parent == Span::kNoParent ? -1LL : static_cast<long long>(s.parent));
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
}

}  // namespace perfbench
