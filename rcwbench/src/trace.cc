#include "rcwbench/src/trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace rcwbench {
namespace {

struct Frame {
  int64_t id;
  int64_t request;
};

std::atomic<bool> g_enabled{false};
std::atomic<int64_t> g_next_id{1};

std::mutex g_mu;  // guards g_spans and the ambient frame
std::vector<Span> g_spans;
Frame g_ambient{0, -1};

thread_local std::vector<Frame> t_stack;

}  // namespace

void EnableTracing(bool on) { g_enabled.store(on); }
bool TracingEnabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<Span> RecordedSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  return g_spans;
}

bool WriteSpans(const std::string& path) {
  const std::vector<Span> spans = RecordedSpans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%lld,\"parent\":%lld,"
                 "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"rows\":%lld}\n",
                 s.name, static_cast<long long>(s.id),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.rows));
  }
  return std::fclose(f) == 0;
}

ScopedSpan::ScopedSpan(const char* name, int64_t rows, int64_t request) {
  if (!TracingEnabled()) return;
  active_ = true;
  span_.name = name;
  span_.rows = rows;
  span_.id = g_next_id.fetch_add(1);
  if (!t_stack.empty()) {
    span_.parent = t_stack.back().id;
    span_.request = t_stack.back().request;
  } else {
    std::lock_guard<std::mutex> lock(g_mu);
    span_.parent = g_ambient.id;
    span_.request = g_ambient.request;
  }
  if (request >= 0) span_.request = request;
  t_stack.push_back({span_.id, span_.request});
  span_.start_ns = NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = NowNs();
  t_stack.pop_back();
  std::lock_guard<std::mutex> lock(g_mu);
  g_spans.push_back(span_);
}

AmbientParent::AmbientParent() {
  if (!TracingEnabled() || t_stack.empty()) return;
  active_ = true;
  std::lock_guard<std::mutex> lock(g_mu);
  saved_id_ = g_ambient.id;
  saved_request_ = g_ambient.request;
  g_ambient = t_stack.back();
}

AmbientParent::~AmbientParent() {
  if (!active_) return;
  std::lock_guard<std::mutex> lock(g_mu);
  g_ambient = {saved_id_, saved_request_};
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::unordered_map<int64_t, size_t> index;
  index.reserve(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (it != index.end()) {
      children[it->second].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;  // end of the union measured so far
    for (const auto& [a, b] : kids) {
      const int64_t from = std::max(a, cursor);
      const int64_t to = std::min(b, hi);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

SpanTotals TotalsFor(const std::vector<Span>& spans,
                     const std::vector<int64_t>& self_ns, const char* name,
                     bool requests_only) {
  SpanTotals t;
  const std::string want(name);
  for (size_t i = 0; i < spans.size(); ++i) {
    if (want != spans[i].name) continue;
    if (requests_only && spans[i].request < 0) continue;
    const double ms =
        static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6;
    ++t.count;
    t.rows += spans[i].rows;
    t.ms += ms;
    t.self_ms += static_cast<double>(self_ns[i]) / 1e6;
    t.each_ms.push_back(ms);
  }
  return t;
}

robogexp::Matrix TracedModel::InferSubset(
    const robogexp::GraphView& view, const robogexp::Matrix& features,
    const std::vector<robogexp::NodeId>& nodes) const {
  ScopedSpan span("gnn.forward", static_cast<int64_t>(nodes.size()));
  return inner_->InferSubset(view, features, nodes);
}

std::vector<double> TracedModel::InferNode(const robogexp::GraphView& view,
                                           const robogexp::Matrix& features,
                                           robogexp::NodeId v) const {
  ScopedSpan span("gnn.forward", 1);
  return inner_->InferNode(view, features, v);
}

robogexp::Matrix TracedModel::InferNodes(
    const robogexp::GraphView& view, const robogexp::Matrix& features,
    const std::vector<robogexp::NodeId>& nodes) const {
  ScopedSpan span("gnn.forward", static_cast<int64_t>(nodes.size()));
  return inner_->InferNodes(view, features, nodes);
}

robogexp::Matrix TracedModel::BaseLogits(
    const robogexp::GraphView& view, const robogexp::Matrix& features) const {
  ScopedSpan span("gnn.evidence", features.rows());
  return inner_->BaseLogits(view, features);
}

}  // namespace rcwbench
