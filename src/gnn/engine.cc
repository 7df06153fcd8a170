#include "src/gnn/engine.h"

#include <algorithm>
#include <utility>

namespace robogexp {

namespace {

/// Packs one matrix row into a freshly allocated shared logit vector.
std::shared_ptr<const std::vector<double>> PackRow(const Matrix& rows,
                                                   size_t i) {
  std::vector<double> logits(static_cast<size_t>(rows.cols()));
  for (int64_t c = 0; c < rows.cols(); ++c) {
    logits[static_cast<size_t>(c)] = rows.at(static_cast<int64_t>(i), c);
  }
  return std::make_shared<const std::vector<double>>(std::move(logits));
}

}  // namespace

InferenceEngine::InferenceEngine(const GnnModel* model, const Graph* graph,
                                 const EngineOptions& opts)
    : model_(model), graph_(graph), full_(graph), base_(&full_), opts_(opts) {
  RCW_CHECK(model != nullptr && graph != nullptr);
  slots_[kFullView].view = base_;
}

InferenceEngine::InferenceEngine(const GnnModel* model, const Graph* graph,
                                 const GraphView* base_view,
                                 const EngineOptions& opts)
    : model_(model), graph_(graph), full_(graph), base_(base_view),
      opts_(opts) {
  RCW_CHECK(model != nullptr && graph != nullptr && base_view != nullptr);
  RCW_CHECK_MSG(base_view->num_nodes() == graph->num_nodes(),
                "InferenceEngine: base view must share the graph's id space");
  slots_[kFullView].view = base_;
}

std::vector<uint64_t> InferenceEngine::CanonicalFlipKeys(
    const std::vector<Edge>& flips) {
  std::vector<uint64_t> canon;
  canon.reserve(flips.size());
  for (const Edge& e : flips) canon.push_back(e.Key());
  std::sort(canon.begin(), canon.end());
  canon.erase(std::unique(canon.begin(), canon.end()), canon.end());
  return canon;
}

std::vector<Edge> InferenceEngine::EdgesOfKeys(
    const std::vector<uint64_t>& keys) {
  std::vector<Edge> edges;
  edges.reserve(keys.size());
  for (uint64_t k : keys) edges.emplace_back(PairKeyFirst(k), PairKeySecond(k));
  return edges;
}

const GraphView* InferenceEngine::ViewOf(ViewId id) const {
  auto it = slots_.find(id);
  RCW_CHECK_MSG(it != slots_.end() && it->second.view != nullptr,
                "InferenceEngine: unknown or released view slot");
  return it->second.view;
}

void InferenceEngine::EndReadLocked(const GraphView* view) {
  if (--readers_[view] > 0) return;
  readers_.erase(view);
  readers_done_.notify_all();
}

InferenceEngine::ViewId InferenceEngine::Register(const GraphView* view) {
  RCW_CHECK(view != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  const ViewId id = next_id_++;
  slots_[id].view = view;
  return id;
}

void InferenceEngine::Bind(ViewId id, const GraphView* view) {
  RCW_CHECK(view != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  Slot& slot = slots_[id];
  const GraphView* old = slot.view;
  slot.view = view;
  slot.logits.clear();
  if (old == view) return;  // mutate-and-reuse: nothing to free
  readers_done_.wait(lock, [&] { return readers_.count(old) == 0; });
}

void InferenceEngine::Invalidate(ViewId id) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  if (it != slots_.end()) it->second.logits.clear();
}

void InferenceEngine::InvalidateNodes(ViewId id,
                                      const std::vector<NodeId>& nodes) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end()) return;
  for (NodeId v : nodes) it->second.logits.erase(v);
}

void InferenceEngine::InvalidateOverlayNodes(const std::vector<NodeId>& nodes) {
  std::unique_lock<std::mutex> lock(mu_);
  for (auto it = overlay_cache_.begin(); it != overlay_cache_.end();) {
    for (NodeId v : nodes) overlay_entries_ -= it->second.logits.erase(v);
    it = it->second.logits.empty() ? overlay_cache_.erase(it) : std::next(it);
  }
  // Purge the FIFO entries of dropped sets here rather than leaving them for
  // eviction: eviction only runs at the cap, so a stream that invalidates
  // every batch while staying under the cap would otherwise grow the queue
  // without bound. Cost is O(queue), same order as the sweep above.
  std::erase_if(overlay_fifo_, [&](const auto& entry) {
    auto it = overlay_cache_.find(entry.first);
    return it == overlay_cache_.end() || it->second.stamp != entry.second;
  });
}

void InferenceEngine::InvalidateOverlays() {
  std::unique_lock<std::mutex> lock(mu_);
  overlay_cache_.clear();
  overlay_fifo_.clear();
  overlay_entries_ = 0;
}

void InferenceEngine::Release(ViewId id) {
  RCW_CHECK_MSG(id != kFullView, "InferenceEngine: cannot release full view");
  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end()) return;
  const GraphView* old = it->second.view;
  slots_.erase(it);
  readers_done_.wait(lock, [&] { return readers_.count(old) == 0; });
}

void InferenceEngine::EvictOverlayForInsertLocked(size_t incoming) {
  // Evict until the incoming entries fit under the cap (a single batch
  // larger than the whole cap still lands intact — the bound is then the
  // batch itself, and the next insert restores it).
  while (overlay_entries_ + incoming > opts_.max_overlay_entries &&
         !overlay_fifo_.empty()) {
    const auto [key, stamp] = std::move(overlay_fifo_.front());
    overlay_fifo_.pop_front();
    auto it = overlay_cache_.find(key);
    // A missing set was dropped by InvalidateOverlayNodes; a stamp mismatch
    // means it was dropped and re-created since — its live entries queue at
    // the re-creation position, so this earlier slot must not evict them.
    if (it == overlay_cache_.end() || it->second.stamp != stamp) continue;
    overlay_entries_ -= it->second.logits.size();
    overlay_cache_.erase(it);
  }
}

std::vector<double> InferenceEngine::Logits(ViewId id, NodeId v) {
  const GraphView* view;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.node_queries;
    view = ViewOf(id);
    if (opts_.cache) {
      auto it = slots_[id].logits.find(v);
      if (it != slots_[id].logits.end()) {
        ++stats_.cache_hits;
        const LogitsPtr hit = it->second;
        lock.unlock();
        // Only the refcount bump happened under mu_; the vector copy is
        // lock-free (hot under the concurrent load of the batching front).
        return *hit;
      }
    }
    ++readers_[view];  // until EndReadLocked below
  }
  // Model invocation outside the lock; concurrent misses on the same node
  // compute identical values and the insert below is idempotent.
  auto logits = std::make_shared<const std::vector<double>>(
      model_->InferNode(*view, graph_->features(), v));
  {
    std::unique_lock<std::mutex> lock(mu_);
    EndReadLocked(view);
    ++stats_.model_invocations;
    if (opts_.cache) {
      auto it = slots_.find(id);
      // The slot may have been rebound/released while we computed; only a
      // still-matching binding may absorb the result.
      if (it != slots_.end() && it->second.view == view) {
        it->second.logits.emplace(v, logits);
      }
    }
  }
  return *logits;
}

Label InferenceEngine::Predict(ViewId id, NodeId v) {
  return ArgmaxLabel(Logits(id, v));
}

Matrix InferenceEngine::LogitRows(ViewId id, const std::vector<NodeId>& nodes) {
  if (!opts_.cache && model_->BatchedInferenceAmortizes()) {
    // Nothing is kept, so one batched invocation serves the whole read.
    const GraphView* view;
    return InferBatch(id, nodes, static_cast<int64_t>(nodes.size()), &view);
  }
  Warm(id, nodes);
  Matrix out(static_cast<int64_t>(nodes.size()), model_->num_classes());
  for (size_t i = 0; i < nodes.size(); ++i) {
    const std::vector<double> logits = Logits(id, nodes[i]);
    std::copy(logits.begin(), logits.end(), out.Row(static_cast<int64_t>(i)));
  }
  return out;
}

void InferenceEngine::Warm(ViewId id, const std::vector<NodeId>& nodes) {
  if (!opts_.cache || nodes.empty()) return;
  std::vector<NodeId> missing;
  missing.reserve(nodes.size());
  {
    std::unique_lock<std::mutex> lock(mu_);
    ViewOf(id);
    const Slot& slot = slots_[id];
    for (NodeId v : nodes) {
      if (slot.logits.count(v) == 0) missing.push_back(v);
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  if (missing.empty()) return;
  if (!opts_.batch || missing.size() == 1 ||
      !model_->BatchedInferenceAmortizes()) {
    // No amortization to be had (or batching disabled): serve the misses
    // per node so each one is honestly counted as a model invocation.
    for (NodeId v : missing) Logits(id, v);
    return;
  }
  // The slot may be rebound meanwhile; only the view read may absorb rows.
  const GraphView* view;
  const Matrix rows = InferBatch(id, missing, 0, &view);
  std::vector<LogitsPtr> packed;
  packed.reserve(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    packed.push_back(PackRow(rows, i));
  }
  std::unique_lock<std::mutex> lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end() || it->second.view != view) return;
  for (size_t i = 0; i < missing.size(); ++i) {
    it->second.logits.emplace(missing[i], std::move(packed[i]));
  }
}

Matrix InferenceEngine::InferBatch(ViewId id, const std::vector<NodeId>& nodes,
                                   int64_t queries, const GraphView** view) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    *view = ViewOf(id);
    ++readers_[*view];  // until EndReadLocked below
  }
  Matrix rows = model_->InferNodes(**view, graph_->features(), nodes);
  std::unique_lock<std::mutex> lock(mu_);
  EndReadLocked(*view);
  stats_.node_queries += queries;
  ++stats_.model_invocations;
  stats_.batched_nodes += static_cast<int64_t>(nodes.size());
  return rows;
}

void InferenceEngine::WarmOverlay(const std::vector<Edge>& flips,
                                  const std::vector<NodeId>& nodes) {
  if (!opts_.cache || nodes.empty()) return;
  const std::vector<uint64_t> canon = CanonicalFlipKeys(flips);
  std::vector<NodeId> missing;
  missing.reserve(nodes.size());
  {
    std::unique_lock<std::mutex> lock(mu_);
    auto it = overlay_cache_.find(canon);
    for (NodeId v : nodes) {
      if (it == overlay_cache_.end() || it->second.logits.count(v) == 0) {
        missing.push_back(v);
      }
    }
  }
  std::sort(missing.begin(), missing.end());
  missing.erase(std::unique(missing.begin(), missing.end()), missing.end());
  if (missing.empty()) return;
  if (!opts_.batch || missing.size() == 1 ||
      !model_->BatchedInferenceAmortizes()) {
    for (NodeId v : missing) LogitsOverlay(flips, v);
    return;
  }
  const OverlayView overlay(base_, EdgesOfKeys(canon));
  const Matrix rows = model_->InferNodes(overlay, graph_->features(), missing);
  std::vector<LogitsPtr> packed;
  packed.reserve(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    packed.push_back(PackRow(rows, i));
  }
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.model_invocations;
  stats_.batched_nodes += static_cast<int64_t>(missing.size());
  EvictOverlayForInsertLocked(missing.size());
  auto it = overlay_cache_.find(canon);
  if (it == overlay_cache_.end()) {
    it = overlay_cache_.emplace(canon, OverlaySet()).first;
    it->second.stamp = ++overlay_stamp_;
    overlay_fifo_.emplace_back(canon, it->second.stamp);
  }
  for (size_t i = 0; i < missing.size(); ++i) {
    if (it->second.logits.emplace(missing[i], std::move(packed[i])).second) {
      ++overlay_entries_;
    }
  }
}

std::vector<double> InferenceEngine::LogitsOverlay(
    const std::vector<Edge>& flips, NodeId v) {
  const std::vector<uint64_t> canon = CanonicalFlipKeys(flips);

  if (opts_.cache) {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.node_queries;
    auto it = overlay_cache_.find(canon);
    if (it != overlay_cache_.end()) {
      auto nit = it->second.logits.find(v);
      if (nit != it->second.logits.end()) {
        ++stats_.cache_hits;
        const LogitsPtr hit = nit->second;
        lock.unlock();
        return *hit;
      }
    }
  }

  const OverlayView overlay(base_, EdgesOfKeys(canon));
  auto logits = std::make_shared<const std::vector<double>>(
      model_->InferNode(overlay, graph_->features(), v));

  std::unique_lock<std::mutex> lock(mu_);
  if (!opts_.cache) ++stats_.node_queries;
  ++stats_.model_invocations;
  if (opts_.cache) {
    EvictOverlayForInsertLocked(1);
    auto it = overlay_cache_.find(canon);
    if (it == overlay_cache_.end()) {
      it = overlay_cache_.emplace(canon, OverlaySet()).first;
      it->second.stamp = ++overlay_stamp_;
      overlay_fifo_.emplace_back(canon, it->second.stamp);
    }
    if (it->second.logits.emplace(v, logits).second) ++overlay_entries_;
  }
  return *logits;
}

Label InferenceEngine::PredictOverlay(const std::vector<Edge>& flips,
                                      NodeId v) {
  return ArgmaxLabel(LogitsOverlay(flips, v));
}

std::vector<double> InferenceEngine::LogitsOn(const GraphView& view, NodeId v) {
  std::vector<double> logits = model_->InferNode(view, graph_->features(), v);
  std::unique_lock<std::mutex> lock(mu_);
  ++stats_.node_queries;
  ++stats_.model_invocations;
  return logits;
}

Label InferenceEngine::PredictOn(const GraphView& view, NodeId v) {
  return ArgmaxLabel(LogitsOn(view, v));
}

EngineStats InferenceEngine::stats() const {
  std::unique_lock<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace robogexp
