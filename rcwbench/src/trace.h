// Outside-in tracing: spans recorded by the harness around each operation,
// each call into a library layer, and each model forward (through
// TracedModel). Spans live in memory and are written out when the run ends.
#ifndef RCWBENCH_TRACE_H_
#define RCWBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/gnn/model.h"

namespace rcwbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One timed interval at a layer boundary. `parent` is 0 for roots;
/// `request` is the operation the span belongs to (-1 when none).
struct Span {
  const char* name = "";
  int64_t id = 0;
  int64_t parent = 0;
  int64_t request = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Logit rows a model forward returned; 0 for other spans.
  int64_t rows = 0;
};

/// Turns span recording on (traced runs) or off. Off, ScopedSpan records
/// nothing and costs one branch.
void EnableTracing(bool on);
bool TracingEnabled();

/// Every span recorded so far, in completion order.
std::vector<Span> RecordedSpans();

/// Writes the spans as JSON lines; false on IO failure.
bool WriteSpans(const std::string& path);

/// Records [construction, destruction) as a span named `name` (a string
/// literal). Its parent is the innermost open span of this thread, or the
/// ambient span (see AmbientParent) on threads with none open. A root span
/// passes the operation's `request` id; children inherit it.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, int64_t rows = 0,
                      int64_t request = -1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  bool active_ = false;
  Span span_;
};

/// While alive, spans opened on threads with no open span of their own
/// (library pool workers running a verifier's parallel units) become
/// children of this thread's innermost span. Only the single-client
/// workloads use it; concurrent clients would overwrite each other.
class AmbientParent {
 public:
  AmbientParent();
  ~AmbientParent();
  AmbientParent(const AmbientParent&) = delete;
  AmbientParent& operator=(const AmbientParent&) = delete;

 private:
  bool active_ = false;
  int64_t saved_id_ = 0;
  int64_t saved_request_ = -1;
};

/// Self time of each span: its duration minus the part of it that its
/// children's intervals cover (children on other threads may overlap each
/// other; their union counts once). Same order as `spans`, in ns.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Sums over the spans named `name`; with `requests_only`, only over spans
/// that belong to an operation (request >= 0), leaving out set-up.
struct SpanTotals {
  int64_t count = 0;
  int64_t rows = 0;
  double ms = 0.0;
  double self_ms = 0.0;
  /// Durations of the individual spans, in ms.
  std::vector<double> each_ms;
};
SpanTotals TotalsFor(const std::vector<Span>& spans,
                     const std::vector<int64_t>& self_ns, const char* name,
                     bool requests_only = false);

/// GnnModel decorator that records a span around every call into the model:
/// "gnn.evidence" around BaseLogits (the whole-graph evidence forward) and
/// "gnn.forward" around InferSubset / InferNode / InferNodes. It overrides
/// only GnnModel's existing virtuals and forwards them unchanged, so logits
/// are bit-identical to the wrapped model's. Two library paths look at the
/// model's concrete type and do not see through the wrapper:
/// ModelFingerprint (used by WitnessMaintainer::Checkpoint / ExportState)
/// aborts on it, and ResolveAlpha would miss an APPNP model's alpha. The
/// benchmark only wraps GCN models and checkpoints with the wrapped model
/// (see maintain.cc).
class TracedModel final : public robogexp::GnnModel {
 public:
  explicit TracedModel(const robogexp::GnnModel* inner) : inner_(inner) {}

  std::string name() const override { return inner_->name(); }
  int num_layers() const override { return inner_->num_layers(); }
  int num_classes() const override { return inner_->num_classes(); }
  int64_t num_features() const override { return inner_->num_features(); }
  robogexp::Matrix InferSubset(
      const robogexp::GraphView& view, const robogexp::Matrix& features,
      const std::vector<robogexp::NodeId>& nodes) const override;
  int receptive_hops() const override { return inner_->receptive_hops(); }
  bool InferenceIsReceptiveLocal() const override {
    return inner_->InferenceIsReceptiveLocal();
  }
  std::vector<double> InferNode(const robogexp::GraphView& view,
                                const robogexp::Matrix& features,
                                robogexp::NodeId v) const override;
  robogexp::Matrix InferNodes(
      const robogexp::GraphView& view, const robogexp::Matrix& features,
      const std::vector<robogexp::NodeId>& nodes) const override;
  bool BatchedInferenceAmortizes() const override {
    return inner_->BatchedInferenceAmortizes();
  }
  robogexp::Matrix BaseLogits(const robogexp::GraphView& view,
                              const robogexp::Matrix& features) const override;

 private:
  const robogexp::GnnModel* inner_;
};

}  // namespace rcwbench

#endif  // RCWBENCH_TRACE_H_
