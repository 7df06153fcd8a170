// paraRoboGExp (Algorithm 3) — parallel witness generation.
//
// The graph is fragmented with an edge-cut partition whose halos replicate
// the hop_radius-hop neighborhood of every owned node ("inference preserving
// partition", Sec. VI), so each worker can expand and verify its own test
// nodes without data exchange. Workers record which test nodes they fully
// secured locally — a node whose search ball stayed inside the fragment's
// halo needs no coordinator re-verification — and mark the edges touched by
// verified disturbances in a per-worker bitmap. The coordinator unions local
// witnesses and bitmaps, then re-secures only the border nodes (Lemma 6 lets
// any locally-found violating disturbance transfer directly).
#ifndef ROBOGEXP_EXPLAIN_PARA_H_
#define ROBOGEXP_EXPLAIN_PARA_H_

#include "src/explain/robogexp.h"
#include "src/graph/partition.h"

namespace robogexp {

struct ParallelOptions {
  int num_threads = 4;
  GenerateOptions gen;
};

struct ParallelStats {
  GenerateStats gen;
  /// Bytes of bitmap state shipped worker -> coordinator (communication-cost
  /// accounting of the paper's analysis).
  int64_t bitmap_bytes = 0;
  /// Test nodes the coordinator had to re-secure (ball crossed a fragment).
  int coordinator_reverified = 0;
  /// Edge-cut size of the partition.
  int64_t cut_edges = 0;
  double partition_seconds = 0.0;
  double worker_seconds = 0.0;      // max over workers (critical path)
  double coordinator_seconds = 0.0;
};

/// Parallel k-RCW generation; equivalent output contract to GenerateRcw
/// (the result verifies under VerifyRcw, or is the trivial witness).
GenerateResult ParaGenerateRcw(const WitnessConfig& cfg,
                               const ParallelOptions& opts,
                               ParallelStats* stats = nullptr);

/// Parallel incremental re-securing, the maintenance-path sibling of
/// ParaGenerateRcw used by the streaming WitnessMaintainer: secures `nodes`
/// against the current graph on the shared ThreadPool, each worker group
/// expanding a private copy of *witness on a private engine (no fragment
/// partition — maintenance touches few nodes, so the fan-out is per-node).
/// The coordinator merges the copies (union of nodes, edges, and protected
/// pairs), CW-probes every secured node on the merged witness, and
/// sequentially re-secures any node the merge perturbed — the same
/// monotone-merge + probe contract as Algorithm 3's coordinator. Engine work
/// from workers and coordinator is accumulated into *stats. Returns the
/// nodes that could not be secured (sorted).
std::vector<NodeId> ParaSecureNodes(const WitnessConfig& cfg,
                                    const std::vector<NodeId>& nodes,
                                    const GenerateOptions& opts,
                                    int num_threads, Witness* witness,
                                    GenerateStats* stats);

}  // namespace robogexp

#endif  // ROBOGEXP_EXPLAIN_PARA_H_
