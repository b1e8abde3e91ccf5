// Constraint graph G(V, E) — the scheduler's working representation.
//
// Vertices are tasks (index 0 is the anchor); a directed edge (u → v) with
// weight w encodes the linear constraint
//
//     sigma(v) - sigma(u) >= w          (w may be negative)
//
// which subsumes every constraint type in the paper (Section 4.1):
//   * "v at least w after u"  -> edge u -> v, weight  w   (min separation)
//   * "v at most  w after u"  -> edge v -> u, weight -w   (max separation)
//   * serialization of same-resource tasks -> edge u -> v, weight d(u)
//   * delaying a task to time s            -> edge anchor -> v, weight s
//   * locking a task at time s             -> the delay edge plus
//                                             edge v -> anchor, weight -s
//
// The three schedulers explore by *adding* edges and backtracking, so the
// graph maintains a trail: `checkpoint()` marks the current edge count and
// `rollbackTo()` removes every edge added since, in LIFO order. Edges are
// append-only between checkpoints, which keeps adjacency maintenance O(1)
// per undone edge.
//
// Adjacency storage is a trail-aware chunked arena rather than one
// std::vector per vertex: each vertex owns a linked list of fixed-size
// chunks of inlined AdjEntry records (edge id + far endpoint + weight)
// drawn from a single append-only pool per direction. Traversal touches a
// handful of contiguous cache lines instead of chasing a per-vertex heap
// allocation and then the edge pool; rollback stays O(1) per undone edge
// because chunks are allocated in trail order, so the LIFO edge trail frees
// chunks strictly from the back of the pool.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "base/check.hpp"
#include "base/ids.hpp"
#include "base/time.hpp"

namespace paws {

/// Why an edge exists; used for diagnostics, DOT export, and for validators
/// that must distinguish user constraints from scheduler decisions.
enum class EdgeKind : std::uint8_t {
  kUserMin,        ///< user min-separation constraint
  kUserMax,        ///< user max-separation constraint (negative back edge)
  kRelease,        ///< anchor -> v, weight 0: every task starts at/after 0
  kSerialization,  ///< scheduler-added resource serialization
  kDelay,          ///< scheduler-added lower bound (task delayed)
  kLock,           ///< scheduler-added upper bound (start time pinned)
};

const char* toString(EdgeKind kind);
std::ostream& operator<<(std::ostream& os, EdgeKind kind);

/// Index of an edge within its ConstraintGraph.
using EdgeId = std::uint32_t;

/// One directed, weighted constraint edge.
struct ConstraintEdge {
  TaskId from;
  TaskId to;
  Duration weight;
  EdgeKind kind;
};

/// One adjacency record: the edge id plus the two fields every traversal
/// loop actually reads, inlined so relaxation and sweep loops never chase
/// the edge pool. `other` is the far endpoint: `to` for out-lists, `from`
/// for in-lists.
struct AdjEntry {
  EdgeId id;
  TaskId other;
  Duration weight;
};

class ConstraintGraph {
 public:
  /// Opaque trail position returned by checkpoint().
  using Checkpoint = std::size_t;

  /// Sentinel chunk index for "no chunk".
  static constexpr std::uint32_t kNoChunk = 0xffffffffu;

  /// One fixed-size block of a vertex's adjacency list. Chunks live in a
  /// per-direction pool and are threaded per vertex via prev/next indices.
  struct AdjChunk {
    static constexpr std::uint32_t kCapacity = 4;
    AdjEntry entries[kCapacity];
    std::uint32_t count = 0;
    std::uint32_t prev = kNoChunk;
    std::uint32_t next = kNoChunk;
  };

  /// Per-vertex adjacency index into a chunk pool.
  struct VertexAdj {
    std::uint32_t head = kNoChunk;
    std::uint32_t tail = kNoChunk;
    std::uint32_t degree = 0;
  };

  /// Forward iterator over one vertex's AdjEntry records.
  class AdjIterator {
   public:
    AdjIterator(const AdjChunk* pool, std::uint32_t chunk, std::uint32_t slot)
        : pool_(pool), chunk_(chunk), slot_(slot) {}

    const AdjEntry& operator*() const { return pool_[chunk_].entries[slot_]; }
    const AdjEntry* operator->() const { return &**this; }

    AdjIterator& operator++() {
      if (++slot_ == pool_[chunk_].count) {
        chunk_ = pool_[chunk_].next;
        slot_ = 0;
      }
      return *this;
    }

    bool operator==(const AdjIterator& o) const {
      return chunk_ == o.chunk_ && slot_ == o.slot_;
    }
    bool operator!=(const AdjIterator& o) const { return !(*this == o); }

   private:
    const AdjChunk* pool_;
    std::uint32_t chunk_;
    std::uint32_t slot_;
  };

  /// Iterable view of one vertex's adjacency (what outEdges/inEdges return).
  class AdjRange {
   public:
    AdjRange(const AdjChunk* pool, const VertexAdj& v)
        : pool_(pool), head_(v.head), degree_(v.degree) {}

    [[nodiscard]] AdjIterator begin() const {
      return AdjIterator(pool_, head_, 0);
    }
    [[nodiscard]] AdjIterator end() const {
      return AdjIterator(pool_, kNoChunk, 0);
    }
    [[nodiscard]] std::size_t size() const { return degree_; }
    [[nodiscard]] bool empty() const { return degree_ == 0; }

   private:
    const AdjChunk* pool_;
    std::uint32_t head_;
    std::uint32_t degree_;
  };

  /// Creates a graph over `numVertices` tasks (vertex 0 is the anchor).
  explicit ConstraintGraph(std::size_t numVertices);

  [[nodiscard]] std::size_t numVertices() const { return out_.size(); }
  [[nodiscard]] std::size_t numEdges() const { return edges_.size(); }

  /// Adds the constraint sigma(to) - sigma(from) >= weight.
  EdgeId addEdge(TaskId from, TaskId to, Duration weight, EdgeKind kind);

  [[nodiscard]] const ConstraintEdge& edge(EdgeId id) const {
    PAWS_CHECK(id < edges_.size());
    return edges_[id];
  }

  /// Out-adjacency of `v`: entries for edges whose `from` is v, with
  /// `other` = the edge's `to`.
  [[nodiscard]] AdjRange outEdges(TaskId v) const {
    PAWS_CHECK(v.index() < out_.size());
    return AdjRange(outPool_.data(), out_[v.index()]);
  }
  /// In-adjacency of `v`: entries for edges whose `to` is v, with
  /// `other` = the edge's `from`.
  [[nodiscard]] AdjRange inEdges(TaskId v) const {
    PAWS_CHECK(v.index() < in_.size());
    return AdjRange(inPool_.data(), in_[v.index()]);
  }

  /// Marks the current trail position.
  [[nodiscard]] Checkpoint checkpoint() const { return edges_.size(); }

  /// Removes every edge added after `cp` (LIFO). `cp` must come from a
  /// previous checkpoint() on this graph.
  void rollbackTo(Checkpoint cp);

  /// All edges, in insertion order (iteration for longest-path relaxation).
  [[nodiscard]] std::span<const ConstraintEdge> edges() const {
    return edges_;
  }

  /// Pre-sizes the edge pool and both adjacency chunk pools for `numEdges`
  /// total edges (an amortization hint, not a cap).
  void reserveEdges(std::size_t numEdges);

  /// Bumped whenever edges are removed (rollback) or vertices added, i.e.
  /// whenever previously computed longest-path distances may be stale in the
  /// downward direction. Edge additions alone keep the generation: they can
  /// only increase distances, which incremental relaxation handles.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

 private:
  void append(std::vector<VertexAdj>& adj, std::vector<AdjChunk>& pool,
              std::size_t vertex, const AdjEntry& entry);
  void pop(std::vector<VertexAdj>& adj, std::vector<AdjChunk>& pool,
           std::size_t vertex, EdgeId id);

  std::vector<ConstraintEdge> edges_;
  std::uint64_t generation_ = 0;
  std::vector<VertexAdj> out_;
  std::vector<VertexAdj> in_;
  std::vector<AdjChunk> outPool_;
  std::vector<AdjChunk> inPool_;
};

}  // namespace paws
