#include "graph/constraint_graph.hpp"

#include <ostream>

namespace paws {

const char* toString(EdgeKind kind) {
  switch (kind) {
    case EdgeKind::kUserMin:
      return "min";
    case EdgeKind::kUserMax:
      return "max";
    case EdgeKind::kRelease:
      return "release";
    case EdgeKind::kSerialization:
      return "serialize";
    case EdgeKind::kDelay:
      return "delay";
    case EdgeKind::kLock:
      return "lock";
  }
  return "?";
}

std::ostream& operator<<(std::ostream& os, EdgeKind kind) {
  return os << toString(kind);
}

ConstraintGraph::ConstraintGraph(std::size_t numVertices)
    : out_(numVertices), in_(numVertices) {}

void ConstraintGraph::reserveEdges(std::size_t numEdges) {
  edges_.reserve(numEdges);
  // Worst case one chunk per edge (every edge opening a fresh tail chunk).
  outPool_.reserve(numEdges);
  inPool_.reserve(numEdges);
}

void ConstraintGraph::append(std::vector<VertexAdj>& adj,
                             std::vector<AdjChunk>& pool, std::size_t vertex,
                             const AdjEntry& entry) {
  VertexAdj& v = adj[vertex];
  if (v.tail == kNoChunk || pool[v.tail].count == AdjChunk::kCapacity) {
    const std::uint32_t fresh = static_cast<std::uint32_t>(pool.size());
    pool.emplace_back();
    pool[fresh].prev = v.tail;
    if (v.tail == kNoChunk) {
      v.head = fresh;
    } else {
      pool[v.tail].next = fresh;
    }
    v.tail = fresh;
  }
  AdjChunk& chunk = pool[v.tail];
  chunk.entries[chunk.count++] = entry;
  ++v.degree;
}

void ConstraintGraph::pop(std::vector<VertexAdj>& adj,
                          std::vector<AdjChunk>& pool, std::size_t vertex,
                          EdgeId id) {
  VertexAdj& v = adj[vertex];
  PAWS_CHECK(v.tail != kNoChunk);
  AdjChunk& chunk = pool[v.tail];
  PAWS_CHECK(chunk.count > 0 && chunk.entries[chunk.count - 1].id == id);
  --chunk.count;
  --v.degree;
  if (chunk.count == 0) {
    const std::uint32_t dead = v.tail;
    v.tail = chunk.prev;
    if (v.tail == kNoChunk) {
      v.head = kNoChunk;
    } else {
      pool[v.tail].next = kNoChunk;
    }
    // Chunks are allocated in trail (edge) order, so undoing the newest edge
    // can only empty the newest chunk in the pool: freeing is a pop_back.
    PAWS_CHECK(dead + 1 == pool.size());
    pool.pop_back();
  }
}

EdgeId ConstraintGraph::addEdge(TaskId from, TaskId to, Duration weight,
                                EdgeKind kind) {
  PAWS_CHECK_MSG(from.index() < out_.size() && to.index() < out_.size(),
                 "edge endpoints out of range: " << from << " -> " << to);
  const EdgeId id = static_cast<EdgeId>(edges_.size());
  edges_.push_back(ConstraintEdge{from, to, weight, kind});
  append(out_, outPool_, from.index(), AdjEntry{id, to, weight});
  append(in_, inPool_, to.index(), AdjEntry{id, from, weight});
  return id;
}

void ConstraintGraph::rollbackTo(Checkpoint cp) {
  PAWS_CHECK_MSG(cp <= edges_.size(),
                 "rollback target " << cp << " beyond trail " << edges_.size());
  if (cp < edges_.size()) ++generation_;
  while (edges_.size() > cp) {
    const ConstraintEdge& e = edges_.back();
    // Edges are appended globally in order, so the newest edge is also the
    // newest entry of both of its adjacency lists.
    const EdgeId id = static_cast<EdgeId>(edges_.size() - 1);
    pop(out_, outPool_, e.from.index(), id);
    pop(in_, inPool_, e.to.index(), id);
    edges_.pop_back();
  }
}

}  // namespace paws
