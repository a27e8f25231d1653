// Attachment graph (Section 2.2 / 3.4 of the paper).
//
// attach(a, b) asks the system to keep a and b together: whenever one of
// them migrates, the other follows. Conventionally attachment is transitive
// — the *whole connected component* moves. The paper shows this is the
// root of the non-monolithic degradation and proposes two restrictions:
//
//  * A-transitive attachment: edges carry the alliance (cooperation context)
//    they were issued in; the closure followed by a migration is restricted
//    to the edges of the alliance the move was invoked in.
//  * Exclusive attachment: an object may participate in at most one
//    attachment; later attach() calls are ignored (first come, first served).
#pragma once

#include <cstdint>
#include <vector>

#include "objsys/ids.hpp"
#include "util/dense_table.hpp"

namespace omig::migration {

using objsys::AllianceId;
using objsys::ObjectId;

/// Undirected multigraph of attachments; each edge is labelled with the
/// alliance context it was issued in (invalid() = no context).
class AttachmentGraph {
public:
  enum class Mode {
    Standard,   ///< any number of attachments per object
    Exclusive,  ///< at most one attachment per object; extras ignored
  };

  explicit AttachmentGraph(Mode mode = Mode::Standard) : mode_{mode} {}

  [[nodiscard]] Mode mode() const { return mode_; }

  /// Attaches a and b in context `ctx`. Returns false (and does nothing) if
  /// the request is ignored: self-attachment, duplicate (same pair and
  /// context), or an exclusivity violation.
  bool attach(ObjectId a, ObjectId b, AllianceId ctx = AllianceId::invalid());

  /// Removes every a–b edge (all contexts). Returns false if none existed.
  bool detach(ObjectId a, ObjectId b);

  /// Removes the a–b edge in exactly context `ctx`.
  bool detach(ObjectId a, ObjectId b, AllianceId ctx);

  /// True if any a–b edge exists (any context).
  [[nodiscard]] bool attached(ObjectId a, ObjectId b) const;

  /// Number of attachment edges incident to `a`.
  [[nodiscard]] std::size_t degree(ObjectId a) const;

  /// Total number of (undirected) edges.
  [[nodiscard]] std::size_t edge_count() const { return edges_ / 2; }

  /// Unrestricted transitive closure: every object reachable from `start`
  /// over any attachment edge, `start` included. Sorted by id.
  [[nodiscard]] std::vector<ObjectId> closure(ObjectId start) const;

  /// A-transitive closure: only edges labelled with `ctx` are followed
  /// (Section 3.4: "attachments are A-transitive"). Sorted by id.
  [[nodiscard]] std::vector<ObjectId> closure_in(ObjectId start,
                                                 AllianceId ctx) const;

  /// What a migration of `start` takes along: closure_in when A-transitive
  /// and `ctx` names an alliance, closure otherwise. Sorted by id.
  [[nodiscard]] std::vector<ObjectId> cluster(ObjectId start, AllianceId ctx,
                                              bool a_transitive) const {
    return a_transitive && ctx.valid() ? closure_in(start, ctx)
                                       : closure(start);
  }

private:
  struct Edge {
    ObjectId peer;
    AllianceId ctx;
  };

  [[nodiscard]] std::vector<ObjectId> bfs(ObjectId start, bool restrict_ctx,
                                          AllianceId ctx) const;

  Mode mode_;
  /// Adjacency lists indexed by object id (ids are registry-contiguous).
  util::DenseTable<ObjectId, std::vector<Edge>> adj_;
  std::size_t edges_ = 0;  ///< directed half-edge count

  // BFS scratch, reused across closure() calls: `seen_stamp_[id] ==
  // epoch_` marks a visited object, so starting a new traversal is one
  // counter bump instead of clearing (or rebuilding) a hash set. Purely a
  // cache — mutable so the const closure queries can use it.
  mutable std::vector<std::uint32_t> seen_stamp_;
  mutable std::uint32_t epoch_ = 0;
  mutable std::vector<ObjectId> frontier_;
};

}  // namespace omig::migration
