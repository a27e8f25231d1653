// Concrete migration policies (one translation unit each).
#pragma once

#include "migration/adaptive.hpp"
#include "migration/policy.hpp"

namespace omig::migration {

/// Baseline: objects never move; move()/end() are no-ops and cost nothing
/// ("without migration" curves in the paper's figures).
class SedentaryPolicy final : public MigrationPolicy {
public:
  using MigrationPolicy::MigrationPolicy;
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::Sedentary;
  }
  sim::Task begin_block(MoveBlock& blk) override;
  void end_block(MoveBlock& blk) override;
};

/// Conventional migration: every move() migrates the target (and its
/// attachment cluster) to the caller, unconditionally (Section 2.3).
class ConventionalPolicy final : public MigrationPolicy {
public:
  using MigrationPolicy::MigrationPolicy;
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::Conventional;
  }
  sim::Task begin_block(MoveBlock& blk) override;
  void end_block(MoveBlock& blk) override;
};

/// Transient placement (Section 3.2): the first move() wins and locks the
/// object in place; conflicting move()s receive a "locked" indication and
/// fall back to remote invocation; end() unlocks locally.
class PlacementPolicy final : public MigrationPolicy {
public:
  using MigrationPolicy::MigrationPolicy;
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::Placement;
  }
  sim::Task begin_block(MoveBlock& blk) override;
  void end_block(MoveBlock& blk) override;
};

/// "Comparing the nodes" (Section 4.3): the object is kept at the node that
/// issued the most still-open move-requests; a conflicting move() migrates
/// the object only once its node holds strictly more open requests than the
/// current host node.
class CompareNodesPolicy : public MigrationPolicy {
public:
  using MigrationPolicy::MigrationPolicy;
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::CompareNodes;
  }
  sim::Task begin_block(MoveBlock& blk) override;
  void end_block(MoveBlock& blk) override;
};

/// "Comparing and reinstantiation" (Section 4.3): like CompareNodes, but an
/// end-request that leaves some other node with a clear majority of open
/// move-requests triggers a (background) migration to that node.
class CompareReinstantiatePolicy final : public CompareNodesPolicy {
public:
  using CompareNodesPolicy::CompareNodesPolicy;
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::CompareReinstantiate;
  }
  void end_block(MoveBlock& blk) override;
};

/// Beyond-paper goal-conflict policy: interprets move() as a load-sharing
/// request — the object (and its cluster) migrates to the least-loaded
/// node, not to the caller. Section 2.2: "the different goals are not
/// compatible in general … availability calls for distributing objects,
/// while performance calls for collocating them." Mixing this policy with
/// placement clients demonstrates exactly that incompatibility.
class LoadSharePolicy final : public MigrationPolicy {
public:
  using MigrationPolicy::MigrationPolicy;
  [[nodiscard]] PolicyKind kind() const override {
    return PolicyKind::LoadShare;
  }
  sim::Task begin_block(MoveBlock& blk) override;
  void end_block(MoveBlock& blk) override;
};

/// Feedback-driven placement (docs/policies.md): a move() consults the
/// access-locality tracker and migrates the target's cluster toward the
/// EMA-dominant caller node — but only when that node's share of the recent
/// accesses leads the current host's by the hysteresis band and the EMA has
/// seen enough accesses to mean anything. Everything else is refused and
/// the caller invokes remotely (the placement fallback). The load-aware
/// kind (AdaptiveLoad) also vetoes a dominant node that would host more
/// than load_factor × the mean per-node object count (Section 2.2's load
/// goal as a constraint instead of a competing policy). Requires a
/// LocalityTracker attached to the manager.
class AdaptivePlacementPolicy final : public MigrationPolicy {
public:
  AdaptivePlacementPolicy(MigrationManager& mgr, bool load_aware)
      : MigrationPolicy{mgr}, load_aware_{load_aware} {}
  [[nodiscard]] PolicyKind kind() const override {
    return load_aware_ ? PolicyKind::AdaptiveLoad : PolicyKind::Adaptive;
  }
  sim::Task begin_block(MoveBlock& blk) override;
  void end_block(MoveBlock& blk) override;

private:
  bool load_aware_;
  AdaptiveDecider decider_;
};

}  // namespace omig::migration
