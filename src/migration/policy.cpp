#include "migration/policy.hpp"

#include "migration/policy_impl.hpp"
#include "util/assert.hpp"

namespace omig::migration {

std::string_view to_string(PolicyKind kind) {
  switch (kind) {
    case PolicyKind::Sedentary:
      return "sedentary";
    case PolicyKind::Conventional:
      return "conventional";
    case PolicyKind::Placement:
      return "placement";
    case PolicyKind::CompareNodes:
      return "compare-nodes";
    case PolicyKind::CompareReinstantiate:
      return "compare-reinstantiate";
    case PolicyKind::LoadShare:
      return "load-share";
    case PolicyKind::Adaptive:
      return "adaptive";
    case PolicyKind::AdaptiveLoad:
      return "adaptive-load";
  }
  return "unknown";
}

void MigrationPolicy::migrate_back(MoveBlock& blk) {
  // Group moved objects by the node they came from and send each group home
  // as one background transfer (cost attributed to the background sink:
  // the block is over when the visit returns).
  OMIG_ASSERT(blk.moved.size() == blk.origins_of_moved.size());
  for (std::size_t i = 0; i < blk.moved.size(); ++i) {
    std::vector<ObjectId> group;
    const objsys::NodeId from = blk.origins_of_moved[i];
    if (!from.valid()) continue;
    for (std::size_t j = i; j < blk.moved.size(); ++j) {
      if (blk.origins_of_moved[j] == from) {
        group.push_back(blk.moved[j]);
        blk.origins_of_moved[j] = objsys::NodeId::invalid();  // consumed
      }
    }
    mgr_->engine().spawn(mgr_->transfer(std::move(group), from, nullptr));
  }
}

std::unique_ptr<MigrationPolicy> make_policy(PolicyKind kind,
                                             MigrationManager& mgr) {
  switch (kind) {
    case PolicyKind::Sedentary:
      return std::make_unique<SedentaryPolicy>(mgr);
    case PolicyKind::Conventional:
      return std::make_unique<ConventionalPolicy>(mgr);
    case PolicyKind::Placement:
      return std::make_unique<PlacementPolicy>(mgr);
    case PolicyKind::CompareNodes:
      return std::make_unique<CompareNodesPolicy>(mgr);
    case PolicyKind::CompareReinstantiate:
      return std::make_unique<CompareReinstantiatePolicy>(mgr);
    case PolicyKind::LoadShare:
      return std::make_unique<LoadSharePolicy>(mgr);
    case PolicyKind::Adaptive:
      return std::make_unique<AdaptivePlacementPolicy>(mgr, false);
    case PolicyKind::AdaptiveLoad:
      return std::make_unique<AdaptivePlacementPolicy>(mgr, true);
  }
  OMIG_REQUIRE(false, "unknown policy kind");
  return nullptr;
}

}  // namespace omig::migration
