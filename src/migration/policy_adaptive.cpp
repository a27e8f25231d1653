// Adaptive placement policies (docs/policies.md).
//
// The paper's dynamic policies count open move-requests; these instead
// consume the access-locality telemetry the obs layer made nearly free: a
// per-object EMA of the caller-node distribution (objsys::LocalityTracker),
// fed by every invocation. A move() migrates the target toward the
// EMA-dominant node only when that node's share of the recent accesses
// leads the current host's by a hysteresis band — re-judging the paper's
// claim 3 with bookkeeping the 1995 system could not afford to collect.
#include <algorithm>

#include "migration/policy_impl.hpp"
#include "util/assert.hpp"

namespace omig::migration {

sim::Task AdaptivePlacementPolicy::begin_block(MoveBlock& blk) {
  mgr_->trace_event(trace::EventKind::BlockBegin, blk.target, blk.origin,
                    blk.id);
  co_await mgr_->control_message(blk.origin, blk.target, &blk);

  auto& reg = mgr_->registry();

  if (reg.descriptor(blk.target).immutable) {
    // Copies commute; no placement decision needed for static objects.
    auto copy_cluster = mgr_->migration_cluster(blk.target, blk.alliance);
    co_await mgr_->transfer(std::move(copy_cluster), blk.origin, &blk);
    blk.counted = false;
    co_return;
  }
  if (reg.is_fixed(blk.target) || !reg.descriptor(blk.target).mobile) {
    mgr_->trace_event(trace::EventKind::MoveRefused, blk.target, blk.origin,
                      blk.id);
    co_return;  // only the request message is charged, as with placement
  }

  objsys::LocalityTracker* tracker = mgr_->locality();
  OMIG_REQUIRE(tracker != nullptr,
               "adaptive policies need a LocalityTracker attached to the "
               "MigrationManager");
  const objsys::NodeId host = reg.location(blk.target);
  const ManagerOptions& opts = mgr_->options();
  PolicyCounters& counters = mgr_->policy_counters();
  std::vector<ObjectId> cluster;
  const AdaptiveDecision decision = decider_.decide(
      blk.target, host, tracker->estimate(blk.target, host),
      AdaptiveKnobs{.min_weight = opts.adaptive_min_weight,
                    .hysteresis_band = opts.hysteresis_band,
                    .load_factor = opts.load_factor,
                    .load_aware = load_aware_},
      [&](objsys::NodeId dest) {
        cluster = mgr_->migration_cluster(blk.target, blk.alliance);
        return HostLoad{.at_dest = reg.objects_at(dest),
                        .moving = cluster.size(),
                        .objects = reg.object_count(),
                        .nodes = reg.node_count()};
      });

  if (decision.verdict == AdaptiveVerdict::Migrate) {
    if (decision.reversal) ++counters.pingpong_reversals;
    ++counters.migrations_triggered;
    if (cluster.empty()) {
      cluster = mgr_->migration_cluster(blk.target, blk.alliance);
    }
    co_await mgr_->transfer(std::move(cluster), decision.dest, &blk);
    co_return;
  }
  if (decision.verdict == AdaptiveVerdict::Hysteresis) {
    ++counters.suppressed_hysteresis;
  } else if (decision.verdict == AdaptiveVerdict::Load) {
    ++counters.suppressed_load;
  }
  // Not migrating: the caller's calls are forwarded remotely (or are
  // local already), exactly the placement fallback.
  if (host != blk.origin) {
    mgr_->trace_event(trace::EventKind::MoveRefused, blk.target, blk.origin,
                      blk.id);
  }
}

void AdaptivePlacementPolicy::end_block(MoveBlock& blk) {
  mgr_->trace_event(trace::EventKind::BlockEnd, blk.target, blk.origin,
                    blk.id);
  if (blk.visit) migrate_back(blk);
}

bool AdaptiveDecider::over_cap(const HostLoad& load, double load_factor) {
  // Mean hosted objects per node, floored at 1 so sparse populations
  // (fewer objects than nodes) can still co-locate an object with its
  // dominant caller instead of vetoing every move.
  const double mean =
      std::max(1.0, static_cast<double>(load.objects) /
                        static_cast<double>(load.nodes));
  return static_cast<double>(load.at_dest + load.moving) > load_factor * mean;
}

bool AdaptiveDecider::note_migration(ObjectId obj, objsys::NodeId from,
                                     objsys::NodeId to) {
  auto& last = last_move_[obj];
  const bool reversal =
      last.first.valid() && last.first == to && last.second == from;
  last = {from, to};
  return reversal;
}

}  // namespace omig::migration
