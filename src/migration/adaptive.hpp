// The adaptive placement decision (docs/policies.md), one function for the
// simulator's AdaptivePlacementPolicy (PolicyKind::Adaptive and
// AdaptiveLoad) and the live runtime's adaptive MovePolicy kinds. Each
// caller keeps its own counters and trace events.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "objsys/ids.hpp"
#include "objsys/locality.hpp"
#include "util/dense_table.hpp"

namespace omig::migration {

struct AdaptiveKnobs {
  double min_weight = 4.0;       ///< min effective EMA sample size
  double hysteresis_band = 0.2;  ///< dominant-vs-host share margin
  double load_factor = 2.0;      ///< cap, in means of hosted objects
  bool load_aware = false;       ///< AdaptiveLoad: apply the cap
};

/// What the load cap weighs for one candidate destination.
struct HostLoad {
  std::size_t at_dest = 0;  ///< objects the destination hosts now
  std::size_t moving = 0;   ///< objects the move brings (its cluster)
  std::size_t objects = 0;  ///< objects in the system
  std::size_t nodes = 0;
};

enum class AdaptiveVerdict : std::uint8_t {
  Stay,        ///< no data, or the dominant caller already hosts it
  Hysteresis,  ///< under the min weight or inside the band
  Load,        ///< the destination would exceed the load cap
  Migrate,     ///< move to AdaptiveDecision::dest
};

struct AdaptiveDecision {
  AdaptiveVerdict verdict = AdaptiveVerdict::Stay;
  objsys::NodeId dest = objsys::NodeId::invalid();
  bool reversal = false;  ///< the migration undoes the object's previous one
};

/// One per policy instance: it remembers each object's last adaptive
/// migration to detect reversals (ping-pong).
class AdaptiveDecider {
public:
  /// Decides for `obj`, hosted at `host`, from its locality estimate.
  /// `load(dest)` returns the HostLoad of the dominant node; it runs only
  /// for a load-aware decision that passed the band.
  template <class LoadFn>
  AdaptiveDecision decide(objsys::ObjectId obj, objsys::NodeId host,
                          const objsys::LocalityEstimate& est,
                          const AdaptiveKnobs& knobs, LoadFn&& load) {
    if (!est.dominant.valid() || est.dominant == host) return {};
    if (est.weight < knobs.min_weight ||
        est.share - est.host_share < knobs.hysteresis_band) {
      return {.verdict = AdaptiveVerdict::Hysteresis};
    }
    if (knobs.load_aware && over_cap(load(est.dominant), knobs.load_factor)) {
      return {.verdict = AdaptiveVerdict::Load};
    }
    return {.verdict = AdaptiveVerdict::Migrate,
            .dest = est.dominant,
            .reversal = note_migration(obj, host, est.dominant)};
  }

private:
  /// The move would leave the destination above load_factor × the mean
  /// hosted objects per node, the mean floored at 1.
  static bool over_cap(const HostLoad& load, double load_factor);
  bool note_migration(objsys::ObjectId obj, objsys::NodeId from,
                      objsys::NodeId to);

  util::DenseTable<objsys::ObjectId, std::pair<objsys::NodeId, objsys::NodeId>>
      last_move_;
};

}  // namespace omig::migration
