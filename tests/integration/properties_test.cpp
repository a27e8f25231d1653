// Property-based sweeps: invariants that must hold for every policy,
// transitivity mode and seed (parameterised gtest), plus seed-fuzz loops
// that draw fresh base seeds instead of pinning a handful of magic ones.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "core/presets.hpp"
#include "param_names.hpp"
#include "sim/random.hpp"

namespace omig::core {
namespace {

using migration::AttachTransitivity;
using migration::PolicyKind;

stats::StoppingRule prop_rule() {
  stats::StoppingRule rule;
  rule.relative_target = 0.10;
  rule.min_observations = 300;
  rule.max_observations = 900;
  return rule;
}

// ---------------------------------------------------------------------------
// One-layer invariants over (policy × seed).
// ---------------------------------------------------------------------------

class OneLayerProperty
    : public ::testing::TestWithParam<std::tuple<PolicyKind, std::uint64_t>> {
protected:
  ExperimentResult run() {
    ExperimentConfig cfg = fig8_config(20.0, std::get<0>(GetParam()));
    cfg.stopping = prop_rule();
    cfg.seed = std::get<1>(GetParam());
    return run_experiment(cfg);
  }
};

TEST_P(OneLayerProperty, TotalDecomposesIntoCallPlusMigration) {
  const ExperimentResult r = run();
  EXPECT_NEAR(r.total_per_call, r.call_duration + r.migration_per_call,
              1e-9);
}

TEST_P(OneLayerProperty, MetricsAreFiniteAndNonNegative) {
  const ExperimentResult r = run();
  EXPECT_GE(r.call_duration, 0.0);
  EXPECT_GE(r.migration_per_call, 0.0);
  EXPECT_GT(r.total_per_call, 0.0);
  EXPECT_GT(r.calls, 0u);
  EXPECT_GT(r.blocks, 0u);
  EXPECT_GT(r.sim_time, 0.0);
}

TEST_P(OneLayerProperty, SedentaryNeverMigrates) {
  const ExperimentResult r = run();
  if (std::get<0>(GetParam()) == PolicyKind::Sedentary) {
    EXPECT_EQ(r.migrations, 0u);
    EXPECT_DOUBLE_EQ(r.migration_per_call, 0.0);
    EXPECT_EQ(r.control_messages, 0u);
  } else {
    // Every non-sedentary policy sends move requests.
    EXPECT_GT(r.control_messages, 0u);
  }
}

TEST_P(OneLayerProperty, DeterministicPerSeed) {
  const ExperimentResult a = run();
  const ExperimentResult b = run();
  EXPECT_DOUBLE_EQ(a.total_per_call, b.total_per_call);
  EXPECT_EQ(a.events, b.events);
}

TEST_P(OneLayerProperty, CallDurationAtLeastLocalShare) {
  // A call costs at least 0; remote calls dominate, so the mean must stay
  // below the theoretical remote ceiling plus blocking and above zero.
  const ExperimentResult r = run();
  EXPECT_LT(r.call_duration, 50.0);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, OneLayerProperty,
    ::testing::Combine(
        ::testing::Values(PolicyKind::Sedentary, PolicyKind::Conventional,
                          PolicyKind::Placement, PolicyKind::CompareNodes,
                          PolicyKind::CompareReinstantiate),
        ::testing::Values(1ull, 99ull, 31337ull)),
    test::ParamName{});

// ---------------------------------------------------------------------------
// Two-layer invariants over (policy × transitivity).
// ---------------------------------------------------------------------------

class TwoLayerProperty
    : public ::testing::TestWithParam<
          std::tuple<PolicyKind, AttachTransitivity>> {
protected:
  ExperimentResult run(std::uint64_t seed = 7) {
    ExperimentConfig cfg =
        fig16_config(6, std::get<0>(GetParam()), std::get<1>(GetParam()));
    cfg.stopping = prop_rule();
    cfg.seed = seed;
    return run_experiment(cfg);
  }
};

TEST_P(TwoLayerProperty, Decomposition) {
  const ExperimentResult r = run();
  EXPECT_NEAR(r.total_per_call, r.call_duration + r.migration_per_call,
              1e-9);
}

TEST_P(TwoLayerProperty, RunsToCompletion) {
  const ExperimentResult r = run();
  EXPECT_GT(r.blocks, 0u);
  EXPECT_GT(r.calls, r.blocks);  // ~6 calls per block
}

TEST_P(TwoLayerProperty, TransfersNeverExceedMigrationsByComponent) {
  const ExperimentResult r = run();
  if (std::get<0>(GetParam()) == PolicyKind::Sedentary) {
    EXPECT_EQ(r.migrations, 0u);
  } else {
    // Each transfer relocates at most the whole 12-object component.
    EXPECT_LE(r.migrations, r.transfers * 12u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndTransitivity, TwoLayerProperty,
    ::testing::Combine(
        ::testing::Values(PolicyKind::Sedentary, PolicyKind::Conventional,
                          PolicyKind::Placement),
        ::testing::Values(AttachTransitivity::Unrestricted,
                          AttachTransitivity::ATransitive)),
    test::ParamName{});

// ---------------------------------------------------------------------------
// Location-scheme invariants: the normalisation ablation must not change
// which policy wins.
// ---------------------------------------------------------------------------

class LocationProperty
    : public ::testing::TestWithParam<objsys::LocationScheme> {};

TEST_P(LocationProperty, PlacementStillBeatsConventionalUnderConflict) {
  ExperimentConfig conv = fig8_config(5.0, PolicyKind::Conventional);
  ExperimentConfig plac = fig8_config(5.0, PolicyKind::Placement);
  conv.location_scheme = GetParam();
  plac.location_scheme = GetParam();
  conv.stopping = prop_rule();
  plac.stopping = prop_rule();
  conv.stopping.max_observations = 3'000;
  plac.stopping.max_observations = 3'000;
  EXPECT_LT(run_experiment(plac).total_per_call,
            run_experiment(conv).total_per_call);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, LocationProperty,
    ::testing::Values(objsys::LocationScheme::None,
                      objsys::LocationScheme::NameServer,
                      objsys::LocationScheme::Forwarding,
                      objsys::LocationScheme::Broadcast,
                      objsys::LocationScheme::ImmediateUpdate),
    test::ParamName{});

// ---------------------------------------------------------------------------
// Seed fuzzing: the paper's invariants must hold for *every* seed, not just
// the hard-coded ones above. 32 base seeds are drawn from a splitmix64
// stream (fixed fuzz seed, so failures reproduce); each reported failure
// names the seed that broke the property.
// ---------------------------------------------------------------------------

std::vector<std::uint64_t> fuzz_seeds(std::size_t count) {
  sim::SplitMix64 gen{0x5eedf0ccacc1a1edULL};
  std::vector<std::uint64_t> seeds;
  seeds.reserve(count);
  for (std::size_t i = 0; i < count; ++i) seeds.push_back(gen.next());
  return seeds;
}

stats::StoppingRule fuzz_rule() {
  stats::StoppingRule rule;
  rule.relative_target = 0.10;
  rule.min_observations = 250;
  rule.max_observations = 600;
  return rule;
}

TEST(SeedFuzzProperty, PlacementNeverExceedsConventionalUnderGoalConflict) {
  // Figure 8 at t_m = 5: usages follow each other closely, every client
  // wants the server nearby, and the conventional move policy thrashes.
  // The paper's claim — transient placement beats unrestricted migration
  // under goal conflict — must hold for every base seed.
  for (const std::uint64_t seed : fuzz_seeds(32)) {
    ExperimentConfig conv =
        fig8_config(5.0, migration::PolicyKind::Conventional);
    ExperimentConfig plac = fig8_config(5.0, migration::PolicyKind::Placement);
    conv.stopping = fuzz_rule();
    plac.stopping = fuzz_rule();
    conv.seed = seed;
    plac.seed = seed;
    const ExperimentResult rc = run_experiment(conv);
    const ExperimentResult rp = run_experiment(plac);
    EXPECT_LE(rp.total_per_call, rc.total_per_call)
        << "placement worse than conventional for seed " << seed;
  }
}

TEST(SeedFuzzProperty, ATransitiveClustersBoundedByAllianceSize) {
  // Section 3.4: with A-transitive attachments a migration's closure only
  // follows edges of the alliance the move was invoked in, so one transfer
  // relocates at most the alliance's objects — the S1 server plus its
  // working set — instead of the whole attachment component.
  const int alliance_size =
      1 + fig16_config(6, migration::PolicyKind::Conventional,
                       migration::AttachTransitivity::ATransitive)
              .workload.working_set_size;
  for (const std::uint64_t seed : fuzz_seeds(32)) {
    ExperimentConfig cfg =
        fig16_config(6, migration::PolicyKind::Conventional,
                     migration::AttachTransitivity::ATransitive);
    cfg.stopping = fuzz_rule();
    cfg.seed = seed;
    const ExperimentResult r = run_experiment(cfg);
    ASSERT_GT(r.transfers, 0u) << "seed " << seed;
    EXPECT_LE(r.migrations,
              r.transfers * static_cast<std::uint64_t>(alliance_size))
        << "cluster exceeded alliance size for seed " << seed;
  }
}

TEST(SeedFuzzProperty, DecompositionHoldsForEveryFuzzedSeed) {
  // total = call + migration is an exact accounting identity, not a
  // statistical one — it may never drift no matter the seed.
  for (const std::uint64_t seed : fuzz_seeds(32)) {
    ExperimentConfig cfg = fig8_config(20.0, migration::PolicyKind::Placement);
    cfg.stopping = fuzz_rule();
    cfg.seed = seed;
    const ExperimentResult r = run_experiment(cfg);
    EXPECT_NEAR(r.total_per_call, r.call_duration + r.migration_per_call,
                1e-9)
        << "decomposition broke for seed " << seed;
  }
}

}  // namespace
}  // namespace omig::core
