// End-to-end protocol-invariant tests: run real experiments with the trace
// attached and verify the recorded histories.
#include <gtest/gtest.h>

#include <tuple>

#include "core/presets.hpp"
#include "param_names.hpp"
#include "trace/log.hpp"

namespace omig::core {
namespace {

using migration::PolicyKind;

stats::StoppingRule short_rule() {
  stats::StoppingRule rule;
  rule.relative_target = 0.10;
  rule.min_observations = 300;
  rule.max_observations = 800;
  return rule;
}

class TraceInvariants : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(TraceInvariants, OneLayerHistoryIsWellFormed) {
  ExperimentConfig cfg = fig8_config(10.0, GetParam());
  cfg.stopping = short_rule();
  trace::TraceLog log{1 << 20};
  run_experiment(cfg, &log);
  ASSERT_GT(log.size(), 0u);
  EXPECT_EQ(trace::check::locks_balance(log), "");
  EXPECT_EQ(trace::check::transits_alternate(log), "");
  EXPECT_EQ(trace::check::refused_blocks_never_migrate(log), "");
}

TEST_P(TraceInvariants, BlocksBeginBeforeTheyEnd) {
  ExperimentConfig cfg = fig8_config(10.0, GetParam());
  cfg.stopping = short_rule();
  trace::TraceLog log{1 << 20};
  run_experiment(cfg, &log);
  std::size_t open = 0;
  for (const auto& e : log.events()) {
    if (e.kind == trace::EventKind::BlockBegin) ++open;
    if (e.kind == trace::EventKind::BlockEnd) {
      ASSERT_GT(open, 0u);
      --open;
    }
  }
}

TEST_P(TraceInvariants, RequestsOnlyFromMigratingPolicies) {
  ExperimentConfig cfg = fig8_config(10.0, GetParam());
  cfg.stopping = short_rule();
  trace::TraceLog log{1 << 20};
  run_experiment(cfg, &log);
  const std::size_t requests = log.count(trace::EventKind::MoveRequest);
  if (GetParam() == PolicyKind::Sedentary) {
    EXPECT_EQ(requests, 0u);
  } else {
    EXPECT_GT(requests, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, TraceInvariants,
    ::testing::Values(PolicyKind::Sedentary, PolicyKind::Conventional,
                      PolicyKind::Placement, PolicyKind::CompareNodes,
                      PolicyKind::CompareReinstantiate),
    test::ParamName{});

TEST(TraceInvariantsTwoLayer, PlacementWithAlliances) {
  ExperimentConfig cfg =
      fig16_config(6, PolicyKind::Placement,
                   migration::AttachTransitivity::ATransitive);
  cfg.stopping = short_rule();
  trace::TraceLog log{1 << 20};
  run_experiment(cfg, &log);
  EXPECT_EQ(trace::check::locks_balance(log), "");
  EXPECT_EQ(trace::check::transits_alternate(log), "");
  EXPECT_EQ(trace::check::refused_blocks_never_migrate(log), "");
  // Placement must actually refuse some moves under 6-way contention.
  EXPECT_GT(log.count(trace::EventKind::MoveRefused), 0u);
}

TEST(EgoisticMix, EgoisticClientsHurtEveryone) {
  // Section 2.4: one egoistic conventional component in an otherwise
  // placement-disciplined system degrades the shared metric.
  ExperimentConfig clean = fig8_config(8.0, PolicyKind::Placement);
  clean.stopping = short_rule();
  clean.stopping.max_observations = 4'000;
  ExperimentConfig mixed = clean;
  mixed.egoistic_clients = 1;
  mixed.egoistic_policy = PolicyKind::Conventional;
  const double clean_total = run_experiment(clean).total_per_call;
  const double mixed_total = run_experiment(mixed).total_per_call;
  EXPECT_GT(mixed_total, clean_total);
}

TEST(EgoisticMix, AllEgoisticEqualsConventional) {
  // Degenerate check: every client egoistic-conventional == plain
  // conventional (same seeds, same draws).
  ExperimentConfig conv = fig8_config(10.0, PolicyKind::Conventional);
  conv.stopping = short_rule();
  ExperimentConfig mixed = fig8_config(10.0, PolicyKind::Placement);
  mixed.stopping = short_rule();
  mixed.egoistic_clients = mixed.workload.clients;
  mixed.egoistic_policy = PolicyKind::Conventional;
  EXPECT_DOUBLE_EQ(run_experiment(conv).total_per_call,
                   run_experiment(mixed).total_per_call);
}

TEST(EgoisticMix, RejectsBadCounts) {
  ExperimentConfig cfg = fig8_config(10.0, PolicyKind::Placement);
  cfg.egoistic_clients = 99;
  EXPECT_THROW(run_experiment(cfg), omig::AssertionError);
}

}  // namespace
}  // namespace omig::core
