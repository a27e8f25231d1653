// Global accounting identities over full experiment runs: the counters the
// driver reports must be mutually consistent for every policy.
#include <gtest/gtest.h>

#include "core/presets.hpp"
#include "param_names.hpp"

namespace omig::core {
namespace {

using migration::PolicyKind;

stats::StoppingRule rule() {
  stats::StoppingRule r;
  r.relative_target = 0.10;
  r.min_observations = 400;
  r.max_observations = 1'000;
  return r;
}

class Accounting : public ::testing::TestWithParam<PolicyKind> {
protected:
  ExperimentResult run(double tm = 10.0) {
    ExperimentConfig cfg = fig8_config(tm, GetParam());
    cfg.stopping = rule();
    return run_experiment(cfg);
  }
};

TEST_P(Accounting, SedentaryIsCompletelyQuiet) {
  const auto r = run();
  if (GetParam() != PolicyKind::Sedentary) GTEST_SKIP();
  EXPECT_EQ(r.control_messages, 0u);
  EXPECT_EQ(r.migrations, 0u);
  EXPECT_EQ(r.transfers, 0u);
  EXPECT_EQ(r.blocked_calls, 0u);
  EXPECT_DOUBLE_EQ(r.migration_per_call, 0.0);
}

TEST_P(Accounting, EveryTransferRelocatesSomething) {
  // Transfers that find nothing to move return before being counted, so
  // with single-object clusters migrations >= transfers, and both are
  // nonzero together.
  const auto r = run();
  if (GetParam() == PolicyKind::Sedentary) GTEST_SKIP();
  EXPECT_EQ(r.migrations > 0, r.transfers > 0);
  EXPECT_GE(r.migrations, r.transfers);
}

TEST_P(Accounting, EveryMeasuredBlockSentOneRequest) {
  // Non-sedentary begin_block always dispatches exactly one move request;
  // the control counter covers warm-up blocks too, so it dominates the
  // recorder's block count.
  const auto r = run();
  if (GetParam() == PolicyKind::Sedentary) GTEST_SKIP();
  EXPECT_GE(r.control_messages, r.blocks);
}

TEST_P(Accounting, MigrationCostComesWithMigrations) {
  const auto r = run(60.0);  // low contention: clean attribution
  if (GetParam() == PolicyKind::Sedentary) GTEST_SKIP();
  EXPECT_GT(r.migration_per_call, 0.0);
  EXPECT_GT(r.migrations, 0u);
}

INSTANTIATE_TEST_SUITE_P(Policies, Accounting,
                         ::testing::Values(PolicyKind::Sedentary,
                                           PolicyKind::Conventional,
                                           PolicyKind::Placement,
                                           PolicyKind::CompareNodes,
                                           PolicyKind::CompareReinstantiate,
                                           PolicyKind::LoadShare,
                                           PolicyKind::Adaptive,
                                           PolicyKind::AdaptiveLoad),
                         test::ParamName{});

}  // namespace
}  // namespace omig::core
