/// Verifies the TREEQ_OBS_DISABLED contract: with the macro defined before
/// obs.h is included, every TREEQ_OBS_* macro must compile to an empty
/// statement — argument expressions are discarded unevaluated and nothing
/// reaches the registry. This test unit defines the switch locally, so it
/// exercises the disabled expansion even when the library build has
/// instrumentation on.

#define TREEQ_OBS_DISABLED 1
#include "obs/obs.h"

#include <gtest/gtest.h>

#include "obs/flight_recorder.h"
#include "obs/profile.h"
#include "obs/stats.h"

namespace treeq {
namespace obs {
namespace {

TEST(ObsDisabledTest, MacrosCompileToNoOps) {
  StatsRegistry& reg = StatsRegistry::Global();
  reg.Reset();

  int evaluations = 0;
  TREEQ_OBS_INC("disabled.counter");
  TREEQ_OBS_COUNT("disabled.counter", ++evaluations);
  TREEQ_OBS_GAUGE_MAX("disabled.gauge", ++evaluations);
  TREEQ_OBS_GAUGE_SET("disabled.gauge", ++evaluations);
  TREEQ_OBS_HISTOGRAM("disabled.hist", ++evaluations);
  TREEQ_OBS_SPAN("disabled.span");

  // Argument expressions are discarded textually, not evaluated.
  EXPECT_EQ(evaluations, 0);
  // Nothing was registered.
  EXPECT_EQ(reg.CounterValue("disabled.counter"), 0u);
  EXPECT_EQ(reg.GaugeValue("disabled.gauge"), 0u);
  EXPECT_EQ(reg.HistogramValues().count("disabled.hist"), 0u);
  for (const SpanSnapshot& s : reg.SpanTree()) {
    EXPECT_NE(s.name, "disabled.span");
  }
}

TEST(ObsDisabledTest, MacrosAreValidSingleStatements) {
  // Must parse as one statement in unbraced control flow.
  if (true) TREEQ_OBS_INC("disabled.branch");
  for (int i = 0; i < 2; ++i) TREEQ_OBS_COUNT("disabled.loop", i);
  if (true) TREEQ_OBS_FLIGHT_RECORD(QueryProfile{});
  EXPECT_EQ(StatsRegistry::Global().CounterValue("disabled.branch"), 0u);
}

// Only ever named inside a disabled macro, which discards it unevaluated.
[[maybe_unused]] QueryProfile MakeProfileCounting(int* evaluations) {
  ++*evaluations;
  return QueryProfile{};
}

TEST(ObsDisabledTest, FlightRecordMacroDiscardsItsArgument) {
  FlightRecorder& global = FlightRecorder::Global();
  // Even with the global recorder enabled, the disabled macro neither
  // evaluates its argument nor records anything.
  FlightRecorder::Options options;
  options.slow_threshold_ns = UINT64_MAX;
  global.Enable(options);
  int evaluations = 0;
  TREEQ_OBS_FLIGHT_RECORD(MakeProfileCounting(&evaluations));
  EXPECT_EQ(evaluations, 0);
  EXPECT_EQ(global.recorded(), 0u);
  global.Disable();
  global.Clear();

  // The classes themselves stay linkable and usable in disabled builds —
  // only the macro sites vanish.
  FlightRecorder local;
  local.Enable(options);
  local.Record(QueryProfile{});
  EXPECT_EQ(local.recorded(), 1u);
}

}  // namespace
}  // namespace obs
}  // namespace treeq
