// Self-tests of the benchmark harness: the percentile rule, the windowed
// p99, open-loop due-time latency and generator-lag accounting, span
// self-time arithmetic, and seed determinism of the request stream. run.py
// runs this before every benchmark run; a failure stops the run.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "workload.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentileRule() {
  std::vector<double> samples;
  for (int i = 1; i <= 1000; ++i) samples.push_back(i);
  Percentile p99 = PercentileOf(samples, 0.99);
  Expect(Near(p99.value, 990) && p99.beyond == 10 && p99.valid,
         "p99 of 1..1000 is 990 with exactly 10 samples beyond");
  Percentile p50 = PercentileOf(samples, 0.50);
  Expect(Near(p50.value, 500) && p50.valid, "p50 of 1..1000 is 500");

  samples.pop_back();  // 999 samples: only 9 lie beyond the p99
  p99 = PercentileOf(samples, 0.99);
  Expect(!p99.valid && p99.beyond == 9, "p99 of 999 samples is invalid");

  Expect(MinSamplesFor(0.99) == 1000, "p99 needs 1000 samples");
  Expect(MinSamplesFor(0.50) == 20, "p50 needs 20 samples");
  Expect(!PercentileOf({}, 0.5).valid, "empty sample is invalid");

  // Summarize sorts its input.
  LatencySummary s = Summarize({5, 1, 4, 2, 3});
  Expect(s.count == 5 && Near(s.p50.value, 3) && Near(s.max, 5),
         "Summarize sorts before ranking");
  // A failed request (+inf) ranks last and stays out of the mean.
  s = Summarize({1, 2, 3, INFINITY});
  Expect(std::isinf(s.max) && Near(s.mean, 2), "failures rank last");
}

void TestWindows() {
  // 2,500 requests in due order, given out of order: windows of 1,000
  // take the first 1,000 and the next 1,500 (the remainder joins the last
  // window). Window 0 holds 1..1000 ms, window 1 holds 1001..2500 ms.
  std::vector<double> samples;
  std::vector<uint64_t> at;
  for (int i = 2500; i >= 1; --i) {
    samples.push_back(i);
    at.push_back(static_cast<uint64_t>(i) * 10);
  }
  WindowedP99 w = WindowedP99Of(samples, at, 1000);
  Expect(w.windows.size() == 2 && Near(w.windows[0].value, 990) &&
             w.windows[0].beyond == 10 && Near(w.windows[1].value, 2485) &&
             w.windows[1].beyond == 15 && w.valid,
         "windows follow due order; the remainder joins the last");
  Expect(Near(w.p99, 0.5 * (990 + 2485)), "p99 is the median over windows");
  // One stalled window out of three does not move the median.
  samples.assign(3000, 1.0);
  at.clear();
  for (uint64_t i = 0; i < 3000; ++i) at.push_back(i);
  for (int i = 1000; i < 2000; ++i) samples[i] = 50;
  w = WindowedP99Of(samples, at, 1000);
  Expect(w.windows.size() == 3 && Near(w.p99, 1),
         "a stalled window is outvoted");
  w = WindowedP99Of(samples, at, 3000);
  Expect(w.windows.size() == 1 && Near(w.p99, 50),
         "one window is the whole run");
  Expect(!WindowedP99Of({1, 2}, at, 1000).valid,
         "too few samples beyond is invalid");
}

void TestOpenLoopAccounting() {
  // Four requests due 1 ms apart; the generator stalls until t = 5 ms,
  // then sends all four, each answered 0.1 ms after it is sent. Due-time
  // latency charges the stall to every request it delayed.
  const uint64_t ms = 1000000;
  std::vector<OpenLoopTiming> t;
  for (uint64_t i = 0; i < 4; ++i) {
    t.push_back({i * ms, 5 * ms, 5 * ms + ms / 10});
  }
  const double want_latency[] = {5.1, 4.1, 3.1, 2.1};
  const double want_lag[] = {5, 4, 3, 2};
  for (int i = 0; i < 4; ++i) {
    Expect(Near(LatencyFromDueMs(t[i]), want_latency[i]),
           "latency runs from the due time");
    Expect(Near(GeneratorLagMs(t[i]), want_lag[i]), "lag is send minus due");
  }
  // A request sent on time has no lag.
  Expect(Near(GeneratorLagMs({7 * ms, 7 * ms, 8 * ms}), 0), "on time: no lag");

  SplitMix64 a(42), b(42);
  const auto arrivals = PoissonArrivals(&a, 1000, 20);
  Expect(arrivals == PoissonArrivals(&b, 1000, 20),
         "same seed, same Poisson arrivals");
  Expect(std::abs(static_cast<double>(arrivals.size()) - 20000) < 600,
         "Poisson count near rate x seconds");
  bool sorted = true;
  for (size_t i = 1; i < arrivals.size(); ++i) {
    sorted = sorted && arrivals[i - 1] <= arrivals[i];
  }
  Expect(sorted && arrivals.back() < 20000000000ULL,
         "arrivals are ordered and inside the window");

  const auto fixed = FixedRateArrivals(60, 20, 0.5);
  Expect(fixed.size() == 1200, "fixed rate gives rate x seconds arrivals");
  Expect(fixed.front() == 1000000000ULL / 120, "phase shifts the first");
}

void TestSpanSelfTime() {
  // root [0,100] with children [10,30] and [20,50] (overlapping) and
  // [90,120] (clipped at the root's end); [10,30] has a child [12,18].
  std::vector<Span> spans = {
      {0, kNoParent, 1, 0, 100}, {1, 0, 1, 10, 30}, {1, 0, 1, 20, 50},
      {1, 0, 1, 90, 120},        {2, 1, 1, 12, 18},
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  Expect(self[0] == 50, "root self = 100 - (40 + 10) covered");
  Expect(self[1] == 14, "child self = 20 - 6");
  Expect(self[2] == 30 && self[4] == 6, "leaves are all self");
  Expect(self[3] == 30, "a leaf's self time is its own duration");
}

void TestStreamDeterminism() {
  for (WorkloadKind kind : {WorkloadKind::kMixCold, WorkloadKind::kHotRepeat,
                            WorkloadKind::kDocChurn}) {
    const std::string name = WorkloadName(kind);
    const Workload a = BuildWorkload(kind, 7, 2.0);
    const Workload b = BuildWorkload(kind, 7, 2.0);
    const Workload c = BuildWorkload(kind, 8, 2.0);
    Expect(StreamHash(a) == StreamHash(b), name + ": same seed, same hash");
    Expect(StreamHash(a) != StreamHash(c), name + ": new seed, new hash");
    // Every read names the content its slot holds at that point.
    std::vector<int> current(a.num_slots);
    for (int s = 0; s < a.num_slots; ++s) current[s] = s;
    bool consistent = true;
    for (const Op& op : a.ops) {
      if (op.kind == OpKind::kWrite) {
        current[op.slot] = op.content;
      } else {
        consistent = consistent && op.content == current[op.slot];
      }
    }
    Expect(consistent, name + ": reads observe the latest write");
  }
}

void TestJsonNumbers() {
  Expect(JsonNumber(0.1) == "0.1", "shortest round-trip rendering");
  Expect(std::strtod(JsonNumber(1.0 / 3).c_str(), nullptr) == 1.0 / 3,
         "all digits kept");
}

}  // namespace
}  // namespace perfbench

int main() {
  using namespace perfbench;
  TestPercentileRule();
  TestWindows();
  TestOpenLoopAccounting();
  TestSpanSelfTime();
  TestStreamDeterminism();
  TestJsonNumbers();
  if (failures) {
    std::fprintf(stderr, "harness self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::printf("harness self-test: ok\n");
  return 0;
}
