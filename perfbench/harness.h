#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement primitives of the serving benchmark, kept free of any treeq
// dependency so selftest.cc can check them in isolation:
//   - a seeded, platform-independent random stream (SplitMix64),
//   - nearest-rank percentiles with the "at least 10 samples beyond" rule,
//   - open-loop arrival schedules and due-time latency / generator lag,
//   - span self-time arithmetic for the traced run,
//   - FNV-1a hashing (request-stream identity) and JSON number rendering.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---------------------------------------------------------------------------
// Seeded randomness. SplitMix64 is fully specified, so the same seed gives
// the same request stream with any compiler or standard library.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double Real() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n). Requires n > 0.
  uint64_t Below(uint64_t n) { return Next() % n; }
  bool Chance(double p) { return Real() < p; }

  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (size_t i = items->size(); i > 1; --i) {
      std::swap((*items)[i - 1], (*items)[Below(i)]);
    }
  }

 private:
  uint64_t state_;
};

/// Derives an independent sub-seed, so each input family (corpus, stream,
/// tail spellings, ...) has its own stream under one workload seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  SplitMix64 mix(seed ^ (salt * 0xd1b54a32d192ed03ULL));
  return mix.Next();
}

/// Draws ranks 0..n-1 with P(k) proportional to 1 / (k + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s) : cdf_(n) {
    double total = 0;
    for (size_t k = 0; k < n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Draw(SplitMix64* rng) const {
    const double u = rng->Real();
    return static_cast<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end() - 1, u) - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------------
// Percentiles. Nearest rank: the q-percentile of n sorted samples is the
// sample at 1-based rank ceil(q * n). It is valid only when at least
// kMinBeyond samples lie beyond that rank; otherwise the sample cannot
// tell the percentile from the maximum.
inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value = 0;
  size_t beyond = 0;  // samples ranked above the percentile
  bool valid = false;
};

inline size_t NearestRank(size_t n, double q) {
  // The epsilon keeps ceil(0.99 * 1000) at 990 despite rounding.
  const size_t rank =
      static_cast<size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// `sorted` must be ascending. An empty sample gives an invalid zero.
inline Percentile PercentileOf(const std::vector<double>& sorted, double q) {
  Percentile p;
  if (sorted.empty()) return p;
  const size_t rank = NearestRank(sorted.size(), q);
  p.value = sorted[rank - 1];
  p.beyond = sorted.size() - rank;
  p.valid = p.beyond >= kMinBeyond;
  return p;
}

/// The smallest sample count for which the q-percentile is valid.
inline size_t MinSamplesFor(double q) {
  size_t n = 1;
  while (n - NearestRank(n, q) < kMinBeyond) ++n;
  return n;
}

struct LatencySummary {
  size_t count = 0;
  Percentile p50;
  Percentile p99;
  double max = 0;
  /// Mean of the finite samples; a failed request is recorded as +inf so
  /// that it misses every percentile limit, and is left out of the mean.
  double mean = 0;
};

inline LatencySummary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  LatencySummary s;
  s.count = samples.size();
  s.p50 = PercentileOf(samples, 0.50);
  s.p99 = PercentileOf(samples, 0.99);
  s.max = samples.empty() ? 0 : samples.back();
  double sum = 0;
  size_t finite = 0;
  for (double v : samples) {
    if (std::isfinite(v)) {
      sum += v;
      ++finite;
    }
  }
  s.mean = finite ? sum / static_cast<double>(finite) : 0;
  return s;
}

inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// p99 per window of consecutive requests: the samples are put in order
/// of `at_ns` (when each request was due or sent), cut into windows of
/// `per_window` requests (the remainder joins the last window), and
/// ranked per window. The reported p99 is the median over the windows, so
/// a host stall that lands in a few windows moves it little.
struct WindowedP99 {
  std::vector<Percentile> windows;
  double p99 = 0;      // median of the window p99s
  bool valid = false;  // every window's p99 has 10 samples beyond it
};

inline WindowedP99 WindowedP99Of(const std::vector<double>& samples,
                                 const std::vector<uint64_t>& at_ns,
                                 size_t per_window) {
  WindowedP99 w;
  const size_t n = std::min(samples.size(), at_ns.size());
  if (per_window == 0 || n == 0) return w;
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return at_ns[a] < at_ns[b]; });
  const size_t count = std::max<size_t>(1, n / per_window);
  std::vector<double> p99s;
  w.valid = true;
  for (size_t k = 0; k < count; ++k) {
    const size_t end = k + 1 == count ? n : (k + 1) * per_window;
    std::vector<double> part;
    for (size_t i = k * per_window; i < end; ++i) {
      part.push_back(samples[order[i]]);
    }
    std::sort(part.begin(), part.end());
    w.windows.push_back(PercentileOf(part, 0.99));
    p99s.push_back(w.windows.back().value);
    w.valid = w.valid && w.windows.back().valid;
  }
  w.p99 = Median(p99s);
  return w;
}

// ---------------------------------------------------------------------------
// Open loop. Arrivals are scheduled up front as offsets from the start of
// the measured window; a request's latency runs from when it was due, not
// from when the (single) generator thread got round to sending it, so a
// stall is charged to every request it delays. Generator lag is the
// send-minus-due gap, reported on its own.

/// Poisson arrival offsets (ns) at `rate_per_s` within [0, seconds).
inline std::vector<uint64_t> PoissonArrivals(SplitMix64* rng,
                                             double rate_per_s,
                                             double seconds) {
  std::vector<uint64_t> due;
  double t = 0;
  while (true) {
    t += -std::log(1.0 - rng->Real()) / rate_per_s;
    if (t >= seconds) break;
    due.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return due;
}

/// Evenly spaced offsets (ns) at `rate_per_s` within [0, seconds), the
/// first one `phase` (a fraction of one period) into the window.
inline std::vector<uint64_t> FixedRateArrivals(double rate_per_s,
                                               double seconds, double phase) {
  std::vector<uint64_t> due;
  const double period = 1.0 / rate_per_s;
  for (double t = phase * period; t < seconds; t += period) {
    due.push_back(static_cast<uint64_t>(t * 1e9));
  }
  return due;
}

/// Timestamps of one open-loop request, all absolute steady-clock ns.
struct OpenLoopTiming {
  uint64_t due = 0;   // window start + scheduled offset
  uint64_t sent = 0;  // when the generator issued it (>= due when late)
  uint64_t done = 0;  // when its answer was observed
};

inline double LatencyFromDueMs(const OpenLoopTiming& t) {
  return static_cast<double>(t.done - t.due) / 1e6;
}
inline double GeneratorLagMs(const OpenLoopTiming& t) {
  return t.sent > t.due ? static_cast<double>(t.sent - t.due) / 1e6 : 0.0;
}

// ---------------------------------------------------------------------------
// Spans. A span's self time is its duration minus the part of its
// interval that its children cover (their union, clipped to the parent).
inline constexpr uint32_t kNoParent = UINT32_MAX;

struct Span {
  uint32_t name = 0;  // index into the run's span-name table
  uint32_t parent = kNoParent;
  uint64_t request = 0;
  uint64_t start = 0;
  uint64_t end = 0;
};

inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent != kNoParent && s.parent < spans.size()) {
      kids[s.parent].emplace_back(s.start, s.end);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const uint64_t lo = spans[i].start, hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::clamp(a, lo, hi);
      b = std::clamp(b, lo, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

// ---------------------------------------------------------------------------
// Hashing and JSON.
class Fnv1a64 {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void Str(std::string_view s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Shortest text that reads back as exactly `v` (JSON has no NaN/inf;
/// those render as 0).
inline std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

inline std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
