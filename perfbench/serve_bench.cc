// serve_bench: the treeq serving benchmark.
//
//   serve_bench --workload mix_cold|hot_repeat|doc_churn --seed N
//               --seconds S --trace 0|1 [--commit ID]
//
// One process, at most four threads: this thread is the client and request
// generator; an engine::Executor with three workers serves. Set-up ingests
// the generated catalogs (XML text) and compiles the query pool; then every
// answer of the measured window is checked against a reference computed
// by a different engine. The last line of stdout is one JSON object with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// See README.md for the workloads and the layer-to-metric mapping.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "cache/eval_cache.h"
#include "cache/result_cache.h"
#include "engine/engine.h"
#include "harness.h"
#include "plan/canonicalize.h"
#include "plan/cost.h"
#include "plan/lower.h"
#include "plan/route.h"
#include "query/parse.h"
#include "tree/generator.h"
#include "tree/xml.h"
#include "util/random.h"
#include "workload.h"

namespace perfbench {
namespace {

using treeq::DocumentPtr;
using treeq::ExecContext;
using treeq::NodeSet;
using treeq::QueryResult;
using treeq::TupleSet;
using treeq::engine::DocumentStore;
using treeq::engine::Executor;
using treeq::engine::Plan;
using treeq::engine::PlanCache;
using treeq::engine::PlanPtr;
using treeq::plan::EngineKind;
using treeq::plan::EngineName;

constexpr int kWorkers = 3;
constexpr size_t kClosedLoopOutstanding = 3;
/// Set-up runs this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 15;
/// Open-loop read p99 is taken per window of this many reads (about a
/// second at the offered rate); the gated p99 is the median over the
/// windows.
constexpr size_t kReadsPerWindow = 1000;
/// Bounded mix_cold requests: generous limits the parent never trips.
constexpr auto kBoundedTimeout = std::chrono::seconds(10);
constexpr uint64_t kBoundedBudgetFactor = 1024;  // x Plan::EstimatedVisits
/// A closed-loop run never measures longer than this.
constexpr double kClosedLoopCapSeconds = 100;
/// Distinct (plan, document, engine) executions the traced replay times.
constexpr size_t kMaxReplayExecutions = 600;
/// Label-combination tail plans the regret table covers.
constexpr size_t kMaxTailRegretPlans = 60;
/// The scaling table's large catalog on workloads without one.
constexpr int kScalingLargeProducts = 1200;
/// Regret above this marks a request as misrouted.
constexpr double kMisrouteRegret = 2.0;

/// Engines the per-layer scaling metrics are reported for.
constexpr EngineKind kScaledEngines[] = {
    EngineKind::kXPathSetAtATime, EngineKind::kDichotomy,
    EngineKind::kYannakakis,      EngineKind::kTwigStack,
    EngineKind::kDatalogTmnf,     EngineKind::kFoCorollary52,
};

/// Reference engines, most preferred first: linear engines lead; the
/// naive baselines are never used.
constexpr EngineKind kReferencePreference[] = {
    EngineKind::kFoCorollary52, EngineKind::kTwigStack,
    EngineKind::kXPathSetAtATime, EngineKind::kStructuralJoins,
    EngineKind::kXPathStream,   EngineKind::kYannakakis,
    EngineKind::kDatalogTmnf,   EngineKind::kDichotomy,
};

bool IsBaseline(EngineKind kind) {
  return kind == EngineKind::kXPathNaive || kind == EngineKind::kFoNaive;
}

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "serve_bench: %s\n", message.c_str());
  std::exit(2);
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double Us(uint64_t ns) { return static_cast<double>(ns) / 1e3; }

std::string Short(const std::string& text, size_t width = 44) {
  std::string s;
  for (char c : text) s += (c == '\n') ? ' ' : c;
  return s.size() <= width ? s : s.substr(0, width - 3) + "...";
}

// ---------------------------------------------------------------------------
// Answers. References are kept in a comparable form: unary (or empty)
// tuple sets become node sets, so the spellings of one query in different
// languages compare equal.
using Answer = std::variant<NodeSet, TupleSet, bool>;

Answer Normalize(const QueryResult& r, int universe) {
  if (r.is_boolean()) return r.boolean();
  if (r.is_nodes()) return r.nodes();
  const TupleSet& tuples = r.tuples();
  if (!tuples.empty() && tuples.front().size() != 1) return tuples;
  NodeSet nodes(universe);
  for (const auto& t : tuples) nodes.Insert(t[0]);
  return nodes;
}

bool Matches(const Answer& ref, const QueryResult& served) {
  if (served.is_boolean()) {
    return std::holds_alternative<bool>(ref) &&
           std::get<bool>(ref) == served.boolean();
  }
  if (served.is_nodes()) {
    return std::holds_alternative<NodeSet>(ref) &&
           std::get<NodeSet>(ref) == served.nodes();
  }
  const TupleSet& tuples = served.tuples();
  if (!tuples.empty() && tuples.front().size() != 1) {
    return std::holds_alternative<TupleSet>(ref) &&
           std::get<TupleSet>(ref) == tuples;
  }
  if (!std::holds_alternative<NodeSet>(ref)) return false;
  const NodeSet& nodes = std::get<NodeSet>(ref);
  if (static_cast<size_t>(nodes.size()) != tuples.size()) return false;
  for (size_t i = 0; i < tuples.size(); ++i) {
    // Tuples arrive sorted and deduplicated, so equal sizes plus
    // membership (and strict order) mean equal sets.
    if (!nodes.Contains(tuples[i][0])) return false;
    if (i > 0 && !(tuples[i - 1][0] < tuples[i][0])) return false;
  }
  return true;
}

EngineKind ServedEngine(const QueryResult& r) {
  std::optional<EngineKind> kind = treeq::plan::ParseEngineName(r.engine);
  return kind.value_or(EngineKind::kXPathStream);
}

// ---------------------------------------------------------------------------
// Reference answers for every (query, document content) the stream reads,
// computed at set-up by an engine other than the one that will serve it.
class References {
 public:
  References(const Workload& w, const std::vector<DocumentPtr>& docs)
      : docs_(docs) {
    std::vector<bool> used(w.queries.size(), false);
    std::set<std::pair<int, int>> reads;
    for (const Op& op : w.ops) {
      if (op.kind != OpKind::kRead) continue;
      used[op.query] = true;
      reads.insert({op.query, op.content});
    }
    plans_.resize(w.queries.size());
    hash_of_.resize(w.queries.size());
    std::map<std::pair<uint64_t, uint64_t>, std::vector<int>> groups;
    for (size_t q = 0; q < w.queries.size(); ++q) {
      if (!used[q]) continue;
      auto compiled = Plan::Compile(w.queries[q].language, w.queries[q].text);
      if (!compiled.ok()) {
        Die("query does not compile: " + w.queries[q].text + ": " +
            compiled.status().ToString());
      }
      plans_[q] = std::move(compiled).value();
      const auto hash = plans_[q]->canonical_hash();
      hash_of_[q] = {hash.hi, hash.lo};
      groups[hash_of_[q]].push_back(static_cast<int>(q));
    }
    for (const auto& [query, content] : reads) {
      const Key key{hash_of_[query].first, hash_of_[query].second, content};
      if (refs_.count(key) == 0) Build(key, groups.at(hash_of_[query]));
    }
  }

  /// The plan the reference pass compiled for query `q` (its own text).
  const PlanPtr& plan(int q) const { return plans_[q]; }

  struct Verdict {
    bool match = false;
    bool self_checked = false;  // only the serving engine could answer
  };

  Verdict Check(int query, int content, const QueryResult& served) const {
    const Reference& ref =
        refs_.at(Key{hash_of_[query].first, hash_of_[query].second, content});
    const EngineKind engine = ServedEngine(served);
    Verdict v;
    if (engine != ref.engine) {
      v.match = Matches(ref.answer, served);
    } else if (ref.second) {
      v.match = Matches(*ref.second, served);
    } else {
      v.match = Matches(ref.answer, served);
      v.self_checked = true;
    }
    return v;
  }

  size_t size() const { return refs_.size(); }
  size_t disagreements() const { return disagreements_; }

 private:
  using Key = std::tuple<uint64_t, uint64_t, int>;
  struct Reference {
    EngineKind engine = EngineKind::kXPathSetAtATime;
    Answer answer;
    std::optional<Answer> second;  // by another engine, when needed
  };

  void Build(const Key& key, const std::vector<int>& group) {
    const DocumentPtr& doc = docs_[std::get<2>(key)];
    const treeq::plan::DocStats stats = treeq::plan::DocStats::For(*doc);
    // Engines that may serve this (query, document): the router's pick for
    // plain requests and the native engine for bounded ones, over every
    // spelling (a plan cache may serve any of them for the others).
    std::set<EngineKind> serving;
    std::map<EngineKind, int> answerable;  // engine -> a query that has it
    for (int q : group) {
      const Plan& plan = *plans_[q];
      serving.insert(treeq::plan::Route(plan.ir(), plan.EligibleEngines(),
                                        plan.NativeEngine(), stats)
                         .chosen);
      serving.insert(plan.NativeEngine());
      for (EngineKind e : plan.EligibleEngines()) {
        if (!IsBaseline(e)) answerable.emplace(e, q);
      }
    }
    std::vector<EngineKind> order;
    for (EngineKind e : kReferencePreference) {
      if (answerable.count(e)) order.push_back(e);
    }
    std::stable_partition(order.begin(), order.end(), [&](EngineKind e) {
      return serving.count(e) == 0;
    });
    if (order.empty()) Die("no reference engine for a query");
    Reference ref;
    ref.engine = order[0];
    ref.answer = Run(answerable[order[0]], order[0], *doc);
    if (serving.count(order[0]) && order.size() > 1) {
      ref.second = Run(answerable[order[1]], order[1], *doc);
      if (!(*ref.second == ref.answer)) ++disagreements_;
    }
    refs_.emplace(key, std::move(ref));
  }

  Answer Run(int query, EngineKind engine, const treeq::Document& doc) {
    treeq::engine::ExecuteOptions options;
    options.force_route = EngineName(engine);
    auto result =
        plans_[query]->Execute(doc, ExecContext::Unbounded(), options);
    if (!result.ok()) {
      Die(std::string("reference engine ") + EngineName(engine) +
          " failed: " + result.status().ToString());
    }
    return Normalize(result.value(), doc.num_nodes());
  }

  const std::vector<DocumentPtr>& docs_;
  std::vector<PlanPtr> plans_;
  std::vector<std::pair<uint64_t, uint64_t>> hash_of_;
  std::map<Key, Reference> refs_;
  size_t disagreements_ = 0;
};

// ---------------------------------------------------------------------------
// Spans, recorded only in the traced run.
enum SpanName : uint32_t {
  kSpanRead,
  kSpanWrite,
  kSpanGetOrCompile,
  kSpanSubmit,
  kSpanReadyWait,
  kSpanFutureGet,
  kSpanParseXml,
  kSpanReplace,
  kSpanLabelIndex,
  kNumSpanNames,
};
const char* const kSpanNames[kNumSpanNames] = {
    "read",    "write",    "GetOrCompile", "Submit",     "ready_wait",
    "future.get", "ParseXml", "Replace",   "label_index",
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {
    if (enabled_) spans_.reserve(1 << 18);
  }
  uint32_t Begin(SpanName name, uint32_t parent, uint64_t request,
                 uint64_t start = 0) {
    if (!enabled_) return kNoParent;
    spans_.push_back({name, parent, request, start ? start : NowNs(), 0});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  void End(uint32_t span, uint64_t end = 0) {
    if (span != kNoParent) spans_[span].end = end ? end : NowNs();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// The server under test.
struct Server {
  std::unique_ptr<treeq::cache::EvalCache> eval_cache;
  std::unique_ptr<treeq::cache::ResultCache> result_cache;
  std::unique_ptr<PlanCache> plan_cache;
  DocumentStore store;
  std::vector<std::string> slot_names;
  std::vector<PlanPtr> plans;  // mix_cold: one compiled plan per pool text
  std::unique_ptr<Executor> executor;  // declared last: stops first
};

struct SetupTimes {
  double ingest_s = 0, label_index_s = 0, plans_s = 0, total_s = 0;
};

std::unique_ptr<Server> SetUp(const Workload& w, SetupTimes* times) {
  auto server = std::make_unique<Server>();
  Server& s = *server;
  if (w.caches) {
    s.eval_cache = std::make_unique<treeq::cache::EvalCache>();
    s.result_cache = std::make_unique<treeq::cache::ResultCache>();
    s.plan_cache = std::make_unique<PlanCache>(4096);
    s.store.AddEvictionListener([ec = s.eval_cache.get()](uint64_t epoch) {
      ec->InvalidateDocument(epoch);
    });
    s.store.AddEvictionListener([rc = s.result_cache.get()](uint64_t epoch) {
      rc->InvalidateDocument(epoch);
    });
  }
  const uint64_t t0 = NowNs();
  for (int slot = 0; slot < w.num_slots; ++slot) {
    s.slot_names.push_back("catalog" + std::to_string(slot));
    auto tree = treeq::ParseXml(w.contents[slot].xml);
    if (!tree.ok()) Die("ingest: " + tree.status().ToString());
    if (!s.store.Add(s.slot_names.back(), std::move(tree).value()).ok()) {
      Die("ingest: Add failed");
    }
  }
  const uint64_t t1 = NowNs();
  for (const std::string& name : s.slot_names) {
    (void)s.store.Get(name).value()->label_index();
  }
  const uint64_t t2 = NowNs();
  for (size_t q = 0; q < w.num_pool; ++q) {
    const QueryText& query = w.queries[q];
    auto plan = w.caches
                    ? s.plan_cache->GetOrCompile(query.language, query.text)
                    : Plan::Compile(query.language, query.text);
    if (!plan.ok()) Die("plan warm-up: " + plan.status().ToString());
    if (!w.caches) s.plans.push_back(std::move(plan).value());
  }
  const uint64_t t3 = NowNs();
  times->ingest_s = static_cast<double>(t1 - t0) / 1e9;
  times->label_index_s = static_cast<double>(t2 - t1) / 1e9;
  times->plans_s = static_cast<double>(t3 - t2) / 1e9;
  times->total_s = static_cast<double>(t3 - t0) / 1e9;

  Executor::Options options;
  options.num_workers = kWorkers;
  options.queue_capacity = 256;
  options.eval_cache = s.eval_cache.get();
  options.result_cache = s.result_cache.get();
  options.singleflight = w.caches;
  s.executor = std::make_unique<Executor>(options);
  return server;
}

// ---------------------------------------------------------------------------
// One measured pass over the request stream.

/// One completed read, kept for the traced replay.
struct ReadRecord {
  int32_t query = 0;
  int32_t content = 0;
  bool executed = false;  // false: answered at Submit (result-cache hit)
  bool ok = false;
  EngineKind engine = EngineKind::kXPathSetAtATime;
  PlanPtr plan;
  uint64_t submit_start = 0;
  uint64_t ready = 0;
};

struct CacheTallies {
  uint64_t plan_hits = 0, plan_misses = 0, plan_canonical = 0;
  uint64_t result_hits = 0, result_misses = 0;
  uint64_t eval_hits = 0, eval_misses = 0;
  uint64_t leaders = 0, followers = 0;

  static CacheTallies Of(const Server& s) {
    CacheTallies t;
    if (s.plan_cache) {
      t.plan_hits = s.plan_cache->hits();
      t.plan_misses = s.plan_cache->misses();
      t.plan_canonical = s.plan_cache->canonical_hits();
    }
    if (s.result_cache) {
      t.result_hits = s.result_cache->hits();
      t.result_misses = s.result_cache->misses();
    }
    if (s.eval_cache) {
      t.eval_hits = s.eval_cache->hits();
      t.eval_misses = s.eval_cache->misses();
    }
    t.leaders = s.executor->inflight().leaders();
    t.followers = s.executor->inflight().followers();
    return t;
  }
  CacheTallies Minus(const CacheTallies& o) const {
    CacheTallies d;
    d.plan_hits = plan_hits - o.plan_hits;
    d.plan_misses = plan_misses - o.plan_misses;
    d.plan_canonical = plan_canonical - o.plan_canonical;
    d.result_hits = result_hits - o.result_hits;
    d.result_misses = result_misses - o.result_misses;
    d.eval_hits = eval_hits - o.eval_hits;
    d.eval_misses = eval_misses - o.eval_misses;
    d.leaders = leaders - o.leaders;
    d.followers = followers - o.followers;
    return d;
  }
};

struct PassResult {
  std::vector<double> read_ms, bounded_ms, write_ms, lag_ms;
  std::vector<uint64_t> read_at_ns;  // read_ms[i]'s origin, from the start
  std::vector<ReadRecord> reads;
  uint64_t attempted = 0, completed = 0, failed = 0, wrong = 0;
  uint64_t self_checked = 0;
  uint64_t window_ns = 0;
  uint64_t writes = 0, misses_after_write = 0;
  size_t rounds = 0;
  std::vector<uint64_t> round_ends;  // closed loop: dispatch-side round marks
  CacheTallies tallies;
  size_t result_bytes = 0, eval_bytes = 0;
  std::map<std::string, uint64_t> served_by;
  std::vector<std::string> failures;  // first few, for the report

  double qps() const {
    return window_ns ? static_cast<double>(completed) * 1e9 /
                           static_cast<double>(window_ns)
                     : 0;
  }
};

class Pass {
 public:
  /// `rounds`, when non-zero, pins a closed-loop pass to that many rounds
  /// (the traced pass repeats the untraced pass's requests exactly).
  Pass(Server* server, const Workload& w, const References& refs,
       Tracer* tracer, size_t rounds = 0)
      : s_(*server), w_(w), refs_(refs), tracer_(*tracer), rounds_(rounds) {
    slot_content_.resize(w.num_slots);
    for (int slot = 0; slot < w.num_slots; ++slot) slot_content_[slot] = slot;
    if (!w.caches) {
      // Bounded-request budgets, fixed before the window opens.
      budgets_.resize(w.num_pool * w.num_slots);
      for (size_t q = 0; q < w.num_pool; ++q) {
        for (int slot = 0; slot < w.num_slots; ++slot) {
          auto doc = s_.store.Get(s_.slot_names[slot]).value();
          budgets_[q * w.num_slots + slot] =
              kBoundedBudgetFactor * s_.plans[q]->EstimatedVisits(*doc);
        }
      }
    }
  }

  PassResult Run() {
    // Sized up front so no reallocation lands inside the window.
    r_.read_ms.reserve(w_.ops.size());
    r_.read_at_ns.reserve(w_.ops.size());
    r_.lag_ms.reserve(w_.ops.size());
    r_.reads.reserve(w_.ops.size());
    const CacheTallies before = CacheTallies::Of(s_);
    if (w_.open_loop) {
      RunOpenLoop();
    } else {
      RunClosedLoop();
    }
    r_.tallies = CacheTallies::Of(s_).Minus(before);
    if (s_.result_cache) r_.result_bytes = s_.result_cache->bytes_used();
    if (s_.eval_cache) r_.eval_bytes = s_.eval_cache->bytes_used();
    return std::move(r_);
  }

 private:
  struct Pending {
    size_t op = 0;
    std::future<treeq::Result<QueryResult>> future;
    PlanPtr plan;
    uint64_t origin = 0;  // latency zero: send (closed) or due (open)
    uint64_t submit_start = 0;
    uint32_t root = kNoParent, wait = kNoParent;
  };

  static bool Ready(const Pending& p) {
    return p.future.wait_for(std::chrono::seconds(0)) ==
           std::future_status::ready;
  }

  void RunClosedLoop() {
    const size_t read_floor = MinSamplesFor(0.99);
    size_t bounded_sent = 0;
    const uint64_t start = start_ = NowNs();
    size_t next = 0;
    bool stop = false;
    while (true) {
      while (!stop && pending_.size() < kClosedLoopOutstanding) {
        if (next % w_.round_size == 0 && next > 0) {
          r_.round_ends.push_back(NowNs() - start);
          // Rounds are whole: a run stops only at a round boundary, once
          // it has measured long enough and holds enough samples for
          // every p99 it reports.
          const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
          stop = next == w_.ops.size() ||
                 (rounds_ > 0 ? next == rounds_ * w_.round_size
                              : elapsed >= kClosedLoopCapSeconds ||
                                    (elapsed >= w_.seconds &&
                                     next >= read_floor &&
                                     bounded_sent >= read_floor));
          if (stop) break;
        }
        if (w_.ops[next].bounded) ++bounded_sent;
        const uint64_t now = NowNs();
        DispatchRead(next++, now, now);
      }
      PollPending();
      if (stop && pending_.empty()) break;
    }
    r_.rounds = next / w_.round_size;
    r_.window_ns = last_done_ - start;
  }

  void RunOpenLoop() {
    // Open the window in 1 ms.
    const uint64_t start = start_ = NowNs() + 1000000;
    size_t next = 0;
    while (next < w_.ops.size() || !pending_.empty()) {
      PollPending();
      while (next < w_.ops.size() && start + w_.ops[next].due_ns <= NowNs()) {
        const Op& op = w_.ops[next];
        const uint64_t due = start + op.due_ns;
        const uint64_t sent = NowNs();
        r_.lag_ms.push_back(GeneratorLagMs({due, sent, 0}));
        if (op.kind == OpKind::kWrite) {
          DispatchWrite(next, due);
        } else {
          DispatchRead(next, due, sent);
        }
        ++next;
      }
    }
    r_.window_ns = last_done_ - start;
  }

  void DispatchRead(size_t index, uint64_t origin, uint64_t sent) {
    const Op& op = w_.ops[index];
    const QueryText& query = w_.queries[op.query];
    ++r_.attempted;
    Pending p;
    p.op = index;
    p.origin = origin;
    p.root = tracer_.Begin(kSpanRead, kNoParent, index, sent);
    treeq::engine::SubmitOptions options;
    if (s_.plan_cache) {
      const uint32_t span = tracer_.Begin(kSpanGetOrCompile, p.root, index);
      bool hit = false;
      auto plan = s_.plan_cache->GetOrCompile(query.language, query.text, &hit);
      tracer_.End(span);
      if (!plan.ok()) Die("serving compile failed: " + query.text);
      p.plan = std::move(plan).value();
      options.plan_cache_hit = hit;
    } else {
      p.plan = s_.plans[op.query];
    }
    DocumentPtr doc = s_.store.Get(s_.slot_names[op.slot]).value();
    if (slot_content_[op.slot] != op.content) Die("stream/content mismatch");
    if (op.bounded) {
      options.timeout = kBoundedTimeout;
      options.visit_budget = budgets_[op.query * w_.num_slots + op.slot];
    }
    const uint32_t submit = tracer_.Begin(kSpanSubmit, p.root, index);
    p.submit_start = NowNs();
    auto submission = s_.executor->Submit({p.plan, std::move(doc), options});
    const uint64_t submit_end = NowNs();
    tracer_.End(submit, submit_end);
    p.future = std::move(submission.future);
    p.wait = tracer_.Begin(kSpanReadyWait, p.root, index, submit_end);
    if (Ready(p)) {
      Complete(&p, submit_end, /*executed=*/false);
    } else {
      pending_.push_back(std::move(p));
    }
  }

  void DispatchWrite(size_t index, uint64_t due) {
    const Op& op = w_.ops[index];
    ++r_.attempted;
    ++r_.writes;
    const uint32_t root = tracer_.Begin(kSpanWrite, kNoParent, index);
    uint32_t span = tracer_.Begin(kSpanParseXml, root, index);
    auto tree = treeq::ParseXml(w_.contents[op.content].xml);
    tracer_.End(span);
    bool ok = tree.ok();
    if (ok) {
      span = tracer_.Begin(kSpanReplace, root, index);
      auto doc = s_.store.Replace(s_.slot_names[op.slot],
                                  std::move(tree).value());
      tracer_.End(span);
      ok = doc.ok();
      if (ok) {
        span = tracer_.Begin(kSpanLabelIndex, root, index);
        (void)doc.value()->label_index();
        tracer_.End(span);
      }
    }
    const uint64_t done = NowNs();
    tracer_.End(root, done);
    last_done_ = std::max(last_done_, done);
    ++r_.completed;
    if (!ok) {
      ++r_.failed;
      r_.write_ms.push_back(INFINITY);
      Note("write failed");
      return;
    }
    slot_content_[op.slot] = op.content;
    r_.write_ms.push_back(LatencyFromDueMs({due, 0, done}));
  }

  void PollPending() {
    for (size_t i = 0; i < pending_.size();) {
      if (Ready(pending_[i])) {
        Complete(&pending_[i], NowNs(), /*executed=*/true);
        if (i + 1 != pending_.size()) pending_[i] = std::move(pending_.back());
        pending_.pop_back();
      } else {
        ++i;
      }
    }
  }

  void Complete(Pending* p, uint64_t done, bool executed) {
    const Op& op = w_.ops[p->op];
    tracer_.End(p->wait, done);
    const uint32_t get = tracer_.Begin(kSpanFutureGet, p->root, p->op);
    treeq::Result<QueryResult> result = p->future.get();
    tracer_.End(get);
    tracer_.End(p->root);
    last_done_ = std::max(last_done_, done);
    ++r_.completed;

    ReadRecord rec;
    rec.query = op.query;
    rec.content = op.content;
    rec.executed = executed;
    rec.ok = result.ok();
    rec.plan = std::move(p->plan);
    rec.submit_start = p->submit_start;
    rec.ready = done;
    double latency = LatencyFromDueMs({p->origin, p->submit_start, done});
    if (!result.ok()) {
      ++r_.failed;
      latency = INFINITY;  // a failure misses every latency limit
      Note(result.status().ToString());
    } else {
      rec.engine = ServedEngine(result.value());
      ++r_.served_by[result.value().engine];
      const References::Verdict v =
          refs_.Check(op.query, op.content, result.value());
      if (v.self_checked) ++r_.self_checked;
      if (!v.match) {
        ++r_.failed;
        ++r_.wrong;
        Note("wrong answer: " + Short(w_.queries[op.query].text, 60) +
             " by " + result.value().engine);
      }
    }
    if (executed && op.content >= w_.num_slots) ++r_.misses_after_write;
    r_.read_ms.push_back(latency);
    r_.read_at_ns.push_back(p->origin - start_);
    if (op.bounded) r_.bounded_ms.push_back(latency);
    r_.reads.push_back(std::move(rec));
  }

  void Note(const std::string& failure) {
    if (r_.failures.size() < 8) r_.failures.push_back(failure);
  }

  Server& s_;
  const Workload& w_;
  const References& refs_;
  Tracer& tracer_;
  const size_t rounds_;
  std::vector<int> slot_content_;
  std::vector<uint64_t> budgets_;
  std::vector<Pending> pending_;
  uint64_t start_ = 0;  // the measured window opens
  uint64_t last_done_ = 0;
  PassResult r_;
};

// ---------------------------------------------------------------------------
// Report helpers.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

size_t PeakRssKb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<size_t>(usage.ru_maxrss);
}

void PrintTiming(const char* name, const std::vector<double>& samples) {
  const LatencySummary s = Summarize(samples);
  auto show = [&](const char* pct, const Percentile& p) {
    std::printf("  %s_%s_ms %12.4f ms   n=%zu beyond=%zu%s\n", name, pct,
                p.value, s.count, p.beyond,
                p.valid ? "" : "  (INVALID: fewer than 10 samples beyond)");
  };
  show("p50", s.p50);
  show("p99", s.p99);
}

void PrintJsonResult(bool correct, uint64_t attempted, uint64_t failed,
                     const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " +
           JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

/// End-to-end report of one untraced pass; returns the gated metrics.
std::vector<Metric> EndToEnd(const Workload& w, const PassResult& r,
                             double setup_s) {
  std::printf("end-to-end (%s, seed %llu):\n", WorkloadName(w.kind),
              static_cast<unsigned long long>(w.seed));
  std::printf("  window %.3f s%s, %llu ops attempted, %llu completed\n",
              static_cast<double>(r.window_ns) / 1e9,
              w.open_loop ? "" : " (whole rounds)",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.completed));
  if (!w.open_loop) {
    std::printf("  rounds %zu of %zu requests, each dispatched in (s):",
                r.rounds, w.round_size);
    uint64_t prev = 0;
    for (uint64_t end : r.round_ends) {
      std::printf(" %.3f", static_cast<double>(end - prev) / 1e9);
      prev = end;
    }
    std::printf("\n");
  }
  std::printf("  setup_s %12.6f s   n=%d (median of set-ups)\n", setup_s,
              kSetupRepeats);
  std::printf("  qps %12.2f 1/s   n=%llu\n", r.qps(),
              static_cast<unsigned long long>(r.completed));
  const LatencySummary reads = Summarize(r.read_ms);
  std::printf("  read_mean_ms %12.4f ms   n=%zu\n", reads.mean, reads.count);
  double read_p99 = reads.p99.value;
  if (w.open_loop) {
    const WindowedP99 win =
        WindowedP99Of(r.read_ms, r.read_at_ns, kReadsPerWindow);
    read_p99 = win.p99;
    double lo = INFINITY, hi = 0;
    for (const Percentile& x : win.windows) {
      lo = std::min(lo, x.value);
      hi = std::max(hi, x.value);
    }
    std::printf("  read_p50_ms %12.4f ms   n=%zu beyond=%zu\n",
                reads.p50.value, reads.count, reads.p50.beyond);
    std::printf("  read_p99_ms %12.4f ms   median of %zu windows of %zu+ "
                "reads (window p99s %.4f..%.4f)%s\n",
                win.p99, win.windows.size(), kReadsPerWindow, lo, hi,
                win.valid ? ""
                          : "  (INVALID: a window has fewer than 10 samples "
                            "beyond)");
    std::printf("  whole-run p99 %.4f ms   n=%zu beyond=%zu\n",
                reads.p99.value, reads.count, reads.p99.beyond);
  } else {
    PrintTiming("read", r.read_ms);
  }
  if (!w.open_loop) PrintTiming("bounded", r.bounded_ms);
  if (w.write_rate > 0) PrintTiming("write", r.write_ms);
  if (w.open_loop) {
    const LatencySummary lag = Summarize(r.lag_ms);
    std::printf("  generator lag p50 %.4f ms, p99 %.4f ms, max %.3f ms\n",
                lag.p50.value, lag.p99.value, lag.max);
  }
  const double error_rate =
      r.attempted ? static_cast<double>(r.failed) / r.attempted : 0;
  std::printf("  error_rate %.6f   failed=%llu (wrong=%llu) of %llu\n",
              error_rate, static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.wrong),
              static_cast<unsigned long long>(r.attempted));
  const double rss_mb = static_cast<double>(PeakRssKb()) / 1024.0;
  std::printf("  peak_rss_mb %.3f MB\n", rss_mb);
  std::printf("  answers checked: %zu reads, %llu only against the serving "
              "engine\n",
              r.read_ms.size(),
              static_cast<unsigned long long>(r.self_checked));
  std::printf("  served by:");
  for (const auto& [engine, n] : r.served_by) {
    std::printf(" %s=%llu", engine.c_str(), static_cast<unsigned long long>(n));
  }
  std::printf("\n");
  for (const std::string& f : r.failures) {
    std::printf("  failure: %s\n", f.c_str());
  }
  return {
      {"setup_s", setup_s, "s"},
      {"qps", r.qps(), "1/s"},
      {"read_p99_ms", read_p99, "ms"},
  };
}

bool PercentilesValid(const Workload& w, const PassResult& r) {
  bool valid;
  if (w.open_loop) {
    valid = WindowedP99Of(r.read_ms, r.read_at_ns, kReadsPerWindow).valid;
  } else {
    valid = Summarize(r.read_ms).p99.valid &&
            Summarize(r.bounded_ms).p99.valid;
  }
  if (w.write_rate > 0) valid = valid && Summarize(r.write_ms).p99.valid;
  return valid;
}

// ---------------------------------------------------------------------------
// The traced run's replay: each distinct (plan, document) goes serially
// through the layers' public functions, timed from outside.

struct ExecSample {
  double ms = 0;
  uint64_t visits = 0;
};

class Replayer {
 public:
  /// Runs `plan` on `doc` with `engine` forced: once under a
  /// visit-counting context (for the charge), then, when fast, a few more
  /// times unbounded; the time is the median. Memoized.
  ExecSample Execute(const PlanPtr& plan, const DocumentPtr& doc,
                     EngineKind engine) {
    const auto key = std::make_tuple(plan.get(), doc.get(), engine);
    if (auto it = memo_.find(key); it != memo_.end()) return it->second;
    treeq::engine::ExecuteOptions options;
    options.force_route = EngineName(engine);
    ExecContext::Limits limits;
    limits.visit_budget = UINT64_MAX - 1;  // counts, never trips
    ExecContext counting(limits);
    uint64_t t0 = NowNs();
    auto first = plan->Execute(*doc, counting, options);
    const uint64_t counted_ns = NowNs() - t0;
    if (!first.ok()) Die("replay failed: " + first.status().ToString());
    ExecSample sample;
    sample.visits = counting.visits_used();
    std::vector<double> times;
    uint64_t spent = counted_ns;
    while (counted_ns < 50000000 && times.size() < 5 && spent < 100000000) {
      t0 = NowNs();
      (void)plan->Execute(*doc, ExecContext::Unbounded(), options);
      const uint64_t ns = NowNs() - t0;
      times.push_back(Ms(ns));
      spent += ns;
    }
    sample.ms = times.empty() ? Ms(counted_ns) : Median(times);
    memo_.emplace(key, sample);
    return sample;
  }

 private:
  std::map<std::tuple<const Plan*, const treeq::Document*, EngineKind>,
           ExecSample>
      memo_;
};

/// Median wall time (us) of `reps` calls of fn.
template <typename Fn>
double TimeUs(int reps, Fn&& fn) {
  std::vector<double> us;
  for (int i = 0; i < reps; ++i) {
    const uint64_t t0 = NowNs();
    fn();
    us.push_back(Us(NowNs() - t0));
  }
  return Median(us);
}

treeq::plan::LogicalPlan Lower(const treeq::ParsedQuery& q) {
  switch (q.language) {
    case treeq::Language::kXPath:
      return treeq::plan::LowerXPath(*q.xpath);
    case treeq::Language::kCq:
      return treeq::plan::LowerCq(*q.cq);
    case treeq::Language::kDatalog:
      return treeq::plan::LowerDatalog(*q.datalog);
    case treeq::Language::kFo:
      return treeq::plan::LowerFo(*q.fo);
  }
  Die("unknown language");
}

struct RegretRow {
  PlanPtr plan;
  bool pool = false;   // a pool query (or a spelling of one)
  int size_class = 0;  // 0 small, 1 large
  EngineKind routed = EngineKind::kXPathSetAtATime;
  uint64_t requests = 0;
  std::vector<std::pair<EngineKind, ExecSample>> engines;
  double routed_ms = 0, best_ms = 0, regret = 1;
  EngineKind best = EngineKind::kXPathSetAtATime;
};

std::string Fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, format, v);
  return buf;
}

/// Runs the traced pass's replay and tables; returns per-layer metrics.
std::vector<Metric> PerLayer(const Workload& w, Server* server,
                             const PassResult& untraced,
                             const PassResult& traced, const Tracer& tracer,
                             const References& refs,
                             const std::vector<DocumentPtr>& docs) {
  std::vector<Metric> m;
  Replayer replay;

  // --- Spans: the traced pass's timeline, summarized by name.
  {
    const std::vector<Span>& spans = tracer.spans();
    const std::vector<uint64_t> self = SelfTimes(spans);
    std::vector<std::vector<double>> dur(kNumSpanNames), own(kNumSpanNames);
    for (size_t i = 0; i < spans.size(); ++i) {
      dur[spans[i].name].push_back(Us(spans[i].end - spans[i].start));
      own[spans[i].name].push_back(Us(self[i]));
    }
    std::printf("\nspans of the traced pass (%zu spans):\n", spans.size());
    std::printf("  %-14s %9s %12s %12s %14s\n", "span", "count", "p50_us",
                "self_p50_us", "self_total_ms");
    for (uint32_t n = 0; n < kNumSpanNames; ++n) {
      if (dur[n].empty()) continue;
      double total = 0;
      for (double v : own[n]) total += v;
      std::printf("  %-14s %9zu %12.3f %12.3f %14.3f\n", kSpanNames[n],
                  dur[n].size(), Median(dur[n]), Median(own[n]),
                  total / 1e3);
    }
  }

  // --- Tree layer: ingest of the workload's largest document.
  {
    const int slot = LargestSlot(w);
    const std::string& xml = w.contents[slot].xml;
    DocumentStore store;
    if (server->eval_cache) {
      store.AddEvictionListener([ec = server->eval_cache.get()](uint64_t e) {
        ec->InvalidateDocument(e);
      });
      store.AddEvictionListener([rc = server->result_cache.get()](uint64_t e) {
        rc->InvalidateDocument(e);
      });
    }
    (void)store.Add("doc", treeq::ParseXml(xml).value());
    std::vector<double> parse, replace, index;
    int nodes = 0;
    for (int i = 0; i < 7; ++i) {
      uint64_t t0 = NowNs();
      auto tree = treeq::ParseXml(xml).value();
      uint64_t t1 = NowNs();
      DocumentPtr doc = store.Replace("doc", std::move(tree)).value();
      uint64_t t2 = NowNs();
      (void)doc->label_index();
      uint64_t t3 = NowNs();
      parse.push_back(Ms(t1 - t0));
      replace.push_back(Ms(t2 - t1));
      index.push_back(Ms(t3 - t2));
      nodes = doc->num_nodes();
    }
    const double p = Median(parse), r = Median(replace), x = Median(index);
    std::printf("\ntree layer (largest document, %d nodes, median of 7):\n",
                nodes);
    std::printf("  ParseXml %.4f ms, Replace %.4f ms, label_index %.4f ms\n",
                p, r, x);
    m.push_back({"tree.xml_parse_ms", p, "ms"});
    m.push_back({"tree.store_replace_ms", r, "ms"});
    m.push_back({"tree.label_index_ms", x, "ms"});
    m.push_back({"tree.ingest_ns_per_node", (p + r + x) * 1e6 / nodes,
                 "ns/node"});
  }

  // --- Front end: every distinct text the traced pass served.
  {
    std::set<int> texts;
    for (const ReadRecord& rec : traced.reads) texts.insert(rec.query);
    std::vector<double> parse, lower, compile, lookup;
    PlanCache cache(8192);
    for (int q : texts) {
      const QueryText& query = w.queries[q];
      parse.push_back(TimeUs(3, [&] {
        (void)treeq::ParseQuery(query.language, query.text);
      }));
      auto parsed = treeq::ParseQuery(query.language, query.text);
      if (!parsed.ok()) Die("replay parse failed");
      lower.push_back(TimeUs(3, [&] {
        treeq::plan::LogicalPlan ir = Lower(parsed.value());
        (void)treeq::plan::Canonicalize(&ir);
      }));
      compile.push_back(TimeUs(3, [&] {
        (void)Plan::Compile(query.language, query.text);
      }));
      (void)cache.GetOrCompile(query.language, query.text);
    }
    for (int q : texts) {
      const QueryText& query = w.queries[q];
      lookup.push_back(
          TimeUs(5, [&] { (void)cache.Lookup(query.language, query.text); }));
    }
    std::printf("\nfront end (%zu distinct texts, medians):\n", texts.size());
    std::printf("  ParseQuery %.3f us, Lower+Canonicalize %.3f us, "
                "Plan::Compile %.3f us, PlanCache lookup %.3f us\n",
                Median(parse), Median(lower), Median(compile), Median(lookup));
    m.push_back({"query.parse_us", Median(parse), "us"});
    m.push_back({"plan.compile_us", Median(compile), "us"});
    m.push_back({"plan.canonicalize_us", Median(lower), "us"});
    const CacheTallies& t = traced.tallies;
    const uint64_t lookups = t.plan_hits + t.plan_misses;
    m.push_back({"engine.plan_cache.hit_rate",
                 lookups ? static_cast<double>(t.plan_hits) / lookups : 0,
                 "ratio"});
    m.push_back({"engine.plan_cache.lookup_us", Median(lookup), "us"});
    if (lookups == 0) {
      std::printf("  engine.plan_cache.hit_rate: 0, the plan cache is not on "
                  "this workload's serving path (plans compiled at set-up)\n");
    } else {
      std::printf("  plan cache: %llu hits, %llu misses, %llu canonical "
                  "aliases\n",
                  static_cast<unsigned long long>(t.plan_hits),
                  static_cast<unsigned long long>(t.plan_misses),
                  static_cast<unsigned long long>(t.plan_canonical));
    }
  }

  // --- Size classes and representative documents.
  const int small_slot = 0;
  const int large_slot = LargestSlot(w);
  const bool has_large = w.contents[large_slot].products >
                         w.contents[small_slot].products;
  auto size_class = [&](int content) {
    return has_large && w.contents[content].products ==
                            w.contents[large_slot].products
               ? 1
               : 0;
  };
  DocumentPtr rep[2] = {docs[small_slot], nullptr};
  if (has_large) {
    rep[1] = docs[large_slot];
  } else {
    treeq::Rng rng(SubSeed(w.seed, 77));
    treeq::CatalogOptions options;
    options.num_products = kScalingLargeProducts;
    rep[1] = treeq::MakeDocumentWithOrders(treeq::ParseXml(treeq::WriteXml(
        treeq::CatalogDocument(&rng, options))).value());
  }

  // --- Route regret: every eligible engine per (plan, size class), the
  // routed one always included.
  using Key = std::tuple<const Plan*, int, EngineKind>;
  auto RowKey = [&](const ReadRecord& rec) {
    return Key{rec.plan.get(), size_class(rec.content), rec.engine};
  };
  std::map<Key, RegretRow> rows;
  {
    std::set<const Plan*> tail_plans;
    for (const ReadRecord& rec : traced.reads) {
      if (!rec.ok || !rec.executed) continue;
      const bool pool = w.queries[rec.query].origin != QueryOrigin::kLabelCombo;
      if (!pool && !tail_plans.count(rec.plan.get())) {
        if (tail_plans.size() >= kMaxTailRegretPlans) continue;
        tail_plans.insert(rec.plan.get());
      }
      RegretRow& row = rows[RowKey(rec)];
      row.plan = rec.plan;
      row.pool = row.pool || pool;
      row.size_class = size_class(rec.content);
      row.routed = rec.engine;
      ++row.requests;
    }
    for (auto& [key, row] : rows) {
      bool routed_seen = false;
      for (EngineKind e : row.plan->EligibleEngines()) {
        if (IsBaseline(e)) continue;
        routed_seen |= e == row.routed;
        row.engines.push_back(
            {e, replay.Execute(row.plan, rep[row.size_class], e)});
      }
      if (!routed_seen) {
        row.engines.push_back(
            {row.routed,
             replay.Execute(row.plan, rep[row.size_class], row.routed)});
      }
      row.best_ms = INFINITY;
      for (const auto& [e, sample] : row.engines) {
        if (e == row.routed) row.routed_ms = sample.ms;
        if (sample.ms < row.best_ms) {
          row.best_ms = sample.ms;
          row.best = e;
        }
      }
      row.regret = row.best_ms > 0 ? row.routed_ms / row.best_ms : 1;
    }
    std::printf("\nroute regret (routed engine's time over the best eligible "
                "engine's, per plan and document size):\n");
    std::printf("  %-64s %-5s %8s %-20s %11s %-20s %11s %9s\n", "query",
                "size", "requests", "routed", "routed_ms", "best", "best_ms",
                "regret");
    std::vector<const RegretRow*> sorted;
    for (const auto& [key, row] : rows) sorted.push_back(&row);
    std::sort(sorted.begin(), sorted.end(),
              [](const RegretRow* a, const RegretRow* b) {
                return std::make_tuple(a->plan->text(), a->size_class,
                                       std::string(EngineName(a->routed))) <
                       std::make_tuple(b->plan->text(), b->size_class,
                                       std::string(EngineName(b->routed)));
              });
    double log_sum = 0, max_regret = 1;
    for (const RegretRow* r : sorted) {
      const RegretRow& row = *r;
      std::printf("  %-64s %-5s %8llu %-20s %11.4f %-20s %11.4f %9.2f%s\n",
                  Short(row.plan->text(), 64).c_str(),
                  row.size_class ? "large" : "small",
                  static_cast<unsigned long long>(row.requests),
                  EngineName(row.routed), row.routed_ms, EngineName(row.best),
                  row.best_ms, row.regret,
                  row.regret > kMisrouteRegret ? "  MISROUTED" : "");
      std::string others = "      all:";
      for (const auto& [e, sample] : row.engines) {
        others += std::string(" ") + EngineName(e) + "=" +
                  Fmt("%.4f", sample.ms) + "ms";
      }
      std::printf("%s\n", others.c_str());
      log_sum += std::log(row.regret);
      max_regret = std::max(max_regret, row.regret);
    }
    const double geomean = rows.empty() ? 1 : std::exp(log_sum / rows.size());
    // Share of execute time (replayed, per request) spent in misrouted
    // requests.
    double misrouted = 0, total = 0;
    for (const ReadRecord& rec : traced.reads) {
      if (!rec.ok || !rec.executed) continue;
      auto it = rows.find(RowKey(rec));
      if (it == rows.end()) continue;
      total += it->second.routed_ms;
      if (it->second.regret > kMisrouteRegret) {
        misrouted += it->second.routed_ms;
      }
    }
    m.push_back({"plan.route_regret_geomean", geomean, "ratio"});
    m.push_back({"plan.route_regret_max", max_regret, "ratio"});
    m.push_back({"plan.misrouted_share", total > 0 ? misrouted / total : 0,
                 "share"});
    std::printf("  rows %zu, regret geomean %.3f, max %.2f, misrouted share "
                "of execute time %.4f\n",
                rows.size(), geomean, max_regret,
                total > 0 ? misrouted / total : 0);
  }

  // --- Route decision cost, executor hand-off and busy share.
  {
    std::map<std::pair<const Plan*, int>, double> route_us;
    std::vector<double> per_request_route, overhead;
    double busy_ms = 0;
    size_t replayed = 0;
    std::set<std::tuple<const Plan*, int, EngineKind>> seen;
    for (const ReadRecord& rec : traced.reads) {
      if (!rec.ok || !rec.executed) continue;
      const DocumentPtr& doc = docs[rec.content];
      auto [it, fresh] =
          route_us.emplace(std::make_pair(rec.plan.get(), rec.content), 0.0);
      if (fresh) {
        it->second = TimeUs(5, [&] {
          const auto stats = treeq::plan::DocStats::For(*doc);
          (void)treeq::plan::Route(rec.plan->ir(), rec.plan->EligibleEngines(),
                                   rec.plan->NativeEngine(), stats);
        });
      }
      per_request_route.push_back(it->second);
      const auto key = std::make_tuple(rec.plan.get(), rec.content, rec.engine);
      if (!seen.count(key)) {
        if (seen.size() >= kMaxReplayExecutions) {
          auto row = rows.find(RowKey(rec));
          if (row != rows.end()) busy_ms += row->second.routed_ms;
          continue;
        }
        seen.insert(key);
      }
      const ExecSample exec = replay.Execute(rec.plan, doc, rec.engine);
      ++replayed;
      busy_ms += exec.ms;
      overhead.push_back(Us(rec.ready - rec.submit_start) - exec.ms * 1e3);
    }
    const double busy =
        traced.window_ns ? busy_ms / (Ms(traced.window_ns) * kWorkers) : 0;
    std::printf("\nrouting and executor (%zu executed requests replayed):\n",
                replayed);
    std::printf("  DocStats::For+Route p50 %.3f us; Submit->ready minus "
                "execute p50 %.3f us; worker busy share %.4f\n",
                Median(per_request_route), Median(overhead), busy);
    m.push_back({"plan.route_us", Median(per_request_route), "us"});
    m.push_back({"engine.executor.overhead_us", Median(overhead), "us"});
    m.push_back({"engine.executor.busy_share", busy, "share"});
  }

  // --- Caches.
  {
    const CacheTallies& t = traced.tallies;
    const uint64_t rl = t.result_hits + t.result_misses;
    const uint64_t el = t.eval_hits + t.eval_misses;
    const uint64_t flights = t.leaders + t.followers;
    std::vector<double> hit_us;
    treeq::cache::ResultCache cache;
    std::set<std::pair<const Plan*, int>> seen;
    for (const ReadRecord& rec : traced.reads) {
      if (!rec.ok || !rec.executed || seen.size() >= kMaxReplayExecutions) {
        continue;
      }
      auto row = rows.find(RowKey(rec));
      if (row == rows.end()) continue;
      if (!seen.insert({rec.plan.get(), rec.content}).second) continue;
      const DocumentPtr& doc = docs[rec.content];
      treeq::cache::ResultKey key;
      key.doc_epoch = doc->epoch();
      key.query_hash_hi = rec.plan->canonical_hash().hi;
      key.query_hash_lo = rec.plan->canonical_hash().lo;
      (void)cache.Lookup(key);  // the miss a first request pays
      // Any engine's answer is the same value; take the fastest.
      treeq::engine::ExecuteOptions options;
      options.force_route = EngineName(row->second.best);
      auto result = rec.plan->Execute(*doc, ExecContext::Unbounded(), options);
      if (!result.ok()) continue;
      cache.Insert(key, result.value());
      hit_us.push_back(TimeUs(5, [&] { (void)cache.Lookup(key); }));
    }
    m.push_back({"cache.result.hit_rate",
                 rl ? static_cast<double>(t.result_hits) / rl : 0, "ratio"});
    m.push_back({"cache.result.hit_us", Median(hit_us), "us"});
    m.push_back({"cache.result.bytes", static_cast<double>(traced.result_bytes),
                 "bytes"});
    m.push_back({"cache.eval.hit_rate",
                 el ? static_cast<double>(t.eval_hits) / el : 0, "ratio"});
    m.push_back({"cache.eval.bytes", static_cast<double>(traced.eval_bytes),
                 "bytes"});
    m.push_back({"cache.flight.follower_share",
                 flights ? static_cast<double>(t.followers) / flights : 0,
                 "share"});
    const double per_write =
        traced.writes ? static_cast<double>(traced.misses_after_write) /
                            static_cast<double>(traced.writes)
                      : 0;
    m.push_back({"cache.invalidation.miss_after_write", per_write,
                 "misses/write"});
    std::printf("\ncaches: result %llu hits / %llu lookups, %zu bytes; eval "
                "%llu hits / %llu lookups, %zu bytes; flights %llu leaders, "
                "%llu followers; %.3f misses per write; replayed hit "
                "lookup p50 %.3f us\n",
                static_cast<unsigned long long>(t.result_hits),
                static_cast<unsigned long long>(rl), traced.result_bytes,
                static_cast<unsigned long long>(t.eval_hits),
                static_cast<unsigned long long>(el), traced.eval_bytes,
                static_cast<unsigned long long>(t.leaders),
                static_cast<unsigned long long>(t.followers), per_write,
                Median(hit_us));
    if (!w.caches) {
      std::printf("  cache.* rates and bytes are 0: this workload serves with "
                  "every cache off\n");
    }
    if (traced.writes == 0) {
      std::printf("  cache.invalidation.miss_after_write is 0: this workload "
                  "has no writes\n");
    }
  }

  // --- Engine scaling: time growth against charged-visit growth.
  {
    std::printf("\nengine scaling (small %d nodes vs large %d nodes):\n",
                rep[0]->num_nodes(), rep[1]->num_nodes());
    std::printf("  %-20s %5s %-8s %12s %12s %13s %13s %10s %10s %11s\n",
                "engine", "plans", "basis", "small_ms", "large_ms",
                "small_visits", "large_visits", "time_x", "visits_x",
                "ns/visit");
    for (EngineKind e : kScaledEngines) {
      // Pool plans the workload routed to this engine; pool plans where
      // it is merely eligible when it was routed none.
      std::set<const Plan*> picked;
      std::vector<PlanPtr> plans;
      for (const auto& [key, row] : rows) {
        if (row.pool && row.routed == e && row.size_class == 0 &&
            picked.insert(row.plan.get()).second) {
          plans.push_back(row.plan);
        }
      }
      const bool routed = !plans.empty();
      if (!routed) {
        for (size_t q = 0; q < w.num_pool; ++q) {
          const PlanPtr& plan = refs.plan(static_cast<int>(q));
          if (!plan) continue;
          const auto& el = plan->EligibleEngines();
          if (std::find(el.begin(), el.end(), e) != el.end() &&
              picked.insert(plan.get()).second) {
            plans.push_back(plan);
          }
        }
      }
      double small_ms = 0, large_ms = 0;
      uint64_t small_v = 0, large_v = 0;
      for (const PlanPtr& plan : plans) {
        const ExecSample s = replay.Execute(plan, rep[0], e);
        const ExecSample l = replay.Execute(plan, rep[1], e);
        small_ms += s.ms;
        large_ms += l.ms;
        small_v += s.visits;
        large_v += l.visits;
      }
      const double n = plans.empty() ? 1 : static_cast<double>(plans.size());
      const double time_x = small_ms > 0 ? large_ms / small_ms : 0;
      const double visits_x =
          small_v ? static_cast<double>(large_v) / static_cast<double>(small_v)
                  : 0;
      const double ns_per_visit =
          large_v ? large_ms * 1e6 / static_cast<double>(large_v) : 0;
      const bool undercount = visits_x > 0 && time_x > 3 * visits_x;
      std::printf("  %-20s %5zu %-8s %12.4f %12.4f %13llu %13llu %10.2f "
                  "%10.2f %11.3f%s\n",
                  EngineName(e), plans.size(), routed ? "routed" : "eligible",
                  small_ms / n, large_ms / n,
                  static_cast<unsigned long long>(small_v),
                  static_cast<unsigned long long>(large_v), time_x, visits_x,
                  ns_per_visit,
                  undercount ? "  UNDERCOUNTS: time grows >3x faster than "
                               "charged visits"
                             : "");
      const std::string prefix = EngineName(e);
      m.push_back({prefix + ".exec_ms.small", small_ms / n, "ms"});
      m.push_back({prefix + ".exec_ms.large", large_ms / n, "ms"});
      m.push_back({prefix + ".time_growth", time_x, "ratio"});
      m.push_back({prefix + ".visits_growth", visits_x, "ratio"});
      m.push_back({prefix + ".ns_per_visit", ns_per_visit, "ns/visit"});
    }
  }

  // --- Tracing overhead: traced pass against the untraced pass.
  {
    const LatencySummary u = Summarize(untraced.read_ms);
    const LatencySummary t = Summarize(traced.read_ms);
    const double read_share = u.mean > 0 ? (t.mean - u.mean) / u.mean : 0;
    const double qps_share =
        untraced.qps() > 0 ? (untraced.qps() - traced.qps()) / untraced.qps()
                           : 0;
    std::printf("\ntracing overhead: read mean %.5f ms untraced vs %.5f ms "
                "traced (%+.2f%%), read p50 %.5f vs %.5f ms; qps %.2f vs "
                "%.2f (%+.2f%% lost)\n",
                u.mean, t.mean, 100 * read_share, u.p50.value, t.p50.value,
                untraced.qps(), traced.qps(), 100 * qps_share);
    m.push_back({"trace.overhead.read_mean_share", read_share, "share"});
    m.push_back({"trace.overhead.qps_share", qps_share, "share"});
  }
  return m;
}

// ---------------------------------------------------------------------------

struct Options {
  WorkloadKind workload = WorkloadKind::kMixCold;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
};

Options ParseArgs(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      if (!ParseWorkloadName(value, &o.workload)) {
        Die("unknown workload " + value);
      }
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::atof(value.c_str());
      if (!(o.seconds > 0)) Die("--seconds must be positive");
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--commit") {
      o.commit = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (!have_workload) Die("--workload is required");
  return o;
}

int Main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing to report numbers from a ") +
        PERFBENCH_BUILD_TYPE + " build; configure with "
        "-DCMAKE_BUILD_TYPE=Release");
  }
  const Workload w = BuildWorkload(opt.workload, opt.seed, opt.seconds);
  const uint64_t stream_hash = StreamHash(w);
  std::printf(
      "stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"TREEQ_OBS_DISABLED\": %d, \"TREEQ_FAULT_DISABLED\": %d, "
      "\"commit\": %s, \"stream_hash\": \"%016llx\"}\n",
      JsonString(WorkloadName(w.kind)).c_str(),
      static_cast<unsigned long long>(opt.seed),
      JsonNumber(opt.seconds).c_str(), opt.trace ? 1 : 0,
      std::thread::hardware_concurrency(),
      JsonString(PERFBENCH_COMPILER).c_str(),
      JsonString(PERFBENCH_BUILD_TYPE).c_str(), PERFBENCH_OBS_DISABLED,
      PERFBENCH_FAULT_DISABLED, JsonString(opt.commit).c_str(),
      static_cast<unsigned long long>(stream_hash));
  size_t reads = 0, writes = 0;
  for (const Op& op : w.ops) (op.kind == OpKind::kRead ? reads : writes)++;
  std::printf("workload %s: %zu query texts (%zu pool), %zu documents, "
              "%zu reads and %zu writes generated\n",
              WorkloadName(w.kind), w.queries.size(), w.num_pool,
              w.contents.size(), reads, writes);

  // Set-up, several times; the last server is the one measured.
  std::vector<double> setup_totals;
  std::unique_ptr<Server> server;
  SetupTimes times;
  for (int i = 0; i < kSetupRepeats; ++i) {
    server.reset();
    server = SetUp(w, &times);
    setup_totals.push_back(times.total_s);
  }
  const double setup_s = Median(setup_totals);
  std::printf("set-up: median %.6f s of %d (last: ingest %.6f s, label "
              "index %.6f s, plans %.6f s)\n",
              setup_s, kSetupRepeats, times.ingest_s, times.label_index_s,
              times.plans_s);

  // Reference answers (not part of set-up time).
  const uint64_t ref_start = NowNs();
  std::vector<DocumentPtr> docs;
  for (const DocContent& c : w.contents) {
    docs.push_back(
        treeq::MakeDocumentWithOrders(treeq::ParseXml(c.xml).value()));
  }
  const References refs(w, docs);
  std::printf("references: %zu (query, document) answers in %.3f s; %zu "
              "engine disagreements\n",
              refs.size(), static_cast<double>(NowNs() - ref_start) / 1e9,
              refs.disagreements());

  Tracer off(false);
  const PassResult untraced = Pass(server.get(), w, refs, &off).Run();
  bool correct = untraced.wrong == 0 && refs.disagreements() == 0;
  uint64_t attempted = untraced.attempted, failed = untraced.failed;
  std::vector<Metric> metrics = EndToEnd(w, untraced, setup_s);
  if (!PercentilesValid(w, untraced)) {
    std::printf("  warning: a reported p99 has fewer than 10 samples beyond "
                "it\n");
  }

  if (opt.trace) {
    // Same seed, same stream, fresh server; spans on.
    server.reset();
    server = SetUp(w, &times);
    Tracer tracer(true);
    const PassResult traced =
        Pass(server.get(), w, refs, &tracer, untraced.rounds).Run();
    correct = correct && traced.wrong == 0;
    attempted += traced.attempted;
    failed += traced.failed;
    metrics = PerLayer(w, server.get(), untraced, traced, tracer, refs, docs);
  }
  server.reset();
  if (!correct) {
    std::printf("INCORRECT: a served answer differed from its reference\n");
  }
  PrintJsonResult(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
