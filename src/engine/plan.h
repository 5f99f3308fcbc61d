#ifndef TREEQ_ENGINE_PLAN_H_
#define TREEQ_ENGINE_PLAN_H_

#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "cq/dichotomy.h"
#include "cq/twig_join.h"
#include "engine/query.h"
#include "plan/cost.h"
#include "plan/ir.h"
#include "query/parse.h"
#include "tree/axes.h"
#include "tree/document.h"
#include "util/exec_context.h"
#include "util/status.h"

/// \file plan.h
/// A `Plan` is a query parsed, validated, and lowered once, then executable
/// any number of times against any Document — the parse-once/run-many half
/// of the serving story (the PlanCache in plan_cache.h is the other half).
///
/// Compile() front-loads everything that depends only on the query text:
///   - parsing (query/parse.h, all errors kParseError + byte offset);
///   - lowering into the unified logical IR (plan/ir.h) and
///     canonicalization (plan/canonicalize.h), giving the plan a stable
///     128-bit identity shared by semantically identical queries across
///     languages — PlanCache and ResultCache key on it;
///   - CQ: dichotomy classification (Theorem 6.8) and shape checks, which
///     fix the native engine (X-property or Yannakakis evaluation);
///   - FO: sentence check and positivity, which pick the native Corollary
///     5.2 pipeline or the naive oracle without re-walking the AST;
///   - eligibility: the list of physical engines (plan/cost.h) that can
///     answer this plan, native ones plus every engine the IR's structural
///     form converts to.
///
/// Execute() takes one routing decision for every request, bounded or
/// not: the cost-based router (plan/route.h) picks the cheapest eligible
/// engine, and under ExecuteOptions::allow_degraded a pick whose predicted
/// charge does not fit the remaining visit budget runs on the streaming
/// evaluator instead. ExecuteOptions::force_route pins a specific engine
/// for tests and experiments.
///
/// A compiled Plan is immutable; Execute is const and thread-safe, so one
/// PlanPtr is shared freely across the Executor's workers.

namespace treeq {
namespace engine {

class Plan;

/// Shared read-only handle to a compiled plan.
using PlanPtr = std::shared_ptr<const Plan>;

/// The unified result type (engine/query.h), re-exported into
/// treeq::engine for the engine's callers.
using ::treeq::QueryResult;

/// Per-execution knobs for Plan::Execute. Default-constructed options run
/// the routed engine without degradation.
struct ExecuteOptions {
  /// Graceful degradation under a budget (see Execute).
  bool allow_degraded = false;

  /// Cross-query axis-image memo (tree/axes.h; in practice a
  /// cache::EvalCache::Memo bound to the document's epoch). When set, the
  /// XPath route and the k-ary CQ semijoin sweeps consult it per axis
  /// step and store fresh images back — results stay bit-identical; memo
  /// hits charge the cheap lookup instead of the saved kernel work.
  AxisImageMemo* axis_memo = nullptr;

  /// When non-empty, bypasses the router and runs this engine (a
  /// plan::EngineName, e.g. "cq.twigstack"). InvalidArgument for unknown
  /// names; Unsupported when the engine is not in EligibleEngines().
  /// Tests use it to prove every eligible engine answers identically.
  std::string force_route;
};

class Plan {
 public:
  /// Parses and validates `text` once. On success the plan is ready for
  /// concurrent Execute() calls. The two-argument form compiles under
  /// default ParseOptions; the three-argument form pins the parse dialect,
  /// which the plan remembers (parse_options()) so caches can key on it.
  static Result<PlanPtr> Compile(Language language, std::string_view text);
  static Result<PlanPtr> Compile(Language language, std::string_view text,
                                 const ParseOptions& options);

  Language language() const { return query_.language; }
  const std::string& text() const { return text_; }

  /// The dialect options this plan was compiled under. Part of the plan's
  /// identity: the same text can parse differently under different
  /// options, so PlanCache and the result cache key on these too.
  const ParseOptions& parse_options() const { return parse_options_; }

  /// Evaluates the plan on `doc` on the engine the router picks among
  /// EligibleEngines() — the same decision for bounded and unbounded
  /// requests. Thread-safe; touches no mutable plan state.
  ///
  /// Every evaluator charge goes to `exec`, so the run aborts with
  /// DeadlineExceeded / ResourceExhausted / Cancelled as soon as a limit
  /// trips (util/exec_context.h). With `options.allow_degraded`, when
  /// xpath.stream is eligible and the routed engine's EstimateCost exceeds
  /// the remaining visit budget, the O(depth * |Q|)-memory streaming
  /// evaluator over the forward rewrite computed at Compile() time answers
  /// instead, flagged `degraded`.
  Result<QueryResult> Execute(
      const Document& doc,
      const ExecContext& exec = ExecContext::Unbounded(),
      const ExecuteOptions& options = {}) const;

  /// Wall time Compile() spent on this plan (parse + validate + classify +
  /// stream-rewrite). A cache-hit request did not pay it; per-query
  /// profiles report compile_ns() for cold requests and 0 for hits.
  uint64_t compile_ns() const { return compile_ns_; }

  /// One-line compile-time classification of the query's native pipeline
  /// (dichotomy class, FO positivity, stream capability, the |Q|*(|D|+1)
  /// visit-estimate formula, and the eligible routes). Built once at
  /// Compile(); cheap to copy into profiles and the slow-query log.
  const std::string& Explain() const { return explain_; }

  /// The native engine's label (NativeEngine(), with a Boolean CQ's
  /// dichotomy path predicted from its signature class), as a string
  /// literal. Execute's result names the engine that actually answered in
  /// QueryResult::engine, which the router may have picked instead.
  const char* route_name() const;

  /// Compile-time routing facts (for tests, logs, and the bench).
  /// CQ only: the Theorem 6.8 signature class.
  cq::SignatureClass cq_class() const { return cq_class_; }
  /// FO only: whether the native engine is the Corollary 5.2 pipeline.
  bool fo_positive() const { return fo_positive_; }
  /// XPath only: whether the streaming fallback is available (the query is
  /// conjunctive, rewrites to a forward query, and supports selection).
  bool stream_capable() const { return stream_query_ != nullptr; }

  /// The deterministic work estimate |Q| * (|D| + 1) charge units,
  /// mirroring the set-at-a-time evaluator's charge schedule: the basis
  /// bounded callers size their visit budgets from. Degradation does not
  /// read it; it compares the routed engine's plan::EstimateCost with the
  /// remaining budget (see Execute).
  uint64_t EstimatedVisits(const Document& doc) const;

  /// The canonical logical plan (plan/ir.h) this query lowered to, and its
  /// stable 128-bit identity. Dialect-insensitive: semantically identical
  /// queries in any language share the hash.
  const plan::LogicalPlan& ir() const { return ir_; }
  plan::CanonicalHash canonical_hash() const { return canonical_hash_; }

  /// Every physical engine that can answer this plan, native first. Valid
  /// values for ExecuteOptions::force_route (via plan::EngineName).
  const std::vector<plan::EngineKind>& EligibleEngines() const {
    return eligible_;
  }

  /// The engine the query's own language pipeline uses — the router's
  /// fallback and the recipient of its native discount.
  plan::EngineKind NativeEngine() const;

  /// Runtime routing table for `doc`: the router's scored candidates
  /// (plan::ScoreRoute), cheapest first, so the first entry is the engine
  /// an unforced Execute picks. Executes nothing and counts no decision.
  std::string ExplainRouting(const Document& doc) const;

 private:
  Plan() = default;

  /// Lowers query_ into ir_, canonicalizes, and computes eligible_ plus
  /// the engine forms (CQ branches, twig patterns, FO sentences, datalog
  /// program): the query's own AST seeds its language's form, and the IR
  /// fills the forms still empty. Called once at the end of Compile().
  void BuildLogicalPlan();

  /// Runs one specific engine on its form. `kind` must be eligible. Arms
  /// group by result shape: node engines, tuple engines (branch union +
  /// arity shaping), sentence engines (any branch).
  Result<QueryResult> ExecuteEngine(plan::EngineKind kind,
                                    const Document& doc,
                                    const ExecContext& exec,
                                    const ExecuteOptions& options) const;

  std::string text_;
  ParseOptions parse_options_;
  ParsedQuery query_;
  std::string explain_;
  uint64_t compile_ns_ = 0;
  cq::SignatureClass cq_class_ = cq::SignatureClass::kTau1;
  bool cq_boolean_ = false;
  bool fo_positive_ = false;
  /// Forward rewrite of an XPath query usable by the streaming fallback;
  /// null when the query is outside the streamable fragment.
  std::unique_ptr<xpath::PathExpr> stream_query_;

  /// Canonical logical IR + identity (see ir()).
  plan::LogicalPlan ir_;
  plan::CanonicalHash canonical_hash_;
  /// Engines that can answer this plan, native first.
  std::vector<plan::EngineKind> eligible_;
  /// Engine forms (empty when no eligible engine reads them). A CQ plan's
  /// cq_branches_ and an FO plan's fo_branches_ hold the query itself as
  /// their one branch; otherwise there is one entry per IR branch.
  std::vector<cq::ConjunctiveQuery> cq_branches_;
  std::vector<cq::TwigPattern> twig_branches_;
  std::vector<std::vector<int>> twig_out_cols_;
  std::vector<std::unique_ptr<fo::Formula>> fo_branches_;
  /// The datalog program itself, or an XPath query's TMNF translation
  /// (xpath/to_datalog.h) when it exists.
  std::optional<datalog::Program> datalog_form_;
};

}  // namespace engine
}  // namespace treeq

#endif  // TREEQ_ENGINE_PLAN_H_
