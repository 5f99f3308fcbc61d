#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// The three serving workloads as pure data: the query texts, the catalog
// documents pre-serialized as XML, and the request stream, all derived
// from the workload seed. The program under test only ever sees these
// texts; nothing here calls into the engine.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "query/parse.h"

namespace perfbench {

enum class WorkloadKind { kMixCold, kHotRepeat, kDocChurn };

const char* WorkloadName(WorkloadKind kind);
bool ParseWorkloadName(std::string_view name, WorkloadKind* kind);

enum class QueryOrigin : uint8_t {
  kPool,           // one spelling of a pool query
  kFreshSpelling,  // a never-seen spelling of a pool query (tail)
  kLabelCombo,     // a query over a new label combination (tail)
};

struct QueryText {
  treeq::Language language = treeq::Language::kXPath;
  std::string text;
  QueryOrigin origin = QueryOrigin::kPool;
  /// Pool query (template x rating) this text spells; -1 for label combos.
  int semantic = -1;
};

struct DocContent {
  int slot = 0;
  int version = 0;  // 0 = the slot's initial document
  int products = 0;
  std::string xml;
};

enum class OpKind : uint8_t { kRead, kWrite };

struct Op {
  /// Open loop: offset of the due time from the window start. Unused by
  /// the closed loop.
  uint64_t due_ns = 0;
  int32_t query = -1;  // read: index into Workload::queries
  /// Read: the document content the read must observe. Write: the content
  /// to install.
  int32_t content = -1;
  int16_t slot = 0;
  OpKind kind = OpKind::kRead;
  bool bounded = false;  // read carries a deadline and a visit budget
};

/// Number of pool queries: 7 templates (the six-query mix plus the alias
/// family) over the five rating labels.
inline constexpr int kNumTemplates = 7;
inline constexpr int kNumRatings = 5;
inline constexpr int kNumSemantic = kNumTemplates * kNumRatings;

struct Workload {
  WorkloadKind kind = WorkloadKind::kMixCold;
  uint64_t seed = 0;
  double seconds = 0;
  int num_slots = 0;
  /// Pool spellings first (num_pool of them), then tail texts.
  std::vector<QueryText> queries;
  size_t num_pool = 0;
  /// contents[s] is slot s's initial document; later entries are the
  /// replacement documents writes install.
  std::vector<DocContent> contents;
  /// Closed loop: consecutive rounds of round_size ops, each a shuffled
  /// pass over every (pool spelling, slot, bounded) combination.
  /// Open loop: the time-ordered stream.
  std::vector<Op> ops;
  size_t round_size = 0;
  bool open_loop = false;
  double read_rate = 0;   // open loop, requests per second
  double write_rate = 0;  // doc_churn, writes per second
  int num_workers = 3;
  bool caches = false;
};

Workload BuildWorkload(WorkloadKind kind, uint64_t seed, double seconds);

/// FNV-1a over every query text, document and op: equal hashes mean the
/// same request stream.
uint64_t StreamHash(const Workload& workload);

/// The index of the slot holding the largest document.
int LargestSlot(const Workload& workload);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
