#include "workload.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <string>
#include <unordered_map>
#include <utility>

#include "harness.h"
#include "tree/generator.h"
#include "tree/xml.h"
#include "util/random.h"

namespace perfbench {
namespace {

using treeq::Language;

// --- Load shape -----------------------------------------------------------

constexpr int kSmallProducts = 120;   // ~1.4k nodes
constexpr int kLargeProducts = 1200;  // ~13k nodes
/// Closed-loop rounds generated up front; a run stops at a round boundary.
constexpr int kMaxRounds = 40;
/// hot_repeat / doc_churn offered read rate, well below the parent's
/// saturation point.
constexpr double kReadRate = 1000;
/// doc_churn write rate: high enough for a valid write p99 in one run.
constexpr double kWriteRate = 60;
/// Replacement catalogs pre-serialized per slot; writes cycle through them.
constexpr int kVersionsPerSlot = 6;
/// Share of open-loop reads that are ad-hoc tail; half of the tail is
/// fresh spellings, half new label combinations. The share is exact in
/// every block of reads (see BuildOpenLoop).
constexpr double kTailShare = 0.10;
constexpr double kZipfExponent = 1.0;

// --- Query pool -----------------------------------------------------------

struct Spelling {
  Language language;
  const char* text;  // "{r}" stands for the rating digit
};

/// The bench_engine_throughput six-query mix, each made to mention a
/// rating label, then the four-spelling alias family. Template 6 is the
/// alias family; every other template has one spelling.
const std::vector<std::vector<Spelling>>& PoolSpellings() {
  static const auto* pool = new std::vector<std::vector<Spelling>>{
      {{Language::kXPath, "/catalog/product[reviews/review/rating{r}]/name"}},
      {{Language::kXPath, "//review/rating{r}"}},
      {{Language::kCq,
        "Q() :- Child+(x, y), Lab_product(x), Lab_rating{r}(y)."}},
      {{Language::kCq,
        "Q(p, v) :- Child+(p, v), Child(v, s), Lab_product(p), "
        "Lab_review(v), Lab_rating{r}(s)."}},
      {{Language::kDatalog,
        "Good(x) :- Lab_rating{r}(x).\nHasGood(x) :- Child(x, y), Good(y).\n"
        "?- HasGood."}},
      {{Language::kFo,
        "exists x . exists y . (Child(x, y) and Lab_review(x) and "
        "Lab_rating{r}(y))"}},
      {{Language::kXPath, "//product//rating{r}"},
       {Language::kCq,
        "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
        "Lab_rating{r}(y)."},
       {Language::kCq,
        "Q(b) :- Lab_rating{r}(b), Child+(a, b), Child+(c, a), "
        "Lab_product(a)."},
       {Language::kDatalog,
        "Q(y) :- Child+(w, x), Child+(x, y), Lab_product(x), "
        "Lab_rating{r}(y). ?- Q."}},
  };
  return *pool;
}

/// Forms for fresh spellings of each template: variables and intensional
/// predicates are placeholders ({a} {b} {c} {w} {P} {H}) that receive
/// never-used names, and atoms come reordered or in another language.
/// Each stays semantically identical to its pool query, so it compiles
/// and then hits through canonical aliasing. Template 0 has none.
const std::vector<std::vector<Spelling>>& FreshForms() {
  static const auto* forms = new std::vector<std::vector<Spelling>>{
      {},
      {{Language::kCq,
        "Q({b}) :- Lab_rating{r}({b}), Child({a}, {b}), Child+({w}, {a}), "
        "Lab_review({a})."}},
      {{Language::kCq,
        "Q() :- Lab_rating{r}({b}), Lab_product({a}), Child+({a}, {b})."},
       {Language::kCq,
        "Q() :- Child+({a}, {b}), Lab_rating{r}({b}), Lab_product({a})."}},
      {{Language::kCq,
        "Q({a}, {b}) :- Lab_review({b}), Child({b}, {c}), Child+({a}, {b}), "
        "Lab_rating{r}({c}), Lab_product({a})."},
       {Language::kCq,
        "Q({a}, {b}) :- Lab_product({a}), Lab_review({b}), "
        "Lab_rating{r}({c}), Child+({a}, {b}), Child({b}, {c})."}},
      {{Language::kDatalog,
        "{H}({a}) :- Child({a}, {b}), {P}({b}).\n{P}({a}) :- "
        "Lab_rating{r}({a}).\n?- {H}."},
       {Language::kDatalog,
        "{P}({b}) :- Lab_rating{r}({b}).\n{H}({a}) :- {P}({b}), "
        "Child({a}, {b}).\n?- {H}."}},
      {{Language::kFo,
        "exists {b} . exists {a} . (Lab_rating{r}({b}) and Lab_review({a}) "
        "and Child({a}, {b}))"},
       {Language::kFo,
        "exists {a} . exists {b} . (Lab_review({a}) and Child({a}, {b}) and "
        "Lab_rating{r}({b}))"}},
      {{Language::kCq,
        "Q({c}) :- Lab_product({b}), Child+({b}, {c}), Lab_rating{r}({c}), "
        "Child+({w}, {b})."},
       {Language::kDatalog,
        "Q({c}) :- Child+({w}, {b}), Lab_rating{r}({c}), Child+({b}, {c}), "
        "Lab_product({b}). ?- Q."}},
  };
  return *forms;
}

/// Tail queries over a label pair ({A}, {B}); they compile and execute.
const std::vector<Spelling>& LabelComboForms() {
  static const auto* forms = new std::vector<Spelling>{
      {Language::kXPath, "//{A}//{B}"},
      {Language::kXPath, "//{A}/{B}"},
      {Language::kCq, "Q(y) :- Child(x, y), Lab_{A}(x), Lab_{B}(y)."},
      {Language::kCq, "Q() :- Child+(x, y), Lab_{A}(x), Lab_{B}(y)."},
      {Language::kFo,
       "exists x . exists y . (Child(x, y) and Lab_{A}(x) and Lab_{B}(y))"},
      {Language::kDatalog,
       "P(x) :- Lab_{B}(x).\nH(x) :- Child+(x, y), Lab_{A}(x), P(y).\n?- H."},
  };
  return *forms;
}

const char* const kCatalogLabels[] = {
    "catalog", "product", "name",    "price",   "desc",    "para",    "reviews",
    "review",  "rating1", "rating2", "rating3", "rating4", "rating5",
};

/// Popularity order of the 35 pool queries for the Zipf draw: fixed (not
/// seeded) so every seed sees the same hot set, and interleaved so each
/// template appears near the head.
int SemanticAtRank(int rank) {
  static constexpr int kRatingOrder[kNumRatings] = {3, 1, 5, 2, 4};
  const int tmpl = rank % kNumTemplates;
  const int rating = kRatingOrder[(rank / kNumTemplates) % kNumRatings];
  return tmpl * kNumRatings + (rating - 1);
}

std::string Replace(std::string s, std::string_view from,
                    std::string_view to) {
  for (size_t pos = s.find(from); pos != std::string::npos;
       pos = s.find(from, pos + to.size())) {
    s.replace(pos, from.size(), to);
  }
  return s;
}

std::string WithRating(const char* text, int rating) {
  return Replace(text, "{r}", std::to_string(rating));
}

std::string CatalogXml(uint64_t seed, int products) {
  treeq::Rng rng(seed);
  treeq::CatalogOptions options;
  options.num_products = products;
  return treeq::WriteXml(treeq::CatalogDocument(&rng, options));
}

/// Interns query texts: the same text always gets the same index.
class QueryTable {
 public:
  explicit QueryTable(std::vector<QueryText>* out) : out_(out) {}
  int Intern(QueryText q) {
    auto [it, fresh] = index_.emplace(q.text, static_cast<int>(out_->size()));
    if (fresh) out_->push_back(std::move(q));
    return it->second;
  }

 private:
  std::vector<QueryText>* out_;
  std::unordered_map<std::string, int> index_;
};

void AddPool(Workload* w, QueryTable* table,
             std::vector<std::vector<int>>* spellings_of) {
  spellings_of->assign(kNumSemantic, {});
  const auto& pool = PoolSpellings();
  for (int t = 0; t < kNumTemplates; ++t) {
    for (int r = 1; r <= kNumRatings; ++r) {
      const int semantic = t * kNumRatings + (r - 1);
      for (const Spelling& s : pool[t]) {
        (*spellings_of)[semantic].push_back(table->Intern(
            {s.language, WithRating(s.text, r), QueryOrigin::kPool, semantic}));
      }
    }
  }
  w->num_pool = w->queries.size();
}

void AddContents(Workload* w, const std::vector<int>& slot_products,
                 int versions) {
  w->num_slots = static_cast<int>(slot_products.size());
  for (int v = 0; v <= versions; ++v) {
    for (int s = 0; s < w->num_slots; ++s) {
      DocContent doc;
      doc.slot = s;
      doc.version = v;
      doc.products = slot_products[s];
      doc.xml = CatalogXml(SubSeed(w->seed, 1000 + 64 * v + s), doc.products);
      w->contents.push_back(std::move(doc));
    }
  }
}

void BuildClosedLoop(Workload* w) {
  std::vector<Op> round;
  for (int q = 0; q < static_cast<int>(w->num_pool); ++q) {
    for (int s = 0; s < w->num_slots; ++s) {
      for (bool bounded : {false, true}) {
        Op op;
        op.query = q;
        op.slot = static_cast<int16_t>(s);
        op.content = s;
        op.bounded = bounded;
        round.push_back(op);
      }
    }
  }
  w->round_size = round.size();
  SplitMix64 rng(SubSeed(w->seed, 2));
  for (int r = 0; r < kMaxRounds; ++r) {
    rng.Shuffle(&round);
    w->ops.insert(w->ops.end(), round.begin(), round.end());
  }
}

void BuildOpenLoop(Workload* w, QueryTable* table,
                   const std::vector<std::vector<int>>& spellings_of) {
  SplitMix64 rng(SubSeed(w->seed, 3));
  const Zipf zipf(kNumSemantic, kZipfExponent);
  std::vector<size_t> rotation(kNumSemantic, 0);
  uint64_t fresh_id = 0;
  const auto& fresh_forms = FreshForms();
  const auto& combo_forms = LabelComboForms();
  const size_t num_labels = std::size(kCatalogLabels);

  // Reads come in blocks with a fixed mix: each label-combination form
  // once, as many fresh spellings, and pool reads for the rest; the order
  // within a block is seeded. Two of the combination forms run for
  // milliseconds where a hit takes microseconds, so a fixed mix keeps
  // their share, and with it the mean and p99, from swinging with the
  // draw.
  constexpr int kPoolRead = -1, kFreshRead = -2;  // else a combo form
  std::vector<int> block;
  for (size_t f = 0; f < combo_forms.size(); ++f) {
    block.push_back(static_cast<int>(f));
    block.push_back(kFreshRead);
  }
  block.resize(static_cast<size_t>(std::lround(block.size() / kTailShare)),
               kPoolRead);
  size_t in_block = block.size();
  // Each combination form deals its (label, label, slot) triples from a
  // seeded deck, so a combination recurs only once the deck is spent
  // (after about 80 s at the default rate) and every combination read
  // executes, at the same rate all through the run.
  struct Combo {
    size_t a, b;
    int slot;
  };
  std::vector<Combo> all_combos;
  for (size_t a = 0; a < num_labels; ++a) {
    for (size_t b = 0; b < num_labels; ++b) {
      for (int slot = 0; slot < w->num_slots; ++slot) {
        all_combos.push_back({a, b, slot});
      }
    }
  }
  std::vector<std::vector<Combo>> decks(combo_forms.size(), all_combos);
  std::vector<size_t> dealt(combo_forms.size(), all_combos.size());

  std::vector<Op> reads;
  for (uint64_t due : PoissonArrivals(&rng, w->read_rate, w->seconds)) {
    Op op;
    op.due_ns = due;
    op.slot = static_cast<int16_t>(rng.Below(w->num_slots));
    if (in_block == block.size()) {
      rng.Shuffle(&block);
      in_block = 0;
    }
    const int kind = block[in_block++];
    if (kind == kPoolRead) {
      const int semantic = SemanticAtRank(static_cast<int>(zipf.Draw(&rng)));
      const std::vector<int>& spellings = spellings_of[semantic];
      op.query = spellings[rotation[semantic]++ % spellings.size()];
    } else if (kind == kFreshRead) {
      int semantic;
      do {
        semantic = SemanticAtRank(static_cast<int>(zipf.Draw(&rng)));
      } while (fresh_forms[semantic / kNumRatings].empty());
      const auto& forms = fresh_forms[semantic / kNumRatings];
      const Spelling& form = forms[rng.Below(forms.size())];
      const std::string id = std::to_string(++fresh_id);
      std::string text = WithRating(form.text, semantic % kNumRatings + 1);
      for (const char* var : {"a", "b", "c", "w"}) {
        text = Replace(std::move(text), std::string("{") + var + "}",
                       std::string(var) + "v" + id);
      }
      text = Replace(std::move(text), "{P}", "Good" + id);
      text = Replace(std::move(text), "{H}", "HasGood" + id);
      op.query = table->Intern(
          {form.language, text, QueryOrigin::kFreshSpelling, semantic});
    } else {
      std::vector<Combo>& deck = decks[kind];
      if (dealt[kind] == deck.size()) {
        rng.Shuffle(&deck);
        dealt[kind] = 0;
      }
      const Combo& combo = deck[dealt[kind]++];
      op.slot = static_cast<int16_t>(combo.slot);
      const Spelling& form = combo_forms[kind];
      std::string text = Replace(form.text, "{A}", kCatalogLabels[combo.a]);
      text = Replace(std::move(text), "{B}", kCatalogLabels[combo.b]);
      op.query =
          table->Intern({form.language, text, QueryOrigin::kLabelCombo, -1});
    }
    reads.push_back(op);
  }

  std::vector<Op> writes;
  if (w->write_rate > 0) {
    std::vector<int> next_version(w->num_slots, 1);
    int slot = static_cast<int>(rng.Below(w->num_slots));
    for (uint64_t due :
         FixedRateArrivals(w->write_rate, w->seconds, rng.Real())) {
      Op op;
      op.kind = OpKind::kWrite;
      op.due_ns = due;
      op.slot = static_cast<int16_t>(slot);
      const int version = next_version[slot];
      next_version[slot] = version % kVersionsPerSlot + 1;
      op.content = version * w->num_slots + slot;
      writes.push_back(op);
      slot = (slot + 1) % w->num_slots;
    }
  }

  // Merge by due time (a write due at the same instant as a read goes
  // first) and stamp each read with the content it must observe.
  std::merge(writes.begin(), writes.end(), reads.begin(), reads.end(),
             std::back_inserter(w->ops), [](const Op& a, const Op& b) {
               return a.due_ns < b.due_ns;
             });
  std::vector<int> current(w->num_slots);
  for (int s = 0; s < w->num_slots; ++s) current[s] = s;
  for (Op& op : w->ops) {
    if (op.kind == OpKind::kWrite) {
      current[op.slot] = op.content;
    } else {
      op.content = current[op.slot];
    }
  }
}

}  // namespace

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kMixCold:
      return "mix_cold";
    case WorkloadKind::kHotRepeat:
      return "hot_repeat";
    case WorkloadKind::kDocChurn:
      return "doc_churn";
  }
  return "?";
}

bool ParseWorkloadName(std::string_view name, WorkloadKind* kind) {
  for (WorkloadKind k : {WorkloadKind::kMixCold, WorkloadKind::kHotRepeat,
                         WorkloadKind::kDocChurn}) {
    if (name == WorkloadName(k)) {
      *kind = k;
      return true;
    }
  }
  return false;
}

Workload BuildWorkload(WorkloadKind kind, uint64_t seed, double seconds) {
  Workload w;
  w.kind = kind;
  w.seed = seed;
  w.seconds = seconds;
  QueryTable table(&w.queries);
  std::vector<std::vector<int>> spellings_of;
  AddPool(&w, &table, &spellings_of);
  if (kind == WorkloadKind::kMixCold) {
    AddContents(&w, {kSmallProducts, kSmallProducts, kSmallProducts,
                     kLargeProducts},
                0);
    BuildClosedLoop(&w);
    return w;
  }
  w.open_loop = true;
  w.caches = true;
  w.read_rate = kReadRate;
  const bool churn = kind == WorkloadKind::kDocChurn;
  w.write_rate = churn ? kWriteRate : 0;
  AddContents(&w, std::vector<int>(4, kSmallProducts),
              churn ? kVersionsPerSlot : 0);
  BuildOpenLoop(&w, &table, spellings_of);
  return w;
}

uint64_t StreamHash(const Workload& w) {
  Fnv1a64 h;
  h.Str(WorkloadName(w.kind));
  for (const QueryText& q : w.queries) {
    h.U64(static_cast<uint64_t>(q.language));
    h.Str(q.text);
  }
  for (const DocContent& d : w.contents) h.Str(d.xml);
  for (const Op& op : w.ops) {
    h.U64(op.due_ns);
    h.U64(static_cast<uint64_t>(op.query));
    h.U64(static_cast<uint64_t>(op.content));
    h.U64(static_cast<uint64_t>(op.slot));
    h.U64(static_cast<uint64_t>(op.kind) * 2 + (op.bounded ? 1 : 0));
  }
  return h.value();
}

int LargestSlot(const Workload& w) {
  int best = 0;
  for (int s = 1; s < w.num_slots; ++s) {
    if (w.contents[s].products > w.contents[best].products) best = s;
  }
  return best;
}

}  // namespace perfbench
