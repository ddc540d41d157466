// Seeded inputs of the serving benchmark: the Lib (CONTREP) and Cat
// (catalog) sets, the request generators, the scripted writes, and the
// plain C++ model every answer is checked against.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "base/rng.h"
#include "moa/moa_value.h"
#include "moa/query_context.h"
#include "monet/bat.h"
#include "monet/column.h"

namespace perfbench {

/// Sizes of the generated database, fixed per workload (the seed varies
/// content only).
struct Sizes {
  int lib_docs = 8192;     // CONTREP documents served (rank: 32768)
  int restart_lib_docs = 8192;  // documents in the restart image; restore
                                // is quadratic in their count
  int vocab = 3000;        // distinct terms, drawn zipfian (s = 1)
  int cat_rows = 400000;   // catalog rows, attributes independent of oid
  int genres = 16;
  int hot_pool = 48;       // browse requests warmed before timing
  double fresh_share = 0.20;  // browse requests that are never repeated
};

/// Zipf(s) sampler over ranks [0, n): rank r has weight 1 / (r + 1)^s.
class Zipf {
 public:
  Zipf(uint64_t n, double s);
  uint64_t Draw(mirror::base::Rng* rng) const;

 private:
  std::vector<double> cdf_;
};

struct CatRow {
  int64_t year = 0;
  int64_t rating = 0;
  int64_t genre = 0;
};

/// The generated rows. Lib years rise with oid (an archive ingested over
/// time); Cat attributes are uniform and independent of oid.
struct Corpus {
  Corpus(uint64_t seed, const Sizes& sizes);

  /// Lib documents 0, stride, 2 * stride, ... (years still span the range).
  std::vector<mirror::moa::MoaValue> LibObjects(int stride = 1) const;
  std::vector<mirror::moa::MoaValue> CatObjects() const;

  Sizes sizes;
  std::vector<int64_t> lib_year;                 // non-decreasing in oid
  std::vector<std::vector<std::string>> lib_terms;
  std::vector<CatRow> cat;
};

constexpr int kLibFirstYear = 1950;
constexpr int kLibYears = 75;
constexpr int kCatFirstYear = 1900;
constexpr int kCatLastYear = 2025;

/// One ranking request: topN(10) over a year window of Lib, scored by
/// the weighted sum of beliefs, or by unweighted `por`.
struct RankRequest {
  std::vector<std::string> terms;
  std::vector<double> weights;
  bool por = false;
  int64_t lo = 0, hi = 0;

  std::string Text() const;
  /// The same ranking without the topN: every document in the window.
  std::string UntruncatedText() const;
  mirror::moa::QueryContext Bindings() const;
};

/// One browse request over Cat: the ratings of one genre in a year
/// window, either as a list (oid -> rating) or as their sum (a facet).
struct BrowseRequest {
  int64_t genre = 0, lo = 0, hi = 0;
  bool facet = false;

  std::string Text() const;
  std::string Key() const;
};

constexpr int64_t kTopK = 10;

/// Draws rank requests that never repeat (terms, weights and window).
class RankStream {
 public:
  RankStream(uint64_t seed, const Sizes& sizes);
  RankRequest Next();

 private:
  mirror::base::Rng rng_;
  Zipf terms_;
  std::set<std::string> seen_;
};

/// Draws browse requests: zipfian picks from the hot pool, or with
/// probability fresh_share a request that is in no pool and never
/// repeats. `fresh_tag` keeps fresh requests of different streams apart.
class BrowseStream {
 public:
  BrowseStream(uint64_t seed, const Sizes& sizes,
               const std::vector<BrowseRequest>* pool, int fresh_tag);
  /// Returns the request; `*hot` tells whether it came from the pool.
  BrowseRequest Next(bool* hot);

 private:
  mirror::base::Rng rng_;
  const std::vector<BrowseRequest>* pool_;
  Zipf pick_;
  double fresh_share_;
  int fresh_tag_;
  int64_t genres_;
  int64_t fresh_count_ = 0;
  int64_t fresh_offset_;
};

/// The hot pool: distinct list and facet requests (three lists per facet).
std::vector<BrowseRequest> HotPool(uint64_t seed, const Sizes& sizes);

/// One scripted write: an APPEND of one value to one Cat column, or a
/// DELETE of one oid from one Cat column. A row takes three writes (one
/// per column); a deletion takes three.
struct WriteOp {
  std::string bat;  // "Cat.year" | "Cat.rating" | "Cat.genre"
  bool del = false;
  int64_t value = 0;    // append
  uint64_t oid = 0;     // delete
};

/// The plain C++ model of Cat: generated rows plus acknowledged writes.
class CatModel {
 public:
  CatModel(const std::vector<CatRow>& base, int genres);

  /// Scripts `rows` new rows and `deletes` deletions of distinct base
  /// rows (one deletion after every rows/deletes rows), in write order.
  /// The model changes only when Apply() reports an acknowledgement.
  std::vector<WriteOp> Script(mirror::base::Rng* rng, int rows, int deletes);

  /// Applies one acknowledged write. A row counts once all three of its
  /// columns are appended; a deletion once it reached all three.
  void Apply(const WriteOp& op);

  /// Order-sensitive digest of a browse answer as the engine returns it:
  /// (oid, rating) in oid order for lists, the sum for facets.
  uint64_t Answer(const BrowseRequest& r) const;
  /// The sum of every visible rating (the post-restart first answer).
  int64_t RatingSum() const;

 private:
  struct Row {
    CatRow v;
    int cols = 0;  // columns appended so far (3 = complete)
    int dels = 0;  // columns the row was deleted from
    bool visible() const { return cols == 3 && dels == 0; }
  };
  int genres_;
  size_t base_rows_ = 0;
  std::vector<Row> rows_;
  size_t appended_[3] = {0, 0, 0};   // acknowledged appends per column
  std::set<uint64_t> scripted_deletes_;
  mutable std::vector<std::vector<size_t>> by_genre_;  // complete rows, by genre
};

/// Digest of a decoded reply in the same form as CatModel::Answer.
/// Returns false if the reply has the wrong shape.
bool DigestReply(const BrowseRequest& r, bool is_scalar,
                 const mirror::monet::Value& scalar,
                 const mirror::monet::Bat* bat, uint64_t* digest);

/// Checks the ranking properties every reply must have: min(k, matches)
/// rows, non-increasing scores, ties in ascending oid order, every oid
/// inside the year window. Returns an empty string or the violation.
std::string CheckRanking(const RankRequest& r, const Corpus& corpus,
                         const mirror::monet::Bat& bat);

/// Compares a topN reply against the naive evaluator's untruncated
/// ranking, the project's semantic oracle. The engine sums beliefs in
/// another order than the oracle, so scores may differ in the last bits;
/// as in the repository's fuzz suite, scores must agree within 1e-9 rank
/// by rank, every returned row must carry its own oracle score, and the
/// order may differ from the oracle's only between rows whose oracle
/// scores are within 1e-9 of each other. Returns "" or the violation.
std::string CompareToOracle(const mirror::monet::Bat& reply,
                            const mirror::monet::Bat& oracle_full);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
