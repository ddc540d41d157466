#include "corpus.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "base/logging.h"
#include "base/str_util.h"

namespace perfbench {

using mirror::moa::MoaValue;

Zipf::Zipf(uint64_t n, double s) : cdf_(n) {
  double sum = 0;
  for (uint64_t k = 0; k < n; ++k) {
    sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf_[k] = sum;
  }
  for (double& c : cdf_) c /= sum;
}

uint64_t Zipf::Draw(mirror::base::Rng* rng) const {
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng->UniformDouble());
  return it == cdf_.end() ? cdf_.size() - 1 : it - cdf_.begin();
}

namespace {

std::string Term(uint64_t rank) { return "w" + std::to_string(rank); }

uint64_t Mix(uint64_t h, uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h * 0xBF58476D1CE4E5B9ull;
}

}  // namespace

Corpus::Corpus(uint64_t seed, const Sizes& s) : sizes(s) {
  mirror::base::Rng rng(seed * 1000003 + 17);
  Zipf vocab(static_cast<uint64_t>(s.vocab), 1.0);
  lib_year.resize(s.lib_docs);
  lib_terms.resize(s.lib_docs);
  for (int i = 0; i < s.lib_docs; ++i) {
    lib_year[i] = kLibFirstYear +
                  static_cast<int64_t>(i) * kLibYears / s.lib_docs;
    int len = static_cast<int>(rng.UniformInt(5, 20));
    for (int t = 0; t < len; ++t) lib_terms[i].push_back(Term(vocab.Draw(&rng)));
  }
  cat.resize(s.cat_rows);
  for (CatRow& r : cat) {
    r.year = rng.UniformInt(kCatFirstYear, kCatLastYear);
    r.rating = rng.UniformInt(0, 1000);
    r.genre = rng.UniformInt(0, s.genres - 1);
  }
}

std::vector<MoaValue> Corpus::LibObjects(int stride) const {
  std::vector<MoaValue> out;
  out.reserve(lib_year.size() / stride + 1);
  for (size_t i = 0; i < lib_year.size(); i += stride) {
    out.push_back(MoaValue::Tuple(
        {MoaValue::Int(lib_year[i]), MoaValue::ContRep(lib_terms[i])}));
  }
  return out;
}

std::vector<MoaValue> Corpus::CatObjects() const {
  std::vector<MoaValue> out;
  out.reserve(cat.size());
  for (const CatRow& r : cat) {
    out.push_back(MoaValue::Tuple({MoaValue::Int(r.year),
                                   MoaValue::Int(r.rating),
                                   MoaValue::Int(r.genre)}));
  }
  return out;
}

std::string RankRequest::Text() const {
  return mirror::base::StrFormat(
      "topN(map[%s(THIS)](map[getBL(THIS.doc, query, stats)]("
      "select[THIS.year >= %lld and THIS.year <= %lld](Lib))), %lld);",
      por ? "por" : "sum", static_cast<long long>(lo),
      static_cast<long long>(hi), static_cast<long long>(kTopK));
}

std::string RankRequest::UntruncatedText() const {
  std::string text = Text();
  size_t open = text.find('(');
  size_t close = text.rfind(',');
  return text.substr(open + 1, close - open - 1) + ";";
}

mirror::moa::QueryContext RankRequest::Bindings() const {
  mirror::moa::QueryContext ctx;
  std::vector<mirror::moa::WeightedTerm> bound;
  for (size_t i = 0; i < terms.size(); ++i) bound.push_back({terms[i], weights[i]});
  ctx.Bind("query", std::move(bound));
  return ctx;
}

std::string BrowseRequest::Text() const {
  std::string list = mirror::base::StrFormat(
      "map[THIS.rating](select[THIS.genre == %lld and THIS.year >= %lld and "
      "THIS.year <= %lld](Cat))",
      static_cast<long long>(genre), static_cast<long long>(lo),
      static_cast<long long>(hi));
  return facet ? "sum(" + list + ");" : list + ";";
}

std::string BrowseRequest::Key() const {
  return mirror::base::StrFormat("%lld/%lld/%lld/%d",
                                 static_cast<long long>(genre),
                                 static_cast<long long>(lo),
                                 static_cast<long long>(hi), facet ? 1 : 0);
}

RankStream::RankStream(uint64_t seed, const Sizes& sizes)
    : rng_(seed), terms_(static_cast<uint64_t>(sizes.vocab), 1.0) {}

RankRequest RankStream::Next() {
  static constexpr double kWeights[] = {0.5, 1.0, 1.5, 2.0};
  for (;;) {
    RankRequest r;
    r.por = rng_.Uniform(4) == 0;
    int n = static_cast<int>(rng_.UniformInt(2, 4));
    while (static_cast<int>(r.terms.size()) < n) {
      std::string t = Term(terms_.Draw(&rng_));
      if (std::find(r.terms.begin(), r.terms.end(), t) != r.terms.end()) continue;
      r.terms.push_back(t);
      r.weights.push_back(r.por ? 1.0 : kWeights[rng_.Uniform(4)]);
    }
    int64_t width = rng_.UniformInt(3, 20);
    r.lo = rng_.UniformInt(kLibFirstYear, kLibFirstYear + kLibYears - 1 - width);
    r.hi = r.lo + width;
    std::string key = r.Text();
    for (size_t i = 0; i < r.terms.size(); ++i) {
      key += mirror::base::StrFormat("|%s:%g", r.terms[i].c_str(), r.weights[i]);
    }
    if (seen_.insert(key).second) return r;
  }
}

std::vector<BrowseRequest> HotPool(uint64_t seed, const Sizes& sizes) {
  mirror::base::Rng rng(seed * 7919 + 5);
  std::vector<BrowseRequest> pool;
  std::set<std::string> keys;
  while (static_cast<int>(pool.size()) < sizes.hot_pool) {
    // The width (and so the reply size) of each popularity rank is the
    // same for every seed; the seed picks genre and window position.
    BrowseRequest r;
    int64_t rank = static_cast<int64_t>(pool.size());
    r.facet = rank % 4 == 3;
    r.genre = rng.UniformInt(0, sizes.genres - 1);
    int64_t width = 40 + rank * 17 % 41;
    r.lo = rng.UniformInt(kCatFirstYear, kCatLastYear - width);
    r.hi = r.lo + width;
    if (keys.insert(r.Key()).second) pool.push_back(r);
  }
  return pool;
}

BrowseStream::BrowseStream(uint64_t seed, const Sizes& sizes,
                           const std::vector<BrowseRequest>* pool,
                           int fresh_tag)
    : rng_(seed),
      pool_(pool),
      pick_(pool->size(), 1.0),
      fresh_share_(sizes.fresh_share),
      fresh_tag_(fresh_tag),
      genres_(sizes.genres),
      fresh_offset_(static_cast<int64_t>(rng_.Uniform(sizes.genres * 5))) {}

BrowseRequest BrowseStream::Next(bool* hot) {
  *hot = rng_.UniformDouble() >= fresh_share_;
  if (*hot) return (*pool_)[pick_.Draw(&rng_)];
  // Fresh requests have the pool's shape with windows that no pool entry
  // and no other stream uses: widths 20..39 lie below every pool width and
  // are split between the streams by tag, and the running count walks
  // through (genre, width, start) combinations without repeating one.
  BrowseRequest r;
  r.facet = rng_.Uniform(4) == 3;
  int64_t n = fresh_count_++ + fresh_offset_;
  const int64_t genres = genres_;
  r.genre = n % genres;
  int64_t width = 20 + fresh_tag_ * 5 + (n / genres) % 5;
  int64_t starts = kCatLastYear - width - kCatFirstYear + 1;
  MIRROR_CHECK(n / (genres * 5) < starts) << "fresh browse requests exhausted";
  r.lo = kCatFirstYear + (n / (genres * 5)) * 37 % starts;  // 37 is prime to starts
  r.hi = r.lo + width;
  return r;
}

CatModel::CatModel(const std::vector<CatRow>& base, int genres)
    : genres_(genres), base_rows_(base.size()) {
  rows_.reserve(base.size() + 4096);
  for (const CatRow& v : base) rows_.push_back(Row{v, 3, 0});
}

std::vector<WriteOp> CatModel::Script(mirror::base::Rng* rng, int rows,
                                      int deletes) {
  static const char* const kCols[] = {"Cat.year", "Cat.rating", "Cat.genre"};
  std::vector<WriteOp> ops;
  int every = deletes > 0 ? std::max(1, rows / deletes) : 0;
  int deleted = 0;
  for (int i = 0; i < rows; ++i) {
    CatRow v;
    v.year = rng->UniformInt(kCatFirstYear, kCatLastYear);
    v.rating = rng->UniformInt(0, 1000);
    v.genre = rng->UniformInt(0, genres_ - 1);
    const int64_t vals[] = {v.year, v.rating, v.genre};
    for (int c = 0; c < 3; ++c) ops.push_back(WriteOp{kCols[c], false, vals[c], 0});
    if (every > 0 && deleted < deletes && (i + 1) % every == 0) {
      uint64_t oid;
      do {
        oid = rng->Uniform(base_rows_);
      } while (!scripted_deletes_.insert(oid).second);
      for (int c = 0; c < 3; ++c) ops.push_back(WriteOp{kCols[c], true, 0, oid});
      ++deleted;
    }
  }
  return ops;
}

void CatModel::Apply(const WriteOp& op) {
  by_genre_.clear();
  int col = op.bat == "Cat.year" ? 0 : op.bat == "Cat.rating" ? 1 : 2;
  if (op.del) {
    MIRROR_CHECK(op.oid < rows_.size());
    rows_[op.oid].dels += 1;
    return;
  }
  size_t idx = base_rows_ + appended_[col]++;
  if (idx >= rows_.size()) rows_.resize(idx + 1);
  Row& row = rows_[idx];
  (col == 0 ? row.v.year : col == 1 ? row.v.rating : row.v.genre) = op.value;
  row.cols += 1;
}

uint64_t CatModel::Answer(const BrowseRequest& r) const {
  if (by_genre_.empty()) {
    by_genre_.resize(genres_);
    for (size_t oid = 0; oid < rows_.size(); ++oid) {
      if (rows_[oid].cols == 3) by_genre_[rows_[oid].v.genre].push_back(oid);
    }
  }
  uint64_t h = 0x84222325cbf29ce4ull;
  int64_t sum = 0;
  for (size_t oid : by_genre_[r.genre]) {
    const Row& row = rows_[oid];
    if (!row.visible() || row.v.year < r.lo || row.v.year > r.hi) continue;
    sum += row.v.rating;
    h = Mix(Mix(h, oid), static_cast<uint64_t>(row.v.rating));
  }
  return r.facet ? Mix(0, static_cast<uint64_t>(sum)) : h;
}

int64_t CatModel::RatingSum() const {
  int64_t sum = 0;
  for (const Row& row : rows_) {
    if (row.visible()) sum += row.v.rating;
  }
  return sum;
}

bool DigestReply(const BrowseRequest& r, bool is_scalar,
                 const mirror::monet::Value& scalar,
                 const mirror::monet::Bat* bat, uint64_t* digest) {
  if (r.facet) {
    if (!is_scalar) return false;
    *digest = Mix(0, static_cast<uint64_t>(std::llround(scalar.AsDouble())));
    return true;
  }
  if (is_scalar || bat == nullptr) return false;
  uint64_t h = 0x84222325cbf29ce4ull;
  for (size_t i = 0; i < bat->size(); ++i) {
    h = Mix(Mix(h, bat->head().OidAt(i)),
            static_cast<uint64_t>(std::llround(bat->tail().NumAt(i))));
  }
  *digest = h;
  return true;
}

std::string CheckRanking(const RankRequest& r, const Corpus& corpus,
                         const mirror::monet::Bat& bat) {
  const auto& years = corpus.lib_year;
  size_t matches = std::upper_bound(years.begin(), years.end(), r.hi) -
                   std::lower_bound(years.begin(), years.end(), r.lo);
  size_t want = std::min<size_t>(kTopK, matches);
  if (bat.size() != want) {
    return mirror::base::StrFormat("%zu rows, want %zu", bat.size(), want);
  }
  for (size_t i = 0; i < bat.size(); ++i) {
    uint64_t oid = bat.head().OidAt(i);
    if (oid >= years.size() || years[oid] < r.lo || years[oid] > r.hi) {
      return mirror::base::StrFormat("oid %llu outside the year window",
                                     static_cast<unsigned long long>(oid));
    }
    if (i == 0) continue;
    double prev = bat.tail().NumAt(i - 1), cur = bat.tail().NumAt(i);
    if (cur > prev) return "scores increase";
    if (cur == prev && oid <= bat.head().OidAt(i - 1)) {
      return "tie not in ascending oid order";
    }
  }
  return "";
}

std::string CompareToOracle(const mirror::monet::Bat& reply,
                            const mirror::monet::Bat& oracle_full) {
  constexpr double kEps = 1e-9;
  std::map<uint64_t, double> score;
  std::vector<std::pair<double, uint64_t>> order;
  for (size_t i = 0; i < oracle_full.size(); ++i) {
    uint64_t oid = oracle_full.head().OidAt(i);
    double v = oracle_full.tail().NumAt(i);
    score[oid] = v;
    order.push_back({-v, oid});  // descending score, ascending oid
  }
  std::sort(order.begin(), order.end());
  size_t want = std::min<size_t>(kTopK, order.size());
  if (reply.size() != want) {
    return mirror::base::StrFormat("%zu rows, oracle has %zu", reply.size(), want);
  }
  for (size_t i = 0; i < reply.size(); ++i) {
    uint64_t oid = reply.head().OidAt(i);
    auto it = score.find(oid);
    if (it == score.end()) return "row outside the oracle's ranking";
    double got = reply.tail().NumAt(i);
    if (std::fabs(got - it->second) > kEps) return "row score differs from the oracle";
    if (std::fabs(got + order[i].first) > kEps) return "rank score differs from the oracle";
    if (oid != order[i].second &&
        std::fabs(it->second - score[order[i].second]) > kEps) {
      return "rank order differs from the oracle";
    }
  }
  return "";
}

}  // namespace perfbench
