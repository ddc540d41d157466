// The serving benchmark: one workload per process against an in-process
// QueryServer on loopback TCP, driven by wire::WireClient connections
// from the same process (at most four). Every answer is checked; the last
// line of standard output is one JSON object with the run's metrics.
//
//   serve_bench --workload rank|browse|mixed --seed N
//               --seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer metrics (see README.md for what each one is and which
// end-to-end metric it should move).

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/str_util.h"
#include "corpus.h"
#include "daemon/query_server.h"
#include "daemon/wire.h"
#include "daemon/wire_client.h"
#include "metrics.h"
#include "mirror/mirror_db.h"
#include "monet/profiler.h"

namespace perfbench {
namespace {

using namespace mirror;  // NOLINT(build/namespaces)
namespace wire = daemon::wire;
using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

double Seconds(Clock::duration d) { return std::chrono::duration<double>(d).count(); }
double Millis(Clock::duration d) { return Seconds(d) * 1e3; }

// ---------------------------------------------------------------------------
// Workload shapes.

struct Shape {
  std::string name;
  int lib_docs = 0;         // served Lib documents
  int readers = 0;          // closed-loop reader connections
  bool rank = false;        // readers send rankings
  bool browse = false;      // readers send browse requests (both: alternate)
  bool writer = false;      // open-loop writer beside the readers
};

std::optional<Shape> ShapeOf(const std::string& name) {
  // rank serves four 8192-row zone blocks of Lib.year, so year windows
  // can prune; the others serve one.
  if (name == "rank") return Shape{name, 32768, 2, true, false, false};
  if (name == "browse") return Shape{name, 8192, 3, false, true, false};
  if (name == "mixed") return Shape{name, 8192, 3, true, true, true};
  return std::nullopt;
}

// Writer pacing and sizes of the fixed-size phases. Writes are always
// timed beside reads: on an idle daemon their latency is the virtual
// disk's fsync time, whose median and tail drift from minute to minute.
constexpr double kWriterRate = 20;        // mixed: writes/s beside the readers
constexpr int kWriterRowsPerDelete = 5;   // one row deleted per 5 appended
constexpr double kCuratorSeconds = 4;     // rank, browse: writes after the timed
constexpr double kCuratorRate = 30;       //   phase, beside the same readers
constexpr int kSetups = 5;                // set-up repetitions (median)
constexpr int kRestartProbes = 3;         // crash + restart per mode (median)
constexpr int kNaiveEvery = 32;           // rank replies re-run on the oracle
constexpr int kNaivePerReader = 8;
constexpr int kTraceEvery = 4;            // traced phase: TRACE fetch period

// ---------------------------------------------------------------------------
// One running service: the database, its files, the daemon and clients.

struct Service {
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<CatModel> model;
  std::vector<BrowseRequest> pool;
  std::unique_ptr<db::MirrorDb> db;
  std::unique_ptr<daemon::QueryServer> server;
  std::vector<std::unique_ptr<wire::WireClient>> readers;
  std::unique_ptr<wire::WireClient> writer;
  std::string ckpt, wal, pristine_wal;
  std::string restart_ckpt;  // see MakeRestartImage
  double flush_s = 0;        // untimed part of the set-up
};

std::unique_ptr<wire::WireClient> Connect(int port, const std::string& name) {
  auto conn = wire::TcpConnect("127.0.0.1", port);
  MIRROR_CHECK(conn.ok()) << conn.status().ToString();
  auto client = std::make_unique<wire::WireClient>(conn.TakeValue());
  auto hello = client->Hello(name);
  MIRROR_CHECK(hello.ok()) << hello.status().ToString();
  return client;
}

void Check(const base::Status& s) { MIRROR_CHECK(s.ok()) << s.ToString(); }

void StopService(Service* s) {
  for (auto& c : s->readers) c->Close().ok();
  s->readers.clear();
  if (s->writer) s->writer->Close().ok();
  s->writer.reset();
  if (s->server) s->server->Shutdown();
  s->server.reset();
  s->db.reset();
}

// ---------------------------------------------------------------------------
// Operation accounting.

struct OpCount {
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

struct Tally {
  std::mutex mu;
  std::map<std::string, OpCount> ops;
  std::vector<std::string> faults;  // first few failure messages

  void Add(const std::string& type, bool ok, const std::string& why = "") {
    std::lock_guard<std::mutex> lock(mu);
    OpCount& c = ops[type];
    c.attempted += 1;
    if (!ok) {
      c.failed += 1;
      if (faults.size() < 8) faults.push_back(type + ": " + why);
    }
  }
  // Marks an already counted operation failed (a check after the fact).
  void Fail(const std::string& type, const std::string& why) {
    std::lock_guard<std::mutex> lock(mu);
    ops[type].failed += 1;
    if (faults.size() < 8) faults.push_back(type + ": " + why);
  }
};

// ---------------------------------------------------------------------------
// Set-up.

void Flush(const std::string& path, bool dir) {
  int fd = ::open(path.c_str(), dir ? O_RDONLY | O_DIRECTORY : O_RDONLY);
  MIRROR_CHECK(fd >= 0 && ::fsync(fd) == 0) << "cannot flush " << path;
  ::close(fd);
}

/// fsyncs every file under `dir`, then the directories.
void FlushTree(const std::string& dir) {
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    Flush(entry.path().string(), entry.is_directory());
  }
  Flush(dir, true);
}

Service SetUp(const Shape& shape, uint64_t seed, const std::string& dir,
              Tally* tally) {
  Service s;
  fs::create_directories(dir);
  s.ckpt = dir + "/ckpt";
  s.wal = dir + "/wal.log";
  s.pristine_wal = dir + "/wal.crash";
  Sizes sizes;
  sizes.lib_docs = shape.lib_docs;
  s.corpus = std::make_unique<Corpus>(seed, sizes);
  s.model = std::make_unique<CatModel>(s.corpus->cat, sizes.genres);
  s.pool = HotPool(seed, sizes);
  s.db = std::make_unique<db::MirrorDb>();
  Check(s.db->Define(
      "define Lib as SET<TUPLE<Atomic<int>: year, CONTREP<Text>: doc>>;"));
  Check(s.db->Load("Lib", s.corpus->LibObjects()));
  Check(s.db->Define(
      "define Cat as SET<TUPLE<Atomic<int>: year, Atomic<int>: rating, "
      "Atomic<int>: genre>>;"));
  Check(s.db->Load("Cat", s.corpus->CatObjects()));
  Check(s.db->AttachWal(s.wal));
  Check(s.db->Checkpoint(s.ckpt));
  // So that later fsyncs of the WAL do not write the checkpoint. This is
  // the benchmark's own step, and it follows the virtual disk's drift,
  // so it is left out of setup_s.
  auto flush0 = Clock::now();
  FlushTree(s.ckpt);
  s.flush_s = Seconds(Clock::now() - flush0);
  s.server = std::make_unique<daemon::QueryServer>(s.db.get());
  auto port = s.server->ListenTcp(0);
  Check(port.status());
  for (int i = 0; i < shape.readers; ++i) {
    s.readers.push_back(Connect(port.value(), "reader" + std::to_string(i)));
  }
  s.writer = Connect(port.value(), "writer");
  // Warm-up: every hot browse request twice (the recycler admits on
  // repeat), and two rankings per reader so each session's pool exists.
  if (shape.browse) {
    for (int rep = 0; rep < 2; ++rep) {
      for (const BrowseRequest& r : s.pool) {
        auto reply = s.readers[0]->Query(r.Text(), moa::QueryContext());
        uint64_t digest = 0;
        bool ok = reply.ok() &&
                  DigestReply(r, reply.value().is_scalar, reply.value().scalar,
                              reply.value().bat.get(), &digest) &&
                  digest == s.model->Answer(r);
        tally->Add("warmup", ok, reply.ok() ? "browse answer differs" : reply.status().ToString());
      }
    }
  }
  if (shape.rank) {
    RankStream warm(seed * 977 + 3, sizes);
    for (auto& c : s.readers) {
      for (int rep = 0; rep < 2; ++rep) {
        RankRequest r = warm.Next();
        auto reply = c->Query(r.Text(), r.Bindings());
        bool ok = reply.ok() && !reply.value().is_scalar &&
                  CheckRanking(r, *s.corpus, *reply.value().bat).empty();
        tally->Add("warmup", ok, "ranking");
      }
    }
  }
  return s;
}

/// The image every restart recovers: a checkpoint of Cat and of
/// restart_lib_docs Lib documents spread over the served ones, taken
/// before any write, so the served database's WAL replays onto it.
/// Restoring a Lib is quadratic in its documents (about 1 s at 8k, 17 s
/// at 32k), so on rank the image keeps every 4th document to make six
/// restarts a run affordable; elsewhere it holds the served Lib.
void MakeRestartImage(Service* s, const std::string& dir) {
  s->restart_ckpt = dir;
  const Sizes& sizes = s->corpus->sizes;
  db::MirrorDb image;
  Check(image.Define(
      "define Lib as SET<TUPLE<Atomic<int>: year, CONTREP<Text>: doc>>;"));
  Check(image.Load("Lib", s->corpus->LibObjects(sizes.lib_docs / sizes.restart_lib_docs)));
  Check(image.Define(
      "define Cat as SET<TUPLE<Atomic<int>: year, Atomic<int>: rating, "
      "Atomic<int>: genre>>;"));
  Check(image.Load("Cat", s->corpus->CatObjects()));
  Check(image.Checkpoint(dir));
  FlushTree(dir);
}

// ---------------------------------------------------------------------------
// Readers.

struct RankSample {
  RankRequest request;
  monet::BatPtr reply;
};

struct BrowseSeen {
  BrowseRequest request;
  uint64_t digest = 0;
};

/// What one reader thread saw during one phase.
struct ReaderLog {
  std::vector<double> latency_ms;
  std::vector<double> done_s;  // completion time of each read, from phase start
  uint64_t hot_browse = 0;
  uint64_t reads = 0;
  std::vector<RankSample> naive_samples;
  std::vector<BrowseSeen> browse;
  std::vector<RankRequest> rank_requests;  // first few, for off-path timing
  // Traced phases: engine time per opcode over the fetched TRACE tables.
  std::map<std::string, double> op_ms;
  uint64_t traced_reads = 0;
};

struct ReaderPlan {
  const Shape* shape;
  int index;
  bool traced;
  SpanLog* spans;  // traced phases only
  Clock::time_point start;  // of the phase
};

/// Closed-loop reader: sends until `deadline`. Rank replies are
/// property-checked inline; browse replies are digested for the model
/// comparison after the phase.
void RunReader(wire::WireClient* client, const ReaderPlan& plan,
               const Service& s, RankStream* ranks, BrowseStream* browses,
               Clock::time_point deadline, Tally* tally, ReaderLog* log) {
  const Shape& shape = *plan.shape;
  if (plan.traced) MIRROR_CHECK(client->Set({{"exec.trace", 1}}).ok());
  uint64_t i = 0;
  uint64_t last_trace_seq = 0;
  Clock::time_point t0;
  for (;; ++i) {
    if (Clock::now() >= deadline) break;
    bool do_rank = shape.rank && (!shape.browse || (i + plan.index) % 2 == 0);
    uint64_t req_id = plan.spans ? plan.spans->NextId() : 0;
    if (do_rank) {
      RankRequest r = ranks->Next();
      std::string text = r.Text();
      moa::QueryContext ctx = r.Bindings();
      t0 = Clock::now();
      auto reply = client->Query(text, ctx);
      auto t1 = Clock::now();
      std::string why;
      if (!reply.ok()) {
        why = reply.status().ToString();
      } else if (reply.value().is_scalar) {
        why = "scalar ranking";
      } else {
        why = CheckRanking(r, *s.corpus, *reply.value().bat);
      }
      tally->Add("rank", why.empty(), why);
      log->latency_ms.push_back(Millis(t1 - t0));
      log->done_s.push_back(Seconds(t1 - plan.start));
      if (plan.spans) plan.spans->Add(req_id, "client.rank", plan.index, t0, t1);
      if (why.empty() && log->rank_requests.size() < 24) log->rank_requests.push_back(r);
      if (why.empty() && log->reads % kNaiveEvery == 0 &&
          static_cast<int>(log->naive_samples.size()) < kNaivePerReader) {
        log->naive_samples.push_back({r, reply.value().bat});
      }
    } else {
      bool hot = false;
      BrowseRequest r = browses->Next(&hot);
      t0 = Clock::now();
      auto reply = client->Query(r.Text(), moa::QueryContext());
      auto t1 = Clock::now();
      uint64_t digest = 0;
      bool ok = reply.ok() &&
                DigestReply(r, reply.value().is_scalar, reply.value().scalar,
                            reply.value().bat.get(), &digest);
      tally->Add("browse", ok, reply.ok() ? "reply shape" : reply.status().ToString());
      log->latency_ms.push_back(Millis(t1 - t0));
      log->done_s.push_back(Seconds(t1 - plan.start));
      if (plan.spans) plan.spans->Add(req_id, "client.browse", plan.index, t0, t1);
      if (ok) log->browse.push_back({r, digest});
      log->hot_browse += hot ? 1 : 0;
    }
    log->reads += 1;
    if (plan.traced && i % kTraceEvery == 0) {
      auto trace = client->Trace();
      // A recycler hit runs no engine and leaves the session's previous
      // trace in place: it counts as a traced read with no engine time.
      if (trace.ok()) {
        log->traced_reads += 1;
        if (trace.value().query_seq != last_trace_seq) {
          last_trace_seq = trace.value().query_seq;
          AddTraceTable(trace.value(), req_id, plan.index, t0, plan.spans,
                        &log->op_ms);
        }
      }
    }
  }
  if (plan.traced) MIRROR_CHECK(client->Set({{"exec.trace", 0}}).ok());
}

// ---------------------------------------------------------------------------
// The open-loop writer.

struct WriterLog {
  std::vector<double> latency_ms;   // ack time - due time
  std::vector<double> lateness_ms;  // send time - due time
  uint64_t user_bytes = 0;
};

/// Sends `ops` at `rate` per second, each timed from its due time, until
/// the ops run out or `deadline` passes (nullopt: send all). Acknowledged
/// writes are applied to `model` when it is non-null.
void RunWriter(wire::WireClient* client, const std::vector<WriteOp>& ops,
               double rate, std::optional<Clock::time_point> deadline,
               CatModel* model, Tally* tally, WriterLog* log) {
  auto start = Clock::now();
  for (size_t k = 0; k < ops.size(); ++k) {
    auto due = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(k / rate));
    if (deadline && due >= *deadline) break;
    std::this_thread::sleep_until(due);
    auto sent = Clock::now();
    const WriteOp& op = ops[k];
    bool ok = op.del ? client->Delete(op.bat, {op.oid}).ok()
                     : client->Append(op.bat, monet::Column::MakeInts({op.value})).ok();
    auto acked = Clock::now();
    tally->Add(op.del ? "delete" : "append", ok, "write refused");
    log->latency_ms.push_back(Millis(acked - due));
    log->lateness_ms.push_back(Millis(sent - due));
    log->user_bytes += 8;
    if (ok && model) model->Apply(op);
  }
}

// ---------------------------------------------------------------------------
// Restart.

/// Re-evaluates `r` with the naive evaluator (untruncated) and compares.
std::string OracleCheck(const db::MirrorDb& database, const RankRequest& r,
                        const wire::ResultReply& reply) {
  db::QueryOptions naive;
  naive.flattened = false;
  auto oracle = database.Query(r.UntruncatedText(), r.Bindings(), naive);
  if (!oracle.ok()) return "oracle: " + oracle.status().ToString();
  if (reply.is_scalar || !reply.bat || oracle.value().is_scalar) return "scalar ranking";
  return CompareToOracle(*reply.bat, *oracle.value().bat);
}

struct Restarted {
  std::unique_ptr<db::MirrorDb> db;
  std::unique_ptr<daemon::QueryServer> server;
  std::unique_ptr<wire::WireClient> client;
  double recover_call_s = 0;
  double first_query_s = 0;
  double ttfr_s = 0;
  db::RecoveryStats stats;
};

/// Puts the WAL back as it was at the crash, flushed to disk as the
/// crashed process left it, so no write after the restart pays for the
/// copy's dirty pages.
void RestoreCrashWal(const Service& s) {
  fs::copy_file(s.pristine_wal, s.wal, fs::copy_options::overwrite_existing);
  Flush(s.wal, false);
}

/// Recovers the crash image (checkpoint + the WAL as it was at the
/// crash) in `mode`, opens a daemon on it and times the first answer,
/// which must equal the model. One ranking must equal the oracle's.
Restarted Restart(const Service& s, db::RecoveryMode mode, uint64_t seed,
                  Tally* tally) {
  Restarted r;
  RestoreCrashWal(s);
  const char* type = mode == db::RecoveryMode::kFull ? "recover_full" : "recover_lazy";
  auto t0 = Clock::now();
  r.db = std::make_unique<db::MirrorDb>();
  base::Status st = r.db->Recover(s.restart_ckpt, s.wal, mode);
  auto t1 = Clock::now();
  MIRROR_CHECK(st.ok()) << st.ToString();
  r.server = std::make_unique<daemon::QueryServer>(r.db.get());
  auto port = r.server->ListenTcp(0);
  Check(port.status());
  r.client = Connect(port.value(), "restarted");
  auto first = r.client->Query(
      "sum(map[THIS.rating](select[THIS.year >= 1900](Cat)));", moa::QueryContext());
  auto t2 = Clock::now();
  bool ok = first.ok() && first.value().is_scalar &&
            std::llround(first.value().scalar.AsDouble()) == s.model->RatingSum();
  tally->Add(type, ok, first.ok() ? "first answer differs from the model"
                                  : first.status().ToString());
  r.recover_call_s = Seconds(t1 - t0);
  r.first_query_s = Seconds(t2 - t1);
  r.ttfr_s = Seconds(t2 - t0);
  r.stats = r.db->recovery_stats();
  // One ranking over the wire must equal the naive evaluator's.
  RankStream probe(seed * 389 + 11, s.corpus->sizes);
  RankRequest q = probe.Next();
  auto wired = r.client->Query(q.Text(), q.Bindings());
  std::string why = wired.ok() ? OracleCheck(*r.db, q, wired.value())
                               : wired.status().ToString();
  tally->Add("restart_ranking", why.empty(), "after recovery: " + why);
  return r;
}

// ---------------------------------------------------------------------------
// Checks after a phase.

void CheckNaive(const db::MirrorDb& database, const std::vector<RankSample>& samples,
                Tally* tally) {
  for (const RankSample& sample : samples) {
    wire::ResultReply reply;
    reply.bat = sample.reply;
    std::string why = OracleCheck(database, sample.request, reply);
    tally->Add("rank_oracle", why.empty(), why);
  }
}

/// Compares every browse answer against the model (memoized per request).
void CheckBrowse(const CatModel& model, const std::vector<BrowseSeen>& seen,
                 Tally* tally) {
  std::map<std::string, uint64_t> want;
  for (const BrowseSeen& b : seen) {
    auto [it, inserted] = want.emplace(b.request.Key(), 0);
    if (inserted) it->second = model.Answer(b.request);
    if (it->second != b.digest) tally->Fail("browse", "answer differs from the model");
  }
}

// ---------------------------------------------------------------------------
// Process probes.

double CpuSeconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_utime.tv_sec + u.ru_stime.tv_sec +
         (u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

uint64_t ContextSwitches() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<uint64_t>(u.ru_nvcsw + u.ru_nivcsw);
}

double PeakRssMb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return u.ru_maxrss / 1024.0;
}

int ThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::atoi(line.c_str() + 8);
  }
  return 0;
}

/// Samples the process thread count every 20 ms while alive.
class ThreadSampler {
 public:
  ThreadSampler() : thread_([this] {
      while (!stop_.load()) {
        int n = ThreadCount();
        int cur = peak_.load();
        while (n > cur && !peak_.compare_exchange_weak(cur, n)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }) {}
  ~ThreadSampler() {
    stop_.store(true);
    thread_.join();
  }
  ThreadSampler(const ThreadSampler&) = delete;
  ThreadSampler& operator=(const ThreadSampler&) = delete;
  int peak() const { return peak_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> peak_{0};
  std::thread thread_;
};

// ---------------------------------------------------------------------------
// Phases of the serving workloads (rank, browse, mixed).

struct PhaseResult {
  std::vector<double> read_ms;
  std::vector<double> read_done_s;  // completion times, aligned with read_ms
  uint64_t reads = 0;
  uint64_t hot_browse = 0;
  double elapsed_s = 0;
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
  WriterLog writes;
  uint64_t wal_bytes = 0;
  std::vector<RankSample> naive_samples;
  std::vector<BrowseSeen> browse;
  std::vector<RankRequest> rank_requests;
  std::map<std::string, double> op_ms;
  uint64_t traced_reads = 0;
  wire::ServerWireStats before, after;
  monet::KernelStats kernel;  // delta over the phase
  std::vector<wire::SessionStatsEntry> sessions_before, sessions_after;
};

uint64_t WalSize(const std::string& path) {
  std::error_code ec;
  uint64_t n = fs::file_size(path, ec);
  return ec ? 0 : n;
}

/// Runs the readers of `s` closed-loop for `seconds`, and beside them the
/// writer at `write_rate` per second (0: no writer) from `*writes` at
/// `*write_pos`.
PhaseResult RunPhase(const Shape& shape, Service* s, double seconds, bool traced,
                     double write_rate,
                     std::vector<std::unique_ptr<RankStream>>* ranks,
                     std::vector<std::unique_ptr<BrowseStream>>* browses,
                     std::vector<WriteOp>* writes, size_t* write_pos,
                     SpanLog* spans, Tally* tally) {
  PhaseResult out;
  out.before = s->server->stats();
  out.sessions_before = s->server->session_stats();
  monet::KernelStats k0 = monet::SnapshotKernelStats();
  uint64_t wal0 = WalSize(s->wal);
  double cpu0 = CpuSeconds();
  uint64_t cs0 = ContextSwitches();
  auto start = Clock::now();
  auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(seconds));
  std::vector<ReaderLog> logs(s->readers.size());
  std::vector<std::thread> threads;
  for (size_t i = 0; i < s->readers.size(); ++i) {
    threads.emplace_back([&, i] {
      ReaderPlan plan{&shape, static_cast<int>(i), traced, spans, start};
      RunReader(s->readers[i].get(), plan, *s, (*ranks)[i].get(), (*browses)[i].get(),
                deadline, tally, &logs[i]);
    });
  }
  if (write_rate > 0) {
    std::vector<WriteOp> slice(writes->begin() + *write_pos, writes->end());
    RunWriter(s->writer.get(), slice, write_rate, deadline, s->model.get(), tally,
              &out.writes);
    *write_pos += out.writes.latency_ms.size();
  }
  for (std::thread& t : threads) t.join();
  out.elapsed_s = Seconds(Clock::now() - start);
  out.cpu_s = CpuSeconds() - cpu0;
  out.ctx_switches = ContextSwitches() - cs0;
  out.wal_bytes = WalSize(s->wal) - wal0;
  out.kernel = KernelDelta(k0, monet::SnapshotKernelStats());
  out.after = s->server->stats();
  out.sessions_after = s->server->session_stats();
  for (ReaderLog& log : logs) {
    out.read_ms.insert(out.read_ms.end(), log.latency_ms.begin(), log.latency_ms.end());
    out.read_done_s.insert(out.read_done_s.end(), log.done_s.begin(), log.done_s.end());
    out.reads += log.reads;
    out.hot_browse += log.hot_browse;
    out.naive_samples.insert(out.naive_samples.end(), log.naive_samples.begin(),
                             log.naive_samples.end());
    out.browse.insert(out.browse.end(), log.browse.begin(), log.browse.end());
    out.rank_requests.insert(out.rank_requests.end(), log.rank_requests.begin(),
                             log.rank_requests.end());
    for (const auto& [op, ms] : log.op_ms) out.op_ms[op] += ms;
    out.traced_reads += log.traced_reads;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Per-layer figures.

/// Off the timed path: times the layer entry points on the run's own
/// requests — the wire codec, Moa prepare (no session, so no plan cache)
/// and the engine on the prepared plan (recycler off, so it really runs).
void TimeLayerCalls(const db::MirrorDb& database,
                    const std::vector<RankRequest>& ranks,
                    const std::vector<BrowseRequest>& browses, SpanLog* spans,
                    MetricSet* layer) {
  struct Item {
    std::string text;
    moa::QueryContext ctx;
  };
  std::vector<Item> items;
  for (const RankRequest& r : ranks) items.push_back({r.Text(), r.Bindings()});
  for (const BrowseRequest& b : browses) items.push_back({b.Text(), moa::QueryContext()});
  std::vector<double> encode_us, decode_us, prepare_ms, execute_ms, instrs;
  db::QueryOptions options;
  options.exec.recycle = false;
  for (const Item& item : items) {
    uint64_t id = spans->NextId();
    constexpr int kCodecReps = 50;
    auto t0 = Clock::now();
    size_t bytes = 0;
    for (int i = 0; i < kCodecReps; ++i) {
      bytes += wire::EncodeQueryRequest({item.text, item.ctx}).size();
    }
    auto t1 = Clock::now();
    MIRROR_CHECK(bytes > 0);
    encode_us.push_back(Millis(t1 - t0) * 1e3 / kCodecReps);
    spans->Add(id, "wire.encode_query x50", 0, t0, t1);
    auto prepared = database.Prepare(item.text, item.ctx, options);
    auto t2 = Clock::now();
    MIRROR_CHECK(prepared.ok()) << prepared.status().ToString();
    prepare_ms.push_back(Millis(t2 - t1));
    spans->Add(id, "moa.prepare", 0, t1, t2);
    instrs.push_back(static_cast<double>(prepared.value().program.instrs().size()));
    auto result = database.ExecuteProgram(prepared.value().program, options);
    auto t3 = Clock::now();
    MIRROR_CHECK(result.ok()) << result.status().ToString();
    execute_ms.push_back(Millis(t3 - t2));
    spans->Add(id, "monet.execute", 0, t2, t3);
    std::vector<uint8_t> encoded = wire::EncodeResultReply(result.value());
    auto t4 = Clock::now();
    for (int i = 0; i < kCodecReps; ++i) {
      MIRROR_CHECK(wire::DecodeResultReply(encoded).ok());
    }
    auto t5 = Clock::now();
    decode_us.push_back(Millis(t5 - t4) * 1e3 / kCodecReps);
    spans->Add(id, "wire.decode_result x50", 0, t4, t5);
  }
  layer->Set("wire.encode_query_us", Quantile(encode_us, 0.5), "us");
  layer->Set("wire.decode_result_us", Quantile(decode_us, 0.5), "us");
  layer->Set("moa.prepare_ms", Quantile(prepare_ms, 0.5), "ms");
  layer->Set("moa.mil_instrs_per_plan", Quantile(instrs, 0.5), "count");
  layer->Set("monet.execute_ms", Quantile(execute_ms, 0.5), "ms");
}

/// Daemon, recycler, plan-cache and kernel figures of one untraced phase.
void PhaseLayers(const PhaseResult& p, MetricSet* layer) {
  const wire::ServerWireStats& a = p.before;
  const wire::ServerWireStats& b = p.after;
  double reads = std::max<double>(1, p.reads);
  layer->Set("daemon.queue_wait_p50_ms", HistP50Ms(b.latency_query.queue_wait), "ms");
  layer->Set("daemon.server_exec_p50_ms", HistP50Ms(b.latency_query.exec), "ms");
  layer->Set("daemon.outside_server_ms",
             Quantile(p.read_ms, 0.5) - HistP50Ms(b.latency_query.total), "ms");
  layer->Set("daemon.bytes_out_per_read", (b.bytes_out - a.bytes_out) / reads, "B");
  layer->Set("daemon.coalesced_per_kread",
             (b.coalesced_requests - a.coalesced_requests) * 1000.0 / reads, "count");
  uint64_t hits = b.result_cache_hits - a.result_cache_hits;
  uint64_t misses = b.result_cache_misses - a.result_cache_misses;
  layer->Set("recycler.result_hit_share",
             hits + misses ? static_cast<double>(hits) / (hits + misses) : 0, "share");
  layer->Set("recycler.intended_hit_share", p.hot_browse / reads, "share");
  uint64_t cand = (b.candidate_cache_hits - a.candidate_cache_hits) +
                  (b.candidate_subsumption_hits - a.candidate_subsumption_hits);
  layer->Set("recycler.candidate_hits_per_miss",
             misses ? static_cast<double>(cand) / misses : 0, "count");
  layer->Set("recycler.bytes_held_mb", b.recycler_bytes_held / 1048576.0, "MiB");
  layer->Set("recycler.evictions",
             static_cast<double>(b.recycler_evictions - a.recycler_evictions), "count");
  uint64_t lookups = 0, plan_hits = 0;
  for (const auto& s : p.sessions_after) {
    lookups += s.plan_cache_lookups;
    plan_hits += s.plan_cache_hits;
  }
  for (const auto& s : p.sessions_before) {
    lookups -= s.plan_cache_lookups;
    plan_hits -= s.plan_cache_hits;
  }
  layer->Set("moa.plan_cache_hit_share",
             lookups ? static_cast<double>(plan_hits) / lookups : 0, "share");
  const monet::KernelStats& k = p.kernel;
  layer->Set("monet.tuples_in_per_read", k.tuples_in / reads, "count");
  layer->Set("monet.materializations_per_read", k.materializations / reads, "count");
  layer->Set("monet.morsel_tasks_per_read", k.morsel_tasks / reads, "count");
  layer->Set("monet.zone_blocks_skipped_per_read", k.zone_blocks_skipped / reads, "count");
  layer->Set("monet.topk_pruned_per_read",
             (k.topk_morsels_pruned + k.topk_shards_pruned) / reads, "count");
  layer->Set("proc.ctx_switches_per_read", p.ctx_switches / reads, "count");
}

void AppendLayers(const wire::ServerWireStats& stats, MetricSet* layer) {
  layer->Set("daemon.append_queue_wait_p50_ms",
             HistP50Ms(stats.latency_append.queue_wait), "ms");
  layer->Set("daemon.append_exec_p50_ms", HistP50Ms(stats.latency_append.exec), "ms");
}

/// The opcodes that cover over 90% of engine time on every workload; the
/// rest are folded into monet.op.other_ms.
const std::vector<std::string>& TracedOpcodes() {
  static const std::vector<std::string> k = {
      "semijoin", "semijoin.tail", "select.cmp", "join", "sum.per.head", "load",
      "scalar.sum"};
  return k;
}

/// Engine milliseconds per traced read, per opcode, from the TRACE tables.
void OpcodeLayers(const std::map<std::string, double>& op_ms, uint64_t traced_reads,
                  MetricSet* layer) {
  double n = std::max<double>(1, traced_reads);
  double other = 0;
  for (const auto& [op, ms] : op_ms) other += ms;
  for (const std::string& op : TracedOpcodes()) {
    auto it = op_ms.find(op);
    double ms = it == op_ms.end() ? 0 : it->second;
    layer->Set("monet.op." + op + "_ms", ms / n, "ms");
    other -= ms;
  }
  layer->Set("monet.op.other_ms", std::max(0.0, other) / n, "ms");  // rounding
}

// ---------------------------------------------------------------------------
// Run-wide results.

constexpr int kWindows = 5;  // per timed phase

struct RunFigures {
  std::vector<double> setup_s;
  std::vector<double> read_ms;      // every timed read
  uint64_t reads = 0;
  double read_cpu_s = 0;            // process CPU over the timed reads
  // Read figures per window of the timed reads: the end-to-end read
  // metrics are their medians, so a host hiccup that slows one window
  // does not move them.
  std::vector<double> win_p50_ms, win_p90_ms, win_reads_per_s;
  std::vector<double> write_ms;
  std::vector<double> write_lateness_ms;
  std::vector<double> ttfr_s, recover_full_s;
  std::vector<double> recover_call_full_s, recover_call_lazy_s;
  std::vector<double> first_query_full_s, first_query_lazy_s;
  uint64_t wal_replayed = 0, lazy_loads = 0;
  std::vector<RankSample> naive_pending;  // rank replies for the oracle
  double hot_share = 0;             // intended hit share (hot browse / reads)
  double hit_share = 0;             // achieved result-cache hit share
};

/// Splits the phase's reads by completion time into kWindows equal
/// windows and records each window's p50, p90 and throughput.
void AddWindows(const PhaseResult& p, RunFigures* f) {
  double width = p.elapsed_s / kWindows;
  for (int w = 0; w < kWindows; ++w) {
    std::vector<double> ms;
    for (size_t i = 0; i < p.read_ms.size(); ++i) {
      if (static_cast<int>(p.read_done_s[i] / width) == w ||
          (w == kWindows - 1 && p.read_done_s[i] >= kWindows * width)) {
        ms.push_back(p.read_ms[i]);
      }
    }
    if (ms.empty()) continue;
    f->win_p50_ms.push_back(Quantile(ms, 0.5));
    f->win_p90_ms.push_back(Quantile(ms, 0.9));
    f->win_reads_per_s.push_back(ms.size() / width);
  }
}

void RecordRestart(const Restarted& r, db::RecoveryMode mode, RunFigures* f) {
  if (mode == db::RecoveryMode::kFull) {
    f->recover_full_s.push_back(r.ttfr_s);
    f->recover_call_full_s.push_back(r.recover_call_s);
    f->first_query_full_s.push_back(r.first_query_s);
    f->wal_replayed = r.stats.wal_replayed_records;
  } else {
    f->ttfr_s.push_back(r.ttfr_s);
    f->recover_call_lazy_s.push_back(r.recover_call_s);
    f->first_query_lazy_s.push_back(r.first_query_s);
    f->lazy_loads = r.stats.recovery_lazy_loads;
  }
}

void StopRestarted(Restarted* r) {
  r->client->Close().ok();
  r->server->Shutdown();
  r->server.reset();
  r->db.reset();
}

double HitShare(const wire::ServerWireStats& a, const wire::ServerWireStats& b) {
  uint64_t hits = b.result_cache_hits - a.result_cache_hits;
  uint64_t misses = b.result_cache_misses - a.result_cache_misses;
  return hits + misses ? static_cast<double>(hits) / (hits + misses) : 0;
}

/// Times EnsureZones() right after one more row is appended over the wire:
/// the derived-cache rebuild every write forces on the next reader.
double ZoneRebuildMs(wire::WireClient* client, db::MirrorDb* database,
                     CatModel* model, base::Rng* rng, Tally* tally) {
  double ms = 0;
  for (const WriteOp& op : model->Script(rng, 1, 0)) {
    bool ok = client->Append(op.bat, monet::Column::MakeInts({op.value})).ok();
    tally->Add("append", ok, "write refused");
    if (ok) model->Apply(op);
    auto t0 = Clock::now();
    database->catalog()->EnsureZones();
    ms = Millis(Clock::now() - t0);
  }
  return ms;
}

// ---------------------------------------------------------------------------
// rank, browse, mixed.

void RunServing(const Shape& shape, uint64_t seed, double seconds, bool traced,
                Service* s, SpanLog* spans, Tally* tally, RunFigures* f,
                MetricSet* layer) {
  std::vector<std::unique_ptr<RankStream>> ranks;
  std::vector<std::unique_ptr<BrowseStream>> browses;
  for (size_t i = 0; i < s->readers.size(); ++i) {
    ranks.push_back(std::make_unique<RankStream>(seed * 1009 + 31 * i, s->corpus->sizes));
    browses.push_back(std::make_unique<BrowseStream>(seed * 2003 + 17 * i, s->corpus->sizes,
                                                     &s->pool, static_cast<int>(i)));
  }
  base::Rng write_rng(seed * 4099 + 1);
  // Enough scripted writes for every phase with the writer.
  const double writer_rate = shape.writer ? kWriterRate : 0;
  int rows = static_cast<int>((shape.writer ? seconds * kWriterRate
                                            : kCuratorSeconds * kCuratorRate) / 3) + 16;
  std::vector<WriteOp> writes =
      s->model->Script(&write_rng, rows, rows / kWriterRowsPerDelete);
  size_t write_pos = 0;

  PhaseResult timed;
  std::vector<BrowseSeen> unchecked_browse;  // traced-phase answers beside writes
  if (!traced) {
    timed = RunPhase(shape, s, seconds, false, writer_rate, &ranks, &browses,
                     &writes, &write_pos, nullptr, tally);
  } else {
    // Traced run: [mixed only: reads without the writer], an untraced
    // half whose STATS and counters give the layer figures, and a traced
    // half (engine TRACE + benchmark spans) for the opcode breakdown and
    // the tracing overhead.
    if (shape.writer) {
      PhaseResult quiet = RunPhase(shape, s, seconds / 2, false, 0, &ranks,
                                   &browses, &writes, &write_pos, nullptr, tally);
      layer->Set("writes.quiet_read_p50_ms", Quantile(quiet.read_ms, 0.5), "ms");
      layer->Set("writes.quiet_reads_per_s", quiet.reads / quiet.elapsed_s, "1/s");
      f->naive_pending.insert(f->naive_pending.end(), quiet.naive_samples.begin(),
                              quiet.naive_samples.end());
      CheckBrowse(*s->model, quiet.browse, tally);  // no write has run yet
    }
    MIRROR_CHECK(s->readers[0]->Stats(/*reset=*/true).ok());
    timed = RunPhase(shape, s, seconds / 2, false, writer_rate, &ranks, &browses,
                     &writes, &write_pos, nullptr, tally);
    PhaseLayers(timed, layer);
    if (shape.writer) {
      AppendLayers(timed.after, layer);
      layer->Set("writes.busy_reads_per_s", timed.reads / timed.elapsed_s, "1/s");
    }
    PhaseResult t = RunPhase(shape, s, seconds / 2, true, writer_rate, &ranks,
                             &browses, &writes, &write_pos, spans, tally);
    OpcodeLayers(t.op_ms, t.traced_reads, layer);
    layer->Set("trace.read_p50_ms", Quantile(t.read_ms, 0.5), "ms");
    layer->Set("trace.untraced_read_p50_ms", Quantile(timed.read_ms, 0.5), "ms");
    layer->Set("trace.overhead_ratio",
               Quantile(t.read_ms, 0.5) / std::max(1e-9, Quantile(timed.read_ms, 0.5)),
               "ratio");
    f->naive_pending.insert(f->naive_pending.end(), t.naive_samples.begin(),
                            t.naive_samples.end());
    if (!shape.writer) {
      CheckBrowse(*s->model, t.browse, tally);
    } else {
      unchecked_browse = std::move(t.browse);
    }
    std::vector<BrowseRequest> sample;
    for (const BrowseSeen& b : timed.browse) {
      if (sample.size() < 24) sample.push_back(b.request);
    }
    std::vector<RankRequest> rsample(timed.rank_requests.begin(),
                                     timed.rank_requests.begin() +
                                         std::min<size_t>(24, timed.rank_requests.size()));
    TimeLayerCalls(*s->db, rsample, sample, spans, layer);
    layer->Set("wal.bytes_per_user_byte",
               timed.writes.user_bytes ? static_cast<double>(timed.wal_bytes) /
                                             timed.writes.user_bytes
                                       : 0,
               "ratio");
  }
  f->read_ms = timed.read_ms;
  f->reads = timed.reads;
  f->read_cpu_s = timed.cpu_s;
  AddWindows(timed, f);
  f->hot_share = timed.hot_browse / std::max<double>(1, timed.reads);
  f->hit_share = HitShare(timed.before, timed.after);
  f->naive_pending.insert(f->naive_pending.end(), timed.naive_samples.begin(),
                          timed.naive_samples.end());

  // Writes are timed beside reads: in mixed during the timed phase, in
  // rank and browse in a curator phase after it, beside the same readers.
  std::vector<BrowseSeen> beside_writes = std::move(unchecked_browse);
  if (!shape.writer) {
    CheckBrowse(*s->model, timed.browse, tally);  // no write has run yet
    PhaseResult curators = RunPhase(shape, s, kCuratorSeconds, false, kCuratorRate,
                                    &ranks, &browses, &writes, &write_pos, nullptr, tally);
    f->write_ms = curators.writes.latency_ms;
    f->write_lateness_ms = curators.writes.lateness_ms;
    f->naive_pending.insert(f->naive_pending.end(), curators.naive_samples.begin(),
                            curators.naive_samples.end());
    beside_writes.insert(beside_writes.end(), curators.browse.begin(),
                         curators.browse.end());
    if (traced) {
      AppendLayers(curators.after, layer);
      layer->Set("wal.bytes_per_user_byte",
                 static_cast<double>(curators.wal_bytes) / curators.writes.user_bytes,
                 "ratio");
    }
  } else {
    f->write_ms = timed.writes.latency_ms;
    f->write_lateness_ms = timed.writes.lateness_ms;
    beside_writes.insert(beside_writes.end(), timed.browse.begin(), timed.browse.end());
  }

  // Checks: rankings against the oracle; browse answers given beside
  // writes are not compared, but every distinct request is sent again
  // once the writes are done and compared with the model.
  CheckNaive(*s->db, f->naive_pending, tally);
  std::map<std::string, BrowseRequest> distinct;
  for (const BrowseSeen& b : beside_writes) distinct.emplace(b.request.Key(), b.request);
  for (const auto& [key, r] : distinct) {
    auto reply = s->readers[0]->Query(r.Text(), moa::QueryContext());
    uint64_t digest = 0;
    bool ok = reply.ok() &&
              DigestReply(r, reply.value().is_scalar, reply.value().scalar,
                          reply.value().bat.get(), &digest) &&
              digest == s->model->Answer(r);
    tally->Add("browse_recheck", ok, "answer after the writes differs from the model");
  }
  if (traced) {
    layer->Set("catalog.zone_rebuild_ms",
               ZoneRebuildMs(s->writer.get(), s->db.get(), s->model.get(), &write_rng,
                             tally),
               "ms");
  }

  // The crash, then both restarts, kRestartProbes times each.
  StopService(s);
  fs::copy_file(s->wal, s->pristine_wal, fs::copy_options::overwrite_existing);
  for (int i = 0; i < kRestartProbes; ++i) {
    for (db::RecoveryMode mode : {db::RecoveryMode::kFull, db::RecoveryMode::kLazy}) {
      Restarted r = Restart(*s, mode, seed, tally);
      RecordRestart(r, mode, f);
      StopRestarted(&r);
    }
  }
}

// ---------------------------------------------------------------------------
// Metric tables and the report.

const std::vector<std::pair<std::string, std::string>>& EndToEnd() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"setup_s", "s"},          {"read_p50_ms", "ms"},    {"read_p90_ms", "ms"},
      {"reads_per_s", "reads/s"}, {"cpu_ms_per_read", "ms"}, {"ttfr_s", "s"},
      {"recover_full_s", "s"},   {"peak_rss_mb", "MiB"}};
  return k;
}

const std::vector<std::pair<std::string, std::string>>& PerLayer() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"daemon.queue_wait_p50_ms", "ms"},
      {"daemon.server_exec_p50_ms", "ms"},
      {"daemon.outside_server_ms", "ms"},
      {"daemon.bytes_out_per_read", "B"},
      {"daemon.coalesced_per_kread", "count"},
      {"daemon.append_queue_wait_p50_ms", "ms"},
      {"daemon.append_exec_p50_ms", "ms"},
      {"wire.encode_query_us", "us"},
      {"wire.decode_result_us", "us"},
      {"moa.prepare_ms", "ms"},
      {"moa.plan_cache_hit_share", "share"},
      {"moa.mil_instrs_per_plan", "count"},
      {"monet.execute_ms", "ms"},
      {"monet.tuples_in_per_read", "count"},
      {"monet.materializations_per_read", "count"},
      {"monet.morsel_tasks_per_read", "count"},
      {"monet.zone_blocks_skipped_per_read", "count"},
      {"monet.topk_pruned_per_read", "count"},
      {"monet.op.semijoin_ms", "ms"},
      {"monet.op.semijoin.tail_ms", "ms"},
      {"monet.op.select.cmp_ms", "ms"},
      {"monet.op.join_ms", "ms"},
      {"monet.op.sum.per.head_ms", "ms"},
      {"monet.op.load_ms", "ms"},
      {"monet.op.scalar.sum_ms", "ms"},
      {"monet.op.other_ms", "ms"},
      {"recycler.result_hit_share", "share"},
      {"recycler.intended_hit_share", "share"},
      {"recycler.candidate_hits_per_miss", "count"},
      {"recycler.bytes_held_mb", "MiB"},
      {"recycler.evictions", "count"},
      {"catalog.zone_rebuild_ms", "ms"},
      {"wal.bytes_per_user_byte", "ratio"},
      {"mirror.recover_call_full_s", "s"},
      {"mirror.recover_call_lazy_s", "s"},
      {"mirror.first_query_full_s", "s"},
      {"mirror.first_query_lazy_s", "s"},
      {"wal.replayed_records", "count"},
      {"mirror.lazy_loads", "count"},
      {"proc.threads_peak", "count"},
      {"proc.ctx_switches_per_read", "count"},
      {"trace.read_p50_ms", "ms"},
      {"trace.untraced_read_p50_ms", "ms"},
      {"trace.overhead_ratio", "ratio"},
      {"writes.quiet_read_p50_ms", "ms"},
      {"writes.quiet_reads_per_s", "1/s"},
      {"writes.busy_reads_per_s", "1/s"},
      {"writes.ack_p50_ms", "ms"},
      {"writes.ack_p90_ms", "ms"},
      {"writer.lateness_p90_ms", "ms"},
  };
  return k;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch = ".bench_build/scratch";
  std::string trace_out;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a.seconds = std::atof(v.c_str());
    else if (k == "--trace") a.trace = v == "1";
    else if (k == "--scratch") a.scratch = v;
    else if (k == "--trace-out") a.trace_out = v;
    else return std::nullopt;
  }
  if (argc % 2 == 0 || a.workload.empty() || a.seconds <= 0) return std::nullopt;
  return a;
}

int Main(int argc, char** argv) {
  std::optional<Args> args = ParseArgs(argc, argv);
  std::optional<Shape> shape = args ? ShapeOf(args->workload) : std::nullopt;
  if (!shape) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload rank|browse|mixed --seed N "
                 "--seconds S --trace 0|1 [--scratch DIR] [--trace-out FILE]\n");
    return 2;
  }
  Tally tally;
  SpanLog spans;
  RunFigures f;
  MetricSet e2e, layer;
  std::string dir = args->scratch + "/" + shape->name;

  // Each set-up gets its own directory: deleting files while a later
  // phase fsyncs would put the deletion's disk work into its timings.
  fs::remove_all(dir);
  Service s;
  for (int k = 0; k < kSetups; ++k) {
    if (k > 0) StopService(&s);
    auto t0 = Clock::now();
    s = SetUp(*shape, args->seed, dir + "/" + std::to_string(k), &tally);
    f.setup_s.push_back(Seconds(Clock::now() - t0) - s.flush_s);
  }
  MakeRestartImage(&s, dir + "/restart");
  {
    ThreadSampler threads;
    RunServing(*shape, args->seed, args->seconds, args->trace, &s, &spans, &tally, &f,
               &layer);
    layer.Set("proc.threads_peak", threads.peak(), "count");
  }
  StopService(&s);
  fs::remove_all(dir);

  double reads = std::max<double>(1, f.reads);
  e2e.Set("setup_s", Quantile(f.setup_s, 0.5), "s");
  e2e.Set("read_p50_ms", Quantile(f.win_p50_ms, 0.5), "ms");
  e2e.Set("read_p90_ms", Quantile(f.win_p90_ms, 0.5), "ms");
  e2e.Set("reads_per_s", Quantile(f.win_reads_per_s, 0.5), "reads/s");
  e2e.Set("cpu_ms_per_read", f.read_cpu_s * 1e3 / reads, "ms");
  e2e.Set("ttfr_s", Quantile(f.ttfr_s, 0.5), "s");
  e2e.Set("recover_full_s", Quantile(f.recover_full_s, 0.5), "s");
  e2e.Set("peak_rss_mb", PeakRssMb(), "MiB");
  layer.Set("mirror.recover_call_full_s", Quantile(f.recover_call_full_s, 0.5), "s");
  layer.Set("mirror.recover_call_lazy_s", Quantile(f.recover_call_lazy_s, 0.5), "s");
  layer.Set("mirror.first_query_full_s", Quantile(f.first_query_full_s, 0.5), "s");
  layer.Set("mirror.first_query_lazy_s", Quantile(f.first_query_lazy_s, 0.5), "s");
  layer.Set("wal.replayed_records", static_cast<double>(f.wal_replayed), "count");
  layer.Set("mirror.lazy_loads", static_cast<double>(f.lazy_loads), "count");
  layer.Set("writes.ack_p50_ms", Quantile(f.write_ms, 0.5), "ms");
  layer.Set("writes.ack_p90_ms", Quantile(f.write_ms, 0.9), "ms");
  layer.Set("writer.lateness_p90_ms", Quantile(f.write_lateness_ms, 0.9), "ms");

  // The report.
  uint64_t attempted = 0, failed = 0;
  std::printf("workload %s  seed %llu  %.0f s  %s\n", shape->name.c_str(),
              static_cast<unsigned long long>(args->seed), args->seconds,
              args->trace ? "traced" : "untraced");
  for (const auto& [type, c] : tally.ops) {
    std::printf("  ops %-20s attempted %8llu  failed %llu\n", type.c_str(),
                static_cast<unsigned long long>(c.attempted),
                static_cast<unsigned long long>(c.failed));
    attempted += c.attempted;
    failed += c.failed;
  }
  for (const std::string& why : tally.faults) std::printf("  FAILED %s\n", why.c_str());
  std::printf("  reads: %zu samples  p50 %.3f  p90 %.3f  p99 %.3f ms (all reads; p99 for "
              "reference); %zu windows\n",
              f.read_ms.size(), Quantile(f.read_ms, 0.5), Quantile(f.read_ms, 0.9),
              Quantile(f.read_ms, 0.99), f.win_p50_ms.size());
  std::printf("  writes: %zu samples  p50 %.3f  p90 %.3f  p99 %.3f ms; generator lateness "
              "p50 %.3f  p99 %.3f  max %.3f ms\n",
              f.write_ms.size(), Quantile(f.write_ms, 0.5), Quantile(f.write_ms, 0.9),
              Quantile(f.write_ms, 0.99), Quantile(f.write_lateness_ms, 0.5),
              Quantile(f.write_lateness_ms, 0.99), Quantile(f.write_lateness_ms, 1.0));
  std::printf("  restarts: %zu full, %zu lazy\n", f.recover_full_s.size(), f.ttfr_s.size());
  std::printf("  recycler hit share: achieved %.3f, intended %.3f (hot browse share)\n",
              f.hit_share, f.hot_share);
  std::printf("  set-up runs (s):");
  for (double v : f.setup_s) std::printf(" %.3f", v);
  std::printf("\n");
  if (args->trace) {
    for (const auto& [name, unit] : PerLayer()) {
      if (!layer.Has(name)) layer.Set(name, 0, unit);
    }
    if (!args->trace_out.empty()) {
      if (spans.WriteChrome(args->trace_out)) {
        std::printf("  wrote %zu spans to %s\n", spans.size(), args->trace_out.c_str());
      }
    }
  }
  std::vector<std::string> names;
  const MetricSet& out = args->trace ? layer : e2e;
  for (const auto& [name, unit] : args->trace ? PerLayer() : EndToEnd()) {
    names.push_back(name);
  }
  bool correct = failed == 0;
  std::printf("%s\n", out.ResultLine(correct, attempted, failed, names).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
