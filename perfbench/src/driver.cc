// Serving benchmark driver: loads TPC-H, serves it from an in-process
// net::Server on loopback and drives one seeded closed-loop workload through
// net::Client connections, checking every answer.
//
//   perfbench_driver --workload=<name> --seed=<n> --seconds=<s> --trace=<0|1>
//                    --workdir=<dir>
//
// --trace=0 measures the end-to-end metrics. --trace=1 runs the same
// workload twice (untraced, then traced) and replays every traced statement
// through the engine's layer functions (replay.h) to price each layer.
// The last stdout line starting with "PERFBENCH_RESULT " carries every
// measured metric as JSON; run.py selects the ones BENCHMARK.json names.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_support/flags.h"
#include "bench_support/json.h"
#include "column/column_engine.h"
#include "exec/compiler.h"
#include "exec/engine.h"
#include "gen.h"
#include "net/client.h"
#include "net/server.h"
#include "ref/reference.h"
#include "replay.h"
#include "tpch/tpch.h"
#include "trace.h"
#include "txn/dml.h"
#include "util/cache_info.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace hique;
using Rows = std::vector<std::vector<Value>>;

constexpr double kScaleFactor = 0.1;  // lineitem: 600,360 rows, ~86 MB
constexpr uint32_t kEngineThreads = 2;
constexpr int kSetupReps = 3;         // set-ups per run; the median is reported
constexpr int kPoolSize = 3;          // distinct statements per TPC-H template
constexpr uint64_t kProbeStream = 900;  // refresh stream of the txn probe
constexpr int kProbeKey = -2;  // Sample::key of a replay-only probe
// refresh_mixed applies one RF1+RF2 pair per period. At SF 0.1 a pair adds
// about 21 lineitem delta pages, so the default compaction threshold (64)
// folds lineitem once every third or fourth pair (every 6-8 s).
constexpr double kRefreshPeriodMs = 2000;

// ---- workloads -------------------------------------------------------------

enum class Role { kPrimary, kBystander, kWriter };

struct WorkloadSpec {
  std::string name;
  std::vector<Role> conns;
  std::vector<Tmpl> templates;  // pooled templates the workload draws from
  // stmt_tail_ms is this percentile of the primary statements: the highest
  // one the workload's usual sample count supports with ten samples beyond.
  double tail;
};

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  using R = Role;
  static const std::vector<WorkloadSpec> kSpecs = {
      {"warm_olap", {R::kPrimary, R::kPrimary},
       {Tmpl::kQ1, Tmpl::kQ3, Tmpl::kQ6, Tmpl::kQ10}, 0.9},
      {"adhoc_cold", {R::kPrimary, R::kBystander}, {Tmpl::kQ6}, 0.75},
      {"refresh_mixed", {R::kWriter, R::kPrimary, R::kPrimary},
       {Tmpl::kQ1, Tmpl::kQ6}, 0.75},
      {"export_stream", {R::kPrimary, R::kPrimary}, {Tmpl::kExport}, 0.9},
  };
  for (const WorkloadSpec& s : kSpecs) {
    if (s.name == name) {
      *out = s;
      return true;
    }
  }
  return false;
}

/// One statement handed to a connection. `key` indexes the registry of
/// distinct statements whose answers are checked (-1: not checked per
/// execution, e.g. reads racing the refresh stream).
struct Stmt {
  Tmpl tmpl;
  int key = -1;
  std::string sql;
};

/// A distinct statement, the first answer the engine gave for it, and the
/// check against the oracle.
struct Distinct {
  Tmpl tmpl;
  std::string sql;
  bool answered = false;
  uint64_t digest = 0;  // order-insensitive hash of the raw result tuples
  int64_t rows = 0;
  Rows values;  // kept for every template except the wide export
  bool oracle_failed = false;
};

/// Generates each connection's statement sequence and owns the registry.
class Mix {
 public:
  Mix(const WorkloadSpec& spec, uint64_t seed) : spec_(spec), seed_(seed) {
    for (Tmpl t : spec.templates) {
      for (std::string& sql : DrawPool(t, seed, kPoolSize)) {
        pool_[t].push_back(static_cast<int>(distinct_.size()));
        distinct_.push_back({t, std::move(sql)});
      }
    }
    if (spec.name == "adhoc_cold") {
      for (AdhocStatement& s : AdhocStream(seed, kAdhocStreamLength)) {
        adhoc_.push_back({s.tmpl, -1, std::move(s.sql)});
      }
    }
  }

  /// Keys of every pooled statement (warm-up runs each once).
  std::vector<int> PoolKeys() const {
    std::vector<int> keys;
    for (Tmpl t : spec_.templates) {
      const std::vector<int>& p = pool_.at(t);
      keys.insert(keys.end(), p.begin(), p.end());
    }
    return keys;
  }

  Stmt Pooled(int key) {
    std::lock_guard<std::mutex> lk(mu_);  // ad-hoc statements register concurrently
    return {distinct_[key].tmpl, key, distinct_[key].sql};
  }

  /// Statement `i` of connection `conn`.
  std::vector<Stmt> Next(int conn, uint64_t i, Rng* rng) {
    Role role = spec_.conns[conn];
    if (role == Role::kWriter) return NextRefreshPair();
    if (spec_.name == "adhoc_cold" && role == Role::kPrimary) {
      size_t at = adhoc_next_.fetch_add(1);
      Stmt s = adhoc_[at % adhoc_.size()];
      s.key = static_cast<int>(Register(s));
      return {s};
    }
    const std::vector<Tmpl>& ts = spec_.templates;
    Tmpl t = ts[(i + 2 * conn) % ts.size()];
    const std::vector<int>& p = pool_.at(t);
    Stmt s = Pooled(p[rng->NextBounded(p.size())]);
    if (!checks_each_answer()) s.key = -1;
    return {s};
  }

  /// Reads racing the refresh stream see changing data; refresh_mixed
  /// checks its reads on the final, compacted state instead.
  bool checks_each_answer() const { return spec_.name != "refresh_mixed"; }

  std::vector<Distinct>& distinct() { return distinct_; }
  std::mutex& mu() { return mu_; }
  const WorkloadSpec& spec() const { return spec_; }
  const std::vector<int>& pool(Tmpl t) const { return pool_.at(t); }

 private:
  size_t Register(const Stmt& s) {
    std::lock_guard<std::mutex> lk(mu_);
    distinct_.push_back({s.tmpl, s.sql});
    return distinct_.size() - 1;
  }

  std::vector<Stmt> NextRefreshPair() {
    uint64_t stream = rf_stream_++;
    std::vector<Stmt> out;
    for (const std::string& sql : tpch::MakeRf1(kScaleFactor, seed_, stream).statements) {
      out.push_back({Tmpl::kRf1, -1, sql});
    }
    for (const std::string& sql : tpch::MakeRf2(kScaleFactor, seed_, stream).statements) {
      out.push_back({Tmpl::kRf2, -1, sql});
    }
    return out;
  }

  WorkloadSpec spec_;
  uint64_t seed_;
  std::map<Tmpl, std::vector<int>> pool_;
  std::vector<Stmt> adhoc_;
  std::atomic<size_t> adhoc_next_{0};
  uint64_t rf_stream_ = 0;  // writer thread only
  std::mutex mu_;           // guards distinct_
  std::vector<Distinct> distinct_;
};

// ---- one wire statement ----------------------------------------------------

struct Sample {
  Role role = Role::kPrimary;
  Tmpl tmpl = Tmpl::kQ1;
  int key = -1;
  uint64_t stmt_id = 0;
  double start = 0, ack = 0, first = 0, end = 0;  // NowMs()
  bool ok = false;
  std::string error;
  bool cache_hit = false;
  int opt_level = 0;
  int64_t rows = 0;
  int64_t affected = 0;
  double server_exec_ms = 0;
  bool replayed = false;
  ReplayResult replay;

  double ms() const { return end - start; }
};

uint64_t HashBytes(const uint8_t* p, size_t n) {
  uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (size_t i = 0; i < n; ++i) h = (h ^ p[i]) * 1099511628211ull;
  h ^= h >> 33;  // splitmix finalizer: spread before the commutative sum
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

bool Ordered(const std::string& sql) {
  return sql.find("order by") != std::string::npos;
}

/// Sends one statement and drains it, timing the wire phases.
void RunWire(net::Client* client, const Stmt& stmt, Sample* s,
             uint64_t* digest, Rows* values) {
  s->tmpl = stmt.tmpl;
  s->key = stmt.key;
  s->start = NowMs();
  auto q = client->Query(stmt.sql);
  s->ack = NowMs();
  if (!q.ok()) {
    s->first = s->end = s->ack;
    s->error = q.status().ToString();
    return;
  }
  net::RemoteResultSet rs = std::move(q).value();
  const uint32_t tuple = rs.schema().TupleSize();
  bool first = true;
  while (rs.Next()) {
    if (first) {
      s->first = NowMs();
      first = false;
    }
    *digest += HashBytes(rs.RowBytes(), tuple);
    ++s->rows;
    if (values != nullptr) values->push_back(rs.Row());
  }
  s->end = NowMs();
  if (first) s->first = s->end;
  if (!rs.status().ok()) {
    s->error = rs.status().ToString();
    return;
  }
  s->ok = true;
  s->cache_hit = rs.cache_hit();
  s->opt_level = rs.library_opt_level();
  s->server_exec_ms = rs.server_execute_ms();
  s->affected = rs.rows_affected();
}

// ---- the serving stack -----------------------------------------------------

/// An engine, its listening server and the workload's connections.
struct Stack {
  std::unique_ptr<HiqueEngine> engine;
  std::unique_ptr<net::Server> server;
  std::vector<net::Client> clients;

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    for (net::Client& c : clients) {
      if (c.connected()) (void)c.Close();
    }
    if (server) server->Stop();
    server.reset();
    engine.reset();
  }
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
};

Status StartStack(Catalog* catalog, const std::string& gen_dir, size_t conns,
                  Stack* st) {
  EngineOptions eopts;
  eopts.threads = kEngineThreads;
  eopts.gen_dir = gen_dir;
  st->engine = std::make_unique<HiqueEngine>(catalog, eopts);
  net::ServerOptions sopts;
  sopts.address = "127.0.0.1";
  sopts.port = 0;
  st->server = std::make_unique<net::Server>(st->engine.get(), sopts);
  HQ_RETURN_IF_ERROR(st->server->Start());
  for (size_t i = 0; i < conns; ++i) {
    HQ_ASSIGN_OR_RETURN(net::Client c,
                        net::Client::Connect("127.0.0.1", st->server->port(),
                                             "perfbench"));
    st->clients.push_back(std::move(c));
  }
  return Status::OK();
}

// ---- measurement helpers ---------------------------------------------------

/// Nearest-rank percentile over latencies where failures count as +inf.
struct Dist {
  std::vector<double> v;
  void Add(double x) { v.push_back(x); }
  size_t n() const { return v.size(); }
  double Pct(double p) {
    if (v.empty()) return 0;
    std::sort(v.begin(), v.end());
    size_t rank = static_cast<size_t>(std::ceil(p * v.size()));
    return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
  }
  /// Samples strictly beyond percentile p's rank.
  size_t Beyond(double p) const {
    return v.size() - std::min(v.size(), static_cast<size_t>(std::ceil(p * v.size())));
  }
  double Median() { return Pct(0.5); }
};

double Median(std::vector<double> v) {
  Dist d;
  d.v = std::move(v);
  return d.Median();
}

/// The primary connections' median statement latency, as the mean of the
/// per-family medians: the median of a mix of families sits on the boundary
/// between two of them whenever their shares are equal, so it jumps with
/// the mix's proportions, while the per-family medians do not. A failed
/// statement counts as infinitely slow.
double StmtP50(const std::vector<Sample>& samples) {
  std::map<Tmpl, Dist> families;
  for (const Sample& s : samples) {
    if (s.role != Role::kPrimary) continue;
    families[s.tmpl].Add(s.ok ? s.ms() : std::numeric_limits<double>::infinity());
  }
  double sum = 0;
  for (auto& [t, d] : families) sum += d.Median();
  return families.empty() ? 0 : sum / families.size();
}

double RssMb() {
  std::ifstream f("/proc/self/statm");
  uint64_t size = 0, resident = 0;
  f >> size >> resident;
  return static_cast<double>(resident) * ::sysconf(_SC_PAGESIZE) / (1 << 20);
}

/// Runs `fn` while sampling the resident set every 20 ms; returns the
/// largest sample in MB. Set-up transients (the repeated engines, the load)
/// stay out of it.
double PeakRssDuring(const std::function<void()>& fn) {
  std::atomic<bool> done{false};
  double peak = RssMb();
  std::thread sampler([&] {
    while (!done.load()) {
      peak = std::max(peak, RssMb());
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });
  fn();
  done = true;
  sampler.join();
  return std::max(peak, RssMb());
}

std::string ReadFirstLine(const std::string& path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

std::string CompilerVersion() {
  std::string cmd = "'" + exec::RuntimeCompilerPath() + "' --version 2>/dev/null";
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return "";
  char buf[256] = {0};
  std::string out = std::fgets(buf, sizeof(buf), p) != nullptr ? buf : "";
  ::pclose(p);
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r')) out.pop_back();
  return out;
}

/// All digits of a measured value (bench::JsonNum keeps nine).
std::string FullNum(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Metric name -> value/unit, in insertion order.
class Metrics {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    bench::JsonObj obj;
    for (const Item& m : items_) {
      obj.Add(m.name, bench::JsonObj().Add("value", FullNum(m.value)).Str("unit", m.unit).Render());
    }
    return obj.Render();
  }
  void Print() const {
    for (const auto& m : items_) {
      std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

// ---- the benchmark ---------------------------------------------------------

class Bench {
 public:
  Bench(Args args, WorkloadSpec spec)
      : args_(std::move(args)), mix_(spec, args_.seed) {}

  int Run();

 private:
  Status Load();
  Status Setup();
  Status WarmUp(Stack* st);
  /// Closed-loop phase: every connection issues its next statement as soon
  /// as the previous one is drained, until `seconds` have passed.
  std::vector<Sample> Phase(double seconds, bool traced);
  /// Replays `sql` through the layers under a new root span of `s`.
  void Replay(const std::string& sql, const char* root_name, Sample* s);
  void Record(const Stmt& stmt, Sample* s, uint64_t digest, Rows* values);
  void CheckAnswers();
  Status CheckRefresh();
  void LayerProbes(std::vector<Sample>* traced);
  Status TxnProbe(Metrics* m);
  void EndToEnd(std::vector<Sample>& samples, double elapsed_s, Metrics* m,
                Metrics* report);
  void PerLayer(std::vector<Sample>& traced, Metrics* m);
  std::string Fingerprint();
  void Fail(const std::string& why) {
    std::lock_guard<std::mutex> lk(fail_mu_);
    failures_.push_back(why);
  }

  Args args_;
  Mix mix_;
  std::string run_dir_;
  Catalog catalog_;
  uint64_t base_rows_ = 0;  // lineitem + orders after load
  double load_s_ = 0;
  double setup_s_ = 0;
  std::unique_ptr<Stack> stack_;
  std::unique_ptr<Replayer> replayer_;
  Tracer tracer_;
  std::atomic<uint64_t> next_stmt_{1};
  std::atomic<int64_t> rows_inserted_{0}, rows_deleted_{0};
  std::atomic<uint64_t> delta_pages_max_{0};
  std::mutex fail_mu_;
  std::vector<std::string> failures_;
};

Status Bench::Load() {
  double t0 = NowMs();
  tpch::TpchOptions topts;
  topts.scale_factor = kScaleFactor;
  HQ_RETURN_IF_ERROR(tpch::LoadTpch(&catalog_, topts));
  load_s_ = (NowMs() - t0) / 1e3;
  for (const char* t : {"lineitem", "orders"}) {
    HQ_ASSIGN_OR_RETURN(Table * table, catalog_.GetTable(t));
    base_rows_ += table->NumTuples();
  }
  return Status::OK();
}

Status Bench::WarmUp(Stack* st) {
  // Every pooled statement once (the first answer of each is registered),
  // then wait until the background -O2 recompiles have been swapped in.
  for (int key : mix_.PoolKeys()) {
    const Stmt stmt = mix_.Pooled(key);
    Sample s;
    uint64_t digest = 0;
    Rows values;
    RunWire(&st->clients.back(), stmt, &s, &digest,
            stmt.tmpl == Tmpl::kExport ? nullptr : &values);
    if (!s.ok) return Status::Internal("warm-up failed: " + s.error);
    Record(stmt, &s, digest, &values);
  }
  st->engine->WaitForTierUpgrades();
  return Status::OK();
}

Status Bench::Setup() {
  // Set-up is load + engine + listening server + warm-up. The load runs
  // once; the rest is repeated kSetupReps times with a fresh engine and the
  // median is reported, the last stack serving the measured phase. A traced
  // run reports no set-up time and sets up once.
  std::vector<double> reps;
  const int reps_wanted = args_.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps_wanted; ++rep) {
    double t0 = NowMs();
    auto st = std::make_unique<Stack>();
    HQ_RETURN_IF_ERROR(StartStack(&catalog_, run_dir_ + "/gen" + std::to_string(rep),
                                  mix_.spec().conns.size(), st.get()));
    HQ_RETURN_IF_ERROR(WarmUp(st.get()));
    reps.push_back((NowMs() - t0) / 1e3);
    stack_ = std::move(st);  // the previous stack shuts down here
  }
  setup_s_ = load_s_ + Median(reps);
  std::printf("set-up: load %.3f s, engine + server + warm-up", load_s_);
  for (double r : reps) std::printf(" %.3f s", r);
  std::printf("\n");
  return Status::OK();
}

void Bench::Record(const Stmt& stmt, Sample* s, uint64_t digest, Rows* values) {
  if (!s->ok || stmt.key < 0 || !mix_.checks_each_answer()) return;
  std::lock_guard<std::mutex> lk(mix_.mu());
  Distinct& d = mix_.distinct()[stmt.key];
  if (!d.answered) {
    d.answered = true;
    d.digest = digest;
    d.rows = s->rows;
    if (values != nullptr) d.values = std::move(*values);
    return;
  }
  // Repeats must give the first answer again: exactly for projections,
  // within the oracle's rounding tolerance for aggregates (-O0 and -O2
  // libraries may round differently).
  bool same = d.rows == s->rows;
  if (same && values != nullptr) {
    same = ref::CompareRowSets(d.values, *values, Ordered(stmt.sql)).ok();
  } else if (same) {
    same = d.digest == digest;
  }
  if (!same) {
    s->ok = false;
    s->error = "answer differs from this statement's first answer";
  }
}

/// Fails statements that break their workload's premise: an ad-hoc
/// statement must miss the plan cache, and a repeated (pooled) statement
/// outside the refresh stream must run an -O2 library.
void Validate(Sample* s) {
  if (!s->ok) return;
  bool adhoc = s->tmpl == Tmpl::kAdhocSingle || s->tmpl == Tmpl::kAdhocJoin;
  if (adhoc && s->cache_hit) {
    s->ok = false;
    s->error = "ad-hoc statement hit the plan cache";
  } else if (!adhoc && s->key >= 0 && s->opt_level < 2) {
    s->ok = false;
    s->error = "warm statement ran a -O" + std::to_string(s->opt_level) + " library";
  }
}

void Bench::Replay(const std::string& sql, const char* root_name, Sample* s) {
  uint64_t root = tracer_.Begin(root_name, 0, s->stmt_id, NowMs());
  s->replay = s->tmpl == Tmpl::kRf1 || s->tmpl == Tmpl::kRf2
                  ? replayer_->ReplayDmlParse(sql, s->stmt_id, root)
                  : replayer_->Replay(sql, s->stmt_id, root);
  tracer_.End(root, NowMs());
  s->replayed = s->replay.status.ok();
  if (!s->replayed) Fail("replay: " + s->replay.status.ToString() + " -- " + sql);
}

std::vector<Sample> Bench::Phase(double seconds, bool traced) {
  const WorkloadSpec& spec = mix_.spec();
  std::vector<std::vector<Sample>> per_conn(spec.conns.size());
  const double begin = NowMs();
  const double deadline = begin + seconds * 1e3;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < spec.conns.size(); ++c) {
    threads.emplace_back([&, c] {
      Rng rng(args_.seed * 1000003 + c * 7919 + (traced ? 1 : 0));
      net::Client* client = &stack_->clients[c];
      const Role role = spec.conns[c];
      for (uint64_t i = 0; NowMs() < deadline; ++i) {
        for (const Stmt& stmt : mix_.Next(static_cast<int>(c), i, &rng)) {
          Sample s;
          s.role = role;
          s.stmt_id = next_stmt_++;
          uint64_t digest = 0;
          Rows values;
          bool keep = stmt.tmpl != Tmpl::kExport && stmt.key >= 0;
          RunWire(client, stmt, &s, &digest, keep ? &values : nullptr);
          Record(stmt, &s, digest, keep ? &values : nullptr);
          Validate(&s);
          if (role == Role::kWriter && s.ok) {
            (stmt.tmpl == Tmpl::kRf1 ? rows_inserted_ : rows_deleted_) += s.affected;
            uint64_t pages = 0;
            for (const char* t : {"lineitem", "orders"}) {
              pages = std::max(pages, catalog_.GetTable(t).value()->DeltaPages());
            }
            uint64_t seen = delta_pages_max_.load();
            while (pages > seen && !delta_pages_max_.compare_exchange_weak(seen, pages)) {
            }
          }
          if (!s.ok) Fail(std::string(TmplName(stmt.tmpl)) + ": " + s.error);
          if (traced) {
            uint64_t root = tracer_.Record("stmt", 0, s.stmt_id, s.start, s.end);
            tracer_.Record("net.ack", root, s.stmt_id, s.start, s.ack);
            tracer_.Record("net.first_row", root, s.stmt_id, s.ack, s.first);
            tracer_.Record("net.drain", root, s.stmt_id, s.first, s.end);
            if (s.ok) Replay(stmt.sql, "replay", &s);
          }
          per_conn[c].push_back(std::move(s));
        }
        if (role == Role::kWriter) {
          // A fixed refresh rate: pair i+1 starts kRefreshPeriodMs after
          // pair i did (or as soon as pair i ends, if it ran longer).
          double next = std::min(deadline, begin + (i + 1) * kRefreshPeriodMs);
          double wait = next - NowMs();
          if (wait > 0) std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(wait));
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  std::vector<Sample> all;
  for (auto& v : per_conn) {
    for (Sample& s : v) all.push_back(std::move(s));
  }
  return all;
}

/// Order-insensitive digest of rows by their rendered values.
uint64_t ValueDigest(const Rows& rows) {
  uint64_t digest = 0;
  for (const std::vector<Value>& row : rows) {
    std::string text;
    for (const Value& v : row) text += v.ToString() + "|";
    digest += HashBytes(reinterpret_cast<const uint8_t*>(text.data()), text.size());
  }
  return digest;
}

Result<Rows> RowsOf(Table* table) {
  Rows rows;
  const Schema& schema = table->schema();
  HQ_RETURN_IF_ERROR(table->ForEachTuple([&](const uint8_t* t) {
    std::vector<Value> row;
    for (size_t i = 0; i < schema.NumColumns(); ++i) row.push_back(schema.GetValue(t, i));
    rows.push_back(std::move(row));
  }));
  return rows;
}

void Bench::CheckAnswers() {
  // Outside the timed window: joins against the column engine, everything
  // else against the reference executor, on two threads. Wide exports are
  // re-run once to collect their rows (the timed runs kept only a digest).
  std::vector<Distinct>& all = mix_.distinct();
  auto check = [&](bool joins) {
    col::ColumnEngine column(&catalog_);
    net::Client* client = &stack_->clients[joins ? 0 : stack_->clients.size() - 1];
    for (Distinct& d : all) {
      if (!d.answered || IsJoinTmpl(d.tmpl) != joins) continue;
      Result<Rows> expected = [&]() -> Result<Rows> {
        if (!joins) return ref::ExecuteSql(d.sql, catalog_);
        HQ_ASSIGN_OR_RETURN(col::ColumnResult r, column.Query(d.sql));
        return RowsOf(r.table.get());
      }();
      Status st = expected.status();
      if (st.ok() && d.tmpl == Tmpl::kExport) {
        Sample s;
        uint64_t digest = 0;
        Rows got;
        RunWire(client, {d.tmpl, -1, d.sql}, &s, &digest, &got);
        if (!s.ok) {
          st = Status::Internal(s.error);
        } else if (digest != d.digest || s.rows != d.rows) {
          st = Status::Internal("re-run digest differs from the timed runs");
        } else {
          // A projection has no arithmetic, so both sides must hold the
          // same multiset of rows exactly (CompareRowSets would sort 90k
          // rendered rows per comparison).
          bool same = expected.value().size() == got.size() &&
                      ValueDigest(expected.value()) == ValueDigest(got);
          if (!same) st = Status::Internal("export rows differ from the reference");
        }
      } else if (st.ok()) {
        st = ref::CompareRowSets(expected.value(), d.values, Ordered(d.sql));
      }
      if (!st.ok()) {
        d.oracle_failed = true;
        Fail(std::string("oracle ") + TmplName(d.tmpl) + ": " + st.ToString() +
             " -- " + d.sql);
      }
    }
  };
  std::thread joins(check, true);
  check(false);
  joins.join();
}

Status Bench::CheckRefresh() {
  // mixed_oltp_olap's conservation check: after folding the deltas, the
  // tables hold exactly the base rows plus inserted minus deleted.
  for (const char* t : {"orders", "lineitem"}) {
    HQ_RETURN_IF_ERROR(stack_->engine->compactor()->CompactNow(t));
  }
  uint64_t now = 0;
  for (const char* t : {"lineitem", "orders"}) {
    now += catalog_.GetTable(t).value()->NumTuples();
  }
  int64_t expect = static_cast<int64_t>(base_rows_) + rows_inserted_ - rows_deleted_;
  if (static_cast<int64_t>(now) != expect) {
    return Status::Internal("refresh lost rows: lineitem+orders " +
                            std::to_string(now) + ", expected " +
                            std::to_string(expect));
  }
  // Then Q1/Q6 on the compacted state against the reference executor.
  for (Tmpl t : {Tmpl::kQ1, Tmpl::kQ6}) {
    for (int key : mix_.pool(t)) {
      const std::string& sql = mix_.distinct()[key].sql;
      Sample s;
      uint64_t digest = 0;
      Rows got;
      RunWire(&stack_->clients[1], {t, -1, sql}, &s, &digest, &got);
      if (!s.ok) return Status::Internal("final " + std::string(TmplName(t)) + ": " + s.error);
      HQ_ASSIGN_OR_RETURN(Rows expected, ref::ExecuteSql(sql, catalog_));
      Status st = ref::CompareRowSets(expected, got, Ordered(sql));
      if (!st.ok()) return Status::Internal("final " + std::string(TmplName(t)) + ": " + st.ToString());
    }
  }
  return Status::OK();
}

const std::vector<Tmpl>& ExecTemplates() {
  static const std::vector<Tmpl> kT = {Tmpl::kQ1, Tmpl::kQ3, Tmpl::kQ6,
                                       Tmpl::kQ10, Tmpl::kExport};
  return kT;
}

void Bench::LayerProbes(std::vector<Sample>* traced) {
  // exec.<q>.* are reported for every template; one the workload does not
  // run is replayed (in-process, after the phase) from its seeded pool.
  for (Tmpl t : ExecTemplates()) {
    bool seen = false;
    for (const Sample& s : *traced) seen |= s.replayed && s.tmpl == t;
    if (seen) continue;
    std::vector<std::string> pool = DrawPool(t, args_.seed, kPoolSize);
    for (const std::string& sql : pool) {
      Sample s;
      s.tmpl = t;
      s.key = kProbeKey;
      s.stmt_id = next_stmt_++;
      Replay(sql, "probe", &s);
      traced->push_back(std::move(s));
    }
  }
}

Status Bench::TxnProbe(Metrics* m) {
  // One refresh pair through txn::ExecuteDmlSql, then one CompactNow per
  // written table, so every workload prices the txn layer.
  std::vector<double> ins, del;
  int64_t affected = 0;
  uint64_t before = 0, after = 0;
  for (const char* t : {"lineitem", "orders"}) before += catalog_.GetTable(t).value()->NumTuples();
  int64_t inserted = 0, deleted = 0;
  for (int rf = 1; rf <= 2; ++rf) {
    tpch::RefreshBatch batch = rf == 1 ? tpch::MakeRf1(kScaleFactor, args_.seed, kProbeStream)
                                       : tpch::MakeRf2(kScaleFactor, args_.seed, kProbeStream);
    for (const std::string& sql : batch.statements) {
      uint64_t id = next_stmt_++;
      double t0 = NowMs();
      HQ_ASSIGN_OR_RETURN(uint64_t n, txn::ExecuteDmlSql(sql, &catalog_));
      double t1 = NowMs();
      tracer_.Record(rf == 1 ? "txn.insert" : "txn.delete", 0, id, t0, t1);
      (rf == 1 ? ins : del).push_back(t1 - t0);
      (rf == 1 ? inserted : deleted) += static_cast<int64_t>(n);
      affected += static_cast<int64_t>(n);
    }
  }
  uint64_t pages = delta_pages_max_.load();
  for (const char* t : {"lineitem", "orders"}) {
    pages = std::max(pages, catalog_.GetTable(t).value()->DeltaPages());
  }
  double compact_ms = 0;
  for (const char* t : {"orders", "lineitem"}) {
    uint64_t id = next_stmt_++;
    double t0 = NowMs();
    HQ_RETURN_IF_ERROR(stack_->engine->compactor()->CompactNow(t));
    double t1 = NowMs();
    tracer_.Record("txn.compact", 0, id, t0, t1);
    compact_ms += t1 - t0;
  }
  for (const char* t : {"lineitem", "orders"}) after += catalog_.GetTable(t).value()->NumTuples();
  if (static_cast<int64_t>(after) != static_cast<int64_t>(before) + inserted - deleted) {
    return Status::Internal("txn probe lost rows");
  }
  m->Set("txn.insert_ms", Median(ins), "ms");
  m->Set("txn.delete_ms", Median(del), "ms");
  m->Set("txn.rows_affected", static_cast<double>(affected), "count");
  m->Set("txn.delta_pages_max", static_cast<double>(pages), "count");
  m->Set("txn.compact_ms", compact_ms, "ms");
  return Status::OK();
}

void Bench::EndToEnd(std::vector<Sample>& samples, double elapsed_s, Metrics* m,
                     Metrics* report) {
  const double inf = std::numeric_limits<double>::infinity();
  Dist primary, bystander, dml;
  std::map<Tmpl, Dist> per_tmpl;
  int64_t primary_ok = 0, rows = 0, dml_rows = 0, export_rows = 0, failed = 0;
  for (const Sample& s : samples) {
    double lat = s.ok ? s.ms() : inf;  // a failure misses every limit
    failed += s.ok ? 0 : 1;
    rows += s.rows;
    if (s.role == Role::kPrimary) {
      primary.Add(lat);
      per_tmpl[s.tmpl].Add(lat);
      primary_ok += s.ok ? 1 : 0;
      if (s.tmpl == Tmpl::kExport) export_rows += s.rows;
    } else if (s.role == Role::kBystander) {
      bystander.Add(lat);
    } else {
      dml.Add(lat);
      dml_rows += s.affected;
    }
  }
  m->Set("success_ratio",
         samples.empty() ? 0 : 1.0 - static_cast<double>(failed) / samples.size(),
         "ratio");
  m->Set("stmts_per_s", primary_ok / elapsed_s, "1/s");
  m->Set("stmt_p50_ms", StmtP50(samples), "ms");
  const double tail = mix_.spec().tail;
  m->Set("stmt_tail_ms", primary.Pct(tail), "ms");

  report->Set("failed_ratio", samples.empty() ? 0 : static_cast<double>(failed) / samples.size(), "ratio");
  report->Set("stmt.samples", static_cast<double>(primary.n()), "count");
  report->Set("stmt_mix_p50_ms", primary.Pct(0.5), "ms");
  report->Set("stmt_tail.percentile", tail * 100, "%");
  report->Set("stmt_tail.beyond", static_cast<double>(primary.Beyond(tail)), "count");
  report->Set("rows_per_s", rows / elapsed_s, "rows/s");
  report->Set("stmt_max_ms", primary.Pct(1.0), "ms");
  if (primary.Beyond(0.99) >= 10) report->Set("stmt_p99_ms", primary.Pct(0.99), "ms");
  for (auto& [t, d] : per_tmpl) {
    std::string q = TmplName(t);
    report->Set(q + "_p50_ms", d.Pct(0.5), "ms");
    report->Set(q + ".samples", static_cast<double>(d.n()), "count");
  }
  if (bystander.n() > 0) {
    report->Set("bystander_p50_ms", bystander.Pct(0.5), "ms");
    if (bystander.Beyond(0.9) >= 10) report->Set("bystander_p90_ms", bystander.Pct(0.9), "ms");
    report->Set("bystander.samples", static_cast<double>(bystander.n()), "count");
  }
  if (dml.n() > 0) {
    report->Set("dml_p50_ms", dml.Pct(0.5), "ms");
    report->Set("dml_rows_per_s", dml_rows / elapsed_s, "rows/s");
    report->Set("dml.samples", static_cast<double>(dml.n()), "count");
  }
  if (export_rows > 0) report->Set("export_rows_per_s", export_rows / elapsed_s, "rows/s");
}

void Bench::PerLayer(std::vector<Sample>& traced, Metrics* m) {
  std::vector<double> parse, bind, optimize, signature, generate, o0, o2, load,
      source, library, unaccounted, ack, first_row, drain, non_exec;
  for (const Sample& s : traced) {
    if (!s.replayed) continue;
    const ReplayResult& r = s.replay;
    bool select = s.tmpl != Tmpl::kRf1 && s.tmpl != Tmpl::kRf2;
    if (select) {
      parse.push_back(r.parse_ms);
      bind.push_back(r.bind_ms);
      optimize.push_back(r.optimize_ms);
      signature.push_back(r.signature_ms);
    }
    if (r.compiled) {
      generate.push_back(r.generate_ms);
      o0.push_back(r.compile_o0_ms);
      o2.push_back(r.compile_o2_ms);
      load.push_back(r.load_ms);
      source.push_back(static_cast<double>(r.source_bytes));
      library.push_back(static_cast<double>(r.library_bytes));
    }
    if (s.key == kProbeKey) continue;  // no wire statement
    ack.push_back(s.ack - s.start);
    first_row.push_back(s.first - s.ack);
    drain.push_back(s.end - s.first);
    if (select) {
      non_exec.push_back(s.ms() - s.server_exec_ms);
      unaccounted.push_back(s.ms() - r.InlineMs(!s.cache_hit));
    }
  }
  m->Set("sql.parse_ms", Median(parse), "ms");
  m->Set("sql.bind_ms", Median(bind), "ms");
  m->Set("plan.optimize_ms", Median(optimize), "ms");
  m->Set("plan.signature_ms", Median(signature), "ms");
  m->Set("codegen.generate_ms", Median(generate), "ms");
  m->Set("codegen.source_bytes", Median(source), "bytes");
  m->Set("exec.compile_o0_ms", Median(o0), "ms");
  m->Set("exec.compile_o2_ms", Median(o2), "ms");
  m->Set("exec.library_bytes", Median(library), "bytes");
  m->Set("exec.load_ms", Median(load), "ms");
  m->Set("exec.compile_failures", static_cast<double>(replayer_->compile_failures()), "count");

  for (Tmpl t : ExecTemplates()) {
    std::string q = std::string("exec.") + TmplName(t);
    std::string w = std::string("worker_pool.") + TmplName(t);
    std::vector<double> exec_ms, pages, arena, tasks, barriers, skew;
    std::map<int32_t, std::vector<double>> ops;
    for (const Sample& s : traced) {
      if (!s.replayed || s.tmpl != t) continue;
      const exec::ExecStats& st = s.replay.stats;
      exec_ms.push_back(s.replay.execute_ms);
      pages.push_back(static_cast<double>(st.pages_touched));
      arena.push_back(static_cast<double>(st.arena_bytes));
      tasks.push_back(static_cast<double>(st.par_tasks));
      barriers.push_back(static_cast<double>(st.par_barriers));
      skew.push_back(st.skew_ratio);
      for (const exec::OpStat& op : st.ops) ops[op.op_id].push_back(op.wall_seconds * 1e3);
    }
    m->Set(q + ".execute_ms", Median(exec_ms), "ms");
    for (auto& [id, v] : ops) m->Set(q + ".op" + std::to_string(id) + "_ms", Median(v), "ms");
    m->Set(q + ".pages", Median(pages), "count");
    m->Set(q + ".arena_bytes", Median(arena), "bytes");
    m->Set(w + ".tasks", Median(tasks), "count");
    m->Set(w + ".barriers", Median(barriers), "count");
    m->Set(w + ".skew_ratio", Median(skew), "ratio");
  }

  m->Set("net.ack_ms", Median(ack), "ms");
  m->Set("net.first_row_ms", Median(first_row), "ms");
  m->Set("net.drain_ms", Median(drain), "ms");
  m->Set("net.non_exec_ms", Median(non_exec), "ms");
  m->Set("session.unaccounted_ms", Median(unaccounted), "ms");
}

/// Checks that the written spans add up: the wire children tile each
/// statement, replay layers nest inside their root without overlapping,
/// operator spans fit inside their execution, and the inline layer spans
/// plus session.unaccounted_ms equal the statement latency.
uint64_t Reconcile(const std::vector<Span>& spans, const std::vector<Sample>& traced) {
  const double eps = 1e-6;
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) children[s.parent].push_back(&s);
  std::map<uint64_t, const Span*> stmt_root, replay_root;
  for (const Span& s : spans) {
    if (s.parent != 0) continue;
    if (s.name == "stmt") stmt_root[s.stmt] = &s;
    if (s.name == "replay" || s.name == "probe") replay_root[s.stmt] = &s;
  }
  uint64_t errors = 0;
  for (const Sample& s : traced) {
    if (s.key == kProbeKey) continue;
    auto it = stmt_root.find(s.stmt_id);
    if (it == stmt_root.end()) {
      ++errors;
      continue;
    }
    const Span* root = it->second;
    double wire = 0;
    for (const Span* c : children[root->id]) {
      wire += c->ms();
      if (c->start_ms < root->start_ms - eps || c->end_ms > root->end_ms + eps) ++errors;
    }
    if (std::fabs(wire - root->ms()) > 1e-3) ++errors;
    if (!s.replayed || s.tmpl == Tmpl::kRf1 || s.tmpl == Tmpl::kRf2) continue;
    auto rt = replay_root.find(s.stmt_id);
    if (rt == replay_root.end()) {
      ++errors;
      continue;
    }
    std::vector<const Span*> layers = children[rt->second->id];
    std::sort(layers.begin(), layers.end(),
              [](const Span* a, const Span* b) { return a->start_ms < b->start_ms; });
    const bool miss = !s.cache_hit;
    double inline_ms = 0;
    for (size_t i = 0; i < layers.size(); ++i) {
      const Span* l = layers[i];
      if (i > 0 && l->start_ms < layers[i - 1]->end_ms - eps) ++errors;
      if (l->name == "exec.execute") {
        double ops = 0;
        for (const Span* op : children[l->id]) ops += op->ms();
        if (ops > l->ms() * 1.01 + 0.05) ++errors;
      }
      const std::string& n = l->name;
      bool front = n == "sql.parse" || n == "sql.bind" || n == "plan.optimize" ||
                   n == "plan.signature" || n == "exec.execute";
      bool compile = n == "codegen.generate" || n == "exec.compile_o0" ||
                     n == "exec.load_o0";
      if (front || (miss && compile)) inline_ms += l->ms();
    }
    double unaccounted = s.ms() - s.replay.InlineMs(!s.cache_hit);
    if (std::fabs(inline_ms + unaccounted - root->ms()) > 1e-3) ++errors;
  }
  return errors;
}

std::string Bench::Fingerprint() {
  const uint32_t hw = std::thread::hardware_concurrency();
  const size_t conns = mix_.spec().conns.size();
  uint64_t lineitem_bytes = 0;
  if (auto t = catalog_.GetTable("lineitem"); t.ok()) {
    lineitem_bytes = t.value()->NumTuples() * t.value()->schema().TupleSize();
  }
  return bench::JsonObj()
      .Int("nproc", ::sysconf(_SC_NPROCESSORS_ONLN))
      .Int("hardware_concurrency", hw)
      .Int("llc_bytes", static_cast<int64_t>(HostCacheInfo().l3_bytes))
      .Str("cpu_governor",
           ReadFirstLine("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"))
      .Str("perf_event_paranoid", ReadFirstLine("/proc/sys/kernel/perf_event_paranoid"))
      .Str("runtime_compiler", exec::RuntimeCompilerPath())
      .Str("runtime_compiler_version", CompilerVersion())
      .Num("scale_factor", kScaleFactor)
      .Int("lineitem_bytes", static_cast<int64_t>(lineitem_bytes))
      .Int("seed", static_cast<int64_t>(args_.seed))
      .Int("engine_threads", kEngineThreads)
      .Int("connections", static_cast<int64_t>(conns))
      .Int("simd_level", stack_->engine->simd_level())
      .Add("oversubscribed", conns + kEngineThreads > hw ? "true" : "false")
      .Render();
}

int Bench::Run() {
  NowMs();
  run_dir_ = args_.workdir + "/.bench_build/run/" + std::to_string(::getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir_, ec);
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code e;
      std::filesystem::remove_all(dir, e);
    }
  } cleanup{run_dir_};

  Status st = Load();
  if (st.ok()) {
    st = Setup();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
    return 2;
  }
  const std::string fingerprint = Fingerprint();
  std::printf("fingerprint %s\n", fingerprint.c_str());
  if (fingerprint.find("\"oversubscribed\": true") != std::string::npos) {
    std::printf("WARNING: connections + engine threads exceed the hardware "
                "threads; latencies include CPU oversubscription\n");
  }

  Metrics metrics, report;
  std::vector<Sample> samples;
  double elapsed_s = 0;
  if (!args_.trace) {
    double t0 = NowMs();
    uint64_t folds = stack_->engine->compactor()->compactions();
    double peak_mb = PeakRssDuring([&] { samples = Phase(args_.seconds, false); });
    report.Set("compactions", static_cast<double>(stack_->engine->compactor()->compactions() - folds), "count");
    elapsed_s = (NowMs() - t0) / 1e3;
    metrics.Set("setup_s", setup_s_, "s");
    metrics.Set("peak_rss_mb", peak_mb, "MB");
  } else {
    std::filesystem::create_directories(run_dir_ + "/replay", ec);
    replayer_ = std::make_unique<Replayer>(&catalog_, run_dir_ + "/replay",
                                           kEngineThreads,
                                           stack_->engine->simd_level(), &tracer_);
    for (int key : mix_.PoolKeys()) {  // the replayer's own warm-up
      Sample s;
      s.tmpl = mix_.distinct()[key].tmpl;
      s.stmt_id = next_stmt_++;
      Replay(mix_.distinct()[key].sql, "prewarm", &s);
    }
    // Half the time untraced (the overhead baseline), half traced.
    samples = Phase(args_.seconds / 2, false);
    const double plain_p50 = StmtP50(samples);

    CacheStats cache0 = stack_->engine->CacheStats();
    net::ServerStats net0 = stack_->server->stats();
    uint64_t compactions0 = stack_->engine->compactor()->compactions();
    std::vector<Sample> traced = Phase(args_.seconds / 2, true);
    CacheStats cache1 = stack_->engine->CacheStats();
    net::ServerStats net1 = stack_->server->stats();
    metrics.Set("trace.overhead_ratio", StmtP50(traced) / plain_p50, "ratio");
    samples.insert(samples.end(), traced.begin(), traced.end());

    uint64_t hits = cache1.hits - cache0.hits, misses = cache1.misses - cache0.misses;
    uint64_t upgrades = cache1.tier_upgrades - cache0.tier_upgrades;
    metrics.Set("plan_cache.hit_ratio", hits + misses ? double(hits) / (hits + misses) : 0, "ratio");
    metrics.Set("plan_cache.misses", static_cast<double>(misses), "count");
    metrics.Set("plan_cache.evictions", static_cast<double>(cache1.evictions - cache0.evictions), "count");
    metrics.Set("plan_cache.tier_upgrades", static_cast<double>(upgrades), "count");
    metrics.Set("plan_cache.upgrades_per_miss", misses ? double(upgrades) / misses : 0, "ratio");
    uint64_t pages = net1.pages_streamed - net0.pages_streamed;
    metrics.Set("net.bytes_sent", static_cast<double>(net1.bytes_sent - net0.bytes_sent), "bytes");
    metrics.Set("net.pages_streamed", static_cast<double>(pages), "count");
    metrics.Set("net.rows_per_page",
                pages ? double(net1.rows_streamed - net0.rows_streamed) / pages : 0, "ratio");
    metrics.Set("net.queries_failed", static_cast<double>(net1.queries_failed - net0.queries_failed), "count");
    metrics.Set("txn.compactions",
                static_cast<double>(stack_->engine->compactor()->compactions() - compactions0), "count");
    LayerProbes(&traced);
    PerLayer(traced, &metrics);
    std::vector<Span> spans = tracer_.Snapshot();
    metrics.Set("trace.spans", static_cast<double>(spans.size()), "count");
    uint64_t errors = Reconcile(spans, traced);
    metrics.Set("trace.reconcile_errors", static_cast<double>(errors), "count");
    if (errors > 0) Fail(std::to_string(errors) + " traced statements do not reconcile");
  }

  CheckAnswers();
  if (mix_.spec().name == "refresh_mixed") {
    Status rs = CheckRefresh();
    if (!rs.ok()) Fail(rs.ToString());
  }
  if (args_.trace) {
    Status ts = TxnProbe(&metrics);
    if (!ts.ok()) Fail(ts.ToString());
    std::filesystem::create_directories(args_.workdir + "/.bench_build/traces", ec);
    std::string path = args_.workdir + "/.bench_build/traces/" + mix_.spec().name +
                       "-seed" + std::to_string(args_.seed) + ".jsonl";
    if (tracer_.WriteJsonl(path)) std::printf("spans written to %s\n", path.c_str());
  }
  // Statements whose distinct answer failed the oracle count as failed.
  int64_t attempted = static_cast<int64_t>(samples.size()), failed = 0;
  for (Sample& s : samples) {
    if (s.ok && s.key >= 0 && mix_.distinct()[s.key].oracle_failed) s.ok = false;
    failed += s.ok ? 0 : 1;
  }
  if (!args_.trace) EndToEnd(samples, elapsed_s, &metrics, &report);

  std::printf("workload %s seed %llu: %lld statements, %lld failed\n",
              mix_.spec().name.c_str(), static_cast<unsigned long long>(args_.seed),
              static_cast<long long>(attempted), static_cast<long long>(failed));
  for (const std::string& f : failures_) std::printf("FAILED: %s\n", f.c_str());
  report.Print();
  bool correct = failures_.empty() && failed == 0;
  std::printf("PERFBENCH_RESULT {\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s, \"report\": %s, \"fingerprint\": %s}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), metrics.Json().c_str(),
              report.Json().c_str(), fingerprint.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  hique::bench::Flags flags(argc, argv);
  perfbench::Args args;
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.seconds = flags.GetDouble("seconds", 10);
  args.trace = flags.GetInt("trace", 0) != 0;
  args.workdir = flags.GetString("workdir", ".");
  perfbench::WorkloadSpec spec;
  if (!perfbench::FindWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  perfbench::Bench bench(args, spec);
  return bench.Run();
}
