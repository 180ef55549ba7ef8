// Layer-by-layer replay of one statement through the engine's public
// functions, with a span around every call: sql::Parse, sql::Bind,
// plan::Optimize, plan::ParameterizePlan + plan::PlanSignature,
// codegen::Generate, exec::CompileToSharedLibrary (-O0 and -O2),
// exec::CompiledLibrary::Load and exec::ExecuteCompiled. This mirrors the
// engine's own prepare/compile/execute path (HiqueEngine::PrepareState),
// so the spans price each layer the wire statement went through.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "exec/compiled_library.h"
#include "exec/executor.h"
#include "exec/worker_pool.h"
#include "storage/catalog.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

struct ReplayResult {
  hique::Status status = hique::Status::OK();
  double parse_ms = 0, bind_ms = 0, optimize_ms = 0, signature_ms = 0;
  // Set when the signature was new to the replayer and it compiled it.
  bool compiled = false;
  double generate_ms = 0, compile_o0_ms = 0, compile_o2_ms = 0;
  double load_ms = 0;  // the -O0 library's load (the one a miss waits for)
  int64_t source_bytes = 0, library_bytes = 0;
  double execute_ms = 0;
  int64_t rows = 0;
  hique::exec::ExecStats stats;

  /// The layers the server runs inline for this statement: the front half,
  /// the -O0 compile path when the statement missed the plan cache, and
  /// execution. The -O2 recompile runs on the engine's tier worker.
  double InlineMs(bool cache_miss) const {
    double ms = parse_ms + bind_ms + optimize_ms + signature_ms + execute_ms;
    if (cache_miss) ms += generate_ms + compile_o0_ms + load_ms;
    return ms;
  }
};

class Replayer {
 public:
  /// `threads` executor slots (a pool of threads - 1 workers, like the
  /// engine's). Libraries are built in `gen_dir`.
  Replayer(hique::Catalog* catalog, std::string gen_dir, uint32_t threads,
           int32_t simd_level, Tracer* tracer);

  /// Replays a SELECT under span `parent` of statement `stmt`. The first
  /// time a plan signature is seen it is generated and compiled at -O0 and
  /// -O2; execution always uses the -O2 library (what a warm cache serves).
  ReplayResult Replay(const std::string& sql, uint64_t stmt, uint64_t parent);

  /// Replays the front end of a DML statement (sql::ParseDml only: applying
  /// it a second time would change the data).
  ReplayResult ReplayDmlParse(const std::string& sql, uint64_t stmt,
                              uint64_t parent);

  uint64_t compile_failures() const { return compile_failures_.load(); }

 private:
  hique::Catalog* catalog_;
  std::string gen_dir_;
  int32_t simd_level_;
  Tracer* tracer_;
  std::unique_ptr<hique::exec::WorkerPool> pool_;
  std::mutex mu_;
  std::map<std::string, std::shared_ptr<hique::exec::CompiledLibrary>> libs_;
  std::atomic<uint64_t> next_name_{0};
  std::atomic<uint64_t> compile_failures_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
