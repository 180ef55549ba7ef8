#include "replay.h"

#include "codegen/generator.h"
#include "exec/compiler.h"
#include "plan/optimizer.h"
#include "plan/params.h"
#include "sql/binder.h"
#include "sql/parser.h"

namespace perfbench {

using namespace hique;

Replayer::Replayer(Catalog* catalog, std::string gen_dir, uint32_t threads,
                   int32_t simd_level, Tracer* tracer)
    : catalog_(catalog),
      gen_dir_(std::move(gen_dir)),
      simd_level_(simd_level),
      tracer_(tracer) {
  if (threads > 1) pool_ = std::make_unique<exec::WorkerPool>(threads - 1);
}

ReplayResult Replayer::ReplayDmlParse(const std::string& sql, uint64_t stmt,
                                      uint64_t parent) {
  ReplayResult r;
  double t0 = NowMs();
  auto parsed = sql::ParseDml(sql);
  double t1 = NowMs();
  tracer_->Record("sql.parse", parent, stmt, t0, t1);
  r.parse_ms = t1 - t0;
  if (!parsed.ok()) r.status = parsed.status();
  return r;
}

ReplayResult Replayer::Replay(const std::string& sql, uint64_t stmt,
                              uint64_t parent) {
  ReplayResult r;
  auto fail = [&r](const Status& status) {
    r.status = status;
    return r;
  };
  // Runs one layer call under a span; returns the call's result.
  auto span = [&](const char* name, double* ms, auto&& fn) {
    double t0 = NowMs();
    auto out = fn();
    double t1 = NowMs();
    tracer_->Record(name, parent, stmt, t0, t1);
    if (ms != nullptr) *ms = t1 - t0;
    return out;
  };

  auto parsed = span("sql.parse", &r.parse_ms, [&] { return sql::Parse(sql); });
  if (!parsed.ok()) return fail(parsed.status());
  auto bound = span("sql.bind", &r.bind_ms,
                    [&] { return sql::Bind(*parsed.value(), *catalog_); });
  if (!bound.ok()) return fail(bound.status());
  auto planned = span("plan.optimize", &r.optimize_ms, [&] {
    return plan::Optimize(std::move(bound).value());
  });
  if (!planned.ok()) return fail(planned.status());
  std::unique_ptr<plan::PhysicalPlan> plan = std::move(planned).value();
  std::string signature = span("plan.signature", &r.signature_ms, [&] {
    plan::ParameterizePlan(plan.get(), plan::ParamMode::kAllLiterals);
    return "sv" + std::to_string(catalog_->StatsVersion()) + "|" +
           plan::PlanSignature(*plan);
  });

  std::shared_ptr<exec::CompiledLibrary> lib;
  {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = libs_.find(signature);
    if (it != libs_.end()) lib = it->second;
  }
  if (lib == nullptr) {
    r.compiled = true;
    auto generated = span("codegen.generate", &r.generate_ms,
                          [&] { return codegen::Generate(*plan); });
    if (!generated.ok()) return fail(generated.status());
    r.source_bytes = static_cast<int64_t>(generated.value().source.size());
    for (int level : {0, 2}) {
      exec::CompileOptions copts;
      copts.opt_level = level;
      std::string name = "r" + std::to_string(next_name_++);
      auto compiled = span(level == 0 ? "exec.compile_o0" : "exec.compile_o2",
                           level == 0 ? &r.compile_o0_ms : &r.compile_o2_ms,
                           [&] {
                             return exec::CompileToSharedLibrary(
                                 generated.value().source, gen_dir_, name,
                                 copts);
                           });
      if (!compiled.ok()) {
        compile_failures_.fetch_add(1);
        return fail(compiled.status());
      }
      if (level == 2) r.library_bytes = compiled.value().library_bytes;
      auto loaded = span(level == 0 ? "exec.load_o0" : "exec.load_o2",
                         level == 0 ? &r.load_ms : nullptr, [&] {
        return exec::CompiledLibrary::Load(
            std::move(compiled).value(), generated.value().entry_symbol,
            generated.value().source, level, /*unlink_on_unload=*/true,
            simd_level_);
      });
      if (!loaded.ok()) return fail(loaded.status());
      lib = std::move(loaded).value();
    }
    std::lock_guard<std::mutex> lk(mu_);
    libs_.emplace(signature, lib);
  }

  exec::BoundParams params;
  exec::BindParams(plan->params, &params);
  exec::ParallelRuntime par;
  par.pool = pool_.get();
  par.collect_op_stats = true;
  double t0 = NowMs();
  auto table = exec::ExecuteCompiled(*plan, lib->entry(), &params.abi,
                                     &r.stats, par);
  double t1 = NowMs();
  uint64_t exec_span = tracer_->Record("exec.execute", parent, stmt, t0, t1);
  r.execute_ms = t1 - t0;
  if (!table.ok()) return fail(table.status());
  r.rows = static_cast<int64_t>(table.value()->NumTuples());
  // Operator spans: the executor times consecutive operator marks on the
  // orchestrating thread, so they tile the execution from its start.
  double at = t0;
  for (const exec::OpStat& op : r.stats.ops) {
    double end = at + op.wall_seconds * 1e3;
    tracer_->Record("exec.op" + std::to_string(op.op_id), exec_span, stmt, at,
                    end);
    at = end;
  }
  return r;
}

}  // namespace perfbench
