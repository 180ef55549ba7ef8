// Seeded statement generators for the serving benchmark. Every workload's
// input is a pure function of its seed: the engine only ever receives the
// SQL text produced here.

#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Statement families. The TPC-H templates draw their literals from the
/// specification's substitution ranges; kExport is a wide lineitem
/// projection over a one-year shipdate range; the ad-hoc families are
/// distinct plan shapes; kRf1/kRf2 are refresh-stream DML.
enum class Tmpl { kQ1, kQ3, kQ6, kQ10, kExport, kAdhocSingle, kAdhocJoin,
                  kRf1, kRf2 };

const char* TmplName(Tmpl t);

/// True for the families whose answers are checked against the column
/// engine (joins); the rest are checked against the reference executor.
bool IsJoinTmpl(Tmpl t);

/// `k` distinct statements of template `t`, drawn from `seed`. Workloads
/// pick from such a pool per statement, which bounds the number of distinct
/// answers the oracles must check.
std::vector<std::string> DrawPool(Tmpl t, uint64_t seed, int k);

/// An ad-hoc statement and the family it belongs to.
struct AdhocStatement {
  Tmpl tmpl;  // kAdhocSingle or kAdhocJoin
  std::string sql;
};

/// Ad-hoc shapes an adhoc_cold run draws from: more than a 60 s run sends
/// (about 6 shapes per second here).
constexpr size_t kAdhocStreamLength = 512;

/// `n` statements with pairwise distinct plan shapes, alternating between
/// single-table aggregations over orders/customer/part/partsupp/supplier
/// and 2-3-way TPC-H key joins without lineitem (each family cycling
/// through its tables), each with 0-2 seeded group-by columns, 1-3
/// aggregates and 0-2 filters. The same seed yields a byte-identical
/// stream. Shorter than `n` only if the shape space runs out.
std::vector<AdhocStatement> AdhocStream(uint64_t seed, size_t n);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
