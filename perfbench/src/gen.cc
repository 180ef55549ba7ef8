#include "gen.h"

#include <algorithm>
#include <cstdio>
#include <set>

#include "storage/types.h"
#include "util/rng.h"

namespace perfbench {

using hique::DateToDays;
using hique::Rng;

namespace {

const char* const kSegments[] = {"AUTOMOBILE", "BUILDING", "FURNITURE",
                                 "MACHINERY", "HOUSEHOLD"};
const char* const kPriorities[] = {"1-URGENT", "2-HIGH", "3-MEDIUM",
                                   "4-NOT SPECIFIED", "5-LOW"};

std::string DateLit(int32_t days) {
  int y, m, d;
  hique::DaysToDate(days, &y, &m, &d);
  char buf[32];
  std::snprintf(buf, sizeof(buf), "date '%04d-%02d-%02d'", y, m, d);
  return buf;
}

std::string Fixed2(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", v);
  return buf;
}

// ---- TPC-H templates (spec 2.4: substitution parameters) -----------------

std::string DrawQ1(Rng* rng) {
  int32_t delta = static_cast<int32_t>(rng->NextRange(60, 120));
  return "select l_returnflag, l_linestatus, sum(l_quantity) as sum_qty, "
         "sum(l_extendedprice) as sum_base_price, "
         "sum(l_extendedprice * (1 - l_discount)) as sum_disc_price, "
         "sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) as "
         "sum_charge, avg(l_quantity) as avg_qty, "
         "avg(l_extendedprice) as avg_price, avg(l_discount) as avg_disc, "
         "count(*) as count_order from lineitem where l_shipdate <= " +
         DateLit(DateToDays(1998, 12, 1) - delta) +
         " group by l_returnflag, l_linestatus "
         "order by l_returnflag, l_linestatus";
}

std::string DrawQ3(Rng* rng) {
  const char* segment = kSegments[rng->NextBounded(5)];
  std::string date =
      DateLit(DateToDays(1995, 3, 1) + static_cast<int32_t>(rng->NextBounded(31)));
  return std::string(
             "select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as "
             "revenue, o_orderdate, o_shippriority "
             "from customer, orders, lineitem where c_mktsegment = '") +
         segment +
         "' and c_custkey = o_custkey and l_orderkey = o_orderkey "
         "and o_orderdate < " + date + " and l_shipdate > " + date +
         " group by l_orderkey, o_orderdate, o_shippriority "
         "order by revenue desc, o_orderdate limit 10";
}

std::string DrawQ6(Rng* rng) {
  int year = static_cast<int>(rng->NextRange(1993, 1997));
  double discount = static_cast<double>(rng->NextRange(2, 9)) / 100.0;
  int quantity = static_cast<int>(rng->NextRange(24, 25));
  return "select sum(l_extendedprice * l_discount) as revenue from lineitem "
         "where l_shipdate >= " + DateLit(DateToDays(year, 1, 1)) +
         " and l_shipdate < " + DateLit(DateToDays(year + 1, 1, 1)) +
         " and l_discount >= " + Fixed2(discount - 0.01) +
         " and l_discount <= " + Fixed2(discount + 0.01) +
         " and l_quantity < " + std::to_string(quantity);
}

std::string DrawQ10(Rng* rng) {
  int month = static_cast<int>(rng->NextBounded(24));  // 1993-02 .. 1995-01
  int y = 1993 + (month + 1) / 12, m = (month + 1) % 12 + 1;
  int y2 = y + (m + 2) / 12, m2 = (m + 2) % 12 + 1;
  return "select c_custkey, c_name, "
         "sum(l_extendedprice * (1 - l_discount)) as revenue, c_acctbal, "
         "n_name, c_address, c_phone, c_comment "
         "from customer, orders, lineitem, nation "
         "where c_custkey = o_custkey and l_orderkey = o_orderkey "
         "and o_orderdate >= " + DateLit(DateToDays(y, m, 1)) +
         " and o_orderdate < " + DateLit(DateToDays(y2, m2, 1)) +
         " and l_returnflag = 'R' and c_nationkey = n_nationkey "
         "group by c_custkey, c_name, c_acctbal, c_phone, n_name, "
         "c_address, c_comment order by revenue desc limit 20";
}

std::string DrawExport(Rng* rng) {
  // A one-year window starting on a day-of-month <= 28 between 1992-02 and
  // 1997-07, so the window stays inside the shipdate domain.
  int month = static_cast<int>(rng->NextBounded(66));
  int y = 1992 + (month + 1) / 12, m = (month + 1) % 12 + 1;
  int d = 1 + static_cast<int>(rng->NextBounded(28));
  return "select l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, "
         "l_extendedprice, l_discount, l_tax, l_returnflag, l_linestatus, "
         "l_shipdate, l_commitdate, l_receiptdate, l_shipmode from lineitem "
         "where l_shipdate >= " + DateLit(DateToDays(y, m, d)) +
         " and l_shipdate < " + DateLit(DateToDays(y + 1, m, d));
}

// ---- ad-hoc shapes ---------------------------------------------------------

enum class LitKind { kInt, kCents, kDate, kPriority, kSegment };

struct FilterCol {
  const char* col;
  LitKind kind;
  int64_t lo, hi;  // domain (cents for kCents, days for kDate)
};

struct TableSpec {
  const char* name;
  std::vector<const char*> group;
  std::vector<const char*> measures;
  std::vector<FilterCol> filters;
};

const std::vector<TableSpec>& Tables() {
  static const std::vector<TableSpec> kTables = {
      {"orders",
       {"o_orderstatus", "o_orderpriority", "o_shippriority"},
       {"o_totalprice"},
       {{"o_orderdate", LitKind::kDate, DateToDays(1992, 1, 1),
         DateToDays(1998, 8, 1)},
        {"o_totalprice", LitKind::kCents, 100000, 40000000},
        {"o_orderpriority", LitKind::kPriority, 0, 4}}},
      {"customer",
       {"c_mktsegment", "c_nationkey"},
       {"c_acctbal"},
       {{"c_acctbal", LitKind::kCents, 0, 900000},
        {"c_nationkey", LitKind::kInt, 0, 24},
        {"c_mktsegment", LitKind::kSegment, 0, 4}}},
      {"part",
       {"p_mfgr", "p_size", "p_container"},
       {"p_retailprice", "p_size"},
       {{"p_size", LitKind::kInt, 1, 50},
        {"p_retailprice", LitKind::kCents, 90000, 200000}}},
      {"partsupp",
       {"ps_suppkey"},
       {"ps_supplycost", "ps_availqty"},
       {{"ps_availqty", LitKind::kInt, 1, 9999},
        {"ps_supplycost", LitKind::kCents, 100, 100000}}},
      {"supplier",
       {"s_nationkey"},
       {"s_acctbal"},
       {{"s_acctbal", LitKind::kCents, 0, 900000},
        {"s_nationkey", LitKind::kInt, 0, 24},
        {"s_suppkey", LitKind::kInt, 1, 1000}}},
      {"nation", {"n_regionkey", "n_name"}, {}, {{"n_regionkey", LitKind::kInt, 0, 4}}},
      {"region", {"r_name"}, {}, {{"r_regionkey", LitKind::kInt, 0, 4}}},
  };
  return kTables;
}

const TableSpec& Table(const std::string& name) {
  for (const TableSpec& t : Tables()) {
    if (name == t.name) return t;
  }
  return Tables().front();
}

struct JoinSpec {
  std::vector<const char*> tables;
  std::vector<const char*> predicates;
};

const std::vector<JoinSpec>& Joins() {
  // No lineitem: its joins build hash tables of up to ~100 MB, so a run's
  // time and memory would hinge on how many of them the seed drew, while
  // this workload is about compiling (warm_olap covers lineitem joins).
  static const std::vector<JoinSpec> kJoins = {
      {{"customer", "orders"}, {"c_custkey = o_custkey"}},
      {{"customer", "nation"}, {"c_nationkey = n_nationkey"}},
      {{"supplier", "nation"}, {"s_nationkey = n_nationkey"}},
      {{"part", "partsupp"}, {"p_partkey = ps_partkey"}},
      {{"partsupp", "supplier"}, {"ps_suppkey = s_suppkey"}},
      {{"nation", "region"}, {"n_regionkey = r_regionkey"}},
      {{"customer", "orders", "nation"},
       {"c_custkey = o_custkey", "c_nationkey = n_nationkey"}},
      {{"part", "partsupp", "supplier"},
       {"p_partkey = ps_partkey", "ps_suppkey = s_suppkey"}},
      {{"supplier", "nation", "region"},
       {"s_nationkey = n_nationkey", "n_regionkey = r_regionkey"}},
      {{"customer", "nation", "region"},
       {"c_nationkey = n_nationkey", "n_regionkey = r_regionkey"}},
  };
  return kJoins;
}

// Draws a literal on the side of the domain's midpoint that keeps the
// predicate's selectivity at one half or more, so answers are rarely empty.
std::string DrawLiteral(const FilterCol& f, const std::string& op, Rng* rng) {
  switch (f.kind) {
    case LitKind::kPriority:
      return std::string("'") + kPriorities[rng->NextBounded(5)] + "'";
    case LitKind::kSegment:
      return std::string("'") + kSegments[rng->NextBounded(5)] + "'";
    default:
      break;
  }
  int64_t mid = f.lo + (f.hi - f.lo) / 2;
  bool upper = op[0] == '<';
  int64_t v = upper ? rng->NextRange(mid, f.hi) : rng->NextRange(f.lo, mid);
  if (f.kind == LitKind::kDate) return DateLit(static_cast<int32_t>(v));
  if (f.kind == LitKind::kCents) return Fixed2(static_cast<double>(v) / 100.0);
  return std::to_string(v);
}

// Picks `count` distinct indexes of [0, n) in ascending order.
std::vector<size_t> PickSorted(size_t n, size_t count, Rng* rng) {
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;
  rng->Shuffle(n, [&](uint64_t i, uint64_t j) { std::swap(idx[i], idx[j]); });
  idx.resize(std::min(n, count));
  std::sort(idx.begin(), idx.end());
  return idx;
}

// Shape `i` of a stream: even shapes are single-table aggregations, odd
// ones joins, each family cycling through its tables/join templates, so
// every stream covers the same structural mix; the seed draws the group-by
// column, aggregates and filter.
AdhocStatement DrawShape(uint64_t i, Rng* rng, std::string* key) {
  AdhocStatement out;
  std::vector<const char*> tables;
  std::vector<const char*> predicates;
  if (i % 2 == 0) {
    out.tmpl = Tmpl::kAdhocSingle;
    tables.push_back(Tables()[(i / 2) % 5].name);  // not nation/region
  } else {
    out.tmpl = Tmpl::kAdhocJoin;
    const JoinSpec& j = Joins()[(i / 2) % Joins().size()];
    tables = j.tables;
    predicates = j.predicates;
  }
  std::vector<const char*> group, measures;
  std::vector<FilterCol> filters;
  for (const char* t : tables) {
    const TableSpec& spec = Table(t);
    group.insert(group.end(), spec.group.begin(), spec.group.end());
    measures.insert(measures.end(), spec.measures.begin(), spec.measures.end());
    filters.insert(filters.end(), spec.filters.begin(), spec.filters.end());
  }

  std::string select, group_by, where;
  *key = std::string(TmplName(out.tmpl)) + "|";
  for (const char* t : tables) *key += std::string(t) + ",";
  *key += "|g:";
  for (size_t i : PickSorted(group.size(), rng->NextBounded(3), rng)) {
    if (!group_by.empty()) group_by += ", ";
    group_by += group[i];
    *key += std::string(group[i]) + ",";
  }
  select = group_by;

  static const char* const kFuncs[] = {"sum", "avg", "min", "max", "count"};
  std::set<std::string> aggs;
  *key += "|a:";
  const size_t num_aggs = 1 + rng->NextBounded(3);
  for (size_t attempt = 0; attempt < 16 && aggs.size() < num_aggs; ++attempt) {
    const char* fn = kFuncs[rng->NextBounded(5)];
    std::string agg = (measures.empty() || std::string(fn) == "count")
                          ? std::string("count(*)")
                          : std::string(fn) + "(" +
                                measures[rng->NextBounded(measures.size())] +
                                ")";
    if (!aggs.insert(agg).second) continue;
    if (!select.empty()) select += ", ";
    select += agg + " as a" + std::to_string(aggs.size() - 1);
    *key += agg + ",";
  }

  for (const char* p : predicates) {
    where += where.empty() ? "" : " and ";
    where += p;
  }
  static const char* const kOps[] = {"<", "<=", ">", ">="};
  *key += "|f:";
  for (size_t i : PickSorted(filters.size(), rng->NextBounded(3), rng)) {
    const FilterCol& f = filters[i];
    bool is_char = f.kind == LitKind::kPriority || f.kind == LitKind::kSegment;
    std::string op = is_char ? "=" : kOps[rng->NextBounded(4)];
    where += where.empty() ? "" : " and ";
    where += std::string(f.col) + " " + op + " " + DrawLiteral(f, op, rng);
    *key += std::string(f.col) + op + ",";
  }

  out.sql = "select " + select + " from ";
  for (size_t i = 0; i < tables.size(); ++i) {
    out.sql += (i > 0 ? ", " : "") + std::string(tables[i]);
  }
  if (!where.empty()) out.sql += " where " + where;
  if (!group_by.empty()) {
    out.sql += " group by " + group_by + " order by " + group_by;
  }
  return out;
}

/// One drawn statement of a TPC-H template or the export projection.
std::string DrawTemplate(Tmpl t, uint64_t seed) {
  Rng rng(seed);
  switch (t) {
    case Tmpl::kQ1: return DrawQ1(&rng);
    case Tmpl::kQ3: return DrawQ3(&rng);
    case Tmpl::kQ6: return DrawQ6(&rng);
    case Tmpl::kQ10: return DrawQ10(&rng);
    case Tmpl::kExport: return DrawExport(&rng);
    default: return "";
  }
}

}  // namespace

const char* TmplName(Tmpl t) {
  switch (t) {
    case Tmpl::kQ1: return "q1";
    case Tmpl::kQ3: return "q3";
    case Tmpl::kQ6: return "q6";
    case Tmpl::kQ10: return "q10";
    case Tmpl::kExport: return "export";
    case Tmpl::kAdhocSingle: return "adhoc_single";
    case Tmpl::kAdhocJoin: return "adhoc_join";
    case Tmpl::kRf1: return "rf1";
    case Tmpl::kRf2: return "rf2";
  }
  return "?";
}

bool IsJoinTmpl(Tmpl t) {
  return t == Tmpl::kQ3 || t == Tmpl::kQ10 || t == Tmpl::kAdhocJoin;
}

std::vector<std::string> DrawPool(Tmpl t, uint64_t seed, int k) {
  std::vector<std::string> pool;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(t) + 1);
  for (int attempt = 0; attempt < 64 * k && static_cast<int>(pool.size()) < k;
       ++attempt) {
    std::string sql = DrawTemplate(t, rng.Next());
    if (std::find(pool.begin(), pool.end(), sql) == pool.end()) {
      pool.push_back(std::move(sql));
    }
  }
  return pool;
}

std::vector<AdhocStatement> AdhocStream(uint64_t seed, size_t n) {
  std::vector<AdhocStatement> out;
  std::set<std::string> seen;
  Rng rng(seed ^ 0xADC0DEull);
  for (size_t attempt = 0; attempt < 64 * n && out.size() < n; ++attempt) {
    std::string key;
    AdhocStatement s = DrawShape(out.size(), &rng, &key);
    if (seen.insert(key).second) out.push_back(std::move(s));
  }
  return out;
}

}  // namespace perfbench
