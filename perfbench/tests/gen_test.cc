// The benchmark's statement generator: seeded, valid in the engine's
// dialect, and (for adhoc_cold) one plan shape per statement.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "gen.h"
#include "plan/optimizer.h"
#include "plan/params.h"
#include "sql/binder.h"
#include "sql/parser.h"
#include "tpch/tpch.h"

namespace perfbench {
namespace {

using hique::Catalog;

const std::vector<Tmpl> kPooled = {Tmpl::kQ1, Tmpl::kQ3, Tmpl::kQ6,
                                   Tmpl::kQ10, Tmpl::kExport};

/// Every statement a seed generates, in generation order.
std::vector<std::string> Stream(uint64_t seed) {
  std::vector<std::string> out;
  for (Tmpl t : kPooled) {
    for (std::string& sql : DrawPool(t, seed, 3)) out.push_back(sql);
  }
  for (AdhocStatement& s : AdhocStream(seed, 200)) out.push_back(s.sql);
  return out;
}

class GenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    hique::tpch::TpchOptions opts;
    opts.scale_factor = 0.01;
    ASSERT_TRUE(hique::tpch::LoadTpch(catalog_, opts).ok());
  }
  static void TearDownTestSuite() { delete catalog_; }
  static Catalog* catalog_;
};

Catalog* GenTest::catalog_ = nullptr;

TEST_F(GenTest, SameSeedGivesByteIdenticalStream) {
  for (uint64_t seed : {1ull, 7ull, 123456789ull}) {
    EXPECT_EQ(Stream(seed), Stream(seed));
  }
  EXPECT_NE(Stream(1), Stream(2));
}

TEST_F(GenTest, PoolsHoldDistinctStatements) {
  for (Tmpl t : kPooled) {
    std::vector<std::string> pool = DrawPool(t, 5, 3);
    ASSERT_EQ(pool.size(), 3u) << TmplName(t);
    EXPECT_EQ(std::set<std::string>(pool.begin(), pool.end()).size(), 3u);
  }
}

TEST_F(GenTest, EveryDrawParsesAndBinds) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    for (const std::string& sql : Stream(seed)) {
      auto stmt = hique::sql::Parse(sql);
      ASSERT_TRUE(stmt.ok()) << stmt.status().ToString() << "\n" << sql;
      auto bound = hique::sql::Bind(*stmt.value(), *catalog_);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString() << "\n" << sql;
    }
  }
}

TEST_F(GenTest, AdhocShapesHaveDistinctPlanSignatures) {
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    std::set<std::string> signatures;
    std::vector<AdhocStatement> stream = AdhocStream(seed, kAdhocStreamLength);
    ASSERT_EQ(stream.size(), kAdhocStreamLength);
    for (const AdhocStatement& s : stream) {
      auto bound = hique::sql::ParseAndBind(s.sql, *catalog_);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      auto plan = hique::plan::Optimize(std::move(bound).value());
      ASSERT_TRUE(plan.ok()) << plan.status().ToString() << "\n" << s.sql;
      hique::plan::ParameterizePlan(plan.value().get());
      EXPECT_TRUE(signatures.insert(hique::plan::PlanSignature(*plan.value())).second)
          << "repeated plan shape: " << s.sql;
    }
    EXPECT_EQ(signatures.size(), stream.size());
  }
}

}  // namespace
}  // namespace perfbench
