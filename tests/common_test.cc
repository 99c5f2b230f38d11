// Unit tests for lacb/common: Status, Result, Rng, DiscreteSampler,
// TablePrinter, and the kernels' SIMD tier choice and width seam.

#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "lacb/common/cpu.h"
#include "lacb/common/discrete_sampler.h"
#include "lacb/common/result.h"
#include "lacb/common/rng.h"
#include "lacb/common/status.h"
#include "lacb/common/table_printer.h"

namespace lacb {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad knob");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad knob");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad knob");
}

TEST(StatusTest, AllConstructorsProduceMatchingCodes) {
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::OK(), Status());
  EXPECT_EQ(Status::Internal("a"), Status::Internal("a"));
  EXPECT_FALSE(Status::Internal("a") == Status::Internal("b"));
}

TEST(StatusTest, CopyIsCheapAndShared) {
  Status a = Status::NotFound("gone");
  Status b = a;
  EXPECT_EQ(b.message(), "gone");
  EXPECT_EQ(a, b);
}

Status FailsThrough() {
  LACB_RETURN_NOT_OK(Status::Internal("inner"));
  return Status::OK();
}

TEST(StatusTest, ReturnNotOkPropagates) {
  EXPECT_EQ(FailsThrough().code(), StatusCode::kInternal);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 41;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 41);
  EXPECT_EQ(r.value_or(7), 41);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(ResultTest, OkStatusBecomesInternalError) {
  Result<int> r = Status::OK();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

Result<int> Doubles(Result<int> in) {
  LACB_ASSIGN_OR_RETURN(int v, in);
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*Doubles(21), 42);
  EXPECT_EQ(Doubles(Status::IoError("disk")).status().code(),
            StatusCode::kIoError);
}

TEST(RngTest, Deterministic) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, ForkIndependentOfParentConsumption) {
  Rng a(5);
  Rng b(5);
  a.Uniform();
  a.Normal();
  // Fork depends only on the seed and the tag, not on draws made so far.
  EXPECT_DOUBLE_EQ(a.Fork(9).Uniform(), b.Fork(9).Uniform());
}

TEST(RngTest, ForkedStreamsDiffer) {
  Rng root(7);
  EXPECT_NE(root.Fork(1).Uniform(), root.Fork(2).Uniform());
}

TEST(RngTest, UniformRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, UniformIntInclusiveBounds) {
  Rng rng(2);
  std::set<int64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.UniformInt(0, 3));
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 3);
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(3);
  std::vector<double> w = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.Categorical(w), 1u);
  }
}

TEST(RngTest, CategoricalZeroTotalFallsBackToUniform) {
  Rng rng(4);
  std::vector<double> w = {0.0, 0.0, 0.0};
  std::set<size_t> seen;
  for (int i = 0; i < 300; ++i) seen.insert(rng.Categorical(w));
  EXPECT_EQ(seen.size(), 3u);
}

TEST(RngTest, ZipfFavorsLowRanks) {
  Rng rng(5);
  size_t low = 0;
  const int kDraws = 2000;
  for (int i = 0; i < kDraws; ++i) {
    if (rng.Zipf(100, 1.2) < 5) ++low;
  }
  // Under Zipf(1.2) the first five ranks carry well over a third of mass.
  EXPECT_GT(low, kDraws / 3);
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(6);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7};
  std::vector<int> orig = v;
  rng.Shuffle(&v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(DiscreteSamplerTest, MatchesWeights) {
  Rng rng(7);
  DiscreteSampler s({1.0, 0.0, 3.0});
  size_t counts[3] = {0, 0, 0};
  const int kDraws = 4000;
  for (int i = 0; i < kDraws; ++i) ++counts[s.Sample(&rng)];
  EXPECT_EQ(counts[1], 0u);
  EXPECT_GT(counts[2], counts[0]);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kDraws, 0.75, 0.05);
}

TEST(DiscreteSamplerTest, ZipfFactoryIsMonotone) {
  Rng rng(8);
  DiscreteSampler s = DiscreteSampler::Zipf(50, 1.0);
  std::vector<size_t> counts(50, 0);
  for (int i = 0; i < 20000; ++i) ++counts[s.Sample(&rng)];
  EXPECT_GT(counts[0], counts[10]);
  EXPECT_GT(counts[10], counts[40]);
}

TEST(TablePrinterTest, AlignsAndRejectsBadRows) {
  TablePrinter t;
  t.SetHeader({"name", "value"});
  ASSERT_TRUE(t.AddRow({"alpha", "1"}).ok());
  EXPECT_FALSE(t.AddRow({"too", "many", "cells"}).ok());
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("alpha"), std::string::npos);
  EXPECT_NE(os.str().find("value"), std::string::npos);
}

TEST(TablePrinterTest, CsvOutput) {
  TablePrinter t;
  t.SetHeader({"a", "b"});
  ASSERT_TRUE(t.AddRow({"1", "2"}).ok());
  std::ostringstream os;
  t.PrintCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TablePrinterTest, NumFormatsPrecision) {
  EXPECT_EQ(TablePrinter::Num(1.23456, 2), "1.23");
  EXPECT_EQ(TablePrinter::Num(2.0, 0), "2");
}

TEST(SimdTierTest, ChoosesTheWidestSupportedWidth) {
  size_t widest = 2;
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq")) {
    widest = 8;
  } else if (__builtin_cpu_supports("avx2")) {
    widest = 4;
  }
#endif
  EXPECT_EQ(SimdDoubleLanes(), widest);
  EXPECT_EQ(KernelLanes(), widest);
  EXPECT_FALSE(KernelLanesForced());
  EXPECT_FALSE(ForceKernelLanesForTesting(3).ok());
  EXPECT_FALSE(ForceKernelLanesForTesting(16).ok());
  for (size_t lanes : {2, 4, 8}) {
    EXPECT_EQ(ForceKernelLanesForTesting(lanes).ok(), lanes <= widest)
        << lanes;
    if (lanes <= widest) {
      EXPECT_EQ(KernelLanes(), lanes);
      EXPECT_TRUE(KernelLanesForced());
    }
  }
  ASSERT_TRUE(ForceKernelLanesForTesting(0).ok());
  EXPECT_EQ(KernelLanes(), widest);
  EXPECT_FALSE(KernelLanesForced());
}

}  // namespace
}  // namespace lacb
