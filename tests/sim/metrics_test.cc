#include "futurerand/sim/metrics.h"

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "testsupport/field_table.h"

namespace futurerand::sim {
namespace {

TEST(MetricsTest, PerfectEstimatesGiveZeroError) {
  const std::vector<double> estimates = {1.0, 2.0, 3.0};
  const std::vector<int64_t> truth = {1, 2, 3};
  const ErrorMetrics metrics = ComputeErrorMetrics(estimates, truth);
  EXPECT_EQ(metrics.max_abs, 0.0);
  EXPECT_EQ(metrics.mean_abs, 0.0);
  EXPECT_EQ(metrics.rmse, 0.0);
}

TEST(MetricsTest, KnownErrors) {
  const std::vector<double> estimates = {1.0, 5.0, 2.0, 2.0};
  const std::vector<int64_t> truth = {2, 2, 2, 2};
  const ErrorMetrics metrics = ComputeErrorMetrics(estimates, truth);
  EXPECT_DOUBLE_EQ(metrics.max_abs, 3.0);
  EXPECT_EQ(metrics.argmax_time, 2);
  EXPECT_DOUBLE_EQ(metrics.mean_abs, 1.0);  // (1+3+0+0)/4
  EXPECT_DOUBLE_EQ(metrics.rmse, std::sqrt(10.0 / 4.0));
}

TEST(MetricsTest, ArgmaxIsFirstMaximizer) {
  const std::vector<double> estimates = {3.0, 3.0};
  const std::vector<int64_t> truth = {0, 0};
  EXPECT_EQ(ComputeErrorMetrics(estimates, truth).argmax_time, 1);
}

TEST(MetricsTest, NegativeErrorsUseAbsoluteValue) {
  const std::vector<double> estimates = {-4.0};
  const std::vector<int64_t> truth = {1};
  EXPECT_DOUBLE_EQ(ComputeErrorMetrics(estimates, truth).max_abs, 5.0);
}

TEST(MetricsTest, MismatchedLengthsDie) {
  const std::vector<double> estimates = {1.0, 2.0};
  const std::vector<int64_t> truth = {1};
  EXPECT_DEATH({ (void)ComputeErrorMetrics(estimates, truth); }, "");
}

TEST(MetricsTest, ToStringIncludesFields) {
  const std::vector<double> estimates = {2.0};
  const std::vector<int64_t> truth = {1};
  const std::string text = ComputeErrorMetrics(estimates, truth).ToString();
  EXPECT_NE(text.find("max=1"), std::string::npos);
  EXPECT_NE(text.find("t=1"), std::string::npos);
}

TEST(DeliveryMetricsTest, EveryFieldIsPrintedWithItsValue) {
  testsupport::ExpectEveryFieldPrinted<DeliveryMetrics>();
}

TEST(DeliveryMetricsTest, PlusEqualsAddsEveryField) {
  DeliveryMetrics once;
  int64_t next = 1;
  ForEachField(once, [&](const char*, int64_t& field) { field = next++; });
  DeliveryMetrics thrice = once;
  thrice += once;
  thrice += once;
  next = 1;
  ForEachField(thrice, [&](const char* name, int64_t field) {
    EXPECT_EQ(field, 3 * next++) << name;
  });
}

}  // namespace
}  // namespace futurerand::sim
