#include "futurerand/sim/metrics.h"

#include <cmath>
#include <cstdio>

#include "futurerand/common/macros.h"

namespace futurerand::sim {

std::string ErrorMetrics::ToString() const {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "ErrorMetrics{max=%.4g@t=%lld mean=%.4g rmse=%.4g}", max_abs,
                static_cast<long long>(argmax_time), mean_abs, rmse);
  return buffer;
}

std::string DeliveryMetrics::ToString() const {
  return FieldsToString("DeliveryMetrics", *this);
}

ErrorMetrics ComputeErrorMetrics(std::span<const double> estimates,
                                 std::span<const int64_t> truth) {
  FR_CHECK(!estimates.empty());
  FR_CHECK(estimates.size() == truth.size());
  ErrorMetrics metrics;
  double abs_sum = 0.0;
  double square_sum = 0.0;
  for (size_t i = 0; i < estimates.size(); ++i) {
    const double error =
        std::abs(estimates[i] - static_cast<double>(truth[i]));
    abs_sum += error;
    square_sum += error * error;
    if (error > metrics.max_abs) {
      metrics.max_abs = error;
      metrics.argmax_time = static_cast<int64_t>(i) + 1;
    }
  }
  const auto n = static_cast<double>(estimates.size());
  metrics.mean_abs = abs_sum / n;
  metrics.rmse = std::sqrt(square_sum / n);
  return metrics;
}

}  // namespace futurerand::sim
