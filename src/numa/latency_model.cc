#include "src/numa/latency_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace xnuma {

LatencyModel::LatencyModel(LatencyParams params) : params_(params) {
  XNUMA_CHECK(params_.saturation_util > 0.0 && params_.saturation_util < 1.0);
  XNUMA_CHECK(params_.congestion_exponent >= 1.0);
  XNUMA_CHECK(params_.overload_slope >= 0.0);
}

double LatencyModel::CongestionFactor(double util) const {
  const double u = std::max(util, 0.0);
  const double sat = params_.saturation_util;
  if (u <= sat) {
    return std::pow(u / sat, params_.congestion_exponent);
  }
  return std::min(1.0 + (u - sat) * params_.overload_slope, params_.max_congestion);
}

double LatencyModel::AccessCycles(int hops, double mc_util, double path_link_util) const {
  XNUMA_DCHECK(hops >= 0 && hops <= 2);
  return CyclesAt(hops, CongestionFactor(std::max(mc_util, path_link_util)));
}

}  // namespace xnuma
