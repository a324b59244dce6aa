#include "src/workload/churn.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/common/rng.h"

namespace xnuma {

namespace {

// Bounded discrete Pareto: heavy-tailed in [min_pages, max_pages].
int64_t ParetoPages(Rng& rng, const ChurnSpec& spec) {
  const double u = rng.NextDouble();
  const double raw =
      static_cast<double>(spec.min_pages) * std::pow(1.0 - u, -1.0 / spec.pareto_alpha);
  const int64_t pages = static_cast<int64_t>(raw);
  return std::clamp(pages, spec.min_pages, spec.max_pages);
}

}  // namespace

std::vector<ChurnEvent> GenerateChurnTrace(const ChurnSpec& spec) {
  XNUMA_CHECK(spec.num_events >= 0);
  XNUMA_CHECK(spec.min_pages > 0 && spec.max_pages >= spec.min_pages);
  XNUMA_CHECK(spec.pareto_alpha > 0.0);
  XNUMA_CHECK(spec.max_vcpus >= 1);
  Rng rng(spec.seed);
  std::vector<ChurnEvent> trace;
  trace.reserve(spec.num_events);
  // The generator tracks an *estimate* of the live population (every
  // arrival counted as admitted). The runner's real population may lag on
  // deferred arrivals; the slot-modulo victim selection absorbs the skew.
  int live_estimate = 0;
  for (int i = 0; i < spec.num_events; ++i) {
    ChurnEvent ev;
    const double roll = rng.NextDouble();
    const bool have_tenants = live_estimate > 0;
    if (have_tenants && roll < spec.balloon_fraction) {
      ev.kind = rng.NextBool(0.5) ? ChurnEvent::Kind::kBalloonDown
                                  : ChurnEvent::Kind::kBalloonUp;
      ev.slot = static_cast<uint32_t>(rng.NextU64());
      ev.pages = 1 + rng.NextInt(spec.max_balloon_pages);
    } else if (have_tenants && roll < spec.balloon_fraction + spec.migrate_fraction) {
      ev.kind = ChurnEvent::Kind::kMigrate;
      ev.slot = static_cast<uint32_t>(rng.NextU64());
      ev.pages = 1 + rng.NextInt(spec.max_migrate_pages);
    } else {
      const double p_arrive =
          live_estimate < spec.target_live_domains ? spec.arrival_bias
                                                   : 1.0 - spec.arrival_bias;
      if (!have_tenants || rng.NextBool(p_arrive)) {
        ev.kind = ChurnEvent::Kind::kArrive;
        ev.num_vcpus = 1 + static_cast<int>(rng.NextInt(spec.max_vcpus));
        ev.pages = ParetoPages(rng, spec);
        ev.preferred_order = rng.NextBool(spec.huge_page_fraction) ? PageOrder::k2M
                                                                   : PageOrder::k4K;
        ++live_estimate;
      } else {
        ev.kind = ChurnEvent::Kind::kDepart;
        ev.slot = static_cast<uint32_t>(rng.NextU64());
        --live_estimate;
      }
    }
    trace.push_back(ev);
  }
  return trace;
}

}  // namespace xnuma
