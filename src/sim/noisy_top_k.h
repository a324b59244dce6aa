// Noisy top-k selection behind Engine::SampleHotPages (Carrefour's IBS view).
//
// Each candidate page has one row of per-source-node access rates. A scan
// turns every rate r into max(0, r * (1 + sigma * g)), with one Gaussian g
// per entry drawn page by page and node by node, and keeps the pages with
// the largest noisy totals, hottest first. Every Gaussian is drawn, so the
// generator advances exactly as if every page were scored, but only pages
// that can still reach the top k have their noise transformed
// (docs/MODEL.md §9, "Hot-page sampling").

#ifndef XENNUMA_SRC_SIM_NOISY_TOP_K_H_
#define XENNUMA_SRC_SIM_NOISY_TOP_K_H_

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace xnuma {

class NoisyTopK {
 public:
  // `rates` holds one row of `nodes` noise-free rates per candidate; the
  // rows of scored candidates are rewritten with their noisy rates. Keeps
  // min(max(max_pages, 0), candidates) rows and returns that count.
  int Select(std::span<double> rates, int nodes, int max_pages, double sigma, Rng& rng);

  // Row of the k-th hottest kept candidate.
  int kept(int k) const { return order_[k].second; }
  // Candidates whose noise the last Select transformed.
  int scored() const { return scored_; }

 private:
  double Score(std::span<double> rates, int nodes, int row, double sigma);

  GaussianBlock noise_;
  // Per candidate: an upper bound on its noisy total (its reach), replaced
  // by the noisy total once scored.
  std::vector<double> keys_;
  std::vector<uint8_t> scored_rows_;
  std::vector<int> visit_;    // candidates by descending reach
  std::vector<double> heap_;  // min-heap of the largest noisy totals so far
  std::vector<double> row_noise_;
  std::vector<std::pair<double, int>> order_;  // (noisy total, candidate)
  int scored_ = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_SIM_NOISY_TOP_K_H_
