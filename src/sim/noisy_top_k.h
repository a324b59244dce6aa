// Noisy top-k selection behind Engine::SampleHotPages (Carrefour's IBS view).
//
// Candidate pages come in classes that share one row of per-source-node
// access rates. A scan turns every rate r of a candidate into
// max(0, r * (1 + sigma * g)), with one Gaussian g per entry drawn candidate
// by candidate and node by node, and keeps the candidates with the largest
// noisy totals, hottest first. Every Gaussian is drawn, so the generator
// advances exactly as if every candidate were scored, but only the pages of
// classes that can still reach the top k are bounded, and only bounded
// pages that can still reach it have their noise transformed (docs/MODEL.md
// §9, "Hot-page sampling").

#ifndef XENNUMA_SRC_SIM_NOISY_TOP_K_H_
#define XENNUMA_SRC_SIM_NOISY_TOP_K_H_

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/rng.h"

namespace xnuma {

class NoisyTopK {
 public:
  // `rows` holds one row of `nodes` noise-free rates per class, and
  // candidate i takes the rates of row classes[i]. Keeps
  // min(max(max_pages, 0), candidates) candidates and returns that count.
  // Expanding a class walks the candidates between its first and last
  // member, so a class's members should lie close together, as the pages
  // of one region slice do.
  int Select(std::span<const double> rows, std::span<const int> classes, int nodes,
             int max_pages, double sigma, Rng& rng);

  // The k-th hottest kept candidate, and its `nodes` noisy rates.
  int kept(int k) const { return slot_candidate_[kept_[k]]; }
  const double* kept_rates(int k) const {
    return &noisy_[static_cast<size_t>(kept_[k]) * nodes_];
  }
  // Candidates whose own reach the last Select computed (the pages of the
  // classes it expanded), and those whose noise it transformed.
  int bounded() const { return bounded_; }
  int scored() const { return static_cast<int>(slot_candidate_.size()); }

 private:
  static constexpr int kBuckets = 256;

  // A scored candidate and its noisy total.
  struct Entry {
    double total = 0.0;
    int candidate = 0;
    int slot = 0;
  };

  // An upper bound on candidate i's noisy total from its noise bounds;
  // kRising when every r * sigma of its row is at least 0.
  template <bool kRising>
  double Reach(const double* row, int i);
  // Transforms candidate i's noise into a new slot; returns its total.
  double Score(const double* row, int i);
  // Whether a ranks before b: a larger total, or an equal one of a lower
  // candidate.
  static bool Hotter(const Entry& a, const Entry& b);
  // Orders the kept slots, hottest first.
  void Rank(int keep);

  GaussianBlock noise_;
  int nodes_ = 0;
  double sigma_ = 0.0;
  // Per class: the candidates [class_first_, class_end_) that span its
  // members (class_first_ is -1 for a class without any), and an upper
  // bound on any member's noisy total (its key). class_visit_ lists the
  // classes with members by descending key bucket.
  std::vector<int> class_first_;
  std::vector<int> class_end_;
  std::vector<double> class_key_;
  std::vector<char> class_rising_;
  std::vector<int> class_visit_;
  std::vector<int> class_bucket_;
  // Bounded pages that could reach the top k when bounded, in the order
  // they were, each on the list of its reach's bucket: page_head_[b] and
  // then Pending::next, -1 ending a list.
  struct Pending {
    double reach = 0.0;
    int candidate = 0;
    int next = -1;
  };
  std::vector<Pending> pending_;
  std::array<int, kBuckets> page_head_{};
  // Per scored candidate (slot): the candidate, its noisy total and its
  // noisy rates (nodes_ per slot).
  std::vector<int> slot_candidate_;
  std::vector<double> slot_total_;
  std::vector<double> noisy_;
  std::vector<double> row_noise_;
  std::vector<Entry> heap_;    // the keep hottest totals so far, coldest on top
  std::vector<Entry> ranked_;  // the kept entries, hottest first
  std::vector<int> kept_;      // kept slots, hottest first
  // (total, slot) of every candidate in candidate order, when a k-th total
  // of 0 ranks them all.
  std::vector<std::pair<double, int>> order_;
  int bounded_ = 0;
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_SIM_NOISY_TOP_K_H_
