// The guest kernel's physical free list: a double-ended list of pfns with
// std::deque's order semantics whose never-used middle is a range, not
// elements. A fresh list over [lo, hi) holds lo, lo + 1, ..., hi - 1 in that
// order, so booting a guest costs O(1) instead of one push per page. Pages
// pushed at either end sit on that side of the range, and every pop
// returns what the equivalent deque would (docs/MODEL.md §9).

#ifndef XENNUMA_SRC_GUEST_FREE_PAGE_LIST_H_
#define XENNUMA_SRC_GUEST_FREE_PAGE_LIST_H_

#include <cstdint>
#include <deque>

#include "src/common/check.h"
#include "src/common/types.h"

namespace xnuma {

class FreePageList {
 public:
  FreePageList() = default;
  FreePageList(Pfn lo, Pfn hi) : lo_(lo), hi_(hi) { XNUMA_CHECK(lo <= hi); }

  bool empty() const { return size() == 0; }
  int64_t size() const {
    return static_cast<int64_t>(front_.size() + back_.size()) + (hi_ - lo_);
  }

  void push_front(Pfn pfn) { front_.push_front(pfn); }
  void push_back(Pfn pfn) { back_.push_back(pfn); }

  Pfn pop_front() {
    Pfn pfn;
    if (!front_.empty()) {
      pfn = front_.front();
      front_.pop_front();
    } else if (lo_ < hi_) {
      pfn = lo_++;
    } else {
      XNUMA_CHECK(!back_.empty());
      pfn = back_.front();
      back_.pop_front();
    }
    return pfn;
  }

  Pfn pop_back() {
    Pfn pfn;
    if (!back_.empty()) {
      pfn = back_.back();
      back_.pop_back();
    } else if (lo_ < hi_) {
      pfn = --hi_;
    } else {
      XNUMA_CHECK(!front_.empty());
      pfn = front_.back();
      front_.pop_back();
    }
    return pfn;
  }

 private:
  std::deque<Pfn> front_;  // pushed at the front, in list order
  Pfn lo_ = 0;             // the never-used range [lo_, hi_)
  Pfn hi_ = 0;
  std::deque<Pfn> back_;  // pushed at the back, in list order
};

}  // namespace xnuma

#endif  // XENNUMA_SRC_GUEST_FREE_PAGE_LIST_H_
