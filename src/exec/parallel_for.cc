#include "src/exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "src/common/check.h"

namespace xnuma {

void ParallelFor(int count, const std::function<void(int)>& body, int jobs) {
  XNUMA_CHECK(count >= 0);
  if (count == 0) {
    return;
  }

  const int workers = std::min(std::clamp(jobs, 1, kMaxParallelJobs), count);

  std::atomic<int> cursor{0};
  // One slot per index: the only cross-thread hand-off besides the cursor,
  // and each slot is written by exactly one worker before the join.
  std::vector<std::exception_ptr> errors(static_cast<size_t>(count));

  auto work = [&] {
    int i;
    while ((i = cursor.fetch_add(1, std::memory_order_relaxed)) < count) {
      try {
        body(i);
      } catch (...) {
        errors[static_cast<size_t>(i)] = std::current_exception();
      }
    }
  };

  if (workers == 1) {
    work();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back(work);
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }

  for (const std::exception_ptr& error : errors) {
    if (error != nullptr) {
      std::rethrow_exception(error);
    }
  }
}

}  // namespace xnuma
