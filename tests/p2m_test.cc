#include "src/hv/p2m.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

namespace xnuma {
namespace {

TEST(P2mTest, StartsInvalid) {
  P2mTable p2m(16);
  EXPECT_EQ(p2m.num_pages(), 16);
  EXPECT_EQ(p2m.valid_count(), 0);
  for (Pfn pfn = 0; pfn < 16; ++pfn) {
    EXPECT_FALSE(p2m.IsValid(pfn));
    EXPECT_EQ(p2m.Lookup(pfn), kInvalidMfn);
  }
}

TEST(P2mTest, MapLookupUnmap) {
  P2mTable p2m(8);
  p2m.Map(3, 100);
  EXPECT_TRUE(p2m.IsValid(3));
  EXPECT_TRUE(p2m.IsWritable(3));
  EXPECT_EQ(p2m.Lookup(3), 100);
  EXPECT_EQ(p2m.valid_count(), 1);

  EXPECT_EQ(p2m.Unmap(3), 100);
  EXPECT_FALSE(p2m.IsValid(3));
  EXPECT_EQ(p2m.valid_count(), 0);
}

TEST(P2mTest, RemapChangesTarget) {
  P2mTable p2m(8);
  p2m.Map(1, 10);
  p2m.Remap(1, 20);
  EXPECT_EQ(p2m.Lookup(1), 20);
  EXPECT_EQ(p2m.valid_count(), 1);
}

TEST(P2mTest, WriteProtectionCycle) {
  P2mTable p2m(8);
  p2m.Map(2, 5);
  EXPECT_TRUE(p2m.IsWritable(2));
  p2m.WriteProtect(2);
  EXPECT_FALSE(p2m.IsWritable(2));
  EXPECT_TRUE(p2m.IsValid(2));
  p2m.WriteUnprotect(2);
  EXPECT_TRUE(p2m.IsWritable(2));
}

TEST(P2mTest, UnmapResetsWritability) {
  P2mTable p2m(4);
  p2m.Map(0, 7);
  p2m.WriteProtect(0);
  p2m.Unmap(0);
  p2m.Map(0, 9);
  EXPECT_TRUE(p2m.IsWritable(0));
}

TEST(P2mTest, MapRangeCoversSpanWithOneRun) {
  P2mTable p2m(2048);
  p2m.MapRange(10, 500, 1000);
  EXPECT_EQ(p2m.valid_count(), 500);
  for (Pfn pfn = 10; pfn < 510; ++pfn) {
    EXPECT_EQ(p2m.Lookup(pfn), 1000 + (pfn - 10));
  }
  EXPECT_FALSE(p2m.IsValid(9));
  EXPECT_FALSE(p2m.IsValid(510));
  // The whole span lives in one chunk, so one run covers it.
  const P2mTable::Run run = p2m.LookupRun(300);
  EXPECT_TRUE(run.valid);
  EXPECT_EQ(run.first, 10);
  EXPECT_EQ(run.count, 500);
  EXPECT_EQ(run.mfn, 1000);
}

TEST(P2mTest, MapRangeSpanningChunksSplitsPerChunk) {
  P2mTable p2m(4 * P2mTable::kChunkPages);
  const int64_t count = P2mTable::kChunkPages * 2;
  p2m.MapRange(P2mTable::kChunkPages / 2, count, 0);
  EXPECT_EQ(p2m.valid_count(), count);
  // Runs never cross chunk boundaries: half + full + half.
  P2mTable::Run run = p2m.LookupRun(P2mTable::kChunkPages / 2);
  EXPECT_TRUE(run.valid);
  EXPECT_EQ(run.first, P2mTable::kChunkPages / 2);
  EXPECT_EQ(run.count, P2mTable::kChunkPages / 2);  // clipped at the boundary
  run = p2m.LookupRun(P2mTable::kChunkPages + 7);
  EXPECT_EQ(run.first, P2mTable::kChunkPages);
  EXPECT_EQ(run.count, P2mTable::kChunkPages);
  EXPECT_EQ(run.mfn, P2mTable::kChunkPages / 2);
  run = p2m.LookupRun(2 * P2mTable::kChunkPages);
  EXPECT_EQ(run.count, P2mTable::kChunkPages / 2);
}

TEST(P2mTest, UnmapRangeReversesMapRange) {
  P2mTable p2m(1024);
  p2m.MapRange(100, 300, 5000);
  p2m.UnmapRange(100, 300);
  EXPECT_EQ(p2m.valid_count(), 0);
  for (Pfn pfn = 100; pfn < 400; ++pfn) {
    EXPECT_FALSE(p2m.IsValid(pfn));
  }
}

TEST(P2mTest, AdjacentMapsFormOneRun) {
  P2mTable p2m(64);
  p2m.Map(4, 40);
  p2m.Map(6, 42);
  EXPECT_EQ(p2m.LookupRun(4).count, 1);
  EXPECT_FALSE(p2m.LookupRun(5).valid);
  p2m.Map(5, 41);  // bridges the gap: mfns and writability line up
  P2mTable::Run run = p2m.LookupRun(5);
  EXPECT_EQ(run.first, 4);
  EXPECT_EQ(run.count, 3);
  EXPECT_EQ(run.mfn, 40);
}

TEST(P2mTest, DiscontiguousMfnsDoNotMerge) {
  P2mTable p2m(64);
  p2m.Map(4, 40);
  p2m.Map(5, 99);  // adjacent pfn, non-adjacent mfn
  EXPECT_EQ(p2m.LookupRun(4).count, 1);
  EXPECT_EQ(p2m.LookupRun(5).count, 1);
}

TEST(P2mTest, MidRunUnmapSplitsRun) {
  P2mTable p2m(64);
  p2m.MapRange(0, 9, 100);
  EXPECT_EQ(p2m.LookupRun(0).count, 9);
  EXPECT_EQ(p2m.Unmap(4), 104);
  EXPECT_EQ(p2m.LookupRun(0).count, 4);
  EXPECT_EQ(p2m.LookupRun(4).count, 1);
  EXPECT_EQ(p2m.LookupRun(5).count, 4);
  // Remapping the hole to the contiguous mfn re-joins the three pieces.
  p2m.Map(4, 104);
  EXPECT_EQ(p2m.LookupRun(0).count, 9);
}

TEST(P2mTest, WriteProtectSplitsAndUnprotectMerges) {
  P2mTable p2m(64);
  p2m.MapRange(0, 8, 200);
  p2m.WriteProtect(3);
  EXPECT_FALSE(p2m.IsWritable(3));
  EXPECT_TRUE(p2m.IsWritable(2));
  EXPECT_TRUE(p2m.IsValid(3));
  EXPECT_EQ(p2m.Lookup(3), 203);
  // writable | read-only | writable
  EXPECT_EQ(p2m.LookupRun(0).count, 3);
  EXPECT_EQ(p2m.LookupRun(3).count, 1);
  EXPECT_FALSE(p2m.LookupRun(3).writable);
  EXPECT_EQ(p2m.LookupRun(4).count, 4);
  p2m.WriteUnprotect(3);
  EXPECT_TRUE(p2m.IsWritable(3));
  EXPECT_EQ(p2m.LookupRun(0).count, 8);
}

TEST(P2mTest, WriteProtectRangeFlipsWholeSpan) {
  P2mTable p2m(1024);
  p2m.MapRange(0, 600, 0);
  p2m.WriteProtectRange(100, 400);
  for (Pfn pfn : {Pfn{99}, Pfn{500}}) {
    EXPECT_TRUE(p2m.IsWritable(pfn));
  }
  for (Pfn pfn : {Pfn{100}, Pfn{499}}) {
    EXPECT_FALSE(p2m.IsWritable(pfn));
    EXPECT_TRUE(p2m.IsValid(pfn));
  }
  p2m.WriteUnprotectRange(100, 400);
  for (Pfn pfn = 0; pfn < 600; ++pfn) {
    EXPECT_TRUE(p2m.IsWritable(pfn));
  }
  // All splits healed: one run per chunk again.
  EXPECT_EQ(p2m.LookupRun(0).count, P2mTable::kChunkPages);
  EXPECT_EQ(p2m.LookupRun(P2mTable::kChunkPages).count, 600 - P2mTable::kChunkPages);
}

TEST(P2mTest, RunIterationCoversWholeTable) {
  P2mTable p2m(2 * P2mTable::kChunkPages);
  p2m.MapRange(50, 100, 900);
  p2m.MapRange(600, 30, 300);
  int64_t covered = 0;
  int64_t valid = 0;
  for (Pfn pfn = 0; pfn < p2m.num_pages();) {
    const P2mTable::Run run = p2m.LookupRun(pfn);
    ASSERT_EQ(run.first, pfn);  // runs tile the space exactly
    ASSERT_GT(run.count, 0);
    covered += run.count;
    if (run.valid) {
      valid += run.count;
      for (int64_t k = 0; k < run.count; ++k) {
        ASSERT_EQ(p2m.Lookup(pfn + k), run.mfn + k);
      }
    }
    pfn += run.count;
  }
  EXPECT_EQ(covered, p2m.num_pages());
  EXPECT_EQ(valid, p2m.valid_count());
}

// Every chunk is an array of packed per-page entries: a chunk shredded into
// singleton mappings answers like any other.
TEST(P2mTest, ChurnConvertsChunkToPackedAndStaysCorrect) {
  P2mTable p2m(P2mTable::kChunkPages);
  // Anti-contiguous singleton mappings: pfn i -> mfn (511 - i). No two
  // neighbours form a run.
  for (Pfn pfn = 0; pfn < P2mTable::kChunkPages; ++pfn) {
    p2m.Map(pfn, P2mTable::kChunkPages - 1 - pfn);
  }
  for (Pfn pfn = 0; pfn < P2mTable::kChunkPages; ++pfn) {
    EXPECT_EQ(p2m.Lookup(pfn), P2mTable::kChunkPages - 1 - pfn);
  }
  p2m.WriteProtect(7);
  EXPECT_FALSE(p2m.IsWritable(7));
  EXPECT_EQ(p2m.Unmap(9), P2mTable::kChunkPages - 10);
  EXPECT_FALSE(p2m.IsValid(9));
  EXPECT_EQ(p2m.valid_count(), P2mTable::kChunkPages - 1);
  // Runs stay maximal: descending mfns -> singletons.
  EXPECT_EQ(p2m.LookupRun(20).count, 1);
}

TEST(P2mTest, PackedRunsExtendAcrossContiguousEntries) {
  P2mTable p2m(P2mTable::kChunkPages);
  // Shred the chunk into singletons, then rebuild a contiguous stretch.
  for (Pfn pfn = 0; pfn < P2mTable::kChunkPages; ++pfn) {
    p2m.Map(pfn, P2mTable::kChunkPages - 1 - pfn);
  }
  p2m.UnmapRange(100, 50);
  p2m.MapRange(100, 50, 3000);
  const P2mTable::Run run = p2m.LookupRun(125);
  EXPECT_TRUE(run.valid);
  EXPECT_EQ(run.first, 100);
  EXPECT_EQ(run.count, 50);
  EXPECT_EQ(run.mfn, 3000);
}

// Random-operation property test against a naive per-page model: every
// entry must match the model, and every LookupRun must return exactly the
// maximal run of one validity and writability, mfn stepping by 1, clipped
// to the pfn's 512-page chunk.
constexpr int64_t kModelPages = 2 * P2mTable::kChunkPages + 300;  // partial last chunk

TEST(P2mTest, RandomOpsMatchPerPageModel) {
  struct Page {
    bool valid = false;
    bool writable = false;
    Mfn mfn = kInvalidMfn;
  };
  P2mTable p2m(kModelPages);
  std::vector<Page> model(kModelPages);
  int64_t model_valid = 0;

  uint64_t x = 12345;
  auto next = [&x]() {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  // Few distinct pfn -> mfn offsets, so neighbouring maps often line up
  // into runs and per-page churn often breaks them.
  auto pick_mfn = [&next](Pfn pfn) { return pfn + static_cast<Mfn>(next() % 3) * 4096; };
  auto all = [&model](Pfn first, int64_t count, bool valid) {
    for (Pfn p = first; p < first + count; ++p) {
      if (model[p].valid != valid) {
        return false;
      }
    }
    return true;
  };
  auto expected_run = [&model](Pfn pfn) {
    const Pfn base = pfn & ~(P2mTable::kChunkPages - 1);
    const Pfn end = std::min(base + P2mTable::kChunkPages, kModelPages);
    auto joins = [&model](Pfn a, Pfn b) {  // does page b continue page a's run?
      if (model[a].valid != model[b].valid) {
        return false;
      }
      return !model[a].valid ||
             (model[a].writable == model[b].writable && model[a].mfn + 1 == model[b].mfn);
    };
    Pfn lo = pfn;
    Pfn hi = pfn + 1;
    while (lo > base && joins(lo - 1, lo)) {
      --lo;
    }
    while (hi < end && joins(hi - 1, hi)) {
      ++hi;
    }
    return P2mTable::Run{lo, hi - lo, model[lo].valid ? model[lo].mfn : kInvalidMfn,
                         model[lo].valid, model[lo].valid && model[lo].writable};
  };

  for (int i = 0; i < 20000; ++i) {
    const Pfn pfn = static_cast<Pfn>(next() % kModelPages);
    const int64_t count = std::min<int64_t>(1 + next() % 48, kModelPages - pfn);
    switch (next() % 8) {
      case 0:
        if (!model[pfn].valid) {
          const Mfn mfn = pick_mfn(pfn);
          p2m.Map(pfn, mfn);
          model[pfn] = {true, true, mfn};
          ++model_valid;
        }
        break;
      case 1:
        if (all(pfn, count, false)) {
          const Mfn mfn = pick_mfn(pfn);
          p2m.MapRange(pfn, count, mfn);
          for (int64_t k = 0; k < count; ++k) {
            model[pfn + k] = {true, true, mfn + k};
          }
          model_valid += count;
        }
        break;
      case 2:
        if (model[pfn].valid) {
          ASSERT_EQ(p2m.Unmap(pfn), model[pfn].mfn);
          model[pfn] = {};
          --model_valid;
        }
        break;
      case 3:
        if (all(pfn, count, true)) {
          p2m.UnmapRange(pfn, count);
          for (int64_t k = 0; k < count; ++k) {
            model[pfn + k] = {};
          }
          model_valid -= count;
        }
        break;
      case 4:
        if (model[pfn].valid) {
          const Mfn mfn = pick_mfn(pfn);
          p2m.Remap(pfn, mfn);
          model[pfn].mfn = mfn;
        }
        break;
      case 5:
        if (model[pfn].valid) {
          const bool writable = next() % 2 == 0;
          if (writable) {
            p2m.WriteUnprotect(pfn);
          } else {
            p2m.WriteProtect(pfn);
          }
          model[pfn].writable = writable;
        }
        break;
      default:
        if (all(pfn, count, true)) {
          const bool writable = next() % 2 == 0;
          if (writable) {
            p2m.WriteUnprotectRange(pfn, count);
          } else {
            p2m.WriteProtectRange(pfn, count);
          }
          for (int64_t k = 0; k < count; ++k) {
            model[pfn + k].writable = writable;
          }
        }
        break;
    }
    ASSERT_EQ(p2m.valid_count(), model_valid);
    const Pfn probe = static_cast<Pfn>(next() % kModelPages);
    const P2mTable::Run want = expected_run(probe);
    const P2mTable::Run got = p2m.LookupRun(probe);
    ASSERT_EQ(got.first, want.first) << "probe " << probe << " op " << i;
    ASSERT_EQ(got.count, want.count) << "probe " << probe << " op " << i;
    ASSERT_EQ(got.valid, want.valid) << "probe " << probe << " op " << i;
    ASSERT_EQ(got.writable, want.writable) << "probe " << probe << " op " << i;
    ASSERT_EQ(got.mfn, want.mfn) << "probe " << probe << " op " << i;
  }
  for (Pfn pfn = 0; pfn < kModelPages; ++pfn) {
    ASSERT_EQ(p2m.IsValid(pfn), model[pfn].valid) << pfn;
    ASSERT_EQ(p2m.IsWritable(pfn), model[pfn].valid && model[pfn].writable) << pfn;
    ASSERT_EQ(p2m.Lookup(pfn), model[pfn].valid ? model[pfn].mfn : kInvalidMfn) << pfn;
  }
  p2m.AuditCounters();
}

TEST(P2mDeathTest, MapRangeOverlapAborts) {
  P2mTable p2m(64);
  p2m.Map(5, 50);
  EXPECT_DEATH(p2m.MapRange(0, 10, 100), "XNUMA_CHECK");
}

TEST(P2mDeathTest, UnmapRangeWithHoleAborts) {
  P2mTable p2m(64);
  p2m.MapRange(0, 4, 10);
  p2m.MapRange(6, 4, 20);
  EXPECT_DEATH(p2m.UnmapRange(0, 10), "XNUMA_CHECK");
}

TEST(P2mDeathTest, DoubleMapAborts) {
  P2mTable p2m(4);
  p2m.Map(0, 1);
  EXPECT_DEATH(p2m.Map(0, 2), "XNUMA_CHECK");
}

TEST(P2mDeathTest, UnmapInvalidAborts) {
  P2mTable p2m(4);
  EXPECT_DEATH(p2m.Unmap(0), "XNUMA_CHECK");
}

TEST(P2mDeathTest, OutOfRangeAborts) {
  P2mTable p2m(4);
  EXPECT_DEATH(p2m.IsValid(4), "XNUMA_CHECK");
  EXPECT_DEATH(p2m.IsValid(-1), "XNUMA_CHECK");
}

}  // namespace
}  // namespace xnuma
