#include "src/common/flags.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace xnuma {
namespace {

Flags Make(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return Flags(static_cast<int>(args.size()), const_cast<char**>(args.data()));
}

TEST(FlagsTest, KeyEqualsValue) {
  Flags f = Make({"--app=cg.C", "--seconds=2.5"});
  EXPECT_EQ(f.GetString("app"), "cg.C");
  EXPECT_EQ(f.GetString("seconds"), "2.5");
}

TEST(FlagsTest, KeySpaceValue) {
  Flags f = Make({"--app", "kmeans", "--threads", "24"});
  EXPECT_EQ(f.GetString("app"), "kmeans");
  EXPECT_EQ(ReadInt<int64_t>(f, "prog", "threads", 0, 1, 48), 24);
}

TEST(FlagsTest, BooleanFlag) {
  Flags f = Make({"--csv", "--carrefour"});
  EXPECT_TRUE(f.GetBool("csv"));
  EXPECT_TRUE(f.GetBool("carrefour"));
  EXPECT_FALSE(f.GetBool("absent"));
}

TEST(FlagsTest, ExplicitFalse) {
  Flags f = Make({"--csv=false", "--x=0", "--y=no"});
  EXPECT_FALSE(f.GetBool("csv", true));
  EXPECT_FALSE(f.GetBool("x", true));
  EXPECT_FALSE(f.GetBool("y", true));
}

TEST(FlagsTest, PositionalArguments) {
  Flags f = Make({"run", "--app=x", "extra"});
  ASSERT_EQ(f.positional().size(), 2u);
  EXPECT_EQ(f.positional()[0], "run");
  EXPECT_EQ(f.positional()[1], "extra");
}

TEST(FlagsTest, Fallbacks) {
  Flags f = Make({});
  EXPECT_EQ(f.GetString("missing", "dflt"), "dflt");
  EXPECT_EQ(ReadInt<int64_t>(f, "prog", "missing", 42, 1, 8), 42);  // fallback is not checked
  EXPECT_EQ(ReadInt<uint64_t>(f, "prog", "missing", 7, 0, UINT64_MAX), 7u);
  EXPECT_FALSE(f.Has("missing"));
}

TEST(FlagsTest, UnusedKeysDetected) {
  Flags f = Make({"--used=1", "--typo=2"});
  ReadInt<int64_t>(f, "prog", "used", 0, 0, 9);
  const auto unused = f.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagsTest, LastValueWins) {
  Flags f = Make({"--a=1", "--a=2"});
  EXPECT_EQ(ReadInt<int64_t>(f, "prog", "a", 0, 0, 9), 2);
}

// The checked reader accepts exactly the decimal integers inside its range
// (both bounds included, and the whole unsigned range)...
TEST(FlagsTest, ReadIntAcceptsWholeIntegersInRange) {
  Flags f = Make({"--lo=1", "--hi=256", "--neg=-3", "--seed=18446744073709551615",
                  "--zero=-0"});
  EXPECT_EQ(ReadInt<int64_t>(f, "prog", "lo", 0, 1, 256), 1);
  EXPECT_EQ(ReadInt<int64_t>(f, "prog", "hi", 0, 1, 256), 256);
  EXPECT_EQ(ReadInt<int64_t>(f, "prog", "neg", 0, -5, 5), -3);
  EXPECT_EQ(ReadInt<uint64_t>(f, "prog", "seed", 0, 0, UINT64_MAX), UINT64_MAX);
  EXPECT_EQ(ReadInt<uint64_t>(f, "prog", "zero", 1, 0, UINT64_MAX), 0u);
}

// ...and refuses anything else with exit status 2 and a message naming the
// command, the flag and the value.
TEST(FlagsDeathTest, ReadIntRefusesWithExitStatusTwo) {
  Flags f = Make({"--x=2.5", "--y=5s", "--z=0", "--w=99999999999999999999", "--u=-1",
                  "--e="});
  const auto exit2 = ::testing::ExitedWithCode(2);
  EXPECT_EXIT(ReadInt<int64_t>(f, "prog", "x", 1, 1, 8), exit2,
              "^prog: --x 2\\.5 is not an integer");
  EXPECT_EXIT(ReadInt<int64_t>(f, "prog", "y", 1, 1, 8), exit2,
              "^prog: --y 5s is not an integer");
  EXPECT_EXIT(ReadInt<int64_t>(f, "prog", "z", 1, 1, 8), exit2,
              "^prog: --z 0 is out of range \\[1, 8\\]");
  EXPECT_EXIT(ReadInt<int64_t>(f, "prog", "w", 1, 1, 8), exit2, "is out of range");
  EXPECT_EXIT(ReadInt<uint64_t>(f, "prog", "u", 1, 0, UINT64_MAX), exit2, "is out of range");
  EXPECT_EXIT(ReadInt<int64_t>(f, "prog", "e", 1, 1, 8), exit2, "--e  is not an integer");
}

// Parallel-runner workers read flag-derived config concurrently; every
// getter (and the read-tracking behind UnusedKeys) must be safe under
// simultaneous readers. Run under the tsan preset this is a real race
// detector for Flags::read_.
TEST(FlagsTest, ConcurrentReadsAreSafe) {
  Flags f = Make({"--app=cg.C", "--jobs=4", "--seconds=2.5", "--csv", "--unused=1"});
  const int kThreads = 8;
  const int kItersPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&f] {
      for (int i = 0; i < kItersPerThread; ++i) {
        EXPECT_EQ(f.GetString("app"), "cg.C");
        EXPECT_EQ(ReadInt<int64_t>(f, "prog", "jobs", 1, 1, 256), 4);
        EXPECT_EQ(f.GetString("seconds"), "2.5");
        EXPECT_TRUE(f.GetBool("csv"));
        EXPECT_FALSE(f.Has("absent"));
        EXPECT_TRUE(f.positional().empty());
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  // Read-tracking stayed consistent across all those concurrent getters.
  const auto unused = f.UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "unused");
}

// Property test: random mixes of duplicate, unknown, and malformed
// `--key=value` arguments must never crash the parser, and must obey the
// invariants last-value-wins + unknown-keys-reported + malformed-tokens-
// become-positionals (tokens without the -- prefix).
TEST(FlagsTest, PropertyRandomArgvNeverCrashes) {
  Rng rng(20240806);
  const std::string keys[] = {"app", "jobs", "seed", "", "=", "a=b=c", "--x"};
  const std::string values[] = {"1", "cg.C", "", "2.5", "true", "=", "--"};
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<std::string> storage;
    const int n = 1 + static_cast<int>(rng.NextU64() % 8);
    for (int i = 0; i < n; ++i) {
      const std::string& key = keys[rng.NextU64() % std::size(keys)];
      const std::string& value = values[rng.NextU64() % std::size(values)];
      switch (rng.NextU64() % 4) {
        case 0:
          storage.push_back("--" + key + "=" + value);
          break;
        case 1:
          storage.push_back("--" + key);
          storage.push_back(value);
          break;
        case 2:
          storage.push_back("--" + key);  // boolean form
          break;
        default:
          storage.push_back(value);  // bare token -> positional
          break;
      }
    }
    std::vector<const char*> args;
    args.push_back("prog");
    for (const std::string& s : storage) {
      args.push_back(s.c_str());
    }
    Flags f(static_cast<int>(args.size()), const_cast<char**>(args.data()));

    // Getters never throw and fallbacks hold for unknown keys. (A value the
    // checked reader refuses ends the process, so it reads only an absent key.)
    f.GetString("app", "dflt");
    f.GetString("jobs");
    f.GetString("seed");
    f.GetBool("csv", false);
    EXPECT_EQ(ReadInt<int64_t>(f, "prog", "never-passed", 1234, 0, 9), 1234);
    // Reported unused keys were all actually provided and never read.
    for (const std::string& key : f.UnusedKeys()) {
      EXPECT_TRUE(f.Has(key)) << key;
      EXPECT_NE(key, "app");
      EXPECT_NE(key, "jobs");
      EXPECT_NE(key, "seed");
    }
  }
}

TEST(FlagsTest, DuplicateAndUnknownAndMalformedTogether) {
  Flags f = Make({"--jobs=2", "--jobs=8", "--=weird", "--a=b=c", "stray", "--typo"});
  EXPECT_EQ(ReadInt<int64_t>(f, "prog", "jobs", 0, 1, 8), 8);  // duplicate: last wins
  EXPECT_EQ(f.GetString("a"), "b=c");                          // value keeps its '='
  ASSERT_EQ(f.positional().size(), 1u);                        // bare token -> positional
  EXPECT_EQ(f.positional()[0], "stray");
  const auto unused = f.UnusedKeys();          // typo + the weird empty key
  EXPECT_TRUE(std::find(unused.begin(), unused.end(), "typo") != unused.end());
}

}  // namespace
}  // namespace xnuma
