// Minimal command-line flag parsing for the CLI tools: supports
// `--key=value`, `--key value`, boolean `--flag`, and positional arguments.
//
// Thread-safety: `values_` and `positional_` are const after the
// constructor, so any number of threads may call the getters concurrently
// (ParallelFor workers read flag-derived config). The only mutable
// state is the used-key tracking behind UnusedKeys(), which is guarded by
// its own mutex.

#ifndef XENNUMA_SRC_COMMON_FLAGS_H_
#define XENNUMA_SRC_COMMON_FLAGS_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace xnuma {

class Flags {
 public:
  Flags(int argc, char** argv);

  const std::vector<std::string>& positional() const { return positional_; }

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key, const std::string& fallback = "") const;
  bool GetBool(const std::string& key, bool fallback = false) const;

  // Keys that were provided but never read; useful for typo detection.
  std::vector<std::string> UnusedKeys() const;

 private:
  void MarkRead(const std::string& key) const;

  std::map<std::string, std::string> values_;  // const after construction
  std::vector<std::string> positional_;        // const after construction
  mutable std::mutex read_mutex_;
  mutable std::set<std::string> read_;
};

// Prints "<cmd>: --<flag> <value> <why>" to stderr and exits with status 2.
[[noreturn]] void RefuseFlag(const char* cmd, const char* flag, const std::string& value,
                             const std::string& why);

// The one integer reader of every command: `fallback` when the flag is
// absent, else a decimal integer that parses in full and lies in
// [min, max]. Any other value is refused through RefuseFlag, so its message
// is the only output, before anything is built. T is int64_t or uint64_t.
template <typename T>
T ReadInt(const Flags& flags, const char* cmd, const char* flag, T fallback, T min, T max);

}  // namespace xnuma

#endif  // XENNUMA_SRC_COMMON_FLAGS_H_
