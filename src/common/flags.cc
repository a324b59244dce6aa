#include "src/common/flags.h"

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <type_traits>

namespace xnuma {

Flags::Flags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(std::move(arg));
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      continue;
    }
    // `--key value` when the next token is not itself a flag; else boolean.
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

void Flags::MarkRead(const std::string& key) const {
  std::lock_guard<std::mutex> lock(read_mutex_);
  read_.insert(key);
}

bool Flags::Has(const std::string& key) const {
  MarkRead(key);
  return values_.count(key) > 0;
}

std::string Flags::GetString(const std::string& key, const std::string& fallback) const {
  MarkRead(key);
  auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

bool Flags::GetBool(const std::string& key, bool fallback) const {
  MarkRead(key);
  auto it = values_.find(key);
  if (it == values_.end()) {
    return fallback;
  }
  return it->second != "false" && it->second != "0" && it->second != "no";
}

std::vector<std::string> Flags::UnusedKeys() const {
  std::lock_guard<std::mutex> lock(read_mutex_);
  std::vector<std::string> unused;
  for (const auto& [key, value] : values_) {
    (void)value;
    if (read_.find(key) == read_.end()) {
      unused.push_back(key);
    }
  }
  return unused;
}

void RefuseFlag(const char* cmd, const char* flag, const std::string& value,
                const std::string& why) {
  std::fprintf(stderr, "%s: --%s %s %s\n", cmd, flag, value.c_str(), why.c_str());
  std::exit(2);
}

template <typename T>
T ReadInt(const Flags& flags, const char* cmd, const char* flag, T fallback, T min, T max) {
  if (!flags.Has(flag)) {
    return fallback;
  }
  const std::string text = flags.GetString(flag);
  // from_chars reads no sign into an unsigned type, so the minus sign is
  // skipped here: any nonzero value after it lies below the range.
  const bool negative = std::is_unsigned_v<T> && !text.empty() && text[0] == '-';
  const char* last = text.data() + text.size();
  T value{};
  const auto [end, error] = std::from_chars(text.data() + (negative ? 1 : 0), last, value);
  if (error == std::errc::invalid_argument || end != last) {
    RefuseFlag(cmd, flag, text, "is not an integer");
  }
  if (error == std::errc::result_out_of_range || (negative && value != 0) || value < min ||
      value > max) {
    RefuseFlag(cmd, flag, text,
               "is out of range [" + std::to_string(min) + ", " + std::to_string(max) + "]");
  }
  return value;
}

template int64_t ReadInt(const Flags&, const char*, const char*, int64_t, int64_t, int64_t);
template uint64_t ReadInt(const Flags&, const char*, const char*, uint64_t, uint64_t, uint64_t);

}  // namespace xnuma
