// Minimal command-line flag parsing for bench/example binaries.
//
// Accepts "--key=value" and "--key value" forms plus bare "--key" booleans.
// Unknown flags and malformed numbers are errors so typos in sweep scripts
// fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace hbp::util {

class Flags {
 public:
  Flags(int argc, char** argv);

  // Each get_* registers the key as known; call finish() after all lookups.
  // A numeric flag whose value is empty or has trailing junk exits with
  // status 2, as finish() does for unknown flags.
  double get_double(const std::string& key, double def);
  std::int64_t get_int(const std::string& key, std::int64_t def);
  bool get_bool(const std::string& key, bool def);
  std::string get_string(const std::string& key, const std::string& def);

  // Parses a comma-separated list of doubles, e.g. --sweep=1,2,5,10.
  std::vector<double> get_double_list(const std::string& key,
                                      std::vector<double> def);

  bool has(const std::string& key) const { return values_.contains(key); }

  // Aborts with a message listing unknown flags, if any were passed.
  void finish() const;

 private:
  std::optional<std::string> lookup(const std::string& key);
  double parse_double(const std::string& key, const std::string& text) const;
  [[noreturn]] void reject(const std::string& key, const std::string& value,
                           const char* expected) const;

  std::map<std::string, std::string> values_;
  std::set<std::string> known_;
  std::string program_;
};

}  // namespace hbp::util
