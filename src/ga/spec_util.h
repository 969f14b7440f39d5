// Token-parsing helpers shared by the declarative spec languages
// (SolverSpec in src/ga/solver.cpp, SweepSpec in src/exp/sweep_spec.cpp):
// one copy of the "parse the whole value or name the offending token"
// validation so the two parsers cannot drift.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace psga::ga::spec {

/// `who` is the spec language reporting the error ("SolverSpec",
/// "SweepSpec") — the message shape both parsers' tests pin down.
[[noreturn]] inline void bad_token(const std::string& who,
                                   const std::string& token,
                                   const std::string& reason) {
  throw std::invalid_argument(who + ": " + reason + " in token '" + token +
                              "'");
}

inline int parse_int(const std::string& who, const std::string& value,
                     const std::string& token) {
  try {
    std::size_t used = 0;
    const int parsed = std::stoi(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    bad_token(who, token, "malformed integer");
  }
}

inline double parse_double(const std::string& who, const std::string& value,
                           const std::string& token) {
  try {
    std::size_t used = 0;
    const double parsed = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return parsed;
  } catch (const std::exception&) {
    bad_token(who, token, "malformed number");
  }
}

/// An unsigned value: it must start with a digit, since std::stoull
/// would read "-1" as 2^64 - 1.
inline std::uint64_t parse_u64(const std::string& who,
                               const std::string& value,
                               const std::string& token) {
  try {
    if (value.empty() || value[0] < '0' || value[0] > '9') {
      throw std::invalid_argument(value);
    }
    std::size_t used = 0;
    const unsigned long long parsed = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return static_cast<std::uint64_t>(parsed);
  } catch (const std::exception&) {
    bad_token(who, token, "malformed integer");
  }
}

}  // namespace psga::ga::spec
