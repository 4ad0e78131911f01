#pragma once

// One argv parser for the command-line tools (agingrun, agingd,
// agingload). A tool declares each flag once: a switch, or a value flag
// whose setter checks and stores the value. parse_flags() scans argv and
// reports unknown flags, missing values and rejected values the same way
// in every tool, with exit code 2.

#include <cstdio>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <string>

#include "src/core/env.hpp"

namespace agingsim::cli {

/// Stores a flag's value. Returns "" on success, else what the value
/// lacks ("wants an integer >= 1"); parse_flags prints it after the flag.
using Setter = std::function<std::string(const std::string&)>;

struct Flags {
  std::map<std::string, std::function<void()>> switches;
  std::map<std::string, Setter> values;
};

/// A whole-text integer in [min_v, max_v] (decimal, 0x-hex or 0-octal).
template <typename T>
Setter integer(long min_v, T& out,
               long max_v = std::numeric_limits<long>::max()) {
  return [min_v, max_v, &out](const std::string& v) -> std::string {
    const auto n = env::parse_long(v, 0);
    if (!n || *n < min_v || *n > max_v) {
      return max_v == std::numeric_limits<long>::max()
                 ? "wants an integer >= " + std::to_string(min_v)
                 : "wants an integer in [" + std::to_string(min_v) + ", " +
                       std::to_string(max_v) + "]";
    }
    out = static_cast<T>(*n);
    return {};
  };
}

/// A whole-text finite number >= min_v.
inline Setter number(double min_v, double& out) {
  return [min_v, &out](const std::string& v) -> std::string {
    const auto x = env::parse_double(v);
    if (!x || !(*x >= min_v)) {
      char bound[32];
      std::snprintf(bound, sizeof bound, "%g", min_v);
      return std::string("wants a number >= ") + bound;
    }
    out = *x;
    return {};
  };
}

/// Any text.
inline Setter text(std::string& out) {
  return [&out](const std::string& v) {
    out = v;
    return std::string();
  };
}

/// One of the '|'-separated `choices`, verbatim.
inline Setter choice(const std::string& choices, std::string& out) {
  return [choices, &out](const std::string& v) -> std::string {
    if (v.empty() || ("|" + choices + "|").find("|" + v + "|") ==
                         std::string::npos) {
      return "wants " + choices;
    }
    out = v;
    return {};
  };
}

/// Parses argv[1..] against `flags`. Returns nullopt when the tool should
/// run; otherwise the exit code: 0 after printing usage for --help or -h,
/// 2 after a diagnostic on stderr.
inline std::optional<int> parse_flags(const char* tool, int argc, char** argv,
                                      const Flags& flags,
                                      void (*usage)(std::ostream&)) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (const auto sw = flags.switches.find(arg); sw != flags.switches.end()) {
      sw->second();
      continue;
    }
    const auto flag = flags.values.find(arg);
    if (flag == flags.values.end()) {
      std::cerr << tool << ": unknown option '" << arg << "'\n";
      usage(std::cerr);
      return 2;
    }
    if (i + 1 >= argc) {
      std::cerr << tool << ": " << arg << " needs a value\n";
      return 2;
    }
    const std::string value = argv[++i];
    if (const std::string error = flag->second(value); !error.empty()) {
      std::cerr << tool << ": " << arg << " '" << value << "': " << error
                << "\n";
      return 2;
    }
  }
  return std::nullopt;
}

}  // namespace agingsim::cli
