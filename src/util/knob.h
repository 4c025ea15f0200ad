// Strict parsing for the LB2_* numeric and on/off environment knobs. A
// knob counts only when all of its value parses and lies in the knob's
// range; anything else ("abc", "1s", "-4", "") keeps the default and logs
// a warning, so a typo never silently reads as 0 or as "on".
#ifndef LB2_UTIL_KNOB_H_
#define LB2_UTIL_KNOB_H_

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <limits>
#include <string>
#include <type_traits>

#include "obs/log.h"

namespace lb2 {

/// The numeric knob `name`, or `def` when it is unset. A value that is not
/// a number of T in [min, max] keeps `def` and logs a warning. Integers
/// parse in base 10 only.
template <typename T>
T EnvNumber(const char* name, T def, T min,
            T max = std::numeric_limits<T>::max()) {
  const char* env = std::getenv(name);
  if (env == nullptr) return def;
  errno = 0;
  char* end = nullptr;
  const long double v =
      std::is_integral_v<T>
          ? static_cast<long double>(std::strtoll(env, &end, 10))
          : std::strtold(env, &end);
  if (end == env || *end != '\0' || errno != 0 || !(v >= min) ||
      v > static_cast<long double>(max)) {
    LB2_LOG(Warn, "[lb2-knob] ignoring %s=%s: want a number in [%g, %g]; "
            "keeping %g", name, env, static_cast<double>(min),
            static_cast<double>(max), static_cast<double>(def));
    return def;
  }
  return static_cast<T>(v);
}

/// The on/off knob `name`, or `def` when it is unset: 1/0, true/false,
/// on/off or yes/no in any case. Anything else keeps `def` and logs a
/// warning.
inline bool EnvFlag(const char* name, bool def) {
  const char* env = std::getenv(name);
  if (env == nullptr) return def;
  std::string v = env;
  for (char& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "1" || v == "true" || v == "on" || v == "yes") return true;
  if (v == "0" || v == "false" || v == "off" || v == "no") return false;
  LB2_LOG(Warn, "[lb2-knob] ignoring %s=%s: want 1/0, true/false, "
          "on/off or yes/no; keeping %s", name, env, def ? "on" : "off");
  return def;
}

}  // namespace lb2

#endif  // LB2_UTIL_KNOB_H_
