// ScopedEnv: sets (or, given a null value, unsets) one environment
// variable for a scope and restores its previous value (or absence) on
// exit. For the LB2_* knobs that services and servers read at
// construction or per request.
#ifndef LB2_TESTS_SCOPED_ENV_H_
#define LB2_TESTS_SCOPED_ENV_H_

#include <stdlib.h>

#include <string>

namespace lb2 {

class ScopedEnv {
 public:
  ScopedEnv(const char* key, const char* value) : key_(key) {
    const char* old = getenv(key);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      setenv(key, value, 1);
    } else {
      unsetenv(key);
    }
  }
  ScopedEnv(const char* key, const std::string& value)
      : ScopedEnv(key, value.c_str()) {}
  ~ScopedEnv() {
    if (had_) {
      setenv(key_, saved_.c_str(), 1);
    } else {
      unsetenv(key_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* key_;
  std::string saved_;
  bool had_ = false;
};

}  // namespace lb2

#endif  // LB2_TESTS_SCOPED_ENV_H_
