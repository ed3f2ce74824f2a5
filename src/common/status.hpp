// SpeedLLM -- error handling primitives.
//
// Library code reports expected failures through Status / StatusOr<T>
// instead of exceptions, following the convention that exceptions are
// reserved for programmer errors (contract violations assert instead).
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace speedllm {

/// Coarse error taxonomy. Mirrors the categories the toolchain needs to
/// distinguish: bad user input, violated invariants, missing resources and
/// capacity exhaustion (the compiler backtracks on kResourceExhausted).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kUnimplemented,
  kInternal,
  kDataLoss,
};

/// Human-readable name of a StatusCode ("OK", "INVALID_ARGUMENT", ...).
std::string_view StatusCodeName(StatusCode code);

/// A cheap value type carrying success or (code, message).
class Status {
 public:
  /// Success.
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "INVALID_ARGUMENT: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

Status InvalidArgument(std::string msg);
Status NotFound(std::string msg);
Status OutOfRange(std::string msg);
Status FailedPrecondition(std::string msg);
Status ResourceExhausted(std::string msg);
Status Unimplemented(std::string msg);
Status Internal(std::string msg);
Status DataLoss(std::string msg);

/// Either a value of T or an error Status. Accessing value() on an error
/// is a contract violation (asserts in debug, UB in release) -- callers
/// must check ok() first or use value_or-style flows.
template <typename T>
class StatusOr {
 public:
  StatusOr(const T& value) : value_(value) {}                    // NOLINT
  StatusOr(T&& value) : value_(std::move(value)) {}              // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {         // NOLINT
    assert(!status_.ok() && "StatusOr(Status) requires an error status");
  }

  bool ok() const { return value_.has_value(); }
  /// The error, or OK when a value is held.
  const Status& status() const { return status_; }

  T& value() & {
    assert(ok());
    return *value_;
  }
  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::optional<T> value_;
  Status status_;  // OK (no allocation) unless constructed from an error
};

/// Propagates errors out of the enclosing function.
#define SPEEDLLM_RETURN_IF_ERROR(expr)            \
  do {                                            \
    ::speedllm::Status status_ = (expr);          \
    if (!status_.ok()) return status_;            \
  } while (0)

/// Assigns the value of a StatusOr expression or propagates its error.
#define SPEEDLLM_ASSIGN_OR_RETURN(lhs, expr)      \
  SPEEDLLM_ASSIGN_OR_RETURN_IMPL_(                \
      SPEEDLLM_STATUS_CONCAT_(statusor_, __LINE__), lhs, expr)

#define SPEEDLLM_STATUS_CONCAT_INNER_(a, b) a##b
#define SPEEDLLM_STATUS_CONCAT_(a, b) SPEEDLLM_STATUS_CONCAT_INNER_(a, b)
#define SPEEDLLM_ASSIGN_OR_RETURN_IMPL_(tmp, lhs, expr) \
  auto tmp = (expr);                                    \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value()

}  // namespace speedllm
