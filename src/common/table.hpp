// SpeedLLM -- fixed-width ASCII table printer used by the benchmark
// harnesses to emit the rows/series the paper's tables and figures report.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace speedllm {

/// Collects rows of string cells and renders an aligned ASCII table:
///
///   variant      | latency_ms | speedup
///   -------------+------------+--------
///   Unoptimized  |     812.40 |   1.00x
///
/// Numeric helpers format with fixed precision so series are comparable
/// across rows.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Starts a new row; returns its index.
  std::size_t AddRow();

  /// Appends a cell to the last row (AddRow must have been called).
  void Cell(std::string text);
  void Cell(double value, int precision = 3);
  void Cell(std::int64_t value);

  /// Convenience: adds a whole row at once.
  void Row(std::vector<std::string> cells);

  std::size_t num_rows() const { return rows_.size(); }

  /// Renders the aligned table (trailing newline included).
  std::string ToString() const;

  /// Prints ToString() to stdout.
  void Print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a byte count with binary units ("1.5 MiB").
std::string FormatBytes(std::uint64_t bytes);

/// Formats seconds adaptively ("1.24 ms", "3.1 s").
std::string FormatSeconds(double seconds);

}  // namespace speedllm
