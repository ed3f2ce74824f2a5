#include "common/table.hpp"

#include <cassert>
#include <cstdio>
#include <sstream>

namespace speedllm {

std::size_t Table::AddRow() {
  rows_.emplace_back();
  return rows_.size() - 1;
}

void Table::Cell(std::string text) {
  assert(!rows_.empty() && "call AddRow() before Cell()");
  assert(rows_.back().size() < headers_.size() && "row has too many cells");
  rows_.back().push_back(std::move(text));
}

void Table::Cell(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  Cell(std::string(buf));
}

void Table::Cell(std::int64_t value) { Cell(std::to_string(value)); }

void Table::Row(std::vector<std::string> cells) {
  assert(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::ToString() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  for (const auto& row : rows_)
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c) out << " | ";
      const std::string& text = c < cells.size() ? cells[c] : std::string();
      // Left-align the first column (labels), right-align numerics.
      if (c == 0) {
        out << text << std::string(widths[c] - text.size(), ' ');
      } else {
        out << std::string(widths[c] - text.size(), ' ') << text;
      }
    }
    out << "\n";
  };
  emit_row(headers_);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out << "-+-";
    out << std::string(widths[c], '-');
  }
  out << "\n";
  for (const auto& row : rows_) emit_row(row);
  return out.str();
}

void Table::Print() const { std::fputs(ToString().c_str(), stdout); }

std::string FormatBytes(std::uint64_t bytes) {
  const char* units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
  return buf;
}

std::string FormatSeconds(double seconds) {
  char buf[64];
  if (seconds < 1e-6) {
    std::snprintf(buf, sizeof(buf), "%.1f ns", seconds * 1e9);
  } else if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.2f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.2f ms", seconds * 1e3);
  } else {
    std::snprintf(buf, sizeof(buf), "%.2f s", seconds);
  }
  return buf;
}

}  // namespace speedllm
