// Aligned-text table rendering for benchmark output. Every bench
// binary regenerates one table/figure of the paper as a table printed with
// this helper, so the formatting lives in one place.
#pragma once

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace pair_ecc::util {

class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  /// Appends a row; shorter rows are padded with empty cells.
  void AddRow(std::vector<std::string> row) {
    row.resize(header_.size());
    rows_.push_back(std::move(row));
  }

  /// Convenience: formats arbitrary streamable values into a row.
  template <typename... Ts>
  void AddRowValues(const Ts&... values) {
    std::vector<std::string> row;
    row.reserve(sizeof...(values));
    (row.push_back(Format(values)), ...);
    AddRow(std::move(row));
  }

  /// Renders with space-aligned columns and a rule under the header.
  void Print(std::ostream& os) const {
    std::vector<std::size_t> width(header_.size());
    for (std::size_t c = 0; c < header_.size(); ++c) width[c] = header_[c].size();
    for (const auto& row : rows_)
      for (std::size_t c = 0; c < row.size(); ++c)
        width[c] = std::max(width[c], row[c].size());

    PrintRow(os, header_, width);
    std::size_t total = 0;
    for (auto w : width) total += w + 2;
    os << std::string(total, '-') << '\n';
    for (const auto& row : rows_) PrintRow(os, row, width);
  }

  template <typename T>
  static std::string Format(const T& value) {
    if constexpr (std::is_floating_point_v<T>) {
      std::ostringstream ss;
      ss << std::setprecision(4) << std::defaultfloat << value;
      return ss.str();
    } else if constexpr (std::is_convertible_v<T, std::string>) {
      return std::string(value);
    } else {
      std::ostringstream ss;
      ss << value;
      return ss.str();
    }
  }

  /// Scientific-notation formatting for probabilities (e.g. "3.2e-07").
  static std::string Sci(double value, int precision = 2) {
    std::ostringstream ss;
    ss << std::scientific << std::setprecision(precision) << value;
    return ss.str();
  }

  /// Fixed-point formatting (e.g. ratios, percentages).
  static std::string Fixed(double value, int precision = 3) {
    std::ostringstream ss;
    ss << std::fixed << std::setprecision(precision) << value;
    return ss.str();
  }

  /// Structured access for machine-readable exports (telemetry JSON).
  const std::vector<std::string>& header() const noexcept { return header_; }
  const std::vector<std::vector<std::string>>& rows() const noexcept {
    return rows_;
  }

 private:
  static void PrintRow(std::ostream& os, const std::vector<std::string>& row,
                       const std::vector<std::size_t>& width) {
    for (std::size_t c = 0; c < row.size(); ++c)
      os << std::left << std::setw(static_cast<int>(width[c]) + 2) << row[c];
    os << '\n';
  }

  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace pair_ecc::util
