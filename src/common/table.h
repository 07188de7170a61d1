// Fixed-width ASCII table printer for the experiment harnesses.
//
// Every bench binary in bench/ regenerates one of the paper's claims as a
// table; this class renders aligned rows so the outputs are directly
// readable and diffable.
#pragma once

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace dcl {

class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  /// Starts a new row; values are appended with `add`.
  Table& row() {
    rows_.emplace_back();
    return *this;
  }

  Table& add(const std::string& value) {
    rows_.back().push_back(value);
    return *this;
  }
  Table& add(std::int64_t value) { return add(std::to_string(value)); }
  Table& add(std::uint64_t value) { return add(std::to_string(value)); }
  Table& add(int value) { return add(std::to_string(value)); }
  Table& add(double value, int precision = 3) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << value;
    return add(os.str());
  }

  void print(std::ostream& out = std::cout) const {
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        widths[c] = std::max(widths[c], row[c].size());
      }
    }
    print_rule(out, widths);
    print_row(out, headers_, widths);
    print_rule(out, widths);
    for (const auto& row : rows_) print_row(out, row, widths);
    print_rule(out, widths);
  }

 private:
  static void print_rule(std::ostream& out,
                         const std::vector<std::size_t>& widths) {
    out << '+';
    for (auto w : widths) out << std::string(w + 2, '-') << '+';
    out << '\n';
  }

  static void print_row(std::ostream& out, const std::vector<std::string>& row,
                        const std::vector<std::size_t>& widths) {
    out << '|';
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = (c < row.size()) ? row[c] : std::string{};
      out << ' ' << std::left << std::setw(static_cast<int>(widths[c])) << cell
          << " |";
    }
    out << '\n';
  }

  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace dcl
