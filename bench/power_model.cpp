// Reproduces the paper's power arithmetic (Sec. 5): power of fixed-point
// arithmetic is ~quadratic in word length [13], so word-length savings
// square into power savings.  Prints the power curve, the paper's two
// headline ratios, and per-classification energy for the two workloads'
// datapath cycle counts.
#include <cstdio>
#include <string>

#include "hw/power_model.h"
#include "support/str.h"
#include "support/table.h"

int main() {
  using namespace ldafp;

  const hw::PowerModel paper_rule;  // pure quadratic, the paper's model
  const hw::PowerModel with_linear(
      hw::PowerModelOptions{.quadratic_coeff = 1.0, .linear_coeff = 2.0});

  std::printf("Power model — P(W) ∝ W² (paper's rule) and a "
              "quadratic+linear variant\n\n");

  support::TextTable table({"Word Length", "P ∝ W²", "Relative to 16-bit",
                            "P ∝ W²+2W", "Energy/classif. (M=3)",
                            "Energy/classif. (M=42)"});
  for (const int w : {3, 4, 5, 6, 7, 8, 10, 12, 14, 16}) {
    table.add_row(
        {std::to_string(w),
         support::format_double(paper_rule.power(w), 0),
         support::format_double(paper_rule.power(w) / paper_rule.power(16),
                                3),
         support::format_double(with_linear.power(w), 0),
         support::format_double(
             paper_rule.energy_per_classification(w, 3 + 1), 0),
         support::format_double(
             paper_rule.energy_per_classification(w, 42 + 1), 0)});
  }
  std::printf("%s\n", table.to_string().c_str());

  std::printf("Paper headline ratios under the quadratic rule:\n");
  std::printf("  12-bit -> 4-bit (Table 1's 3x word-length saving): "
              "%.1fx power reduction (paper: 9x)\n",
              paper_rule.power_ratio(12, 4));
  std::printf("  8-bit -> 6-bit (Table 2): %.2fx power reduction "
              "(paper: 1.8x)\n",
              paper_rule.power_ratio(8, 6));
  std::printf("With the quadratic+linear variant the same savings are "
              "%.1fx and %.2fx.\n",
              with_linear.power_ratio(12, 4),
              with_linear.power_ratio(8, 6));
  return 0;
}
