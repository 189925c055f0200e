#include "hw/verilog_gen.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "fixed/dot.h"
#include "fixed/lns.h"
#include "support/error.h"

namespace ldafp::hw {
namespace {

/// Name of the generated classifier module (the testbench appends _tb).
constexpr char kModuleName[] = "ldafp_classifier";

/// Raw word -> Verilog sized hex literal (masked to `bits`).
std::string vhex(std::int64_t raw, int bits) {
  const auto mask = bits >= 64 ? ~std::uint64_t{0}
                               : (std::uint64_t{1} << bits) - 1;
  std::ostringstream os;
  os << bits << "'h" << std::hex
     << (static_cast<std::uint64_t>(raw) & mask);
  return os.str();
}

/// The LNS classifier module: same streaming interface as the QK.F
/// module, but the MAC is an exponent adder plus the Mitchell log-domain
/// accumulator of fixed/lns.h (align shift with round-to-nearest-even,
/// add, renormalize via priority encoder) — saturating, not wrapping.
/// Words are {sign, E-bit exponent}; the most negative exponent code is
/// the exact-zero flag.
std::string generate_lns_verilog(const core::FixedClassifier& clf) {
  const fixed::FixedFormat& fmt = clf.format();
  const fixed::LnsFormat lns = fixed::LnsFormat::matched(fmt);
  const int w_bits = lns.word_length();
  const int e_bits = lns.exp_bits();
  const int fe = lns.exp_frac_bits();
  const std::size_t m = clf.dim();
  const std::vector<std::int64_t>& weights = clf.weight_words();

  std::ostringstream os;
  os << "// Generated by ldafp — serial LNS MAC classifier, format "
     << lns.to_string() << " (from " << fmt.to_string() << "), " << m
     << " features.\n";
  os << "// Word = {sign, " << e_bits
     << "-bit exponent}; exponent " << vhex(lns.exp_raw_min(), e_bits)
     << " flags exact zero.\n";
  os << "// One classification every " << (m + 1)
     << " cycles: stream one feature word per x_valid cycle,\n";
  os << "// `done` pulses with `class_a` after the compare cycle.\n";
  os << "module " << kModuleName << " (\n";
  os << "    input  wire                 clk,\n";
  os << "    input  wire                 rst,\n";
  os << "    input  wire                 x_valid,\n";
  os << "    input  wire        [" << (w_bits - 1) << ":0] x_data,\n";
  os << "    output reg                  done,\n";
  os << "    output reg                  class_a\n";
  os << ");\n";
  os << "  localparam integer M  = " << m << ";\n";
  os << "  localparam integer W  = " << w_bits << ";\n";
  os << "  localparam integer E  = " << e_bits << ";  // exponent bits\n";
  os << "  localparam integer FE = " << fe << ";  // exponent frac bits\n";
  os << "  // Guard-bit accumulator exponent (wide mode): headroom for\n";
  os << "  // product exponents plus log-domain growth.\n";
  os << "  localparam integer AE = E + 8;\n";
  os << "  localparam signed [E-1:0] EXP_ZERO = " << vhex(lns.exp_raw_min(),
                                                          e_bits)
     << ";  // zero flag\n";
  os << "  localparam signed [AE-1:0] EXP_MAX = "
     << lns.exp_raw_max() << ";\n";
  os << "  localparam signed [AE-1:0] EXP_MIN_NORMAL = "
     << lns.exp_raw_min_normal() << ";\n\n";

  os << "  // Weight ROM ({sign, exponent} LNS words).\n";
  os << "  reg [W-1:0] rom [0:M-1];\n";
  os << "  initial begin\n";
  for (std::size_t i = 0; i < m; ++i) {
    os << "    rom[" << i << "] = " << vhex(weights[i], w_bits) << ";\n";
  }
  os << "  end\n\n";
  os << "  localparam [W-1:0] THRESHOLD = "
     << vhex(clf.threshold_raw(), w_bits) << ";\n\n";

  os << "  // Mitchell antilog of the aligned addend, Fe-fraction raw\n";
  os << "  // units: r = RNE((2^(FE+1) - d_frac) >> (d_int + 1)).\n";
  os << "  function [63:0] mitchell_r(input signed [AE-1:0] d);\n";
  os << "    reg [63:0] num, q, rem, half;\n";
  os << "    integer sh;\n";
  os << "    begin\n";
  os << "      num = (64'd2 << FE) - (d & ((64'd1 << FE) - 1));\n";
  os << "      sh  = (d >>> FE) + 1;\n";
  os << "      if (sh >= 62) mitchell_r = 0;\n";
  os << "      else begin\n";
  os << "        q    = num >> sh;\n";
  os << "        rem  = num - (q << sh);\n";
  os << "        half = 64'd1 << (sh - 1);\n";
  os << "        if (rem > half || (rem == half && q[0])) q = q + 1;\n";
  os << "        mitchell_r = q;\n";
  os << "      end\n";
  os << "    end\n";
  os << "  endfunction\n\n";
  os << "  // Renormalization shift: smallest k with (y << k) >= 2^FE.\n";
  os << "  function integer norm_k(input [63:0] y);\n";
  os << "    integer k;\n";
  os << "    begin\n";
  os << "      norm_k = 0;\n";
  os << "      for (k = 0; k <= FE; k = k + 1)\n";
  os << "        if ((y << k) < (64'd1 << FE)) norm_k = k + 1;\n";
  os << "    end\n";
  os << "  endfunction\n\n";

  os << "  reg [$clog2(M+1)-1:0] idx;\n";
  os << "  reg                  acc_zero, acc_sign;\n";
  os << "  reg signed [AE-1:0]  acc_exp;\n";
  os << "  reg comparing;\n\n";

  os << "  // Unpack the incoming feature and the ROM weight.\n";
  os << "  wire        x_sign = x_data[E];\n";
  os << "  wire signed [E-1:0] x_exp = x_data[E-1:0];\n";
  os << "  wire        x_zero = (x_exp == EXP_ZERO);\n";
  os << "  wire        w_sign = rom[idx][E];\n";
  os << "  wire signed [E-1:0] w_exp = rom[idx][E-1:0];\n";
  os << "  wire        w_zero = (w_exp == EXP_ZERO);\n";
  os << "  // Multiplier stage: one exponent add.\n";
  os << "  wire        p_zero = x_zero | w_zero;\n";
  os << "  wire        p_sign = x_sign ^ w_sign;\n";
  os << "  wire signed [AE-1:0] p_exp = x_exp + w_exp;\n\n";

  os << "  // Saturate the accumulator exponent to the storage grid.\n";
  os << "  wire signed [AE-1:0] y_exp = acc_exp > EXP_MAX ? EXP_MAX\n";
  os << "                             : acc_exp;\n";
  os << "  wire y_zero = acc_zero || (acc_exp < EXP_MIN_NORMAL);\n";
  os << "  wire [W-1:0] y = y_zero ? {1'b0, EXP_ZERO}\n";
  os << "                          : {acc_sign, y_exp[E-1:0]};\n";
  os << "  // LNS comparator: sign class, then exponent order.\n";
  os << "  wire        t_sign = THRESHOLD[E];\n";
  os << "  wire signed [E-1:0] t_exp = THRESHOLD[E-1:0];\n";
  os << "  wire        t_zero = (t_exp == EXP_ZERO);\n";
  os << "  wire        y_neg = !y_zero && y[E];\n";
  os << "  wire        t_neg = !t_zero && t_sign;\n";
  os << "  wire signed [1:0] y_rank = y_zero ? 2'sd0 : (y_neg ? -2'sd1 : 2'sd1);\n";
  os << "  wire signed [1:0] t_rank = t_zero ? 2'sd0 : (t_neg ? -2'sd1 : 2'sd1);\n";
  os << "  wire ge = (y_rank != t_rank) ? (y_rank > t_rank)\n";
  os << "          : y_zero             ? 1'b1\n";
  os << "          : y_neg              ? ($signed(y[E-1:0]) <= t_exp)\n";
  os << "                               : ($signed(y[E-1:0]) >= t_exp);\n\n";

  os << "  // Log-domain accumulation (Mitchell), one product per cycle.\n";
  os << "  reg hi_sign, lo_sign;\n";
  os << "  reg signed [AE-1:0] hi_exp, d;\n";
  os << "  reg [63:0] r, yy;\n";
  os << "  integer k;\n";
  os << "  always @(posedge clk) begin\n";
  os << "    if (rst) begin\n";
  os << "      idx       <= 0;\n";
  os << "      acc_zero  <= 1'b1;\n";
  os << "      acc_sign  <= 1'b0;\n";
  os << "      acc_exp   <= 0;\n";
  os << "      comparing <= 1'b0;\n";
  os << "      done      <= 1'b0;\n";
  os << "      class_a   <= 1'b0;\n";
  os << "    end else begin\n";
  os << "      done <= 1'b0;\n";
  os << "      if (comparing) begin\n";
  os << "        done      <= 1'b1;\n";
  os << "        class_a   <= ge;\n";
  os << "        acc_zero  <= 1'b1;\n";
  os << "        acc_exp   <= 0;\n";
  os << "        comparing <= 1'b0;\n";
  os << "      end else if (x_valid) begin\n";
  os << "        if (!p_zero) begin\n";
  os << "          if (acc_zero) begin\n";
  os << "            acc_zero <= 1'b0;\n";
  os << "            acc_sign <= p_sign;\n";
  os << "            acc_exp  <= p_exp;\n";
  os << "          end else begin\n";
  os << "            if (acc_exp >= p_exp) begin\n";
  os << "              hi_sign = acc_sign; hi_exp = acc_exp;\n";
  os << "              lo_sign = p_sign;   d = acc_exp - p_exp;\n";
  os << "            end else begin\n";
  os << "              hi_sign = p_sign;   hi_exp = p_exp;\n";
  os << "              lo_sign = acc_sign; d = p_exp - acc_exp;\n";
  os << "            end\n";
  os << "            r = mitchell_r(d);\n";
  os << "            if (hi_sign == lo_sign) begin\n";
  os << "              // log2(1 + r) ~= r\n";
  os << "              acc_sign <= hi_sign;\n";
  os << "              acc_exp  <= hi_exp + r;\n";
  os << "            end else begin\n";
  os << "              yy = (64'd1 << FE) - r;\n";
  os << "              if (yy == 0) begin\n";
  os << "                acc_zero <= 1'b1;  // exact cancellation\n";
  os << "              end else begin\n";
  os << "                // log2(y) ~= -k + (m - 1), m = y*2^k in [1,2)\n";
  os << "                k = norm_k(yy);\n";
  os << "                acc_sign <= hi_sign;\n";
  os << "                acc_exp  <= hi_exp - (k << FE)\n";
  os << "                            + ((yy << k) - (64'd1 << FE));\n";
  os << "              end\n";
  os << "            end\n";
  os << "          end\n";
  os << "        end\n";
  os << "        if (idx == M-1) begin\n";
  os << "          idx       <= 0;\n";
  os << "          comparing <= 1'b1;\n";
  os << "        end else begin\n";
  os << "          idx <= idx + 1;\n";
  os << "        end\n";
  os << "      end\n";
  os << "    end\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

}  // namespace

std::string generate_classifier_verilog(const core::FixedClassifier& clf) {
  if (clf.datapath_kind() == fixed::DatapathKind::kLns) {
    return generate_lns_verilog(clf);
  }
  const fixed::FixedFormat& fmt = clf.format();
  const int w_bits = fmt.word_length();
  const int f_bits = fmt.frac_bits();
  const int acc_bits = fmt.integer_bits() + 2 * f_bits;
  const std::size_t m = clf.dim();
  const linalg::Vector weights = clf.weights_real();

  std::ostringstream os;
  os << "// Generated by ldafp — serial MAC classifier, format "
     << fmt.to_string() << ", " << m << " features.\n";
  os << "// One classification every " << (m + 1)
     << " cycles: stream one feature word per x_valid cycle,\n";
  os << "// `done` pulses with `class_a` after the compare cycle.\n";
  os << "module " << kModuleName << " (\n";
  os << "    input  wire                 clk,\n";
  os << "    input  wire                 rst,\n";
  os << "    input  wire                 x_valid,\n";
  os << "    input  wire signed [" << (w_bits - 1) << ":0] x_data,\n";
  os << "    output reg                  done,\n";
  os << "    output reg                  class_a\n";
  os << ");\n";
  os << "  localparam integer M = " << m << ";\n";
  os << "  localparam integer W = " << w_bits << ";\n";
  os << "  localparam integer F = " << f_bits << ";\n";
  os << "  localparam integer ACCW = " << acc_bits << ";\n\n";

  os << "  // Weight ROM (two's complement QK.F words).\n";
  os << "  reg signed [W-1:0] rom [0:M-1];\n";
  os << "  initial begin\n";
  for (std::size_t i = 0; i < m; ++i) {
    os << "    rom[" << i << "] = " << vhex(
        fmt.quantize_saturate(weights[i], fixed::RoundingMode::kNearestEven),
        w_bits) << ";\n";
  }
  os << "  end\n\n";
  os << "  localparam signed [W-1:0] THRESHOLD = "
     << vhex(fmt.quantize_saturate(clf.threshold_real(),
                                   fixed::RoundingMode::kNearestEven),
             w_bits)
     << ";\n\n";

  os << "  reg [$clog2(M+1)-1:0] idx;\n";
  os << "  reg signed [ACCW-1:0] acc;  // K + 2F bits, wrapping\n";
  os << "  reg comparing;\n";
  os << "  wire signed [2*W-1:0] product = rom[idx] * x_data;\n\n";

  os << "  // Final rounding of the wide accumulator to QK.F,\n";
  os << "  // round-to-nearest-even (matches the software model).\n";
  if (f_bits > 0) {
    os << "  wire signed [ACCW-1:0] acc_floor = acc >>> F;\n";
    os << "  wire [F-1:0] acc_rem = acc[F-1:0];\n";
    os << "  wire round_up = (acc_rem > (1 << (F-1))) ||\n";
    os << "      ((acc_rem == (1 << (F-1))) && acc_floor[0]);\n";
    os << "  wire signed [W-1:0] y = acc_floor[W-1:0] + round_up;\n\n";
  } else {
    os << "  wire signed [W-1:0] y = acc[W-1:0];  // F = 0: no rounding\n\n";
  }

  os << "  always @(posedge clk) begin\n";
  os << "    if (rst) begin\n";
  os << "      idx       <= 0;\n";
  os << "      acc       <= 0;\n";
  os << "      comparing <= 1'b0;\n";
  os << "      done      <= 1'b0;\n";
  os << "      class_a   <= 1'b0;\n";
  os << "    end else begin\n";
  os << "      done <= 1'b0;\n";
  os << "      if (comparing) begin\n";
  os << "        // Compare cycle: rounded accumulator vs threshold.\n";
  os << "        done      <= 1'b1;\n";
  os << "        class_a   <= (y >= THRESHOLD);\n";
  os << "        acc       <= 0;\n";
  os << "        comparing <= 1'b0;\n";
  os << "      end else if (x_valid) begin\n";
  os << "        // MAC cycle; wrapping add keeps the low ACCW bits.\n";
  os << "        acc <= acc + product[ACCW-1:0];\n";
  os << "        if (idx == M-1) begin\n";
  os << "          idx       <= 0;\n";
  os << "          comparing <= 1'b1;\n";
  os << "        end else begin\n";
  os << "          idx <= idx + 1;\n";
  os << "        end\n";
  os << "      end\n";
  os << "    end\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

std::vector<GoldenVector> make_golden_vectors(
    const core::FixedClassifier& clf,
    const std::vector<linalg::Vector>& inputs) {
  std::vector<GoldenVector> out;
  out.reserve(inputs.size());
  for (const auto& x : inputs) {
    GoldenVector v;
    v.features = x;
    v.expected_class_a = clf.classify(x) == core::Label::kClassA;
    out.push_back(std::move(v));
  }
  return out;
}

std::string generate_testbench_verilog(
    const core::FixedClassifier& clf,
    const std::vector<GoldenVector>& vectors) {
  const fixed::FixedFormat& fmt = clf.format();
  const bool lns = clf.datapath_kind() == fixed::DatapathKind::kLns;
  const int w_bits = fmt.word_length();
  const std::size_t m = clf.dim();

  std::ostringstream os;
  os << "// Self-checking testbench for " << kModuleName
     << " — golden outputs from the ldafp C++ datapath model.\n";
  os << "`timescale 1ns/1ps\n";
  os << "module " << kModuleName << "_tb;\n";
  os << "  reg clk = 0, rst = 1, x_valid = 0;\n";
  os << "  reg signed [" << (w_bits - 1) << ":0] x_data = 0;\n";
  os << "  wire done, class_a;\n";
  os << "  integer errors = 0;\n\n";
  os << "  " << kModuleName
     << " dut (.clk(clk), .rst(rst), .x_valid(x_valid), .x_data(x_data),"
        " .done(done), .class_a(class_a));\n\n";
  os << "  always #5 clk = ~clk;\n\n";
  os << "  task classify_one(input [" << (m * w_bits - 1)
     << ":0] words, input expected);\n";
  os << "    integer i;\n";
  os << "    begin\n";
  os << "      for (i = 0; i < " << m << "; i = i + 1) begin\n";
  os << "        @(negedge clk);\n";
  os << "        x_valid = 1;\n";
  os << "        x_data = words[(" << m << "-1-i)*" << w_bits << " +: "
     << w_bits << "];\n";
  os << "      end\n";
  os << "      @(negedge clk);\n";
  os << "      x_valid = 0;\n";
  os << "      @(posedge done);\n";
  os << "      if (class_a !== expected) begin\n";
  os << "        errors = errors + 1;\n";
  os << "        $display(\"MISMATCH: got %b expected %b\", class_a,"
        " expected);\n";
  os << "      end\n";
  os << "    end\n";
  os << "  endtask\n\n";
  os << "  initial begin\n";
  os << "    repeat (2) @(negedge clk);\n";
  os << "    rst = 0;\n";
  for (const auto& v : vectors) {
    os << "    classify_one({";
    for (std::size_t i = 0; i < m; ++i) {
      if (i != 0) os << ", ";
      // Pre-quantized word literals: the DUT sees the exact words the
      // C++ datapath scored, on either backend.
      os << vhex(lns ? clf.datapath().quantize(v.features[i])
                     : fmt.quantize_saturate(
                           v.features[i], fixed::RoundingMode::kNearestEven),
                 w_bits);
    }
    os << "}, 1'b" << (v.expected_class_a ? 1 : 0) << ");\n";
  }
  os << "    if (errors == 0) $display(\"PASS: " << vectors.size()
     << " vectors\");\n";
  os << "    else $fatal(1, \"FAIL: %0d mismatches\", errors);\n";
  os << "    $finish;\n";
  os << "  end\n";
  os << "endmodule\n";
  return os.str();
}

void save_verilog(const std::string& dir, const core::FixedClassifier& clf,
                  const std::vector<GoldenVector>& vectors) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string module_path = dir + "/" + kModuleName + ".v";
  const std::string tb_path = dir + "/" + kModuleName + "_tb.v";
  std::ofstream module_file(module_path);
  if (!module_file) {
    throw ldafp::IoError("verilog: cannot create '" + module_path + "'");
  }
  module_file << generate_classifier_verilog(clf);
  std::ofstream tb_file(tb_path);
  if (!tb_file) {
    throw ldafp::IoError("verilog: cannot create '" + tb_path + "'");
  }
  tb_file << generate_testbench_verilog(clf, vectors);
}

}  // namespace ldafp::hw
