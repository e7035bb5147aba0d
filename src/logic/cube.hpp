// Positional-cube representation for two-level logic over up to 64 binary
// input variables and up to 64 outputs.
//
// Each input variable is encoded by two bits: `lo` (the literal admits value
// 0) and `hi` (the literal admits value 1).  A variable with both bits set
// is absent from the product term (don't care); a variable with exactly one
// bit set contributes one literal; a variable with neither bit set makes the
// cube empty (we never construct such cubes through the public API).
//
// The output part is a bit mask: bit `o` set means the product term feeds
// output function `o`.  Single-output logic simply uses output mask 1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace nshot::logic {

/// One product term (cube) of a multi-output two-level cover.
class Cube {
 public:
  /// The universal cube over `num_inputs` variables feeding `outputs`.
  static Cube full(int num_inputs, std::uint64_t outputs = 1);

  /// The cube containing exactly the minterm `code` (bit i = value of
  /// variable i), feeding `outputs`.
  static Cube minterm(std::uint64_t code, int num_inputs, std::uint64_t outputs = 1);

  /// Bit mask with one bit per input variable.
  static std::uint64_t input_mask(int num_inputs);

  int num_inputs() const { return num_inputs_; }
  std::uint64_t lo() const { return lo_; }
  std::uint64_t hi() const { return hi_; }
  std::uint64_t outputs() const { return out_; }

  void set_outputs(std::uint64_t out) { out_ = out; }
  void add_output(int o) { out_ |= (1ULL << o); }
  bool has_output(int o) const { return (out_ >> o) & 1ULL; }

  /// True if the input part admits the minterm `code`.
  bool covers_minterm(std::uint64_t code) const;

  /// True if this cube's input part contains `other`'s input part and this
  /// cube feeds every output `other` feeds.
  bool contains(const Cube& other) const;

  /// True if the input parts of the two cubes intersect (some common
  /// minterm).  Output parts are ignored.
  bool input_intersects(const Cube& other) const;

  /// Smallest cube containing both cubes (input supercube, output union).
  Cube supercube(const Cube& other) const;

  /// Intersection of the input parts; std::nullopt if empty.  The output
  /// part of the result is the union of the two output parts.
  std::optional<Cube> input_intersection(const Cube& other) const;

  /// Variable `v` is a don't care (no literal) in this cube.
  bool var_is_free(int v) const;

  /// Remove the literal on variable `v` (make it don't care).
  void raise_var(int v);

  /// Constrain variable `v` to `value` (adds or tightens the literal).
  void restrict_var(int v, bool value);

  /// Number of input literals in the product term.
  int literal_count() const;

  /// Number of minterms of the input part (2^free_vars); saturates at
  /// 2^63 to avoid overflow for very wide cubes.
  std::uint64_t minterm_count() const;

  /// Lexicographic key for deduplication and deterministic ordering.
  friend bool operator==(const Cube& a, const Cube& b) {
    return a.lo_ == b.lo_ && a.hi_ == b.hi_ && a.out_ == b.out_ && a.num_inputs_ == b.num_inputs_;
  }
  friend bool operator<(const Cube& a, const Cube& b);

  /// Render as a PLA-style row, e.g. "01-0 | 101".
  std::string to_string() const;

 private:
  Cube(std::uint64_t lo, std::uint64_t hi, std::uint64_t out, int num_inputs)
      : lo_(lo), hi_(hi), out_(out), num_inputs_(num_inputs) {}

  std::uint64_t lo_ = 0;
  std::uint64_t hi_ = 0;
  std::uint64_t out_ = 0;
  int num_inputs_ = 0;
};

}  // namespace nshot::logic
