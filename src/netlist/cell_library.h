// Standard-cell library model.
//
// A CellType describes one library cell: pins, logic function, area,
// physical footprint, and first-order electrical data (pin capacitance,
// drive resistance) sufficient for the switched-capacitance power model and
// linear delay model used throughout the flow.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/id.h"
#include "netlist/logic_fn.h"

namespace secflow {

struct CellTypeTag {};
using CellTypeId = Id<CellTypeTag>;

enum class PinDir { kInput, kOutput };

enum class CellKind {
  kCombinational,  ///< output = LogicFn(inputs)
  kFlop,           ///< rising-edge D flip-flop (pins D, CK, Q)
  kTie,            ///< constant driver (TIE0 / TIE1)
};

struct PinDef {
  std::string name;
  PinDir dir = PinDir::kInput;
  double cap_ff = 0.0;  ///< input pin capacitance; 0 for outputs
};

struct CellType {
  std::string name;
  CellKind kind = CellKind::kCombinational;
  std::vector<PinDef> pins;
  /// Function of the single output in terms of the *input pins in pin
  /// order* (skipping output pins).  For kFlop this is the D->Q identity;
  /// for kTie the constant.
  LogicFn function;
  double area_um2 = 0.0;
  /// Footprint for placement/LEF; height is uniform per library (row height).
  double width_um = 0.0;
  double height_um = 0.0;
  /// Linear delay model: d = intrinsic_ps + drive_res_kohm * C_load_ff.
  double intrinsic_delay_ps = 0.0;
  double drive_res_kohm = 0.0;
  /// Internal switched capacitance booked per output transition (models the
  /// cell's internal node charge; part of the data-independent floor).
  double internal_cap_ff = 0.0;
  /// kFlop only: captures on the falling clock edge instead of the rising
  /// one (used by the WDDL master latch).
  bool negedge_clock = false;

  int n_inputs() const;
  int output_pin() const;            ///< pin index of the (single) output
  std::vector<int> input_pins() const;
  int pin_index(const std::string& pin_name) const;  ///< -1 if absent
  /// For kFlop: indices of the D and CK pins.
  int d_pin() const;
  int ck_pin() const;
};

/// An immutable collection of cell types with name lookup.
class CellLibrary {
 public:
  explicit CellLibrary(std::string name = "lib") : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  CellTypeId add(CellType cell);

  std::size_t size() const { return cells_.size(); }
  const CellType& cell(CellTypeId id) const;
  CellTypeId find(const std::string& name) const;  ///< invalid id if absent
  const CellType& cell(const std::string& name) const;  ///< throws if absent
  bool contains(const std::string& name) const { return find(name).valid(); }

  /// All ids, in insertion order.
  std::vector<CellTypeId> all() const;
  /// All cells, in id order.
  const std::vector<CellType>& cells() const { return cells_; }

  /// Verify internal consistency (single output, function arity matches
  /// input count, flop pin roles present).  Throws Error on violation.
  void validate() const;

 private:
  std::string name_;
  std::vector<CellType> cells_;
  std::unordered_map<std::string, CellTypeId> by_name_;
};

}  // namespace secflow
