// Physical units and technology constants.
//
// Layout geometry is integer DBU (database units); electrical quantities are
// double in SI-derived engineering units chosen so typical values are O(1):
// femtofarads, kilo-ohms, picoseconds, picojoules, milliamperes, microns.
#pragma once

#include <cstdint>

namespace secflow {

/// Database units per micron (LEF "DATABASE MICRONS 1000").
inline constexpr std::int64_t kDbuPerMicron = 1000;

inline constexpr double dbu_to_um(std::int64_t dbu) {
  return static_cast<double>(dbu) / static_cast<double>(kDbuPerMicron);
}
inline constexpr std::int64_t um_to_dbu(double um) {
  return static_cast<std::int64_t>(um * static_cast<double>(kDbuPerMicron) +
                                   (um >= 0 ? 0.5 : -0.5));
}

/// The coarsest legal routing pitch [um]: far coarser than any process,
/// and small enough that every DBU coordinate derived from it stays far
/// from overflow.
inline constexpr double kMaxWirePitchUm = 1e3;

/// Representative 0.18 um interconnect constants.  Values are of the
/// magnitude published for 180 nm nodes (ITRS 2001/2003); they give
/// dimensionally consistent parasitics, not vendor-exact ones.  The supply
/// voltage belongs to the power model (kVddV, sim/sim_model.h).
struct Process018 {
  double wire_c_area_ff_per_um2 = 0.04;   ///< area cap to substrate [fF/um^2]
  double wire_c_fringe_ff_per_um = 0.04;  ///< fringe cap per edge [fF/um]
  double wire_c_couple_ff_per_um = 0.08;  ///< coupling cap at min pitch [fF/um]
  double wire_r_ohm_per_sq = 0.08;   ///< sheet resistance [ohm/sq]
  double via_r_ohm = 4.0;            ///< single via resistance [ohm]
  double via_c_ff = 0.3;             ///< via capacitance [fF]
  double wire_width_um = 0.28;       ///< minimum routed wire width [um]
  double wire_pitch_um = 0.56;       ///< routing track pitch [um]
};

/// Clock and sampling parameters from the paper's design example:
/// 125 MHz clock, 800 samples per clock cycle.
struct SamplingSpec {
  double clock_hz = 125e6;
  int samples_per_cycle = 800;

  double cycle_s() const { return 1.0 / clock_hz; }
  double sample_dt_s() const { return cycle_s() / samples_per_cycle; }
};

}  // namespace secflow
