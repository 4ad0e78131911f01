#pragma once

#include "src/netlist/techlib.hpp"

namespace agingsim {

/// The single calibration point tying the model's time axis to the paper's:
/// the default library is globally scaled so the 16x16 column-bypassing
/// multiplier's critical path equals `target_cb16_ps` (1.88 ns in the
/// paper's Fig. 5). All *relative* results — architecture orderings, delay
/// distribution shapes, variable-latency crossovers — are calibration-free.
TechLibrary calibrated_tech_library(double target_cb16_ps = 1880.0);

/// calibrated_tech_library() at the paper's anchor, built once per process:
/// the library of every bench, agingrun and agingd.
const TechLibrary& paper_tech_library();

/// The scale factor that `calibrated_tech_library` applies (diagnostics).
double calibration_scale(double target_cb16_ps = 1880.0);

}  // namespace agingsim
