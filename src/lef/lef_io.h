// LEF-lite text reader/writer.
//
// Format (whitespace-separated keywords, ';'-terminated statements):
//
//   VERSION 5.6 ;
//   LAYER M1
//     DIRECTION HORIZONTAL ;
//     PITCH 0.56 ;
//     WIDTH 0.28 ;
//   END M1
//   MACRO INV
//     SIZE 1.32 BY 5.04 ;
//     PIN A DIRECTION INPUT ORIGIN 0.28 1.12 ;
//     PIN Y DIRECTION OUTPUT ORIGIN 0.56 3.92 ;
//   END INV
//   END LIBRARY
#pragma once

#include <string>

#include "lef/lef.h"

namespace secflow {

std::string write_lef(const LefLibrary& lib);
void write_lef_file(const LefLibrary& lib, const std::string& path);

LefLibrary parse_lef(const std::string& text, const std::string& name = "lef");

}  // namespace secflow
