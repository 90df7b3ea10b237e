// Parser for the scalar structural-Verilog subset used by the flow.
//
// Grammar (comments // and /* */ allowed anywhere):
//   module NAME ( port {, port} ) ;
//   { input NAME ; | output NAME ; | wire NAME ; | CELL INST ( conns ) ; }
//   endmodule
// conns are named only: .PIN(NET) {, .PIN(NET)}.
//
// All referenced cells must exist in the provided library.  Undeclared
// nets appearing in connections are created implicitly (matching common
// netlist-tool behaviour); ports must be declared.
#pragma once

#include <memory>
#include <string>

#include "netlist/netlist.h"

namespace secflow {

/// Parse structural Verilog text into a Netlist.  Throws ParseError.
Netlist parse_verilog(const std::string& text,
                      std::shared_ptr<const CellLibrary> library);

}  // namespace secflow
