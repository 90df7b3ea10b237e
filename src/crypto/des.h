// DES S-boxes and the paper's DPA test circuit (Fig 4).
//
// The test circuit is the reduced DES module of Tiri et al., CHES'03 [5]:
// a 4-bit register PL and a 6-bit register PR load fresh plaintext every
// cycle; the S1 substitution box transforms PR ^ K and its output XORs
// with PL to form the ciphertext half CL; CR is PR itself.  The attacker
// observes (CL, CR) and the supply current, guesses K, and predicts a bit
// of PL with the selection function D(K, C) = bit b of CL ^ S1(CR ^ K).
#pragma once

#include <cstdint>

#include "synth/circuit.h"

namespace secflow {

/// DES S-box lookup: `box` in [1,8], `in` a 6-bit value (b5 b0 select the
/// row, b4..b1 the column), returns the 4-bit substitution.
std::uint32_t des_sbox(int box, std::uint32_t in);

struct DesDpaOptions {
  int sbox = 1;  ///< which S-box implements the substitution (paper: S1)
};

/// Build the Fig 4 circuit: inputs pl[3:0], pr[5:0], k[5:0], clk; output
/// registers CL <= PL ^ Sbox(PR ^ k) and CR <= PR, where PL/PR are the
/// registered plaintext halves.  The ciphertext (cl, cr) observable at the
/// ports therefore lags the plaintext registers by one clock cycle.
AigCircuit make_des_dpa_circuit(const DesDpaOptions& opts = {});

/// Software reference of one encryption step: given the *registered*
/// plaintext (pl, pr) and key k, returns packed ciphertext (cl | cr<<4).
std::uint32_t des_dpa_reference(std::uint32_t pl, std::uint32_t pr,
                                std::uint32_t k, int sbox = 1);

}  // namespace secflow
