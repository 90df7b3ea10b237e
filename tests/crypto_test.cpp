#include <gtest/gtest.h>

#include "base/error.h"

#include "crypto/aes.h"
#include "crypto/des.h"
#include "liberty/builtin_lib.h"
#include "netlist/netlist_ops.h"
#include "sca/selection.h"
#include "synth/techmap.h"

namespace secflow {
namespace {

// --- DES S-boxes ------------------------------------------------------------

TEST(DesSbox, KnownValues) {
  // FIPS 46-3 spot checks: S1(0) = row0 col0 = 14; S1(63): row 3, col 15.
  EXPECT_EQ(des_sbox(1, 0), 14u);
  EXPECT_EQ(des_sbox(1, 63), 13u);
  // Input 0b000010 -> row 0, col 1 -> 4.
  EXPECT_EQ(des_sbox(1, 0b000010), 4u);
  // Input 0b100001 -> row 3 (b5=1, b0=1), col 0 -> 15.
  EXPECT_EQ(des_sbox(1, 0b100001), 15u);
  EXPECT_EQ(des_sbox(8, 0), 13u);
}

TEST(DesSbox, EveryRowIsAPermutation) {
  // DES S-box rows are permutations of 0..15 (a design criterion).
  for (int box = 1; box <= 8; ++box) {
    for (std::uint32_t row = 0; row < 4; ++row) {
      unsigned seen = 0;
      for (std::uint32_t col = 0; col < 16; ++col) {
        const std::uint32_t in = ((row & 2) << 4) | (col << 1) | (row & 1);
        seen |= 1u << des_sbox(box, in);
      }
      EXPECT_EQ(seen, 0xFFFFu) << "S" << box << " row " << row;
    }
  }
}

TEST(DesSbox, RejectsBadArguments) {
  EXPECT_THROW(des_sbox(0, 0), Error);
  EXPECT_THROW(des_sbox(9, 0), Error);
  EXPECT_THROW(des_sbox(1, 64), Error);
}

TEST(DesDpa, ReferenceAndSelectionAgree) {
  // The selection function inverts the reference encryption exactly.
  for (std::uint32_t pl = 0; pl < 16; pl += 5) {
    for (std::uint32_t pr = 0; pr < 64; pr += 11) {
      for (std::uint32_t k : {0u, 46u, 63u}) {
        const std::uint32_t ct = des_dpa_reference(pl, pr, k);
        const std::uint32_t cr = (ct >> 4) & 0x3F;
        EXPECT_EQ(cr, pr);
        for (int bit = 0; bit < 4; ++bit) {
          EXPECT_EQ(des_selection(bit)(ct, k), ((pl >> bit) & 1) != 0)
              << pl << ' ' << pr << ' ' << k << " bit " << bit;
        }
      }
    }
  }
}

TEST(DesDpa, WrongKeyPredictionIsWrongSomewhere) {
  // A wrong key guess must mispredict the PL bit for some ciphertext.
  const std::uint32_t k = 46;
  for (std::uint32_t g = 0; g < 64; ++g) {
    if (g == k) continue;
    bool differs = false;
    for (std::uint32_t pr = 0; pr < 64 && !differs; ++pr) {
      const std::uint32_t ct = des_dpa_reference(5, pr, k);
      for (int bit = 0; bit < 4; ++bit) {
        if (des_selection(bit)(ct, g) != (((5u >> bit) & 1) != 0)) {
          differs = true;
        }
      }
    }
    EXPECT_TRUE(differs) << "guess " << g;
  }
}

TEST(DesDpa, CircuitMatchesReferenceModel) {
  const auto lib = builtin_stdcell018();
  const Netlist rtl = technology_map(make_des_dpa_circuit(), lib);
  rtl.validate();
  FunctionalSim sim(rtl);
  for (std::uint32_t pl = 0; pl < 16; pl += 3) {
    for (std::uint32_t pr = 0; pr < 64; pr += 13) {
      for (std::uint32_t k : {0u, 46u, 63u}) {
        for (int b = 0; b < 4; ++b) {
          sim.set_input("pl_" + std::to_string(b), (pl >> b) & 1);
        }
        for (int b = 0; b < 6; ++b) {
          sim.set_input("pr_" + std::to_string(b), (pr >> b) & 1);
          sim.set_input("k_" + std::to_string(b), (k >> b) & 1);
        }
        sim.propagate();
        sim.step_clock();  // PL/PR load the plaintext
        sim.step_clock();  // CL/CR load the ciphertext
        std::uint32_t cl = 0, cr = 0;
        for (int b = 0; b < 4; ++b) {
          cl |= sim.output("cl_" + std::to_string(b)) << b;
        }
        for (int b = 0; b < 6; ++b) {
          cr |= sim.output("cr_" + std::to_string(b)) << b;
        }
        EXPECT_EQ(cl | (cr << 4), des_dpa_reference(pl, pr, k))
            << pl << ' ' << pr << ' ' << k;
      }
    }
  }
}

// --- AES S-box ----------------------------------------------------------------

TEST(AesSbox, KnownValues) {
  EXPECT_EQ(aes_sbox(0x00), 0x63);
  EXPECT_EQ(aes_sbox(0x01), 0x7c);
  EXPECT_EQ(aes_sbox(0x53), 0xed);
  EXPECT_EQ(aes_sbox(0xff), 0x16);
}

TEST(AesSbox, IsAPermutationWithNoFixedPoint) {
  unsigned long long seen[4] = {0, 0, 0, 0};
  for (unsigned v = 0; v < 256; ++v) {
    const std::uint8_t s = aes_sbox(static_cast<std::uint8_t>(v));
    EXPECT_NE(s, v) << "fixed point";  // AES S-box has none
    seen[s >> 6] |= 1ull << (s & 63);
  }
  for (auto w : seen) EXPECT_EQ(w, ~0ull);
}

TEST(AesSbox, CircuitMatchesTable) {
  const auto lib = builtin_stdcell018();
  const AigCircuit c = make_aes_sbox_array(1);
  // Check the AIG directly (mapping one box is exercised elsewhere).
  std::vector<bool> vals(c.aig.n_nodes(), false);
  for (unsigned v = 0; v < 256; v += 7) {
    for (const CircuitBit& in : c.inputs) {
      const int bit = in.name.back() - '0';
      vals[aig_node(in.lit)] = (v >> bit) & 1;
    }
    // Register next-state = S-box output.
    for (int bit = 0; bit < 8; ++bit) {
      for (const CircuitReg& r : c.regs) {
        if (r.name == "r0_" + std::to_string(bit)) {
          EXPECT_EQ(c.aig.eval(r.next, vals),
                    ((aes_sbox(static_cast<std::uint8_t>(v)) >> bit) & 1) != 0)
              << "v=" << v << " bit " << bit;
        }
      }
    }
  }
  (void)lib;
}

TEST(AesSbox, ArrayScales) {
  const AigCircuit one = make_aes_sbox_array(1);
  const AigCircuit four = make_aes_sbox_array(4);
  EXPECT_EQ(four.regs.size(), 4 * one.regs.size());
  EXPECT_GT(four.aig.n_ands(), 3 * one.aig.n_ands());
}

}  // namespace
}  // namespace secflow
